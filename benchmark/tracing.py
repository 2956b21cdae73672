"""Layer spans recorded from outside surfgrow.

``LayerTrace`` replaces functions in the surfgrow modules with timing
wrappers for the duration of a ``with`` block and puts the originals back on
exit.  It wraps the functions that ``surfgrow.scenarios`` and
``surfgrow.kinematics`` import by name, the entry points the benchmark
calls, and a few private helpers that hold whole phases (the oracle, the
step metrics, the kinematics transport kernel).  Nothing inside the
program is edited; a wrapper sees only calls made through the module
attribute it replaced.

Each wrapper records one span: its duration, its self time (duration minus
the time of spans it caused) and a call.  A span nested in a span of the
same name adds self time only, so ``advance_F_e_grid`` calling the
transport kernel counts as one transport call.  A wrapped name that the
program no longer has is skipped and listed in ``missing``, and the layer
then reads zero.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

import surfgrow.config
import surfgrow.grids
import surfgrow.kinematics
import surfgrow.output
import surfgrow.scenarios

MODULES = {"scenarios": surfgrow.scenarios, "kinematics": surfgrow.kinematics,
           "output": surfgrow.output, "config": surfgrow.config,
           "grids": surfgrow.grids}

# (owner, attribute, span).  An owner is a module name or "module.Class".
SPANS = (
    ("scenarios", "run_scenario", "scenarios.run"),
    ("scenarios", "run_non_normal", "scenarios.run"),
    ("scenarios", "run_mu_sweep", "scenarios.run"),
    ("scenarios", "_attach_oracle_errors_non_normal", "scenarios.oracle"),
    ("scenarios", "analytic_non_normal", "scenarios.oracle"),
    ("scenarios", "_step_metrics", "scenarios.metrics"),
    ("scenarios", "trace_history_pathlines", "scenarios.trace"),
    ("scenarios.HistoryVelocitySampler", "__call__", "scenarios.sampler"),
    ("scenarios", "pathline_grid_discrepancy", "scenarios.discrepancy"),
    ("scenarios", "reconstruction_roundtrip_error", "scenarios.roundtrip"),
    ("scenarios", "quasistatic_momentum_solve_1d", "balance.solve"),
    ("scenarios", "density_update", "balance.density"),
    ("scenarios", "jump_residuals", "balance.jump"),
    ("scenarios", "growth_traction", "balance.jump"),
    ("scenarios", "boundary_normal_velocity", "balance.jump"),
    ("scenarios", "advance_domain", "balance.domain"),
    ("scenarios", "total_stress", "constitutive.stress"),
    ("scenarios", "attach_elastic_deformation", "constitutive.stress"),
    ("scenarios", "Grid1D", "grids.grid"),
    ("scenarios", "regrid_fields", "grids.regrid"),
    ("scenarios", "interp_columns", "grids.interp"),
    ("grids.StepRecord", "field_state", "grids.field_state"),
    ("scenarios", "advance_F_e_grid", "kinematics.transport"),
    ("scenarios", "integrate_characteristics", "kinematics.characteristics"),
    ("scenarios", "reconstruct_reference", "kinematics.reconstruct"),
    ("scenarios", "det", "tensors"),
    ("scenarios", "identity", "tensors"),
    ("kinematics", "_transport_step_1d", "kinematics.transport"),
    ("kinematics", "regrid_fields", "grids.regrid"),
    ("kinematics", "identity", "tensors"),
    ("kinematics", "inverse", "tensors"),
    ("kinematics", "require_finite", "tensors"),
    ("output", "write_fields", "output.write"),
    ("config", "parse_config", "config.parse"),
)

# Spans whose self time is the march loop itself rather than a named phase.
LOOP_SPANS = ("scenarios.run",)

# Per-layer metrics that count work; two traced operations on the same
# inputs must give them exactly the same value.
COUNTS = ("balance.solve_calls", "balance.density_calls", "kinematics.transport_calls",
          "grids.regrid_calls", "scenarios.steps", "scenarios.cell_steps",
          "scenarios.sampler_calls", "scenarios.history_mb", "kinematics.frames_mb",
          "output.bytes", "output.files")


def _history_mb(result) -> float:
    """Computed from array sizes, not measured."""
    total = 0
    for rec in result.history:
        total += sum(a.nbytes for a in (rec.v_nodes, rec.grad_v, rec.F_e, rec.p, rec.rho))
    return total / 1e6


class LayerTrace:
    """Context manager that wraps surfgrow functions and collects spans per op."""

    def __init__(self):
        self.missing = []
        self._installed = []
        self._stack = []
        self._depth = defaultdict(int)
        self.inclusive = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.facts = defaultdict(float)

    def reset(self) -> None:
        """Start the tallies of a new operation."""
        for tally in (self.inclusive, self.self_time, self.calls, self.facts):
            tally.clear()

    # -- installation -----------------------------------------------------

    def _owner(self, path: str):
        mod, _, cls = path.partition(".")
        owner = MODULES[mod]
        return getattr(owner, cls, None) if cls else owner

    def __enter__(self):
        for path, attr, span in SPANS:
            owner = self._owner(path)
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{path}.{attr}")
                continue
            self._installed.append((owner, attr, original))
            setattr(owner, attr, self._wrap(span, original, self._hook(path, attr)))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every wrapped attribute is the program's original again."""
        return all(vars(owner).get(attr) is original
                   for owner, attr, original in self._installed)

    def _hook(self, path: str, attr: str):
        facts = self.facts

        def solve(args, out):
            facts["system_residual_max"] = max(facts["system_residual_max"],
                                               float(out.system_residual))

        def density(args, out):
            facts["density_noop"] += float(np.array_equal(out, args[0]))

        def run(args, out):
            steps = out.config.resolve_dt()[1]
            facts["steps"] += steps
            facts["cell_steps"] += steps * out.config.n_cells
            facts["history_mb"] = max(facts["history_mb"], _history_mb(out))

        def frames(args, out):
            mb = sum(f.F.nbytes + f.F_relax.nbytes for f in out) / 1e6
            facts["frames_mb"] = max(facts["frames_mb"], mb)

        def written(args, out):
            facts["output_files"] += len(out.files)
            facts["output_bytes"] += sum(f["bytes"] for f in out.files)

        return {("scenarios", "quasistatic_momentum_solve_1d"): solve,
                ("scenarios", "density_update"): density,
                ("scenarios", "run_non_normal"): run,
                ("scenarios", "reconstruct_reference"): frames,
                ("output", "write_fields"): written}.get((path, attr))

    def _wrap(self, span: str, fn, hook):
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            depth[span] += 1
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[span] -= 1
                if stack:
                    stack[-1][0] += elapsed
                self.self_time[span] += elapsed - children[0]
                if depth[span] == 0:
                    self.inclusive[span] += elapsed
                    self.calls[span] += 1
            if hook is not None:
                hook_start = clock()
                hook(args, out)
                if stack:  # keep inspection out of the caller's self time
                    stack[-1][0] += clock() - hook_start
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- per-operation metrics ---------------------------------------------

    def op_metrics(self, op_seconds: float) -> dict:
        inc, calls, facts = self.inclusive, self.calls, self.facts
        density_calls = calls["balance.density"]
        loop_self = sum(self.self_time[s] for s in LOOP_SPANS)
        named = sum(self.self_time.values()) - loop_self
        run_s = inc["scenarios.run"]
        return {
            "balance.solve_s": inc["balance.solve"],
            "balance.solve_calls": calls["balance.solve"],
            "balance.system_residual_max": facts["system_residual_max"],
            "balance.density_s": inc["balance.density"],
            "balance.density_calls": density_calls,
            "balance.density_noop_frac": (facts["density_noop"] / density_calls
                                          if density_calls else 0.0),
            "balance.jump_s": inc["balance.jump"],
            "balance.domain_s": inc["balance.domain"],
            "kinematics.transport_s": inc["kinematics.transport"],
            "kinematics.transport_calls": calls["kinematics.transport"],
            "kinematics.characteristics_s": inc["kinematics.characteristics"],
            "kinematics.reconstruct_s": inc["kinematics.reconstruct"],
            "kinematics.frames_mb": facts["frames_mb"],
            "grids.regrid_s": inc["grids.regrid"],
            "grids.regrid_calls": calls["grids.regrid"],
            "grids.field_state_s": inc["grids.field_state"],
            "grids.interp_s": inc["grids.interp"],
            "grids.grid_s": inc["grids.grid"],
            "constitutive.stress_s": inc["constitutive.stress"],
            "tensors.s": inc["tensors"],
            "scenarios.run_s": run_s,
            "scenarios.self_s": loop_self,
            "scenarios.oracle_s": inc["scenarios.oracle"],
            "scenarios.metrics_s": inc["scenarios.metrics"],
            "scenarios.steps": int(facts["steps"]),
            "scenarios.cell_steps": int(facts["cell_steps"]),
            "scenarios.cell_steps_per_s": facts["cell_steps"] / run_s if run_s else 0.0,
            "scenarios.history_mb": facts["history_mb"],
            "scenarios.trace_s": inc["scenarios.trace"],
            "scenarios.sampler_calls": calls["scenarios.sampler"],
            "scenarios.discrepancy_s": inc["scenarios.discrepancy"],
            "scenarios.roundtrip_s": inc["scenarios.roundtrip"],
            "output.write_s": inc["output.write"],
            "output.bytes": int(facts["output_bytes"]),
            "output.files": int(facts["output_files"]),
            "config.parse_s": inc["config.parse"],
            "trace.coverage": named / op_seconds,
        }


def median_metrics(per_op: list[dict]) -> dict:
    return {k: (statistics.median_low if k in COUNTS else statistics.median)(
        [m[k] for m in per_op]) for k in per_op[0]}


def counts_repeat(per_op: list[dict]) -> list[str]:
    """Counts that differ between traced operations on the same inputs."""
    return [k for k in COUNTS if len({m[k] for m in per_op}) > 1]
