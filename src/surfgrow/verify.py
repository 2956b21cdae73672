"""Built-in oracle/property verification tables for the bundled scenarios.

Each ``verify_*`` function runs its scenario at pinned parameters, checks
every observable against its pinned tolerance, and returns the rows plus
the run to serialize.  The CLI prints these tables; the test suite
asserts on them.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .constitutive import MaterialParams
from .errors import UsageError
from .kinematics import replay_reference
from .scenarios import (RunResult, ScenarioConfig, convergence_study,
                        run_fdm_shear, run_mu_sweep, run_non_normal,
                        run_thermal, trace_history_pathlines)


@dataclass
class CheckRow:
    """One verified observable: value against threshold.

    ``direction`` is "max" when the value must stay at or below the
    threshold and "min" when it must reach at least the threshold.
    """

    name: str
    value: float
    threshold: float
    direction: str = "max"

    @property
    def ok(self) -> bool:
        if self.direction == "max":
            return self.value <= self.threshold
        return self.value >= self.threshold


def default_config(kind: str) -> ScenarioConfig:
    """Canonical nondimensional setups used by ``verify``."""
    if kind == "non_normal":
        return ScenarioConfig(kind=kind, params=MaterialParams(G=1.0, mu=0.1, rho=1.0),
                              alpha=0.5, V_G=1.0, n_cells=200, t_end=1.0)
    if kind == "fdm_shear":
        return ScenarioConfig(kind=kind, params=MaterialParams(G=1.0, mu=1.0, rho=1.0),
                              h=0.1, v0=1.0, L=1.0, H0=1.0, n_cells=200, t_end=2.0)
    if kind == "thermal":
        return ScenarioConfig(kind=kind, params=MaterialParams(G=1.0, mu=1.0, rho=1.0),
                              alpha=0.8, V_G=1.0, H0=0.5, n_cells=200, t_end=1.0)
    raise UsageError(f"unknown scenario {kind!r}; choose from non_normal, "
                     f"fdm_shear, thermal")


def _residual_rows(result: RunResult) -> list[CheckRow]:
    return [
        CheckRow("jump_mass_residual_max", result.max_metric("mass_residual"), 1e-8),
        CheckRow("jump_momentum_residual_max",
                 result.max_metric("momentum_residual"), 1e-8),
        CheckRow("traction_residual_max", result.max_metric("traction_residual"), 1e-8),
    ]


def verify_non_normal(levels=(50, 100, 200, 400)):
    """Oracle convergence, pressure uniformity, and the quasistatic sweep."""
    cfg = default_config("non_normal")
    start = time.perf_counter()
    rows_conv = convergence_study(cfg, levels)
    elapsed = time.perf_counter() - start
    errors = [r.linf for r in rows_conv]
    orders = [r.order for r in rows_conv if r.order is not None]
    ratio_worst = max(e2 / e1 for e1, e2 in zip(errors, errors[1:]))

    result = run_non_normal(cfg)
    result.pathlines = trace_history_pathlines(result)

    sweep = run_mu_sweep(cfg)
    sweep_vals = [v for _, v in sweep]
    mu_min = sweep[-1][0]
    envelope = cfg.alpha * math.exp(-cfg.params.G * (cfg.t_end - 0.25 / cfg.V_G) / mu_min)
    sweep_ratio = max(b / a if a > 0 else np.inf
                      for a, b in zip(sweep_vals, sweep_vals[1:]))

    rows = [CheckRow(f"linf_F_e12[n={r.n_cells}]", r.linf,
                     1e-2 if r.n_cells >= 200 else 1.0) for r in rows_conv]
    rows += [
        CheckRow("error_ratio_under_refinement", ratio_worst, 1.0),
        CheckRow("observed_order_min", min(orders), 0.9, direction="min"),
        CheckRow("runtime_per_level_s", elapsed / len(levels), 10.0),
        CheckRow("pressure_uniformity_max|p-G|", result.max_metric("max_p_dev"), 1e-8),
        CheckRow("det_drift_max", result.max_metric("det_drift"), 1e-6),
        CheckRow("mu_sweep_monotone_ratio", sweep_ratio, 1.0),
        CheckRow("mu_sweep_min_value", sweep_vals[-1], 1.1 * envelope),
    ]
    rows += _residual_rows(result)
    return rows, result


def verify_fdm_shear(resolutions=(16, 50, 200)):
    """Scheme-exact steady state at every resolution."""
    rows: list[CheckRow] = []
    result = None
    start = time.perf_counter()
    for n in resolutions:
        cfg = replace(default_config("fdm_shear"), n_cells=int(n))
        result = run_fdm_shear(cfg)
        worst = max(float(np.max(result.oracle_errors[k]))
                    for k in ("linf_F_e12", "linf_v1", "linf_sigma12",
                              "linf_sigma11"))
        rows.append(CheckRow(f"steady_state_error[n={n}]", worst, 1e-10))
    elapsed = time.perf_counter() - start

    cfg = result.config
    H_ref = cfg.height0 + (cfg.h * cfg.v0 / cfg.L) * cfg.t_end
    rows.append(CheckRow("H_end_error", abs(result.final.grid.height - H_ref),
                         8 * np.finfo(float).eps * max(1.0, H_ref)))
    # each level's cells against the same cells at the next level; only
    # F_e12 evolves, the other components are per-cell constants
    drift = max(float(np.max(np.abs(a.F_e12 - b.F_e12[:len(a.F_e12)])))
                for a, b in zip(result.history, result.history[1:]))
    rows.append(CheckRow("steady_step_to_step_drift", drift, 1e-12))
    rows.append(CheckRow("runtime_s", elapsed, 5.0))
    rows += _residual_rows(result)
    return rows, result


def verify_thermal(alpha: float = 0.8):
    """Property checks: traction-free top, clamped base, trivial alpha=1 case,
    and a non-identity recovered relaxed shape in the grown region."""
    cfg = replace(default_config("thermal"), alpha=alpha)
    result = run_thermal(cfg)
    rows = _residual_rows(result)
    rows.append(CheckRow("base_velocity_abs",
                         max(abs(float(rec.v_nodes[0])) for rec in result.history),
                         0.0))

    trivial = run_thermal(replace(cfg, alpha=1.0))
    dev = 0.0
    for rec in trivial.history:
        F11, F12, F21, F22 = rec.F_e_columns()
        dev = max(dev, *(float(np.max(np.abs(x))) for x in (F11 - 1.0, F12, F21, F22 - 1.0)),
                  float(np.max(np.abs(rec.v_nodes))))
    rows.append(CheckRow("alpha1_trivial_deviation", dev, 1e-12))

    # only the last frame is read: keep one level of the replay at a time
    final, _ = deque(replay_reference(result.history), maxlen=1)[0]
    grown = result.final.grid.centers > cfg.height0 + 0.2 * (
        result.final.grid.height - cfg.height0)
    relax_dev = float(np.max(np.abs(final.F_relax[grown] - np.eye(2))))
    rows.append(CheckRow("relaxed_shape_dev_in_grown_region", relax_dev,
                         0.5 * abs(alpha - 1.0), direction="min"))
    detF_dev = float(np.max(np.abs(final.F[..., 0, 0] * final.F[..., 1, 1]
                                   - final.F[..., 0, 1] * final.F[..., 1, 0] - 1.0)))
    rows.append(CheckRow("det_F_reconstructed_dev", detF_dev, 1e-8))
    return rows, result


def verify_scenario(kind: str):
    if kind == "non_normal":
        return verify_non_normal()
    if kind == "fdm_shear":
        return verify_fdm_shear()
    if kind == "thermal":
        return verify_thermal()
    raise UsageError(f"unknown scenario {kind!r}; choose from non_normal, "
                     f"fdm_shear, thermal")


def format_table(rows) -> str:
    width = max(len(r.name) for r in rows)
    lines = []
    for r in rows:
        rel = "<=" if r.direction == "max" else ">="
        lines.append(f"{'PASS' if r.ok else 'FAIL'}  {r.name:<{width}}  "
                     f"{r.value:.6e} {rel} {r.threshold:.6e}")
    return "\n".join(lines)
