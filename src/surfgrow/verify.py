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
from .kinematics import replay_columns
from .scenarios import (RunResult, ScenarioConfig, convergence_runs, run_mu_sweep,
                        run_thermal, trace_history_pathlines)
from .tensors import det, identity


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


def verify_non_normal():
    """Oracle convergence, pressure uniformity, and the quasistatic sweep."""
    cfg = default_config("non_normal")
    levels = (50, 100, 200, 400)
    start = time.perf_counter()
    rows_conv = []
    for row, res in convergence_runs(cfg, levels):
        rows_conv.append(row)
        if row.n_cells == cfg.n_cells:  # the study's run at cfg is the one reported
            result = res
    elapsed = time.perf_counter() - start
    errors = [r.linf for r in rows_conv]
    orders = [r.order for r in rows_conv if r.order is not None]
    ratio_worst = max(e2 / e1 for e1, e2 in zip(errors, errors[1:]))

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
    start = time.perf_counter()
    for row, result in convergence_runs(default_config("fdm_shear"), resolutions):
        rows.append(CheckRow(f"steady_state_error[n={row.n_cells}]", row.linf, 1e-10))
    elapsed = time.perf_counter() - start

    cfg = result.config
    H_ref = cfg.height0 + (cfg.h * cfg.v0 / cfg.L) * cfg.t_end
    rows.append(CheckRow("H_end_error", abs(result.final.grid.height - H_ref),
                         8 * np.finfo(float).eps * max(1.0, H_ref)))
    # each level's cells against the same cells at the next level; only
    # F_e12 evolves, the other components are per-cell constants
    history = result.history
    drift, F12 = 0.0, history.columns(0, 0)
    for j in range(1, len(history)):
        F12_prev, F12 = F12, history.columns(j, 0)
        drift = max(drift, float(np.max(np.abs(F12_prev - F12[:len(F12_prev)]))))
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
    history = result.history
    base = max(abs(float(history.v_nodes(j)[0])) for j in range(len(history)))
    rows.append(CheckRow("base_velocity_abs", base, 0.0))

    trivial = run_thermal(replace(cfg, alpha=1.0)).history
    dev = 0.0
    for j in range(len(trivial)):
        F11, F12, F21, F22 = trivial.F_e_columns(j)
        dev = max(dev, *(float(np.max(np.abs(x))) for x in (F11 - 1.0, F12, F21, F22 - 1.0)),
                  float(np.max(np.abs(trivial.v_nodes(j)))))
    rows.append(CheckRow("alpha1_trivial_deviation", dev, 1e-12))

    # only the last level is read: keep one level of the replay at a time
    f12, F_relax, _, _ = deque(replay_columns(result.history), maxlen=1)[0]
    grown = result.final.grid.centers > cfg.height0 + 0.2 * (
        result.final.grid.height - cfg.height0)
    relax_dev = max(float(np.max(np.abs(x[grown] - e)))
                    for x, e in zip(F_relax, (1.0, 0.0, 1.0)))
    rows.append(CheckRow("relaxed_shape_dev_in_grown_region", relax_dev,
                         0.5 * abs(alpha - 1.0), direction="min"))
    F = identity((len(f12),))
    F[:, 0, 1] = f12
    detF_dev = float(np.max(np.abs(det(F) - 1.0)))
    rows.append(CheckRow("det_F_reconstructed_dev", detF_dev, 1e-8))
    return rows, result


def verify_scenario(kind: str):
    default_config(kind)  # refuses an unknown kind
    return {"non_normal": verify_non_normal, "fdm_shear": verify_fdm_shear,
            "thermal": verify_thermal}[kind]()


def format_table(rows) -> str:
    width = max(len(r.name) for r in rows)
    lines = []
    for r in rows:
        rel = "<=" if r.direction == "max" else ">="
        lines.append(f"{'PASS' if r.ok else 'FAIL'}  {r.name:<{width}}  "
                     f"{r.value:.6e} {rel} {r.threshold:.6e}")
    return "\n".join(lines)
