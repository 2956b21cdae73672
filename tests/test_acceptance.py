"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they execute.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from surfgrow import (MaterialParams, PeriodicStrip, ScenarioConfig,
                      integrate_characteristics, reconstruction_roundtrip_error,
                      run_fdm_shear, run_mu_sweep, run_non_normal, run_thermal,
                      trace_history_pathlines, pathline_grid_discrepancy,
                      reconstruct_reference)
from surfgrow.cli import main as cli_main
from surfgrow.kinematics import (advance_deformation_strip,
                                 advance_inverse_motion,
                                 deformation_from_inverse_motion,
                                 strip_row_curl, strip_velocity_gradient)
from surfgrow.tensors import det, identity, inverse

from references import pathline_arrays

LEVELS = (50, 100, 200, 400)


def report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num}: {name}: {detail}"


def nn_config(n_cells):
    return ScenarioConfig(kind="non_normal",
                          params=MaterialParams(G=1.0, mu=0.1, rho=1.0),
                          alpha=0.5, V_G=1.0, n_cells=n_cells, t_end=1.0)


@pytest.fixture(scope="module")
def nn_runs():
    runs = {}
    for n in LEVELS:
        start = time.perf_counter()
        res = run_non_normal(nn_config(n))
        runs[n] = (res, time.perf_counter() - start)
    return runs


@pytest.fixture(scope="module")
def fdm_runs():
    cfg = ScenarioConfig(kind="fdm_shear",
                         params=MaterialParams(G=1.0, mu=1.0, rho=1.0),
                         h=0.1, v0=1.0, L=1.0, H0=1.0, n_cells=50, t_end=2.0)
    runs = {}
    start = time.perf_counter()
    for n in (16, 50, 200):
        runs[n] = run_fdm_shear(replace(cfg, n_cells=n))
    return runs, time.perf_counter() - start


@pytest.fixture(scope="module")
def thermal_runs():
    cfg = ScenarioConfig(kind="thermal",
                         params=MaterialParams(G=1.0, mu=1.0, rho=1.0),
                         alpha=0.8, H0=0.5, V_G=1.0, n_cells=200, t_end=1.0)
    return {0.8: run_thermal(cfg), 1.0: run_thermal(replace(cfg, alpha=1.0))}


@pytest.fixture(scope="module")
def nn_pathlines(nn_runs):
    return {n: trace_history_pathlines(nn_runs[n][0], count=20)
            for n in (200, 400)}


def test_criterion_01_non_normal_oracle_convergence(nn_runs):
    errors = [float(nn_runs[n][0].oracle_errors["linf_F_e12"].max())
              for n in LEVELS]
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    slow = max(el for _, el in nn_runs.values())
    ok = (errors[LEVELS.index(200)] <= 1e-2
          and all(a > b for a, b in zip(errors, errors[1:]))
          and min(orders) >= 0.9
          and slow < 10.0)
    report(1, "sheared-attachment oracle",
           ok, f"Linf(F_e12)={[f'{e:.3e}' for e in errors]}, "
               f"orders={[f'{o:.2f}' for o in orders]}, max {slow:.1f}s/level")


def test_criterion_02_quasistatic_limit_sweep():
    cfg = nn_config(200)
    sweep = run_mu_sweep(cfg)
    values = [v for _, v in sweep]
    mu_min = sweep[-1][0]
    envelope = cfg.alpha * math.exp(-cfg.params.G * (cfg.t_end - 0.25 / cfg.V_G)
                                    / mu_min)
    ok = (all(a > b for a, b in zip(values, values[1:]))
          and values[-1] <= 1.1 * envelope)
    report(2, "viscosity sweep quasistatic limit", ok,
           f"|F_e12|(0.25, 1) = {[f'{v:.2e}' for v in values]}, "
           f"envelope*1.1 = {1.1 * envelope:.2e}")


def test_criterion_03_pressure_uniformity(nn_runs):
    dev = nn_runs[200][0].max_metric("max_p_dev")
    report(3, "pressure equals shear modulus", dev <= 1e-8, f"max|p-G|={dev:.2e}")


def test_criterion_04_fdm_shear_exact_steady_state(fdm_runs):
    runs, elapsed = fdm_runs
    worst = 0.0
    for res in runs.values():
        worst = max(worst, *(float(res.oracle_errors[k].max())
                             for k in ("linf_F_e12", "linf_v1",
                                       "linf_sigma12", "linf_sigma11")))
    res = runs[200]
    cfg = res.config
    H_err = abs(res.final.grid.height
                - (cfg.height0 + cfg.h * cfg.v0 / cfg.L * cfg.t_end))
    ok = worst <= 1e-10 and H_err <= 1e-14 and elapsed < 5.0
    report(4, "uniform-shear deposition steady state", ok,
           f"max field error={worst:.2e}, H error={H_err:.1e}, {elapsed:.1f}s")


def test_criterion_05_transport_characteristics_equivalence(nn_runs, nn_pathlines):
    # the 20 seeds (i + 1/2) H_end / 20 sit on cell centers where n % 40 ==
    # 20, and a pathline there takes its cell's own step, so its gap is
    # round-off; both resolutions must put them off the centers, or the
    # order would be a ratio of round-off
    assert all(n % 40 != 20 and len(nn_pathlines[n]) == 20 for n in (200, 400))
    gaps = {n: pathline_grid_discrepancy(nn_runs[n][0], nn_pathlines[n])
            for n in (200, 400)}
    order = math.log2(gaps[200] / gaps[400])
    ok = order >= 0.9
    report(5, "grid vs characteristic transport", ok,
           f"Linf gap {gaps[200]:.3e} -> {gaps[400]:.3e}, order {order:.2f}")


def _cellular_velocity(strip, amplitude=0.05):
    X1, X2 = strip.centers
    v1 = amplitude * np.pi * np.cos(np.pi * X2 / strip.height) \
        * np.cos(2 * np.pi * X1 / strip.length) / strip.height
    v2 = 2 * np.pi * amplitude * np.sin(np.pi * X2 / strip.height) \
        * np.sin(2 * np.pi * X1 / strip.length) / strip.length
    return np.stack([v1, v2], axis=-1)


def _strip_two_routes(n, velocity, T=0.3):
    strip = PeriodicStrip(n1=n, n2=n)
    v = velocity(strip)
    L = strip_velocity_gradient(v, strip)
    steps = int(round(T * n / 0.2))
    dt = T / steps
    F = identity((n, n))
    q = np.zeros((n, n, 2))
    for _ in range(steps):
        F = advance_deformation_strip(F, v, L, strip, dt)
        q = advance_inverse_motion(q, v, strip, dt)
    return strip, F, deformation_from_inverse_motion(q, strip)


def test_criterion_06_inverse_motion_equivalence():
    gaps = []
    for n in (32, 64, 128):
        _, F, F_chi = _strip_two_routes(n, _cellular_velocity)
        gaps.append(float(np.max(np.abs(F - F_chi))))
    order = math.log2(gaps[-2] / gaps[-1])

    # plane shear: the two routes are algebraically identical discretizations
    def shear(strip):
        _, X2 = strip.centers
        return np.stack([0.3 * np.sin(np.pi * X2 / strip.height),
                         np.zeros_like(X2)], axis=-1)

    _, Fs, Fs_chi = _strip_two_routes(64, shear)
    shear_gap = float(np.max(np.abs(Fs - Fs_chi)))
    ok = (all(a > b for a, b in zip(gaps, gaps[1:])) and order >= 0.9
          and shear_gap <= 1e-11)
    report(6, "inverse-motion route equivalence", ok,
           f"gaps={[f'{g:.3e}' for g in gaps]}, order {order:.2f}, "
           f"plane-shear gap {shear_gap:.1e}")


def test_criterion_07_determinant_transport(nn_runs, nn_pathlines):
    drift200 = max(float(np.abs(det(pathline_arrays(pl)[1]) - 1.0).max())
                   for pl in nn_pathlines[200])

    # halving dt must cut the drift 4x (2nd-order integrator); the growth
    # history's velocity gradients are strictly upper triangular, which
    # preserves the determinant exactly, so the ratio is demonstrated on a
    # divergence-free field with a non-nilpotent gradient
    def sampler(x, t):
        return (np.array([math.sin(x[1]), math.sin(x[0])]),
                np.array([[0.0, math.cos(x[1])], [math.cos(x[0]), 0.0]]))

    drifts = []
    for dt in (0.02, 0.01):
        pl = integrate_characteristics(sampler, np.array([0.3, 0.7]), 0.0, 2.0,
                                       dt, np.eye(2))
        drifts.append(float(np.abs(det(pl.F_e) - 1.0).max()))
    ratio = drifts[0] / drifts[1]
    ok = drift200 <= 1e-6 and ratio >= 3.0
    report(7, "determinant transport", ok,
           f"growth pathline |det-1| = {drift200:.2e}; synthetic drift "
           f"{drifts[0]:.2e} -> {drifts[1]:.2e} (ratio {ratio:.2f})")


def test_criterion_08_reconstruction_roundtrip(nn_runs, fdm_runs):
    e_nn = reconstruction_roundtrip_error(nn_runs[200][0])
    e_fdm = reconstruction_roundtrip_error(fdm_runs[0][50])
    ok = e_nn <= 1e-8 and e_fdm <= 1e-8
    report(8, "reference reconstruction roundtrip", ok,
           f"rel defect: growth {e_nn:.2e}, deposition {e_fdm:.2e}")


def test_criterion_09_jump_residuals(nn_runs, fdm_runs, thermal_runs):
    worst_mass = worst_mom = 0.0
    for res in (nn_runs[200][0], fdm_runs[0][200], thermal_runs[0.8]):
        worst_mass = max(worst_mass, res.max_metric("mass_residual"))
        worst_mom = max(worst_mom, res.max_metric("momentum_residual"))
    ok = worst_mass <= 1e-8 and worst_mom <= 1e-8
    report(9, "growth-surface jump residuals", ok,
           f"mass {worst_mass:.2e}, momentum {worst_mom:.2e}")


def test_criterion_10_thermal_properties(thermal_runs):
    res = thermal_runs[0.8]
    traction = res.max_metric("traction_residual")
    base = max(abs(float(rec.v_nodes[0])) for rec in res.history)

    trivial = thermal_runs[1.0]
    trivial_dev = max(max(float(np.abs(rec.F_e - np.eye(2)).max()),
                          float(np.abs(rec.v_nodes).max()))
                      for rec in trivial.history)

    frames = reconstruct_reference(res.history)
    cfg = res.config
    grown = res.final.grid.centers > cfg.height0 + 0.2 * (
        res.final.grid.height - cfg.height0)
    relax_dev = float(np.abs(frames[-1].F_relax[grown] - np.eye(2)).max())
    ok = (traction <= 1e-8 and base == 0.0 and trivial_dev <= 1e-12
          and relax_dev >= 0.5 * abs(cfg.alpha - 1.0))
    report(10, "thermal-mismatch deposition properties", ok,
           f"traction {traction:.2e}, base {base:.1e}, alpha=1 dev "
           f"{trivial_dev:.2e}, relax dev {relax_dev:.2f}")


def test_criterion_11_determinism(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert cli_main(["verify", "fdm_shear", "--out", str(out)]) == 0
        outs.append(out)
    names = sorted(p.name for p in outs[0].iterdir())
    identical = names == sorted(p.name for p in outs[1].iterdir()) and all(
        (outs[0] / n).read_bytes() == (outs[1] / n).read_bytes() for n in names)
    report(11, "byte-identical verification reruns", identical,
           f"{len(names)} files compared")


def test_compatibility_preservation_property():
    # not a numbered criterion: transported deformation stays a gradient
    # field.  On a plane shear the discrete row-curl of F is exactly zero;
    # on a recirculating flow the row-curl of F^{-1} (a spatial gradient
    # for any compatible motion) converges to zero under refinement.
    def shear(strip):
        _, X2 = strip.centers
        return np.stack([0.3 * np.sin(np.pi * X2 / strip.height),
                         np.zeros_like(X2)], axis=-1)

    strip, F, _ = _strip_two_routes(32, shear)
    curl_shear = float(np.abs(strip_row_curl(F, strip)).max())
    assert curl_shear <= 1e-12

    curls = []
    for n in (32, 64, 128):
        strip, F, _ = _strip_two_routes(n, _cellular_velocity)
        curls.append(float(np.abs(strip_row_curl(inverse(F), strip)).max()))
    order = math.log2(curls[-2] / curls[-1])
    assert all(a > b for a, b in zip(curls, curls[1:])) and order >= 0.9
