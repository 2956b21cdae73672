import gc
import math
import re
import tracemalloc
import weakref
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import surfgrow.scenarios
from surfgrow import (History, IncompatibleAnsatz, MaterialParams, NotReduced,
                      OutOfBody, ScenarioConfig, SingularSystem,
                      SingularTensor,
                      ValidationError, analytic_non_normal, convergence_study,
                      integrate_characteristics, reconstruct_reference,
                      reconstruction_roundtrip_error,
                      run_fdm_shear, run_mu_sweep, run_non_normal, run_scenario,
                      run_thermal, trace_history_pathlines,
                      pathline_grid_discrepancy, write_fields)
from surfgrow.balance import (SideState, advance_domain,
                              boundary_normal_velocity, growth_traction,
                              jump_residuals, normal_pressure, require_reduced)
from surfgrow.constitutive import AttachmentSpec, attach_elastic_deformation, total_stress
from surfgrow.grids import Grid1D, StepRecord
from surfgrow.output import METRIC_FIELDS
from surfgrow.scenarios import (ANSATZ_RESIDUAL_LIMIT, FRONT_ULPS, KINDS, _score_steady,
                                level_v1, shear_by_age)
from surfgrow.tensors import det, inverse
from surfgrow.verify import (_residual_rows, _rest_deviation, default_config,
                             verify_scenario)

from references import (BLOCK_CELLS, ROUNDOFF, block_bounds, block_columns, cell_S22,
                        first_integral, hand_pathline, level_speed, pathline_arrays,
                        reduced_step_1d, replay_columns, solve_residuals,
                        velocity_tolerance)


def interp_columns(xq, xp, values):
    """Each trailing component of ``values`` interpolated at ``xq`` by its
    own ``np.interp`` call, end values held: the reference for a level's
    fields at a point."""
    flat = np.asarray(values, dtype=float).reshape(len(values), -1)
    cols = [np.interp(xq, xp, flat[:, j]) for j in range(flat.shape[1])]
    return np.stack(cols, axis=1).reshape((len(xq),) + np.shape(values)[1:])


def nn_config(**kw):
    base = dict(kind="non_normal", params=MaterialParams(G=1.0, mu=0.1, rho=1.0),
                alpha=0.5, V_G=1.0, n_cells=64, t_end=1.0)
    base.update(kw)
    return ScenarioConfig(**base)


def fdm_config(**kw):
    base = dict(kind="fdm_shear", params=MaterialParams(G=1.0, mu=1.0, rho=1.0),
                h=0.1, v0=1.0, L=1.0, H0=1.0, n_cells=32, t_end=2.0)
    base.update(kw)
    return ScenarioConfig(**base)


def thermal_config(**kw):
    base = dict(kind="thermal", params=MaterialParams(G=1.0, mu=1.0, rho=1.0),
                alpha=0.8, H0=0.5, V_G=1.0, n_cells=32, t_end=1.0)
    base.update(kw)
    return ScenarioConfig(**base)


def _traction(cfg, v_surf):
    """The top traction that arriving material sets on a body whose top
    moves at ``v_surf``: ``M (v_a - v) + t_b`` with ``v_a = (v0, 0)`` for
    ``fdm_shear``, or ``t_b`` where it attaches at the body's velocity; no
    kind has an ambient traction, ``t_b = 0``."""
    if cfg.kind != "fdm_shear":
        return np.zeros(2)
    return growth_traction(cfg.mass_rate, np.array([cfg.v0, 0.0]), np.array([v_surf, 0.0]),
                           np.zeros(2))


def _level_solve(cfg, F12, F_e0, dx):
    """One level's solve as the march runs it: the first integral under the
    traction on a body at rest, its running sum from the clamped base, and
    the residuals of the level against the traction its own top velocity
    sets.  Returns ``(g, v_nodes, system_residual, traction_residual)``."""
    F22 = require_reduced(F_e0)[:, 1, 1]
    g = first_integral(F12, F22, _traction(cfg, 0.0)[0], cfg.params)
    v_nodes = np.concatenate([[0.0], (dx * g).cumsum()])
    tau = np.array([_traction(cfg, v_nodes[-1])], dtype=float)
    system, residual = solve_residuals(F12, g[None], [len(F12)], v_nodes[None],
                                       cell_S22(F22), F22, tau, cfg.params, dx)
    return g, v_nodes, float(system[0]), float(residual[0])


def test_config_budget_bounds_cells_times_steps():
    from surfgrow.scenarios import MAX_CELL_STEPS
    # just within and just beyond: (n_steps + 1) n_cells against the budget
    n = 64
    steps = MAX_CELL_STEPS // n - 1
    ok = nn_config(n_cells=n, dt=1.0 / steps, params=MaterialParams(G=1.0, mu=1.0))
    assert (ok.resolve_dt()[1] + 1) * n == MAX_CELL_STEPS
    with pytest.raises(ValidationError, match="budget"):
        nn_config(n_cells=n, dt=1.0 / (steps + 1), params=MaterialParams(G=1.0, mu=1.0))
    with pytest.raises(ValidationError, match="budget"):
        nn_config(n_cells=16, params=MaterialParams(G=1.0, mu=1e-300))


def test_config_invariants():
    with pytest.raises(ValidationError):
        ScenarioConfig(kind="bogus")
    with pytest.raises(ValidationError):
        nn_config(t_end=0.0)
    with pytest.raises(ValidationError):
        nn_config(n_cells=8)
    with pytest.raises(ValidationError):
        fdm_config(H0=0.0)
    with pytest.raises(ValidationError):
        thermal_config(alpha=0.0)
    with pytest.raises(ValidationError):
        nn_config(dt=-0.1)
    # fdm_shear geometry: L = 0 divided by zero in the mass rate, v0 < 0
    # silently shrank the body
    for field, value in (("h", 0.0), ("h", -0.1), ("L", 0.0), ("L", -1.0),
                         ("v0", -1.0)):
        with pytest.raises(ValidationError, match=f"^{field} must"):
            fdm_config(**{field: value})
    # non-finite values: t_end = inf overflowed in resolve_dt, mu = inf
    # wrote NaN momentum residuals, V_G = inf failed only at step 0
    for value in (float("inf"), float("-inf"), float("nan")):
        for field in ("alpha", "H0", "V_G", "h", "v0", "L", "dt", "t_end"):
            for make in (nn_config, fdm_config):
                with pytest.raises(ValidationError, match=f"^{field} must be finite"):
                    make(**{field: value})
        for field in ("G", "mu", "rho"):
            with pytest.raises(ValidationError, match=f"^{field} must be finite"):
                MaterialParams(**{field: value})


@pytest.mark.parametrize("sweep", [(), (0.1, 0.0), (0.1, float("nan")),
                                   (0.1, -0.01), (0.1, float("inf"))])
def test_config_rejects_bad_mu_sweep(sweep):
    # each used to be accepted: () gave an empty sweep, and the sweep
    # marched its 0.1 member before reaching the bad one
    with pytest.raises(ValidationError, match="^mu_values"):
        run_mu_sweep(nn_config(), mu_values=sweep)


def test_every_float_field_refuses_non_finite_and_every_int_field_a_non_integer():
    # by the dataclasses' own field lists, so a field added later is covered
    # with no edit here; a field of a type not listed fails the lookup
    types = {"float": "float", "float | None": "float", "int": "int"}
    refused = {"float": ((float("inf"), float("nan")), "must be finite"),
               "int": ((2.5, True), "must be an integer")}
    checked = Counter()
    for cls, make in ((ScenarioConfig, nn_config), (MaterialParams, MaterialParams)):
        for f in fields(cls):
            if f.name in ("kind", "params"):
                continue
            kind = types[f.type]
            values, message = refused[kind]
            for value in values:
                with pytest.raises(ValidationError, match=f"^{f.name} {message}"):
                    make(**{f.name: value})
            checked[kind] += 1
    assert checked["float"] and checked["int"]


@pytest.mark.parametrize("cls, name, optional", [
    (cls, f.name, f.type == "float | None") for cls in (ScenarioConfig, MaterialParams)
    for f in fields(cls) if f.type in ("float", "float | None")])
def test_a_float_field_refuses_none_unless_typed_optional(cls, name, optional):
    # alpha = None and h = None were accepted and died in the march; V_G,
    # t_end and G died in validation with a bare TypeError
    make = nn_config if cls is ScenarioConfig else MaterialParams
    if optional:
        assert getattr(make(**{name: None}), name) is None
    else:
        with pytest.raises(ValidationError, match=f"^{name} must be a number, got None$"):
            make(**{name: None})


@pytest.mark.parametrize("field", ["n_cells", "n_snapshots"])
@pytest.mark.parametrize("value", [64.0, np.float64(3.0), 3.5, True, "64"])
def test_config_rejects_non_integral_counts(field, value):
    # a float n_cells passed validation and died in the march with a bare
    # TypeError; a float n_snapshots only in write_fields, after the march
    for make in (nn_config, fdm_config, thermal_config):
        with pytest.raises(ValidationError, match=f"^{field} must be an integer"):
            make(**{field: value})


@pytest.mark.parametrize("field, value", [("n_cells", np.int64(20)),
                                          ("n_snapshots", np.int32(3))])
def test_config_accepts_numpy_integers(field, value, tmp_path):
    cfg = thermal_config(t_end=0.25, **{field: value})
    assert type(getattr(cfg, field)) is int and getattr(cfg, field) == value
    manifest = write_fields(run_thermal(cfg), tmp_path)
    assert manifest.config[field] == value
    assert len(manifest.snapshots) == min(cfg.n_snapshots, manifest.stored_levels)


def test_config_rejects_non_normal_preexisting_body():
    # the closed-form oracle assumes a body grown from nothing
    with pytest.raises(ValidationError, match="H0"):
        nn_config(H0=0.5)
    assert nn_config(H0=0.0).height0 == 0.0


def test_config_rejects_dt_beyond_relaxation_bound():
    # 1 - G dt / mu = -4: marched, this gave an L-inf F_e12 error of 2.0
    with pytest.raises(ValidationError, match="relaxation"):
        nn_config(dt=0.5)
    # thermal's bound is mu / G too: its deposit (F_e22 = 1/alpha) enters
    # and stays at F_e12 = 0, so alpha does not tighten it
    thermal_config(alpha=0.5, dt=0.4)
    thin = MaterialParams(G=1.0, mu=0.1, rho=1.0)
    with pytest.raises(ValidationError, match="relaxation bound mu / G = 0.1$"):
        thermal_config(params=thin, alpha=0.5, dt=0.2)
    thermal_config(params=thin, alpha=0.5, dt=0.1)
    fdm_config(dt=1.0)
    # the default step and the sweep's dt = mu / (2G) are inside the bound
    nn_config(params=MaterialParams(G=1.0, mu=1e-3, rho=1.0))
    nn_config(params=MaterialParams(G=1.0, mu=1e-3, rho=1.0), dt=5e-4)
    # mu = 0 has no relaxation bound and no stable step
    for make in (nn_config, fdm_config, thermal_config):
        for dt in (None, 0.5):
            with pytest.raises(ValidationError, match="mu"):
                make(params=MaterialParams(G=1.0, mu=0.0, rho=1.0), dt=dt)


@pytest.mark.parametrize("make, kw, match", [
    # alpha ** -2 overflowed with an OverflowError
    (thermal_config, dict(alpha=1e-200), "^alpha = 1e-200 is too small"),
    # a relaxation bound that makes t_end / dt infinite, a given dt that
    # does, and a default dt of 0 (ZeroDivisionError)
    (thermal_config, dict(params=MaterialParams(G=1.0, mu=1e-320, rho=1.0)),
     "^t_end / dt = "),
    (nn_config, dict(dt=1e-320), "^t_end / dt = "),
    (nn_config, dict(params=MaterialParams(G=1.0, mu=5e-324, rho=1.0)),
     "^t_end / dt = 1 / 0 "),
])
def test_config_rejects_a_step_count_that_is_not_finite(make, kw, match):
    with pytest.raises(ValidationError, match=match):
        make(**kw)


def test_default_dt_respects_relaxation_bound():
    # t_end / (4 n) = 0.00125 exceeds mu / G = 0.001 for every kind; the
    # default step takes half the bound instead, whatever thermal's alpha
    slow = MaterialParams(G=1.0, mu=1e-3, rho=1.0)
    for cfg in (nn_config(params=slow, n_cells=200),
                thermal_config(params=slow, alpha=0.5, n_cells=200),
                thermal_config(params=slow, alpha=0.01, n_cells=200)):
        dt, n_steps = cfg.resolve_dt()
        assert cfg.relaxation_bound == 1e-3
        assert dt <= 0.5 * cfg.relaxation_bound * (1 + 1e-12)
        assert n_steps * dt == pytest.approx(cfg.t_end, rel=1e-12)
    # fdm_shear and thermal keep t_end / (4 n) when mu is large
    assert fdm_config().resolve_dt()[0] == 2.0 / (4 * 32)
    assert thermal_config().resolve_dt()[0] == 1.0 / (4 * 32)


def test_analytic_attachment_and_relaxed_limits():
    alpha, G, mu, V_G = 0.5, 1.0, 0.1, 1.0
    x2, t = 0.3, 0.3  # attachment instant t = x2 / V_G
    _, f, p = analytic_non_normal(x2, t, alpha, G, mu, V_G)
    assert abs(f + alpha) <= 1e-14 and p == G
    # small mu at fixed age: everything has relaxed
    v1, f, _ = analytic_non_normal(0.25, 1.0, alpha, G, 1e-3, V_G)
    assert abs(f) <= 1e-200 and abs(v1) <= 1e-200


def test_analytic_frozen_value():
    # alpha/2 * exp(-5), checked against an independent high-precision
    # evaluation of the closed form
    v1, f, p = analytic_non_normal(0.5, 1.0, 0.5, 1.0, 0.1, 1.0)
    assert abs(f - (-0.0033689734995427335)) <= 1e-15
    assert abs(v1 - 0.003346273534661491) <= 1e-15


def test_analytic_out_of_body():
    with pytest.raises(OutOfBody):
        analytic_non_normal(1.5, 1.0, 0.5, 1.0, 0.1, 1.0)
    with pytest.raises(ValidationError):
        analytic_non_normal(0.5, 1.0, 0.5, 1.0, 0.0, 1.0)
    # below the base and above the front V_G t, alone or among valid heights
    for x2 in (-1e-6, 2.0 + 1e-6):
        with pytest.raises(OutOfBody):
            analytic_non_normal(x2, 1.0, 0.5, 2.0, 0.1, 2.0)
        with pytest.raises(OutOfBody):
            analytic_non_normal(np.array([0.0, 1.0, x2]), 1.0, 0.5, 2.0, 0.1, 2.0)
    assert analytic_non_normal(np.array([0.0, 2.0]), 1.0, 0.5, 2.0, 0.1, 2.0)[1][1] == -0.5


def test_analytic_matches_exp_where_it_underflows():
    # exp(-lam age) is normal above -708.4, subnormal down to -745.13 and
    # +0.0 below; the closed form skips the exponential below -746 and must
    # give np.exp's values at every argument.  lam = 1024 and t = 16 make
    # every argument -lam (t - x2 / V_G) but -745.1 and -745.2 exact.
    G, mu, alpha, V_G, t = 1.0, 2.0 ** -10, 0.5, 1.0, 16.0
    args = np.array([-708.0, -708.5, -745.1, -745.2, -746.0, -1e4])
    x2 = t - (-args) / 1024.0
    lam = G / mu
    assert lam == 1024.0 and np.all(np.abs(-lam * (t - x2 / V_G) - args) <= 1e-12)
    decay = np.exp(-lam * (t - x2 / V_G))
    F_ref = -alpha * decay
    v1_ref = V_G * alpha * (decay - np.exp(-lam * t))
    tiny = np.finfo(float).tiny
    assert decay[0] > tiny > decay[1] > decay[2] > 0.0
    assert np.all(decay[3:] == 0.0)
    v1, F_e12, p = analytic_non_normal(x2, t, alpha, G, mu, V_G)
    assert _bits(F_e12) == _bits(F_ref) and _bits(v1) == _bits(v1_ref)
    np.testing.assert_array_equal(p, np.full(6, G))
    # one level of heights against a stack of times, and scalars
    v1, F_e12, _ = analytic_non_normal(x2[None, :], np.full((2, 1), t), alpha, G, mu, V_G)
    assert _bits(F_e12) == _bits(np.stack([F_ref] * 2))
    assert _bits(v1) == _bits(np.stack([v1_ref] * 2))
    for j, x in enumerate(x2.tolist()):
        v1, F_e12, p = analytic_non_normal(x, t, alpha, G, mu, V_G)
        assert type(v1) is float and type(F_e12) is float and p == G
        assert _bits(F_e12) == _bits(F_ref[j]) and _bits(v1) == _bits(v1_ref[j])


def test_non_normal_zero_alpha_stays_stress_free():
    res = run_non_normal(nn_config(alpha=0.0, n_cells=32))
    for rec in res.history:
        assert np.abs(rec.F_e - np.eye(2)).max() == 0.0
        assert np.abs(rec.v_nodes).max() == 0.0
        assert np.abs(rec.p - 1.0).max() == 0.0


def test_non_normal_pressure_uniform_and_ansatz_preserved():
    res = run_non_normal(nn_config())
    assert res.max_metric("max_p_dev") <= 1e-8
    assert res.max_metric("det_drift") <= 1e-12
    assert res.max_metric("system_residual") <= 1e-10
    for rec in res.history:
        assert abs(rec.grid.height - rec.t) <= 1e-12  # H = V_G t
        assert np.abs(rec.F_e[:, 0, 0] - 1.0).max() <= 1e-12
        assert np.abs(rec.F_e0[:, 1, 0]).max() <= 1e-12
        assert np.abs(rec.F_e[:, 1, 1] - 1.0).max() <= 1e-12


def test_non_normal_error_against_closed_form():
    res = run_non_normal(nn_config(n_cells=128))
    assert res.oracle_errors["linf_F_e12"].max() <= 2e-2
    # the closed-form pressure is G at every height and time
    assert res.max_metric("max_p_dev") <= 1e-10


def test_non_normal_error_at_n400_is_below_late_attachment():
    # a regridded march attached every cell up to one dt late, an error of
    # about alpha (G/mu) dt = 3.1e-3 here; on the fixed grid a cell is
    # active once the front reaches its center
    res = run_non_normal(nn_config(n_cells=400))
    assert res.oracle_errors["linf_F_e12"].max() <= 6e-4


@settings(max_examples=30, deadline=None)
@given(make=st.sampled_from([nn_config, fdm_config, thermal_config]),
       n_cells=st.integers(16, 40), t_end=st.floats(0.05, 1.0),
       dt=st.floats(0.002, 0.05))
def test_fixed_grid_march_properties(make, n_cells, t_end, dt):
    cfg = make(n_cells=n_cells, t_end=t_end, dt=dt)
    res = run_scenario(cfg)
    history = res.history
    dt, n_steps = cfg.resolve_dt()  # snapped to tile [0, t_end]
    grid = cfg.eulerian_grid()
    F_att = cfg.attachment_deformation()
    H0, rate = cfg.height0, cfg.boundary_rate

    def height(k):
        return H0 if k == 0 else advance_domain(H0, rate, dt, n_steps=k)

    counts = [rec.grid.n_cells for rec in history]
    assert counts[-1] == n_cells and grid.n_cells == n_cells
    assert all(a <= b for a, b in zip(counts, counts[1:]))
    # a cell is active once its center lies at or below the front plus tau
    tau = FRONT_ULPS * np.spacing(grid.height)
    # the last level is step n_steps; no level is stored before the first
    # center is reached
    first = n_steps + 1 - len(history)
    if first > 0:
        assert grid.centers[0] > height(first - 1) + tau
    for k, rec in enumerate(history, start=first):
        m = rec.grid.n_cells
        assert rec.t == k * dt
        assert rec.grid.height == height(k)
        assert rec.grid.dx == grid.dx
        np.testing.assert_array_equal(rec.grid.centers, grid.centers[:m])
        assert grid.centers[m - 1] <= rec.grid.height + tau
        assert m == n_cells or grid.centers[m] > rec.grid.height + tau
        assert rec.step == k
        assert rec.F_e.shape == (m, 2, 2) and rec.g.shape == rec.p.shape == (m,)
        assert rec.F_e12.shape == (m,) and rec.F_e0.shape == (m, 2, 2)
        assert len(rec.v_nodes) == m + 1 and len(rec.rho) == m
    if H0 == 0:  # a body grown from nothing: every cell attached
        np.testing.assert_array_equal(history[0].F_e,
                                      np.broadcast_to(F_att, history[0].F_e.shape))
    for a, b in zip(history, history[1:]):
        m = a.grid.n_cells
        # shared cells change by the source update alone; attached cells
        # enter with the attachment value
        np.testing.assert_array_equal(b.F_e[:m], a.F_e + dt * (a.grad_v @ a.F_e))
        np.testing.assert_array_equal(b.F_e[m:],
                                      np.broadcast_to(F_att, b.F_e[m:].shape))
    # a record's velocities are bitwise those of the solve at its level
    # under the traction on a body at rest, and its residuals those against
    # the traction M (v_a - v) + t_b of the level's own top velocity
    for rec in history:
        g, v_nodes, system, traction = _level_solve(cfg, rec.F_e12, rec.F_e0, rec.grid.dx)
        np.testing.assert_array_equal(rec.g, g)
        np.testing.assert_array_equal(rec.v_nodes, v_nodes)
        # the residuals are those of the solve on the level alone, within
        # the round-off of the face velocities read by entry class
        _assert_columns_agree(cfg, {"v_surf": rec.v_surf, **rec.metrics},
                              {"v_surf": v_nodes[-1], "traction_residual": traction,
                               "system_residual": system}, np.abs(v_nodes).max())


def test_front_reaches_a_center_it_ties_with():
    # center 12 is 12.5 * 0.875 / 25 = 0.4375 and so is the step-14 front,
    # in exact arithmetic; the float center rounds above the float front,
    # and the tie counts as reached
    cfg = nn_config(n_cells=25, t_end=0.875, dt=0.03125)
    dt, _ = cfg.resolve_dt()
    center = cfg.eulerian_grid().centers[12]
    assert center > advance_domain(0.0, cfg.boundary_rate, dt, n_steps=14) == 0.4375
    history = run_scenario(cfg).history
    m = dict(zip(history.step.tolist(), history.m.tolist()))
    assert m[13] == 12 and m[14] == 13


@pytest.mark.parametrize("n_cells", [300, 1000, 3000])
@pytest.mark.parametrize("kind, period", [("fdm_shear", 44), ("thermal", 6)])
def test_default_schedule_is_one_entry_class(kind, period, n_cells):
    # at the default dt the front advances dx / 44 (fdm_shear) or dx / 6
    # (thermal) a level, and every accreted center ties with a level's
    # front, so one class of cells enters every `period` levels
    timings = run_scenario(ScenarioConfig(kind=kind, n_cells=n_cells)).timings
    assert (timings["classes"], timings["period"]) == (1, period)


def test_fdm_shear_exact_steady_state():
    res = run_fdm_shear(fdm_config())
    for key, tol in (("linf_F_e12", 1e-13), ("linf_v1", 1e-13),
                     ("linf_sigma12", 1e-13), ("linf_sigma11", 1e-13)):
        assert res.oracle_errors[key].max() <= tol
    cfg = res.config
    H_ref = cfg.height0 + (cfg.h * cfg.v0 / cfg.L) * cfg.t_end
    assert res.final.grid.height == pytest.approx(H_ref, abs=1e-14)
    # probe the uniform state
    probe = res.probe(0.5)
    assert probe["F_e"][0, 1] == pytest.approx(0.1, abs=1e-14)
    assert probe["v1"] == 0.0


def _fdm_oracle_bounds(res, rel=1e-10):
    """Each fdm_shear oracle error against ``rel`` times its own scale.
    ``sigma11 = G (F11^2 + F12^2) - p`` cancels terms of size ``G`` (``p =
    G``), so its bound adds that cancellation's round-off, a few ``eps G``."""
    cfg = res.config
    M, G = cfg.mass_rate, cfg.params.G
    scales = {"linf_F_e12": M * cfg.v0 / G, "linf_v1": cfg.v0,
              "linf_sigma12": M * cfg.v0, "linf_sigma11": (M * cfg.v0) ** 2 / G}
    floor = {"linf_sigma11": 4 * np.finfo(float).eps * G}
    return {key: (float(res.oracle_errors[key].max()),
                  rel * max(1.0, scale) + floor.get(key, 0.0))
            for key, scale in scales.items()}


@pytest.mark.parametrize("keys", [
    # M H / mu 1.49 -> 1.80: the lagged traction grew 1.8x a level, to
    # linf_v1 = 2.4e12
    dict(params=MaterialParams(G=0.02941285438222576, mu=0.2760076209734939),
         v0=2.3837489151317275, h=0.17294271311763118, n_cells=32, t_end=0.5),
    # M H / mu 1.11 -> 1.22: linf_v1 = 0.035 with a zero exact value
    dict(params=MaterialParams(G=2.9, mu=0.09)),
], ids=["growth-1.8", "growth-1.2"])
def test_fdm_shear_traction_of_the_same_level_keeps_the_steady_state(keys):
    res = run_fdm_shear(ScenarioConfig(kind="fdm_shear", **keys))
    for key, (error, _) in _fdm_oracle_bounds(res).items():
        assert error <= 1e-10, key


@settings(max_examples=60, deadline=None)
@given(h=st.floats(0.01, 1.0), v0=st.floats(0.1, 10.0), L=st.floats(0.1, 10.0),
       feed=st.floats(0.05, 10.0), rate=st.floats(0.1, 100.0))
@example(h=0.1, v0=1.0, L=1.0, feed=10.0, rate=100.0)
# G = 6.0e5: sigma11 reads 1.0957e-10, 0.82 eps G, over 1e-10 max(1, scale)
@example(h=0.638671875, v0=5.6875, L=0.1015625, feed=0.05, rate=44.375)
def test_fdm_shear_steady_state_holds_for_any_feed(h, v0, L, feed, rate):
    # feed = M H / mu at t_end, up to 10, and rate = G / mu: the march stays
    # on the exact uniform shear M v0 / G, whatever amplifies a defect in
    # the top velocity
    M = h * v0 / L
    mu = M * (1.0 + M * 0.5) / feed
    cfg = ScenarioConfig(kind="fdm_shear", params=MaterialParams(G=rate * mu, mu=mu),
                         h=h, v0=v0, L=L, H0=1.0, n_cells=16, t_end=0.5)
    assert cfg.mass_rate * cfg.eulerian_grid().height / mu == pytest.approx(feed)
    for key, (error, bound) in _fdm_oracle_bounds(run_fdm_shear(cfg)).items():
        assert error <= bound, key


@settings(max_examples=100, deadline=None)
@given(G=st.floats(0.1, 100.0), rho=st.floats(0.1, 10.0), h=st.floats(1e-3, 1.0),
       v0=st.floats(0.0, 10.0), L=st.floats(0.1, 10.0))
@example(G=49.0, rho=1.0, h=0.1, v0=1.0, L=1.0)
def test_fdm_shear_initial_body_enters_in_the_attachment_state(G, rho, h, v0, L):
    # the initial body carries the uniform shear M v0 / G consistent with
    # the momentum flux of arriving material, which is the attachment state
    cfg = fdm_config(params=MaterialParams(G=G, mu=1.0, rho=rho), h=h, v0=v0, L=L,
                     n_cells=16, t_end=0.05)
    initial = cfg.initial_deformation()
    former = np.eye(2)
    former[0, 1] = cfg.mass_rate * cfg.v0 / G
    assert _bits(initial) == _bits(cfg.attachment_deformation()) == _bits(former)
    history = run_fdm_shear(cfg).history
    m0 = int(history.m[0])
    assert history.step[0] == 0 and m0 >= 1
    assert _bits(history.F_e0[:m0]) == _bits(np.broadcast_to(former, (m0, 2, 2)))
    assert _bits(history.columns(0, 0)) == _bits(np.full(m0, former[0, 1]))


_TRACTION_CONFIGS = [
    fdm_config(), fdm_config(v0=0.0), fdm_config(v0=-0.0),
    fdm_config(h=0.37, L=2.3, v0=0.7, params=MaterialParams(G=1.3, mu=1.0, rho=1.7)),
    nn_config(), nn_config(alpha=0.0), thermal_config(), thermal_config(H0=0.0, alpha=0.7)]
_TRACTION_IDS = ["fdm_shear", "fdm_v0_0", "fdm_v0_-0", "fdm_h_L_rho", "non_normal",
                 "non_normal_alpha_0", "thermal", "thermal_H0_0"]


@pytest.mark.parametrize("cfg", _TRACTION_CONFIGS, ids=_TRACTION_IDS)
def test_attachment_traction_is_the_feed_on_a_body_at_rest(cfg):
    # M (v_a - 0) + 0 through growth_traction for fdm_shear, bitwise (v0 =
    # -0.0 included), and 0.0 for the kinds that attach at the body's
    # velocity
    if cfg.kind == "fdm_shear":
        expected = growth_traction(cfg.mass_rate, np.array([cfg.v0, 0.0]), np.zeros(2),
                                   np.zeros(2))[0]
    else:
        expected = 0.0
    assert type(cfg.attachment_traction) is float
    assert _bits(cfg.attachment_traction) == _bits(expected)


@pytest.mark.parametrize("cfg", _TRACTION_CONFIGS, ids=_TRACTION_IDS)
def test_attachment_deformation_is_the_full_traction_s_attachment_state(cfg):
    # bitwise the attachment state of the full traction M (v_a - 0) + 0
    # for fdm_shear, the prescribed shear for non_normal and the isotropic
    # contraction for thermal
    if cfg.kind == "fdm_shear":
        traction = growth_traction(cfg.mass_rate, np.array([cfg.v0, 0.0]), np.zeros(2),
                                   np.zeros(2))
        expected, _ = attach_elastic_deformation(
            AttachmentSpec.from_traction(traction, cfg.params), cfg.params)
    elif cfg.kind == "non_normal":
        expected = np.array([[1.0, -cfg.alpha], [0.0, 1.0]])
    else:
        expected = np.eye(2) / cfg.alpha
    assert _bits(cfg.attachment_deformation()) == _bits(expected)


def test_fdm_shear_zero_feed_is_static():
    res = run_fdm_shear(fdm_config(v0=0.0, t_end=0.5))
    for rec in res.history:
        assert np.abs(rec.F_e - np.eye(2)).max() == 0.0
        assert np.abs(rec.v_nodes).max() == 0.0
    assert res.final.grid.height == 1.0


def test_thermal_alpha_one_is_trivial():
    res = run_thermal(thermal_config(alpha=1.0))
    for rec in res.history:
        assert np.abs(rec.F_e - np.eye(2)).max() <= 1e-12
        assert np.abs(rec.v_nodes).max() <= 1e-12


THERMAL_ORACLE = ("linf_F_e12", "linf_sigma11", "linf_sigma12", "linf_v1")


@pytest.mark.parametrize("cfg", [
    default_config("thermal"),
    # the CI smoke run's config
    thermal_config(alpha=0.8, H0=0.5, n_cells=32, t_end=0.5),
    thermal_config(alpha=1.7, H0=0.0),
], ids=["verify", "ci", "alpha_1.7_H0_0"])
def test_thermal_rest_state_is_exact(cfg):
    # zero traction and zero shear on entry: F_e12, v1 and the stress are 0
    # at every level, and the oracle scores exactly that
    res = run_thermal(cfg)
    assert sorted(res.oracle_errors) == list(THERMAL_ORACLE)
    for name in THERMAL_ORACLE:
        errors = res.oracle_errors[name]
        assert len(errors) == len(res.history) and not errors.any(), name


def test_thermal_small_alpha_marches_at_the_shear_bound():
    # alpha^-2 no longer caps the step: 2,000 steps of mu / (2G) where the
    # cap asked for 2e7, beyond the cell-step budget
    cfg = thermal_config(params=MaterialParams(G=1.0, mu=1e-3, rho=1.0), alpha=0.01,
                         n_cells=200)
    assert cfg.resolve_dt() == (5e-4, 2000)
    res = run_thermal(cfg)
    assert res.history.step[-1] == 2000
    assert not res.history.source[0].any()
    for name in THERMAL_ORACLE:
        assert not res.oracle_errors[name].any(), name


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha, G", [(1e-200, 1.0), (1e-154, 2.0), (1e-155, 1e-3)])
def test_config_rejects_a_thermal_alpha_whose_pressure_overflows(alpha, G):
    # alpha^-2 (1e-200, and 1e-155 although G alpha^-2 would be 1e307) or
    # the deposit's pressure G alpha^-2 (1e-154 at G = 2) overflows; the
    # latter raised an overflow RuntimeWarning in normal_pressure
    with pytest.raises(ValidationError, match=f"^alpha = {alpha:g} is too small"):
        thermal_config(alpha=alpha, params=MaterialParams(G=G, mu=1.0, rho=1.0))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha, G, mu", [(1e160, 1.0, 0.1), (0.5, 1.7e308, 1e308)])
def test_config_rejects_a_non_normal_entry_stress_that_overflows(alpha, G, mu):
    # the entry stress G (1 + alpha^2) overflows; both runs completed with a
    # NaN momentum jump residual on every level, which the gate passed
    with pytest.raises(ValidationError,
                       match=re.escape(f"alpha = {alpha:g} and G = {G:g} are too large")):
        nn_config(alpha=alpha, params=MaterialParams(G=G, mu=mu, rho=1.0))
    # the largest entry stress that does not overflow is accepted
    nn_config(alpha=1.0, params=MaterialParams(G=8e307, mu=1e308, rho=1.0))


def test_gate_refuses_a_nan_residual(monkeypatch):
    # tables scaled by 1e160 keep every first integral (the system residual
    # reads round-off), but sigma11 overflows and the momentum jump
    # residual, with its sigma11 * 0.0 term, reads NaN: the gate counts a
    # NaN as over the limit and names it at the first level, step 2
    recurrence = surfgrow.scenarios.shear_by_age

    def scaled(*args):
        return tuple(np.multiply(row, 1e160) for row in recurrence(*args))

    monkeypatch.setattr(surfgrow.scenarios, "shear_by_age", scaled)
    cfg = nn_config(n_cells=32, t_end=0.25)
    dt, _ = cfg.resolve_dt()
    with pytest.raises(IncompatibleAnsatz) as info:
        run_non_normal(cfg)
    assert str(info.value) == (f"step 2, t = {2 * dt:.6g}: momentum jump residual nan; "
                               f"the through-thickness ansatz is inconsistent")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_thermal_runs_at_the_smallest_alpha_its_pressure_allows(tmp_path):
    # G alpha^-2 = 1e308 is finite: the run and its outputs need no
    # larger number
    res = run_thermal(thermal_config(alpha=1e-154))
    assert float(res.history.p[-1]) == 1e308
    for name in THERMAL_ORACLE:
        assert not res.oracle_errors[name].any(), name
    write_fields(res, tmp_path)


def test_thermal_properties_and_reconstruction():
    cfg = thermal_config()
    res = run_thermal(cfg)
    assert res.max_metric("traction_residual") <= 1e-8
    assert all(rec.v_nodes[0] == 0.0 for rec in res.history)
    frames = reconstruct_reference(res.history)
    final = frames[-1]
    # recovered relaxed shape of deposited material is the attachment
    # inverse in every cell above H0: on the fixed grid nothing smears the
    # interface between the initial body and the deposit
    grown = res.final.grid.centers > cfg.height0
    assert 0 < int(grown.sum()) < len(grown)
    np.testing.assert_allclose(final.F_relax[grown],
                               np.broadcast_to(cfg.alpha * np.eye(2),
                                               (int(grown.sum()), 2, 2)),
                               atol=1e-12)
    np.testing.assert_array_equal(final.F_relax[~grown],
                                  np.broadcast_to(np.eye(2),
                                                  (int((~grown).sum()), 2, 2)))
    np.testing.assert_allclose(final.F, np.broadcast_to(np.eye(2),
                                                        final.F.shape),
                               atol=1e-12)


def test_reconstruction_roundtrip_both_oracle_scenarios():
    assert reconstruction_roundtrip_error(run_non_normal(nn_config())) <= 1e-8
    res = run_fdm_shear(fdm_config())
    assert reconstruction_roundtrip_error(res) <= 1e-8
    # steady deposition: nothing moves after the jump, so the reconstructed
    # F is the identity and the relaxed shape is the attachment inverse
    frames = reconstruct_reference(res.history)
    np.testing.assert_allclose(frames[-1].F,
                               np.broadcast_to(np.eye(2), frames[-1].F.shape),
                               atol=1e-12)
    np.testing.assert_allclose(frames[-1].F_relax,
                               np.linalg.inv(res.final.F_e), atol=1e-12)


def test_pathlines_match_grid_and_attachment_value():
    cfg = nn_config()
    res = run_non_normal(cfg)
    pathlines = trace_history_pathlines(res, count=10)
    assert len(pathlines) == 10
    gap = pathline_grid_discrepancy(res, pathlines)
    assert gap <= 0.1
    dx = res.final.grid.dx
    dt = res.history[1].t - res.history[0].t
    lam = cfg.params.G / cfg.params.mu
    bound = cfg.alpha * lam * (dx / cfg.V_G + 2 * dt) + 1e-9
    for pl in pathlines:
        assert abs(pl.F_e12[0] + cfg.alpha) <= bound


def _per_sample_discrepancy(history, pathlines):
    """The gap sample by sample: the stored level at ``rint((t - t0)/dt)``
    clamped to the history, the height clamped to that level's body."""
    t0 = history[0].t
    dt = history[1].t - history[0].t
    last = len(history) - 1
    worst = 0.0
    for pl in pathlines:
        x, F_e = pathline_arrays(pl)
        for m, t in enumerate(pl.t):
            rec = history[min(max(int(round((t - t0) / dt)), 0), last)]
            x2 = min(max(x[m, 1], 0.0), rec.grid.height)
            F_grid = interp_columns(np.array([x2]), rec.grid.centers, rec.F_e)[0]
            worst = max(worst, float(np.max(np.abs(F_grid - F_e[m]))))
    return worst


@pytest.mark.parametrize("make, n_cells, count", [(nn_config, 64, 7),
                                                  (thermal_config, 50, 3)])
def test_discrepancy_by_level_matches_per_sample_loop(make, n_cells, count):
    cfg = make(n_cells=n_cells)
    if cfg.kind == "thermal":
        # nothing moves in thermal, so a seed has a gap only where the grid
        # interpolates across the interface: the first seed, (H0 + 1)/6,
        # lies above the initial body's top center and below H0, starts
        # with the top cell's F_e and then sees the first deposited cell
        cfg = replace(cfg, H0=0.202)
    res = run_scenario(cfg)
    pathlines = trace_history_pathlines(res, count=count)
    gap = pathline_grid_discrepancy(res, pathlines)
    assert gap > 0
    assert repr(gap) == repr(_per_sample_discrepancy(res.history, pathlines))


def test_discrepancy_clamps_time_and_height_like_per_sample_loop():
    res = run_non_normal(nn_config(n_cells=32, t_end=0.5))
    history = res.history
    t_end, H_end = history[-1].t, history[-1].grid.height
    # times before t0 and past t_end, off the stored levels; heights below
    # the base and above the body at every level
    t = np.linspace(-0.1, t_end + 0.3, 40) + 1e-4
    x2 = np.linspace(-0.2, H_end + 0.4, 40)
    assert t.max() > t_end and x2.max() > H_end and t.min() < 0 and x2.min() < 0
    # a one-sample pathline per height; with F_e = I the gap of one sample
    # is |F_e12| of the grid where it lands, so scoring samples one at a
    # time shows any level it misplaces
    samples = [hand_pathline(res, t=[t[m]], x1=[0.0], F_e12=[0.0], x2=x2[m], F_e0=np.eye(2))
               for m in range(40)]
    for m, one in enumerate(samples):
        gap = pathline_grid_discrepancy(res, [one])
        assert repr(gap) == repr(_per_sample_discrepancy(history, [one])), m
    pathlines = samples + trace_history_pathlines(res, count=3)
    gap = pathline_grid_discrepancy(res, pathlines)
    assert repr(gap) == repr(_per_sample_discrepancy(history, pathlines))


def test_discrepancy_of_no_pathlines_is_zero():
    res = run_non_normal(nn_config(n_cells=32, t_end=0.25))
    assert pathline_grid_discrepancy(res, []) == 0.0


# The by-age round trip divides each cell's defect by its own max(1, |f12|),
# the per-level reference by its level's; the two values agree to within
# four ulps of 1.
ROUNDTRIP_TOL = 4 * np.finfo(float).eps
# F_relax = F_e^{-1} F has zero material derivative, so it stays the inverse
# of each cell's entry state; F_e12 and F's shear are two running sums of the
# same rates from different starts, which round apart by a few ulps.
RELAX_TOL = 8 * np.finfo(float).eps


def _roundtrip_by_level(result):
    """The round trip scored level by level over the replay, each level's
    defect over ``max(1, max |f12|)`` of the level: the reference for the
    by-age score."""
    history = result.history
    worst = 0.0
    for f12, (r11, r12, r22), j in replay_columns(history):
        F_e0, b = history.F_e0[:int(history.m[j])], history.columns(j, 0)
        a, d = F_e0[:, 0, 0], F_e0[:, 1, 1]
        defect = max(float(np.max(np.abs(a * r11 - 1.0))),
                     float(np.max(np.abs(a * r12 + b * r22 - f12))),
                     float(np.max(np.abs(d * r22 - 1.0))))
        worst = max(worst, defect / max(1.0, float(np.max(np.abs(f12)))))
    return worst


def test_roundtrip_agrees_with_the_frames_and_holds_under_ten_frames():
    res = run_non_normal(nn_config())
    frames = reconstruct_reference(res.history)
    expected = max(
        float(np.max(np.abs(rec.F_e @ f.F_relax - f.F)))
        / max(1.0, float(np.max(np.abs(f.F))))
        for f, rec in zip(frames, res.history))
    # the final frame is the largest: every cell is active
    frame_bytes = frames[-1].F.nbytes + frames[-1].F_relax.nbytes
    assert len(frames) > 200
    del frames
    tracemalloc.start()
    try:
        value = reconstruction_roundtrip_error(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert expected - ROUNDTRIP_TOL <= value <= expected + ROUNDTRIP_TOL
    # holding every frame would take len(history) frames' worth
    assert peak < 10 * frame_bytes


@pytest.mark.parametrize("alpha", [0.5, 3.0])
@pytest.mark.parametrize("mu", [1.0, 0.1, 1e-3])
@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_roundtrip_by_age_agrees_with_the_replay_by_level(make, mu, alpha):
    # alpha = 3 gives non_normal shears |f12| > 1, where the by-age score
    # divides by each cell's own scale and the reference by its level's
    cfg = make(params=MaterialParams(G=1.0, mu=mu, rho=1.0), alpha=alpha,
               n_cells=32, t_end=0.25)
    res = run_scenario(cfg)
    reference = _roundtrip_by_level(res)
    value = reconstruction_roundtrip_error(res)
    assert reference - ROUNDTRIP_TOL <= value <= reference + ROUNDTRIP_TOL
    assert value <= 1e-8


def _columns_by_age(cfg, history):
    """Each level's ``F_e12`` and ``g`` as a ``(2, m)`` array, from the
    schedule ``m`` and the recurrence ``shear_by_age`` alone: cell ``j``
    enters at the first level that holds it, in the initial body's entry
    state if the run's step 0 holds it and else in the deposit's, and holds
    at level ``k`` its state's entry at age ``k`` less its entry level."""
    m, n = history.m, len(history.F_e0)
    entry = np.array([int(np.argmax(m > j)) for j in range(n)])
    state = (int(history.step[0]) == 0) & (np.arange(n) >= m[0])
    tables = np.zeros((2, 2, len(m)))  # (state, F_e12 or g, age)
    for s in np.unique(state):
        F = history.F_e0[np.argmax(state == s)]
        tables[int(s)] = shear_by_age(float(F[0, 1]), float(F[1, 1]),
                                      float(_traction(cfg, 0.0)[0]), cfg.params, history.dt,
                                      len(m))
    for k in range(len(history)):
        j = np.arange(m[k])
        yield tables[state[j].astype(int), :, k - entry[j]].T


MAP_CONFIGS = [nn_config(n_cells=32, t_end=0.25), fdm_config(n_cells=32, t_end=0.25),
               thermal_config(n_cells=32, t_end=0.25),
               # one entry state holds the whole body: a body at rest under no
               # feed, and a thermal deposit grown from nothing
               fdm_config(n_cells=32, t_end=0.25, v0=0.0),
               thermal_config(n_cells=32, t_end=0.25, H0=0.0)]


@pytest.mark.parametrize("cfg", MAP_CONFIGS, ids=["non_normal", "fdm_shear", "thermal",
                                                  "fdm_shear_at_rest", "thermal_from_nothing"])
def test_history_derives_its_map_from_the_schedule(cfg):
    history = run_scenario(cfg).history
    assert history.m[-1] == len(history.F_e0)
    assert np.array_equal(history.step - history.first, np.arange(len(history)))
    assert _bits(history.t) == _bits(history.step * history.dt)
    assert history.metrics["t"] is history.t
    assert list(history.metrics) == list(METRIC_FIELDS)
    for k, expected in enumerate(_columns_by_age(cfg, history)):
        assert _bits(history.columns(k)) == _bits(expected), k
    # the tables by age are all a history takes; other tables, or a
    # decreasing schedule, are refused at construction
    tables = [history.table(0), history.table(-1)][:1 + bool(history.m0)]
    inputs = dict(step=history.step, H=history.H, m=history.m, v_surf=history.v_surf,
                  metrics=history.metrics, tables=tables, F_e0=history.F_e0,
                  p=history.p, rho=history.rho, dx=history.dx, dt=history.dt)
    same = History(**inputs)
    assert _bits(same.source) == _bits(history.source)
    assert _bits(same.col) == _bits(history.col) and same.m0 == history.m0
    L = len(history)
    for other in ([], tables[:1] * 3, [np.zeros((2, L - 1))], [np.zeros((2, L + 1))],
                  [np.zeros((3, L))], [np.zeros(2 * L)]):
        with pytest.raises(ValidationError, match="age tables"):
            History(**{**inputs, "tables": other})
    m = history.m.copy()
    m[[L // 2, L // 2 + 1]] = m[L // 2] + 1, m[L // 2]
    with pytest.raises(ValidationError, match="nondecreasing"):
        History(**{**inputs, "m": m})
    # two tables, but the first level holds every cell: no deposited cell
    with pytest.raises(ValidationError, match="a cell in each"):
        History(**{**inputs, "m": np.full(L, len(history.F_e0)),
                   "tables": [np.zeros((2, L))] * 2})


@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_age_rows_hold_every_level_s_columns(make):
    history = run_scenario(make(n_cells=32, t_end=0.25)).history
    states = [(first, history.source[:, ages])
              for first, ages in history.age_rows()]
    n = len(history.F_e0)
    firsts = [first for first, _ in states]
    assert firsts[0] == 0 and len(states) == (1 if make is nn_config else 2)
    # a cell enters at the first level that holds it, in its state's F_e0
    entered = np.searchsorted(history.m, np.arange(n), side="right")
    for (first, rows), end in zip(states, firsts[1:] + [n]):
        assert (history.F_e0[first:end] == history.F_e0[first]).all()
        assert rows.shape == (2, len(history) - entered[first])
    for k in range(len(history)):
        cells = np.arange(history.m[k])
        state = np.searchsorted(firsts, cells, side="right") - 1
        expected = np.stack([states[s][1][:, k - entered[j]]
                             for j, s in zip(cells.tolist(), state.tolist())], axis=1)
        assert _bits(history.columns(k)) == _bits(expected), k


@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_reconstruction_of_a_slice_is_the_slice_of_the_reconstruction(make):
    # F is measured from each cell's entry into the run whatever levels a
    # slice holds; the age rows of a slice are those of its run up to its
    # last level (the deposit's rows of fdm_shear's history[5:] once started
    # 15 entries before its age 0, taking the slice's length for the run's,
    # and its round trip still read 0.0)
    res = run_scenario(make(n_cells=32, t_end=0.25))
    history = res.history
    frames = reconstruct_reference(history)
    roundtrip = reconstruction_roundtrip_error(res)
    rows = history.age_rows()
    entered = _entered(history)
    for k in (1, 5, entered, len(history) // 2, len(history) - 1):
        part = reconstruct_reference(history[k:])
        assert len(part) == len(history) - k
        for frame, ref in zip(part, frames[k:], strict=True):
            assert frame.t == ref.t
            assert _bits(frame.F) == _bits(ref.F) and _bits(frame.F_relax) == _bits(ref.F_relax)
        assert history[k:].age_rows() == rows
        sliced = replace(res, history=history[k:])
        assert _bits(reconstruction_roundtrip_error(sliced)) == _bits(roundtrip), k
    for k, j in ((0, entered), (3, entered + 7), (entered, len(history) - 2)):
        for frame, ref in zip(reconstruct_reference(history[k:j]), frames[k:j], strict=True):
            assert _bits(frame.F) == _bits(ref.F) and _bits(frame.F_relax) == _bits(ref.F_relax)
    assert reconstruct_reference(history[3:3]) == []


@pytest.mark.parametrize("mu", [1.0, 0.1, 1e-3])
@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_frames_are_bitwise_a_replay_by_the_march_s_dt(make, mu):
    # the level-by-level replay, F12 + dt g through reduced_step_1d with
    # F = I for each cell as it enters, gives every frame bit for bit
    res = run_scenario(make(params=MaterialParams(G=1.0, mu=mu, rho=1.0),
                            n_cells=32, t_end=0.25))
    frames = reconstruct_reference(res.history)
    replayed = list(replay_columns(res.history))
    assert len(frames) == len(replayed) == len(res.history)
    for frame, (f12, (r11, r12, r22), j) in zip(frames, replayed):
        assert frame.t == res.history.t[j]
        F = np.broadcast_to(np.eye(2), frame.F.shape).copy()
        F[:, 0, 1] = f12
        F_relax = np.stack([r11, r12, np.zeros(len(f12)), r22], axis=1).reshape(F.shape)
        assert _bits(frame.F) == _bits(F) and _bits(frame.F_relax) == _bits(F_relax), j


@pytest.mark.parametrize("alpha", [0.5, 3.0])
@pytest.mark.parametrize("mu", [1.0, 0.1, 1e-3])
@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_relaxed_shape_is_the_inverse_entry_state(make, mu, alpha):
    # F_e = F F_e0 for the F accumulated since entry, so F_relax = F_e^{-1} F
    # is inv(F_e0) of the cell at every level: a check that reads F_e and F
    # apart, where the round trip forms F_relax from the same F_e
    res = run_scenario(make(params=MaterialParams(G=1.0, mu=mu, rho=1.0), alpha=alpha,
                            n_cells=32, t_end=0.25))
    inv = np.linalg.inv(res.history.F_e0)
    moved = 0.0
    for frame in reconstruct_reference(res.history):
        m = len(frame.F)
        scale = np.maximum(1.0, np.abs(frame.F[:, 0, 1]))[:, None, None]
        assert np.all(np.abs(frame.F_relax - inv[:m]) <= RELAX_TOL * scale), frame.t
        moved = max(moved, float(np.max(np.abs(frame.F[:, 0, 1]))))
    # F moves where the shear relaxes, so the check reads two different sums
    assert (moved > 0.1 * alpha) == (make is nn_config)


def test_roundtrip_refuses_a_singular_or_unreduced_entry_state():
    # the deposit's F_e = I / alpha has det alpha^-2 = 1e-14 <= EPS_DET; the
    # initial body's is I
    res = run_thermal(thermal_config(alpha=1e7, n_cells=16, t_end=0.25))
    for score in (_roundtrip_by_level, reconstruction_roundtrip_error):
        with pytest.raises(SingularTensor):
            score(res)
    # the initial body's state made singular, then one cell's F_e21 nonzero
    res = run_thermal(thermal_config(n_cells=16, t_end=0.25))
    history = res.history
    singular, unreduced = history.F_e0.copy(), history.F_e0.copy()
    singular[:int(history.m[0]), 0, 0] = 0.0
    unreduced[3, 1, 0] = 0.5
    for F_e0, error in ((singular, SingularTensor), (unreduced, NotReduced)):
        history.F_e0 = F_e0
        for score in (_roundtrip_by_level, reconstruction_roundtrip_error):
            with pytest.raises(error):
                score(res)


def _stored_level_sampler(history):
    """Velocity sampler over a stored history, written out independently of
    the tracer: the level at or before ``t``, ``v1`` linear between faces,
    ``grad v`` linear between face-padded cell centers."""
    times = np.array([rec.t for rec in history])

    def level(t):
        i = int(np.searchsorted(times, t * (1 + 1e-14), side="right")) - 1
        return history[min(max(i, 0), len(history) - 1)]

    def sampler(x, t):
        rec = level(t)
        x2 = min(max(float(x[1]), 0.0), rec.grid.height)
        g = rec.grad_v[:, 0, 1]
        gx = np.concatenate([[0.0], rec.grid.centers, [rec.grid.height]])
        gv = np.concatenate([[g[0]], g, [g[-1]]])
        v1 = float(np.interp(x2, rec.grid.faces, rec.v_nodes))
        g2 = float(np.interp(x2, gx, gv))
        return np.array([v1, 0.0]), np.array([[0.0, g2], [0.0, 0.0]])

    def inside(x, t):
        return -1e-9 <= float(x[1]) <= level(t).grid.height + 1e-9

    return sampler, inside


@pytest.mark.parametrize("make", [nn_config, thermal_config])
def test_pathline_march_matches_general_integrator(make):
    # v = v1(x2) e1 keeps every pathline at its seed height, so the array
    # march over the stored levels is the general RK2 integrator: bitwise,
    # but for x1, which sums face velocities read by entry class
    res = run_scenario(make(n_cells=32, t_end=0.5))
    history = res.history
    speed = max(1.0, level_speed(history).max())
    times = np.array([rec.t for rec in history])
    heights = [rec.grid.height for rec in history]
    sampler, inside = _stored_level_sampler(history)
    pathlines = trace_history_pathlines(res, count=9)
    assert len(pathlines) == 9
    for i, pl in enumerate(pathlines):
        x2 = (i + 0.5) * heights[-1] / 9
        j0 = next(j for j, H in enumerate(heights) if H >= x2)
        assert len(pl.t) == len(history) - j0
        np.testing.assert_allclose(pl.t, times[j0:], rtol=1e-12, atol=0)
        rec = history[j0]
        F0 = interp_columns(np.array([x2]), rec.grid.centers, rec.F_e)[0]
        ref = integrate_characteristics(sampler, np.array([0.0, x2]), rec.t,
                                        times[-1], times[1] - times[0], F0,
                                        domain=inside)
        x, F_e = pathline_arrays(pl)
        np.testing.assert_array_equal(pl.t, ref.t)
        np.testing.assert_array_equal(x[:, 1], ref.x[:, 1])
        assert np.all(np.abs(x[:, 0] - ref.x[:, 0])
                      <= ROUNDOFF * ((ref.t - ref.t[0]) * speed + np.abs(ref.x[:, 0])))
        np.testing.assert_array_equal(F_e, ref.F_e)
        # each record owns its columns rather than viewing a shared buffer
        assert all(a.flags.owndata for a in (pl.t, pl.x1, pl.F_e12))


def test_convergence_study_fdm_is_scheme_exact():
    rows = convergence_study(fdm_config(t_end=1.0), [16, 32])
    assert all(r.linf <= 1e-10 for r in rows)


def test_convergence_study_single_row_has_no_order():
    rows = convergence_study(nn_config(t_end=0.25), [32])
    assert len(rows) == 1 and rows[0].order is None


def test_convergence_study_thermal_is_exact():
    # its rest state is reproduced exactly: no error, so no order
    rows = convergence_study(thermal_config(), [32, 64])
    assert [(r.n_cells, r.linf, r.l2, r.order) for r in rows] == \
        [(32, 0.0, 0.0, None), (64, 0.0, 0.0, None)]


def _counting_marches(monkeypatch):
    """Count the configurations ``_run_1d`` marches."""
    march, marched = surfgrow.scenarios._run_1d, []

    def counting_march(config, *args, **kwargs):
        marched.append(config)
        return march(config, *args, **kwargs)

    monkeypatch.setattr(surfgrow.scenarios, "_run_1d", counting_march)
    return marched


def test_convergence_refuses_a_bad_ladder_before_marching(monkeypatch):
    # n = 12,800 takes 51,200 default steps, beyond the cell-step budget:
    # refused before any resolution of the ladder is marched
    marched = _counting_marches(monkeypatch)
    ladder = [200 * 2 ** i for i in range(7)]
    with pytest.raises(ValidationError, match="n_cells = 12800 exceeds the budget"):
        convergence_study(nn_config(n_cells=200), ladder)
    assert marched == []
    rows = convergence_study(nn_config(t_end=0.25), [16, 32])
    assert [row.n_cells for row in rows] == [16, 32] and len(marched) == 2


@pytest.mark.parametrize("x2", [math.nan, math.inf, -math.inf])
def test_probe_refuses_a_non_finite_height(monkeypatch, x2):
    result = run_non_normal(nn_config(n_cells=16, t_end=0.25))
    with pytest.raises(ValidationError, match=f"^x2 must be a finite height, got {x2}$"):
        result.probe(x2)
    marched = _counting_marches(monkeypatch)
    with pytest.raises(ValidationError, match=f"^probe_x2 must be a finite height, got {x2}$"):
        run_mu_sweep(nn_config(n_cells=16, t_end=0.25), probe_x2=x2)
    assert marched == []


def test_mu_sweep_defaults():
    # {1, 0.3, 0.1, 0.03, 0.01} G t_end unless the caller names the values
    cfg = nn_config(params=MaterialParams(G=2.0, mu=0.1, rho=1.0), n_cells=16,
                    t_end=0.25)
    assert [mu for mu, _ in run_mu_sweep(cfg)] == [0.5, 0.15, 0.05, 0.015, 0.005]
    assert [mu for mu, _ in run_mu_sweep(cfg, mu_values=(0.5, 0.1))] == [0.5, 0.1]


@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_reduced_step_reproduces_general_transport(make):
    # v = v1(x2) e1: the full transport update T + dt (grad v) T (the
    # upwind term vanishes with v2) on the active cells, then the
    # attachment value appended for the cells the boundary reached, is
    # bitwise the source-only step the march takes
    cfg = make(n_cells=32, t_end=0.25)
    res = run_scenario(cfg)
    dt, _ = cfg.resolve_dt()
    F_att = cfg.attachment_deformation()
    # take a step that attaches a cell
    j = next(j for j, (a, b) in enumerate(zip(res.history, res.history[1:]))
             if a.grid.n_cells < b.grid.n_cells)
    prev, cur = res.history[j], res.history[j + 1]
    fresh = cur.grid.n_cells - prev.grid.n_cells
    full = np.concatenate([prev.F_e + dt * (prev.grad_v @ prev.F_e),
                           np.broadcast_to(F_att, (fresh, 2, 2))])
    reduced = reduced_step_1d(prev.F_e12, prev.g, prev.F_e0[:, 1, 1], dt,
                              cur.grid.n_cells, F_att[0, 1])
    np.testing.assert_array_equal(reduced, full[:, 0, 1])
    np.testing.assert_array_equal(cur.F_e12, full[:, 0, 1])
    # the other components are the cells' constants
    np.testing.assert_array_equal(cur.F_e, full)
    # rho never leaves its attachment value
    for rec in res.history:
        assert np.all(rec.rho == cfg.params.rho)
    # the reconstruction matches the full update by the march's dt that
    # appends F = I for attached cells
    assert res.history.dt == dt
    F = np.broadcast_to(np.eye(2), res.history[0].F_e.shape).copy()
    frames = reconstruct_reference(res.history)
    np.testing.assert_array_equal(frames[0].F, F)
    for a, b, frame in zip(res.history, res.history[1:], frames[1:]):
        fresh = b.grid.n_cells - a.grid.n_cells
        F = np.concatenate([F + dt * (a.grad_v @ F),
                            np.broadcast_to(np.eye(2), (fresh, 2, 2))])
        np.testing.assert_array_equal(frame.F, F)


@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_rank_one_step_is_the_full_source_update(make):
    # grad v = g e1 (x) e2 and T21 = 0: the shear update F12 + dt (g F22) is
    # bitwise the (0, 1) entry of T + dt (grad_v @ T), whose other entries
    # leave T as it is, on every stored level and every reconstructed frame
    cfg = make(n_cells=32, t_end=0.25)
    res = run_scenario(cfg)
    dt, _ = cfg.resolve_dt()
    frames = reconstruct_reference(res.history)
    for rec, frame in zip(res.history, frames):
        m = rec.grid.n_cells
        grad_v = rec.grad_v
        assert grad_v.shape == (m, 2, 2)
        np.testing.assert_array_equal(grad_v[:, 0, 1], rec.g)
        assert np.count_nonzero(np.delete(grad_v.reshape(m, 4), 1, axis=1)) == 0
        for T in (rec.F_e, frame.F):
            full = T + dt * (grad_v @ T)
            step = reduced_step_1d(T[:, 0, 1], rec.g, T[:, 1, 1], dt, m, 0.0)
            np.testing.assert_array_equal(step, full[:, 0, 1])
            np.testing.assert_array_equal(np.delete(full.reshape(m, 4), 1, axis=1),
                                          np.delete(T.reshape(m, 4), 1, axis=1))
            assert not np.shares_memory(step, T)
    # generic tensors of the family and gradients of either sign
    rng = np.random.default_rng(7)
    T = rng.standard_normal((32, 2, 2))
    T[:, 1, 0] = 0.0
    g = rng.standard_normal(32)
    grad_v = np.zeros((32, 2, 2))
    grad_v[:, 0, 1] = g
    full = T + 0.3 * (grad_v @ T)
    np.testing.assert_array_equal(reduced_step_1d(T[:, 0, 1], g, T[:, 1, 1], 0.3, 32, 0.0),
                                  full[:, 0, 1])
    np.testing.assert_array_equal(full[:, 0, 0], T[:, 0, 0])
    # attached cells enter with the inflow shear; the prefix cannot shrink
    np.testing.assert_array_equal(reduced_step_1d(T[:4, 0, 1], g[:4], 1.0, 0.3, 6, -0.5)[4:],
                                  [-0.5, -0.5])
    with pytest.raises(ValidationError, match="shrink"):
        reduced_step_1d(T[:4, 0, 1], g[:4], 1.0, 0.3, 3, 0.0)


def _per_level_metrics(config, rec):
    # one level with scalar SideState / jump_residuals / total_stress calls
    M, t_b = config.mass_rate, np.zeros(2)  # no ambient traction
    n_hat = np.array([0.0, 1.0])
    v_surf = np.array([rec.v_nodes[-1], 0.0])
    v_a = np.array([config.v0, 0.0]) if config.kind == "fdm_shear" else v_surf
    V_b = np.array([0.0, boundary_normal_velocity(M, rec.rho[-1], v_surf, n_hat)])
    grad_v_top = np.array([[0.0, rec.g[-1]], [0.0, 0.0]])
    sigma_top = total_stress(rec.F_e[-1], grad_v_top, rec.p[-1], config.params)
    body = SideState(rho=float(rec.rho[-1]), v=v_surf, sigma=sigma_top)
    ambient = SideState(rho=0.0, v=v_a,
                        sigma=np.array([[0.0, t_b[0]], [t_b[0], t_b[1]]]))
    mass_res, mom_res = jump_residuals(body, ambient, V_b, n_hat, M, v_a)
    return {"t": rec.t, "H": rec.grid.height, "mass_residual": abs(mass_res),
            "momentum_residual": float(np.max(np.abs(mom_res))),
            "det_drift": float(np.max(np.abs(det(rec.F_e) - 1.0))),
            "max_p_dev": float(np.max(np.abs(rec.p - config.params.G)))}


def _per_level_oracle(config, history):
    p = config.params
    rows = []
    for rec in history:
        if config.kind == "non_normal":
            v1_ref, f_ref, _ = analytic_non_normal(rec.grid.centers, rec.t, config.alpha,
                                                   p.G, p.mu, config.V_G)
            ef = rec.F_e[:, 0, 1] - f_ref
            v1 = 0.5 * (rec.v_nodes[:-1] + rec.v_nodes[1:])
            rows.append({"linf_F_e12": np.max(np.abs(ef)),
                         "rms_F_e12": np.sqrt(np.mean(ef ** 2)),
                         "linf_v1": np.max(np.abs(v1 - v1_ref))})
        else:
            # at rest under the attachment traction: the feed's momentum
            # flux for fdm_shear, none for thermal
            tau1 = config.mass_rate * config.v0 if config.kind == "fdm_shear" else 0.0
            sigma = total_stress(rec.F_e, rec.grad_v, rec.p, p)
            rows.append({"linf_F_e12": np.max(np.abs(rec.F_e[:, 0, 1] - tau1 / p.G)),
                         "linf_v1": np.max(np.abs(rec.v_nodes)),
                         "linf_sigma12": np.max(np.abs(sigma[:, 0, 1] - tau1)),
                         "linf_sigma11": np.max(np.abs(sigma[:, 0, 0] - tau1 ** 2 / p.G))})
    return {name: np.array([row[name] for row in rows]) for name in rows[0]}


def _tolerance(config, name, speed, value=0.0):
    """How far the column ``name`` of a run may lie from the per-level and
    block references'.  A face velocity is summed class by class, so
    ``v_surf`` and the steady kinds' ``linf_v1`` move by
    ``velocity_tolerance(speed)``, ``speed`` the level's ``max |v|``; the
    system residual, scaled by ``max(1, max |v|)``, by ``ROUNDOFF (1 +
    value)``; the momentum and traction residuals, which read ``v_surf``, by
    ``(1 + M)`` times the velocity's.  ``non_normal``'s oracle columns move
    by ``_closed_form_bound``, ``linf_F_e12`` by ``eps`` of its value more
    (the sum ``F12 + alpha decay``), ``rms_F_e12`` by ``n_cells eps`` of it
    more (a sum of at most ``n_cells`` squares, in another order), and
    ``linf_v1`` by the velocity's beside it.  Every other column is bitwise."""
    velocity, eps, value = velocity_tolerance(speed), np.finfo(float).eps, np.abs(value)
    oracle = {}
    if config.kind == "non_normal":
        bound = _closed_form_bound(config)
        oracle = {"linf_F_e12": bound + eps * value,
                  "rms_F_e12": bound + config.n_cells * eps * value,
                  "linf_v1": bound + velocity}
    return {"v_surf": velocity, "system_residual": ROUNDOFF * (1.0 + value),
            "momentum_residual": (1.0 + config.mass_rate) * velocity,
            "traction_residual": (1.0 + config.mass_rate) * velocity,
            "linf_v1": velocity, **oracle}.get(name, 0.0)


def _closed_form_bound(config):
    """How far the class pass's closed form ``alpha exp(-lam age)``, ``lam =
    G / mu``, may lie from the per-cell one's: ``(20 + 21 lam t_end) eps
    |alpha| max(1, V_G)``.

    Each evaluates ``age = t - x2 / V_G`` in floats from the stored ``t =
    k dt`` and center ``x2 = (j + 1/2) dx``, within ``eps (3 t_end + age) /
    2`` of its value on those ``dt`` and ``dx``.  A class evaluates it at
    its first cell ``c`` and level ``rho`` for the cell ``c + u q`` at ``rho
    + u p``, whose age is ``u (p dt - q dx / V_G)`` more: ``_entry_classes``
    reads ``q`` and ``p = rint(q dx / (V_b dt))`` from the configuration
    with ``|q dx - p V_b dt| <= 16 eps q dx``, ``V_b dt`` rounded within
    ``1.5 eps``, and ``u q dx <= V_G t_end``, ``u p dt <= t_end``, so
    that offset is at most ``17.5 eps t_end``.  With the rounding of ``-lam
    age`` the exponents differ by at most ``lam eps (20.5 t_end + 2 age)``,
    so the decays ``d <= 1`` by ``d`` times that plus 4 ulp of each ``exp``:
    at most ``eps (20.5 lam t_end + 2 / e + 8)``, as ``d lam age <= 1 / e``.
    ``F_e12``'s ``alpha d`` adds one rounding of each product; ``v1``'s
    ``V_G alpha (d - exp(-lam t))`` adds 4 ulp of each ``exp(-lam t)`` and
    the rounding of three operations more: at most ``20 eps`` in all."""
    lam = config.params.G / config.params.mu
    return ((20.0 + 21.0 * lam * config.t_end) * np.finfo(float).eps * abs(config.alpha)
            * max(1.0, config.V_G))


def _assert_columns_agree(config, actual, expected, speed):
    """Each of the ``expected`` per-level columns against ``actual``'s:
    within ``_tolerance``, or bitwise where that is 0."""
    for name, values in expected.items():
        values = np.asarray(values, dtype=float)
        tol = _tolerance(config, name, speed, values)
        if np.any(tol):
            assert np.all(np.abs(np.asarray(actual[name]) - values) <= tol), name
        else:
            assert _bits(actual[name]) == _bits(values), name


def _assert_oracle_columns_agree(config, actual, expected, speed):
    assert sorted(actual) == sorted(expected)
    _assert_columns_agree(config, actual, expected, speed)


def _assert_scored_like_per_level_reference(result):
    history = result.history
    speed = level_speed(history)
    rows = [_per_level_metrics(result.config, rec) for rec in history]
    for rec in history:
        assert sorted(rec.metrics) == sorted(METRIC_FIELDS)
        assert all(type(value) is float for value in rec.metrics.values())
    _assert_columns_agree(result.config, history.metrics,
                          {name: [row[name] for row in rows] for name in rows[0]}, speed)
    _assert_oracle_columns_agree(result.config, result.oracle_errors,
                                 _per_level_oracle(result.config, history), speed)


@pytest.mark.parametrize("cfg", [thermal_config(n_cells=300), thermal_config(n_cells=300, H0=0.0),
                                 fdm_config(n_cells=333), fdm_config(n_cells=32, H0=0.37)])
def test_steady_scores_read_every_cell_of_a_level(cfg):
    # the steady oracle takes each level's maximum over its cells from the
    # errors by age; a run's age tables barely vary with age, so a cell the
    # gather missed would not show: on tables of arbitrary values, bitwise
    # the per-level reference
    result = run_scenario(cfg)
    history = result.history
    history.source[:] = np.random.default_rng(1).standard_normal(history.source.shape)
    P = np.zeros(len(history))
    scores = _score_steady(cfg, history, result.classes, P, P)
    expected = _per_level_oracle(cfg, history)
    for name in ("linf_F_e12", "linf_sigma12", "linf_sigma11"):
        assert _bits(scores[name]) == _bits(expected[name])


def _class_cells(monkeypatch, cells):
    """Let the class pass form its rows in chunks of ``cells`` entries."""
    monkeypatch.setattr(surfgrow.scenarios, "CLASS_CELLS", cells)
    return cells


@pytest.mark.parametrize("make, dt", [(nn_config, 1.0 / 33), (fdm_config, 2.0 / 32),
                                      (thermal_config, 1.0 / 32)])
@pytest.mark.parametrize("levels", [1, 16, 17])
def test_block_scoring_matches_per_level_reference(monkeypatch, make, dt, levels):
    # 33 stored levels (non_normal's first center, dx / 2 = 1/64, is reached
    # at step 1): the classes' rows in one chunk, and a class a chunk
    cfg = make(n_cells=32, dt=dt)
    whole = run_scenario(cfg)
    assert len(whole.history) == 33
    _class_cells(monkeypatch, 16)
    result = run_scenario(cfg)
    _assert_scored_like_per_level_reference(result)
    # the split into chunks does not show in any column
    for name, values in whole.history.metrics.items():
        assert values.tobytes() == result.history.metrics[name].tobytes(), name
    assert whole.history.v_surf.tobytes() == result.history.v_surf.tobytes()
    for name, values in whole.oracle_errors.items():
        assert values.tobytes() == result.oracle_errors[name].tobytes(), name
    # runs that store one level, exactly one block and one level over: a
    # body of (almost) no height has no active cell at t = 0, and every
    # later step reaches the first center, dx / 2 <= H_end / 64
    H0 = 1e-6 if cfg.kind == "fdm_shear" else 0.0
    short = run_scenario(make(n_cells=32, dt=dt, t_end=levels * dt, H0=H0))
    assert len(short.history) == levels
    assert short.history[0].step == 1 and short.history[0].grid.n_cells >= 1
    _assert_scored_like_per_level_reference(short)


def test_block_scoring_matches_per_level_reference_where_exp_underflows(monkeypatch):
    # at mu = 1e-3 (lam = 1000) the closed form's exp(-lam age) is subnormal
    # past age 0.708 and +0.0 past 0.746, and the stored F_e12, halved at
    # each step (1 - lam dt = 1/2), passes through subnormals to 0
    _class_cells(monkeypatch, 16 * 32)
    cfg = nn_config(params=MaterialParams(G=1.0, mu=1e-3, rho=1.0), n_cells=32, dt=5e-4)
    result = run_non_normal(cfg)
    assert len(result.history) > 1900
    stored = result.history.source[0]
    assert np.any((stored != 0.0) & (np.abs(stored) < np.finfo(float).tiny))
    assert result.history[-1].F_e12[0] == 0.0
    _assert_scored_like_per_level_reference(result)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_separable_oracle_at_small_mu_stays_within_the_bound():
    # mu = 1e-4 on 32 cells (lam = 1e4, dt = 5e-5, lam dt = 1/2): the run
    # spans lam t_end past exp's overflow at 709.8, and each class reads
    # its closed form from its entry on, where the exponent is at most 0;
    # every oracle column stays within the bound of the per-cell closed
    # form, with no warning
    cfg = nn_config(params=MaterialParams(G=1.0, mu=1e-4, rho=1.0), n_cells=32)
    result = run_non_normal(cfg)
    history = result.history
    lam = cfg.params.G / cfg.params.mu
    assert lam * (history.t[-1] - history.t[0]) > 709.8
    _assert_oracle_columns_agree(cfg, result.oracle_errors, _per_level_oracle(cfg, history),
                                 level_speed(history))


def _record_work(monkeypatch):
    """Record the arrays the class pass forms its rows in (``_Classes.rows``):
    each chunk's ages and face sums."""
    rows, seen = surfgrow.scenarios._Classes.rows, []

    def recording_rows(self, *args, **kwargs):
        for chunk in rows(self, *args, **kwargs):
            seen.extend(chunk[1:])
            yield chunk

    monkeypatch.setattr(surfgrow.scenarios._Classes, "rows", recording_rows)
    return seen


def _columns(result):
    return [result.history.v_surf, *result.history.metrics.values(),
            *result.oracle_errors.values()]


@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_work_arrays_stay_out_of_the_results(monkeypatch, make):
    # the class pass forms its rows in arrays of its own; no column of a
    # result is one of them, and a second run forms its own
    work = _record_work(monkeypatch)
    _class_cells(monkeypatch, 256)
    first = run_scenario(make(n_cells=32, t_end=0.25))
    first_work = list(work)
    assert len(first_work) >= 3
    for column in _columns(first):
        assert not any(np.shares_memory(column, w) for w in first_work)
    before = [column.tobytes() for column in _columns(first)]
    work.clear()
    second = run_scenario(make(n_cells=48, t_end=0.25))
    assert [column.tobytes() for column in _columns(first)] == before
    for column in _columns(second):
        assert not any(np.shares_memory(column, w) for w in first_work + work)
    assert not any(np.shares_memory(a, b) for a in work for b in first_work)


def test_work_arrays_are_freed_with_their_run(monkeypatch):
    # nothing outlives the run that formed the class rows: not the module,
    # not the result
    def root(array):
        while array.base is not None:
            array = array.base
        return array

    work = _record_work(monkeypatch)
    result = run_non_normal(nn_config(n_cells=32, t_end=0.25))
    owners = {id(root(w)): weakref.ref(root(w)) for w in work}
    work.clear()
    gc.collect()
    assert len(owners) >= 4 and all(ref() is None for ref in owners.values())
    assert len(result.history) > 0
    for module in (surfgrow.scenarios, surfgrow.balance):
        assert not [name for name, value in vars(module).items()
                    if isinstance(value, np.ndarray)]


@settings(max_examples=200, deadline=None)
@given(counts=st.lists(st.integers(1, 3000), max_size=200),
       wide=st.lists(st.integers(2 ** 15 + 1, 2 ** 17), min_size=1, max_size=3),
       cells=st.sampled_from([BLOCK_CELLS, 4096, 7]))
@example(counts=[1] * 40000, wide=[2 ** 15 + 1], cells=BLOCK_CELLS)
def test_blocks_tile_the_levels_within_the_cell_budget(counts, wide, cells):
    counts = np.array(sorted(counts + wide))
    blocks = block_bounds(counts, cells)
    # in order, consecutive, covering every level once
    assert [i0 for i0, _ in blocks] == np.cumsum([0] + [B for _, B in blocks])[:-1].tolist()
    assert sum(B for _, B in blocks) == len(counts)
    for i0, B in blocks:
        last = int(counts[i0 + B - 1])
        assert B * last <= cells or B == 1
        # a block stops only where the next level would not fit
        if i0 + B < len(counts):
            assert (B + 1) * int(counts[i0 + B]) > cells
    assert all(B == 1 for i0, B in blocks if counts[i0] > cells)


@st.composite
def _class_pass_configs(draw):
    """Small runs of every kind: schedules of one class and of many (a step
    count off the cells', a starting height that makes dx / (V_b dt) a
    fraction), and viscosities down to 1e-4."""
    kind = draw(st.sampled_from(KINDS))
    mu = draw(st.sampled_from([1.0, 0.1, 1e-2, 1e-3, 1e-4]))
    n = draw(st.integers(16, 300))
    t_end = 0.25 if mu < 1e-2 else draw(st.sampled_from([0.25, 0.5, 1.0]))
    steps = draw(st.none() | st.integers(n // 2, 6 * n))
    dt = None if steps is None else t_end / steps
    assume(dt is None or dt <= 0.5 * mu)
    params = MaterialParams(G=1.0, mu=mu, rho=1.0)
    keys = dict(params=params, n_cells=n, dt=dt, t_end=t_end)
    if kind == "non_normal":
        return nn_config(alpha=draw(st.sampled_from([0.5, -1.5])), **keys)
    if kind == "fdm_shear":
        return fdm_config(H0=draw(st.sampled_from([1.0, 0.37])), **keys)
    return thermal_config(H0=draw(st.sampled_from([0.5, 0.203])), **keys)


@settings(max_examples=30, deadline=None)
@given(cfg=_class_pass_configs(), seed=st.integers(0, 2 ** 16))
@example(cfg=nn_config(n_cells=256, dt=1e-3), seed=0)
@example(cfg=fdm_config(n_cells=200, params=MaterialParams(G=1.0, mu=1.0, rho=1.0)), seed=1)
@example(cfg=nn_config(n_cells=32, params=MaterialParams(G=1.0, mu=1e-4, rho=1.0)), seed=2)
# centers that tie with the front, one class through the steady scores
# (thermal p = 6, fdm_shear p = 24); then many: a step that does not divide
# the cell (thermal: a class per deposited cell, 200) and one that divides
# four cells (fdm_shear: 4 classes of 99 levels)
@example(cfg=thermal_config(n_cells=300), seed=3)
@example(cfg=fdm_config(n_cells=800, t_end=2.0, params=MaterialParams(G=1.0, mu=1.0, rho=1.0)),
         seed=4)
@example(cfg=thermal_config(n_cells=300, dt=1.0 / 1201), seed=5)
@example(cfg=fdm_config(n_cells=800, t_end=2.0, dt=2.0 / 3300,
                        params=MaterialParams(G=1.0, mu=1.0, rho=1.0)), seed=6)
def test_class_pass_matches_the_block_pass(cfg, seed):
    # every column the entry-class pass forms against the block pass on the
    # same age tables, and the oracle columns against the per-cell closed
    # form, within _tolerance; level_v1 against np.interp over
    # History.v_nodes within the velocities' round-off
    result = run_scenario(cfg)
    history = result.history
    speed = level_speed(history)
    v_surf, metrics, _ = block_columns(cfg, history)
    _assert_columns_agree(cfg, {"v_surf": history.v_surf, **history.metrics},
                          {"v_surf": v_surf, **metrics}, speed)
    _assert_oracle_columns_agree(cfg, result.oracle_errors, _per_level_oracle(cfg, history),
                                 speed)
    rng = np.random.default_rng(seed)
    level = rng.integers(0, len(history), 64)
    x2 = rng.uniform(-0.1, 1.1, 64) * history.H[level]
    expected = [np.interp(x, history.faces[:history.m[k] + 1], history.v_nodes(k))
                for k, x in zip(level.tolist(), x2.tolist())]
    assert np.all(np.abs(level_v1(history, level, x2, result.classes) - expected)
                  <= velocity_tolerance(speed[level]))


def _per_level_records(cfg):
    """The records of a run as a march of one solve per level builds them:
    the schedule level by level, the solve of each level alone
    (``_level_solve``), its metrics from scalar calls, and the shear
    stepped to the next level."""
    params = cfg.params
    dt, n_steps = cfg.resolve_dt()
    grid = cfg.eulerian_grid()
    F_att = cfg.attachment_deformation()
    H0, rate = cfg.height0, cfg.boundary_rate

    def height(k):
        return H0 if k == 0 else advance_domain(H0, rate, dt, n_steps=k)

    def active(k):
        tau = FRONT_ULPS * np.spacing(grid.height)
        return int(np.searchsorted(grid.centers, height(k) + tau, side="right"))

    m0 = active(0)
    F_e0 = np.empty((grid.n_cells, 2, 2))
    F_e0[:m0], F_e0[m0:] = np.eye(2), F_att
    if cfg.kind == "fdm_shear":
        F_e0[:m0, 0, 1] = cfg.mass_rate * cfg.v0 / params.G
    p = normal_pressure(F_e0, params.G, 0.0)
    rho = np.full(grid.n_cells, params.rho)
    records, F12 = [], None
    for k in range(n_steps + 1):
        m = active(k)
        if m == 0:
            continue
        if F12 is None:
            F12 = F_e0[:m, 0, 1].copy()
        level = Grid1D(m, height(k), grid.dx)
        g, v_nodes, system, traction = _level_solve(cfg, F12, F_e0[:m], grid.dx)
        rec = StepRecord(t=k * dt, step=k, grid=level, F_e12=F12, g=g,
                         F_e0=F_e0[:m], p=p[:m], rho=rho[:m], v_surf=v_nodes[-1])
        rec.metrics = {"traction_residual": traction, "system_residual": system,
                       **_per_level_metrics(cfg, rec)}
        records.append(rec)
        if k < n_steps:
            F12 = reduced_step_1d(F12, g, F_e0[:m, 1, 1], dt, active(k + 1),
                                  F_att[0, 1])
    return records


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_built_records_are_bitwise_those_of_a_per_level_march(monkeypatch, make):
    # the class rows in chunks of a few classes
    _class_cells(monkeypatch, 256)
    cfg = make(n_cells=32, t_end=0.25)
    history = run_scenario(cfg).history
    reference = _per_level_records(cfg)
    assert len(history) == len(reference) > 100
    for rec, ref in zip(history, reference):
        assert type(rec.t) is float and _bits(rec.t) == _bits(ref.t)
        assert type(rec.step) is int and rec.step == ref.step
        assert (rec.grid.n_cells, _bits([rec.grid.height, rec.grid.dx])) == \
            (ref.grid.n_cells, _bits([ref.grid.height, ref.grid.dx]))
        for name in ("F_e12", "g", "v_nodes", "F_e0", "p", "rho"):
            assert _bits(getattr(rec, name)) == _bits(getattr(ref, name)), name
        assert type(rec.v_surf) is float
        assert list(rec.metrics) == list(history.metrics)
        assert sorted(rec.metrics) == sorted(ref.metrics)
        assert all(type(value) is float for value in rec.metrics.values())
        speed = np.abs(ref.v_nodes).max()
        _assert_columns_agree(cfg, {"v_surf": rec.v_surf, **rec.metrics},
                              {"v_surf": ref.v_surf, **ref.metrics}, speed)


def _sweep_member(mu):
    """The ``run_mu_sweep`` member at ``mu`` of ``nn_config(n_cells=32)``."""
    cfg = nn_config(n_cells=32)
    params = replace(cfg.params, mu=mu)
    return replace(cfg, params=params, dt=min(0.5 * mu / params.G, cfg.t_end / 64.0))


@pytest.mark.parametrize("cfg", [
    nn_config(n_cells=32, t_end=0.25),
    nn_config(n_cells=32, t_end=0.25, alpha=0.0),
    nn_config(n_cells=32, params=MaterialParams(G=1.0, mu=1.0, rho=1.0), dt=1.0 / 8),
    thermal_config(n_cells=32, t_end=0.25),
    thermal_config(n_cells=32, dt=1.0 / 8),
    thermal_config(n_cells=32, t_end=0.25, H0=0.0),
    # the initial body and the deposit enter in equal states: two tables
    thermal_config(n_cells=32, t_end=0.25, alpha=1.0),
    _sweep_member(1e-3),
], ids=["non_normal", "alpha_0", "cells_per_step", "thermal_two_classes",
        "thermal_cells_per_step", "thermal_H0_0", "thermal_equal_states",
        "sweep_mu_1e-3"])
def test_age_march_is_bitwise_a_per_level_march(monkeypatch, cfg):
    # material attaches at the body's velocity, so no traction follows the
    # body: the run is marched by age
    assert cfg.kind != "fdm_shear"
    recurrence, tables = surfgrow.scenarios.shear_by_age, []

    def recording_recurrence(F12, F22, *args):
        tables.append((_bits(F12), _bits(F22)))
        return recurrence(F12, F22, *args)

    monkeypatch.setattr(surfgrow.scenarios, "shear_by_age", recording_recurrence)
    result = run_scenario(cfg)
    history = result.history
    # one table per entry state that has cells: the initial body's (when a
    # body is present at t = 0), then the deposit's
    states = [cfg.initial_deformation()] if history.step[0] == 0 else []
    states.append(cfg.attachment_deformation())
    assert tables == [(_bits(F[0, 1]), _bits(F[1, 1])) for F in states]
    reference = _per_level_records(cfg)
    assert len(history) == len(reference)
    assert len({rec.step for rec in reference}) == len(reference) > 7
    for row, name in enumerate(("F_e12", "g")):
        assert _bits(np.concatenate([history.columns(k, row) for k in range(len(history))])) \
            == _bits(np.concatenate([getattr(rec, name) for rec in reference])), name
    speed = np.array([np.abs(rec.v_nodes).max() for rec in reference])
    assert sorted(history.metrics) == sorted(reference[0].metrics)
    _assert_columns_agree(cfg, {"v_surf": history.v_surf, **history.metrics},
                          {"v_surf": [rec.v_surf for rec in reference],
                           **{name: [rec.metrics[name] for rec in reference]
                              for name in history.metrics}}, speed)
    _assert_oracle_columns_agree(cfg, result.oracle_errors,
                                 _per_level_oracle(cfg, reference), speed)


@pytest.mark.parametrize("F12, F22, tau1", [(-0.5, 1.0, 0.0), (-0.0, 1.0, 0.0),
                                            (0.3, 1.25, 0.0), (0.7, 0.8, 0.2),
                                            (-1.1, 3.0, -0.4)])
def test_age_recurrence_is_bitwise_the_level_kernel(F12, F22, tau1):
    # the bundled kinds enter with F_e22 = 1 or F_e12 = 0, where a reordered
    # product cannot show; here each step is first_integral's and
    # reduced_step_1d's on one cell
    params = MaterialParams(G=1.3, mu=0.07, rho=1.0)
    dt, ages = 0.01, 200
    shears, rates = shear_by_age(F12, F22, tau1, params, dt, ages)
    assert len(shears) == len(rates) == ages
    f, d = np.array([F12]), np.array([F22])
    for age in range(ages):
        g = first_integral(f, d, tau1, params)
        assert _bits(shears[age]) == _bits(f) and _bits(rates[age]) == _bits(g), age
        f = reduced_step_1d(f, g, d, dt, 1, 0.0)


def test_age_recurrence_holds_two_float64_rows():
    # one float an age while marching, then the rates formed over the row:
    # the result holds 16 bytes an age and the march peaks below 48 (two
    # lists of Python floats held and peaked at 64)
    ages = 10 ** 5
    tracemalloc.start()
    try:
        shears, rates = shear_by_age(-0.5, 1.0, 0.0, MaterialParams(), 1e-3, ages)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    for row in (shears, rates):
        assert isinstance(row, np.ndarray) and row.dtype == np.float64
        assert row.shape == (ages,)
    assert held <= 16 * ages + 4096 and peak <= 48 * ages


def test_history_indexes_like_a_list():
    history = run_thermal(thermal_config(n_cells=16, t_end=0.25)).history
    assert not history._records  # the march builds no record
    records = list(history)
    n = len(records)
    assert len(history) == n > 10 and bool(history)
    for k in (0, 1, n // 2, n - 1, -1, -2, -n):
        assert history[k] is records[k]
    for k in (n, n + 3, -n - 1):
        with pytest.raises(IndexError):
            history[k]
    for s in (slice(None), slice(1, None), slice(None, -1), slice(2, 9, 3),
              slice(None, None, -1), slice(-4, None), slice(5, 2), slice(n + 5, None),
              slice(-n - 5, 3)):
        view = history[s]
        assert isinstance(view, History) and len(view) == len(records[s])
        assert bool(view) == bool(records[s])
        assert all(a is b for a, b in zip(view, records[s]))
        np.testing.assert_array_equal(view.t, [rec.t for rec in records[s]])
        np.testing.assert_array_equal(view.m, [rec.grid.n_cells for rec in records[s]])
    assert history[2:][1:][-1] is records[-1] and history[::-1][0] is records[-1]
    # a record is built on first access and then kept
    fresh = run_thermal(thermal_config(n_cells=16, t_end=0.25)).history
    assert fresh[-1] is fresh[-1] and fresh[3:][0] is fresh[3]
    assert len(fresh._records) == 2


def test_max_metric_propagates_a_nan_into_its_verify_row():
    res = run_thermal(thermal_config(t_end=0.25))
    rows = {row.name: row for row in _residual_rows(res)}
    assert rows["traction_residual_max"].ok
    # Python's max over [1.0, nan] returns 1.0; the column max does not
    # skip a NaN at a later level
    res.history.metrics["traction_residual"][5] = np.nan
    assert math.isnan(res.max_metric("traction_residual"))
    rows = {row.name: row for row in _residual_rows(res)}
    assert not rows["traction_residual_max"].ok
    assert rows["jump_mass_residual_max"].ok


def _held_by_run(cfg):
    run_scenario(cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = run_scenario(cfg)
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held, res.history


def test_stored_history_keeps_two_scalars_per_cell():
    # at most, per level, F_e12 and g (2 floats a cell, as buffers of every
    # level's cells would hold them; a run holds its age tables, a few
    # floats a level) and a small constant; an owned (n, 2, 2) F_e stack
    # would add 4 floats a cell, and owned p and v_nodes 2 more
    n = 128
    held, history = _held_by_run(nn_config(n_cells=n, t_end=0.25, dt=1.0 / 2048))
    levels = len(history)
    assert levels > 500
    assert held <= levels * (2 * 8 * n + 1024)
    # the cost of one more active cell, from a run on twice the cells
    # over the same steps: 16 bytes
    held2, history2 = _held_by_run(nn_config(n_cells=2 * n, t_end=0.25, dt=1.0 / 2048))
    cells = sum(rec.grid.n_cells for rec in history)
    cells2 = sum(rec.grid.n_cells for rec in history2)
    assert cells2 > 1.9 * cells
    assert (held2 - held) / (cells2 - cells) <= 2 * 8 + 1


def test_stored_level_costs_little_beyond_its_cells():
    # a level is a few per-level scalars, one float per metric and per
    # oracle error, and at most its cells' F_e12 and g; no record, grid or
    # dict is held per level
    n = 128
    held, history = _held_by_run(nn_config(n_cells=n, t_end=0.25, dt=1.0 / 2048))
    levels, cells = len(history), int(history.m.sum())
    assert levels > 500
    assert held <= 16 * cells + 256 * levels


def _by_age_reference(cfg, history):
    """Each stored level's ``(F_e12, g)`` rebuilt from ``shear_by_age``: a
    cell enters at the first stored level that holds it, in the initial
    body's state if it is active at t = 0 and the deposit's otherwise, and
    at level ``i`` it is ``i`` minus that level steps old."""
    dt, _ = cfg.resolve_dt()
    levels, tau1 = len(history), float(_traction(cfg, 0.0)[0])
    tables = [np.array(shear_by_age(float(F[0, 1]), float(F[1, 1]), tau1, cfg.params,
                                    dt, levels))
              for F in (cfg.initial_deformation(), cfg.attachment_deformation())]
    m0 = int(history.m[0]) if history.step[0] == 0 else 0
    reference = []
    for i, m in enumerate(history.m.tolist()):
        cells = np.arange(m)
        ages = i - np.searchsorted(history.m, cells, side="right")
        reference.append(np.where(cells < m0, tables[0][:, ages], tables[1][:, ages]))
    return reference


@pytest.mark.parametrize("cfg", [
    nn_config(n_cells=32, t_end=0.25),
    fdm_config(n_cells=32, t_end=0.25),
    thermal_config(n_cells=32, t_end=0.25),
    thermal_config(n_cells=32, t_end=0.25, alpha=1.0),
], ids=["non_normal", "fdm_shear", "thermal_H0", "thermal_alpha_1"])
def test_every_level_reads_its_cells_through_the_map(monkeypatch, cfg):
    # the class rows in chunks of a few classes
    _class_cells(monkeypatch, 256)
    history = run_scenario(cfg).history
    levels = len(history)
    # the age tables: per entry state, one zero for every negative age then
    # `levels` ages
    states = 2 if history.step[0] == 0 else 1
    assert history.source.shape == (2, states * (levels + 1))
    reference = _by_age_reference(cfg, history)
    assert len(reference) == levels > 100
    for s in (slice(None), slice(5, None), slice(None, None, -7)):
        view = history[s]
        for k, i in enumerate(range(levels)[s]):
            F12, g = reference[i]
            v_nodes = np.concatenate([[0.0], (history.dx * g).cumsum()])
            assert _bits(view.columns(k)) == _bits(reference[i])
            assert _bits(view.columns(k, 0)) == _bits(F12)
            assert _bits(view.v_nodes(k)) == _bits(v_nodes)
            assert abs(view.v_surf[k] - v_nodes[-1]) <= \
                velocity_tolerance(np.abs(v_nodes).max())
            rec = view[k]
            assert _bits(rec.F_e12) == _bits(F12) and _bits(rec.g) == _bits(g)
            assert _bits(rec.v_nodes) == _bits(v_nodes)


@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_age_marched_run_peaks_far_below_its_cells(make):
    # n = 1600 marches 6,400 steps over 5.1e6 (non_normal) to 9.4e6
    # (fdm_shear) cell-levels, which would take 82 to 150 MB as buffers of
    # every level's F_e12 and g; the tables, the map and the block pass's
    # scratch are a few MB
    cfg = make(n_cells=1600)
    _, n_steps = cfg.resolve_dt()
    tracemalloc.start()
    try:
        history = run_scenario(cfg).history
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_steps == 6400 and 16 * int(history.m.sum()) > 80e6
    assert peak < 12e6


@pytest.mark.parametrize("kind", KINDS)
def test_run_peaks_at_its_result_plus_one_pass(kind):
    # the checks' arrays are freed before the oracle runs, and the class
    # passes form their rows in reused buffers, so a run at n = 800 peaks
    # within twice the bytes its result holds (1.8, 1.7 and 1.7 times;
    # 3.05 and 2.46 for non_normal and thermal while the checks' arrays
    # lived through the oracle, 2.99 for fdm_shear while rounding split its
    # entries into 67 classes)
    cfg = ScenarioConfig(kind=kind, n_cells=800)
    run_scenario(cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run_scenario(cfg)
        held, peak = (value - base for value in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert result.oracle_errors and held > 0.4e6
    assert peak <= 2.0 * held


@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_no_pass_builds_a_stored_F_e(make, tmp_path):
    # scoring, the oracles, pathlines, the gap, the round-trip, the writers,
    # the probe and the sweep read the records' columns; a built F_e would
    # be cached on its record
    cfg = make(n_cells=32, t_end=0.25, n_snapshots=4)
    res = run_scenario(cfg)
    res.pathlines = trace_history_pathlines(res, count=5)
    pathline_grid_discrepancy(res, res.pathlines)
    reconstruction_roundtrip_error(res)
    reconstruct_reference(res.history)
    res.probe(0.1)
    write_fields(res, tmp_path / "out")
    # none of them builds a record
    assert not res.history._records
    assert not any("F_e" in vars(rec) for rec in res.history)
    for rec in res.history:
        m = rec.grid.n_cells
        assert rec.F_e12.shape == rec.g.shape == (m,)
        for view in (rec.F_e0, rec.p, rec.rho):
            assert view.base is not None and not view.flags.writeable
    # a record's F_e12 and g are each cell's entry state's values at its
    # age, gathered into arrays of the record's own
    history = res.history
    for rec, expected in zip(history, _columns_by_age(cfg, history), strict=True):
        for values, reference in zip((rec.F_e12, rec.g), expected, strict=True):
            assert _bits(values) == _bits(reference)
            assert not np.shares_memory(values, history.source)


def test_verify_marches_each_configuration_once(monkeypatch):
    # the refinement study's run at the canonical resolution is the one
    # verify_non_normal reports: no configuration is marched twice
    marched = _counting_marches(monkeypatch)
    for kind in KINDS:
        marched.clear()
        rows, result = verify_scenario(kind)
        assert all(row.ok for row in rows)
        counts = Counter(marched)
        assert counts[result.config] == 1
        assert set(counts.values()) == {1}, kind


@pytest.mark.parametrize("kind", ["fdm_shear", "thermal"])
def test_verify_tables_read_the_columns(kind):
    rows, result = verify_scenario(kind)
    assert all(row.ok for row in rows)
    assert len(result.history._records) <= 1  # the final level
    assert not any("F_e" in vars(rec) for rec in result.history)


@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_rest_deviation_reads_every_level(make):
    # verify_thermal's alpha = 1 deviation, read from the age rows and the
    # per-cell constants, against a loop over every stored level: F_e's
    # deviation exactly, v1's through its bound dx m max|g|
    history = run_scenario(make(n_cells=32, t_end=0.25)).history
    F_dev = v_dev = g_max = 0.0
    for j in range(len(history)):
        F_e0, F12 = history.F_e0[:int(history.m[j])], history.columns(j, 0)
        F11, F21, F22 = F_e0[:, 0, 0], F_e0[:, 1, 0], F_e0[:, 1, 1]
        F_dev = max(F_dev, *(float(np.max(np.abs(x)))
                             for x in (F11 - 1.0, F12, F21, F22 - 1.0)))
        v_dev = max(v_dev, float(np.max(np.abs(history.v_nodes(j)))))
        g_max = max(g_max, float(np.max(np.abs(history.columns(j, 1)))))
    dev = _rest_deviation(history)
    assert max(F_dev, v_dev) <= dev == max(F_dev, history.dx * int(history.m[-1]) * g_max)
    at_rest = run_scenario(thermal_config(n_cells=32, t_end=0.25, alpha=1.0)).history
    assert _rest_deviation(at_rest) == 0.0


def test_built_F_e_is_kept_and_an_edit_persists():
    res = run_non_normal(nn_config(n_cells=32, t_end=0.25))
    rec = res.history[-1]
    F_e = rec.F_e
    assert rec.F_e is F_e and F_e.shape == (rec.grid.n_cells, 2, 2)
    np.testing.assert_array_equal(F_e[:, 0, 1], rec.F_e12)
    F_e[0, 0, 1] += 0.1
    assert rec.F_e[0, 0, 1] == rec.F_e12[0] + 0.1
    # the record's own columns and the run's constants are untouched
    assert not np.shares_memory(F_e, rec.F_e12) and not np.shares_memory(F_e, rec.F_e0)
    assert "F_e" not in vars(res.history[-2])


@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_replayed_frames_within_one_ulp_of_inverse_reference(make):
    cfg = make(n_cells=32, t_end=0.25)
    res = run_scenario(cfg)
    for frame, rec in zip(reconstruct_reference(res.history), res.history, strict=True):
        m = rec.grid.n_cells
        F = np.broadcast_to(np.eye(2), (m, 2, 2)).copy()
        F[:, 0, 1] = frame.F[:, 0, 1]
        np.testing.assert_array_equal(frame.F, F)
        reference = inverse(rec.F_e) @ frame.F
        assert np.all(np.abs(frame.F_relax - reference) <= np.spacing(np.abs(reference)))


def _entered(history):
    """The first stored level that holds a deposited cell."""
    return int(np.searchsorted(history.m, history.m[0], side="right"))


def test_error_mid_march_names_step_and_time(monkeypatch):
    # a non-finite rate at age 5 of every table: fdm_shear's initial body,
    # active from step 0, reaches it first, at step 5
    recurrence = surfgrow.scenarios.shear_by_age

    def failing_recurrence(*args):
        shears, rates = recurrence(*args)
        rates[5] = np.nan
        return shears, rates

    monkeypatch.setattr(surfgrow.scenarios, "shear_by_age", failing_recurrence)
    cfg = fdm_config(t_end=0.5)
    dt, _ = cfg.resolve_dt()
    with pytest.raises(SingularSystem) as info:
        run_fdm_shear(cfg)
    assert str(info.value) == (f"step 5, t = {5 * dt:.6g}: "
                               f"momentum solve produced non-finite values")
    assert isinstance(info.value.__cause__, SingularSystem)
    assert str(info.value.__cause__) == "momentum solve produced non-finite values"


def test_march_checks_the_body_stays_at_the_rest_it_assumed(monkeypatch):
    # fdm_shear is marched under the traction M v0 its feed sets on a body
    # at rest, and each level is checked against the traction M (v0 - v)
    # its own top velocity v sets.  A shear offset from age 10 on, with the
    # rates the march's traction gives it, keeps every level's first
    # integral exact but moves the top from step 10, where only the initial
    # body is that old: the top row of the system residual reads
    # dx M |v_surf| / mu (over max(1, max |v|)), the momentum jump residual
    # M |v_surf|
    cfg = fdm_config(n_cells=32, t_end=0.25)
    M, mu, age = cfg.mass_rate, cfg.params.mu, 10
    recurrence = surfgrow.scenarios.shear_by_age

    def offset_by(delta):
        def shifted(F12, F22, tau1, params, dt, ages):
            shears, rates = recurrence(F12, F22, tau1, params, dt, ages)
            for a in range(age, ages):
                shears[a] += delta
                rates[a] = float(first_integral(np.array([shears[a]]), np.array([F22]),
                                                tau1, params)[0])
            return shears, rates

        monkeypatch.setattr(surfgrow.scenarios, "shear_by_age", shifted)

    offset_by(1e-6)
    history = run_fdm_shear(cfg).history
    assert history.step[0] == 0 and _entered(history) > age
    v_surf, dx = history.v_surf, history.dx
    system = history.metrics["system_residual"]
    assert np.abs(v_surf[:age]).max() <= 1e-15 and system[:age].max() <= 1e-15
    moved = v_surf[age]
    assert 1e-7 < abs(moved) < 1e-5
    assert system[age] == pytest.approx(dx * M * abs(moved) / mu, rel=1e-6)
    assert history.metrics["momentum_residual"][age] == pytest.approx(M * abs(moved),
                                                                       rel=1e-6)
    # the top cell's stress is formed from the rate the march stored, so
    # the traction residual reads the same M |v_surf|
    assert history.metrics["traction_residual"][age] == pytest.approx(M * abs(moved),
                                                                      rel=1e-6)
    # against the march's own traction the level is consistent: only the
    # traction of its own top velocity shows the motion
    rec, rest = history[age], np.array([_traction(cfg, 0.0)])
    F22 = rec.F_e0[:, 1, 1].copy()
    at_rest, _ = solve_residuals(rec.F_e12, rec.g[None], [len(F22)], rec.v_nodes[None],
                                 cell_S22(F22), F22, rest, cfg.params, dx)
    assert at_rest[0] <= 1e-15
    assert history.metrics["momentum_residual"][age] < 1e-6
    dt, _ = cfg.resolve_dt()
    # 200 times that offset moves the top 200 times as fast: its system
    # residual, dx M |v_surf| / mu = 6.4e-7, stays within the limit, and the
    # momentum jump residual, which reads M |v_surf| = 1.99e-5 unscaled,
    # refuses the run at that step
    offset_by(2e-4)
    with pytest.raises(IncompatibleAnsatz) as info:
        run_fdm_shear(cfg)
    message = str(info.value)
    assert message.startswith(f"step {age}, t = {age * dt:.6g}: momentum jump residual ")
    assert message.endswith("; the through-thickness ansatz is inconsistent")
    assert float(message.split("residual ")[1].split(";")[0]) == pytest.approx(
        200 * M * abs(moved), rel=1e-3)
    assert dx * 200 * M * abs(moved) / mu < 1e-6
    # an offset that moves the top past the limit of both is named by the
    # solve's residual
    offset_by(0.1)
    with pytest.raises(IncompatibleAnsatz) as info:
        run_fdm_shear(cfg)
    assert str(info.value).startswith(f"step {age}, t = {age * dt:.6g}: reduced solve "
                                      f"residual ")
    assert str(info.value).endswith("the through-thickness ansatz is inconsistent")


def _offend_at(monkeypatch, level, value=1e-3):
    """Make the class pass report a system residual of ``value`` for the
    stored level ``level``, counting the levels of the runs it checks."""
    checks = surfgrow.scenarios._solve_checks
    seen = [0]

    def inconsistent(classes, P, scale):
        lo, hi, interior = checks(classes, P, scale)
        j = level - seen[0]
        if 0 <= j < len(interior):
            interior[j] = value
        seen[0] += len(interior)
        return lo, hi, interior

    monkeypatch.setattr(surfgrow.scenarios, "_solve_checks", inconsistent)


def _levels_checked(monkeypatch):
    """Record the levels the class pass checks in each run."""
    checks = surfgrow.scenarios._solve_checks
    seen = []

    def counting(classes, P, scale):
        seen.append(len(P))
        return checks(classes, P, scale)

    monkeypatch.setattr(surfgrow.scenarios, "_solve_checks", counting)
    return seen


def _scored(monkeypatch):
    """Record the runs the oracles score."""
    scored = []
    for name in ("_score_non_normal", "_score_steady"):
        def scoring(config, *args, oracle=getattr(surfgrow.scenarios, name)):
            scored.append(config)
            return oracle(config, *args)

        monkeypatch.setattr(surfgrow.scenarios, name, scoring)
    return scored


def test_ansatz_residual_is_checked_for_every_kind(monkeypatch):
    # non_normal solves from step 2, when H = 2 dt reaches the first
    # center dx / 2: the fourth stored level is step 5
    _offend_at(monkeypatch, 3)
    cfg = nn_config(n_cells=32, t_end=0.25)
    dt, _ = cfg.resolve_dt()
    with pytest.raises(IncompatibleAnsatz) as info:
        run_non_normal(cfg)
    assert str(info.value).startswith(f"step 5, t = {5 * dt:.6g}: ")
    assert "1.000e-03" in str(info.value)


@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
@pytest.mark.parametrize("where", ["first", "first_in_block", "mid_block", "last"])
def test_ansatz_guard_names_the_offending_level(monkeypatch, make, where):
    # the levels the block pass of 256 cells began its blocks with and held
    # in their middle, the first and the last
    cfg = make(n_cells=32, t_end=0.25)
    history = run_scenario(cfg).history
    levels = len(history)
    blocks = block_bounds(history.m, 256)
    assert len(blocks) > 3
    i0, B = blocks[2]
    assert B >= 3
    level = {"first": 0, "first_in_block": blocks[1][0],
             "mid_block": i0 + B // 2, "last": levels - 1}[where]
    checked = _levels_checked(monkeypatch)
    _offend_at(monkeypatch, level, value=2.5e-6)
    scored = _scored(monkeypatch)
    dt, _ = cfg.resolve_dt()
    step = history[level].step
    with pytest.raises(IncompatibleAnsatz) as info:
        run_scenario(cfg)
    assert str(info.value) == (
        f"step {step}, t = {step * dt:.6g}: reduced solve residual 2.500e-06; "
        f"the through-thickness ansatz is inconsistent")
    assert isinstance(info.value.__cause__, IncompatibleAnsatz)
    # every level is checked in one pass, and a refused run is not scored
    assert checked == [levels] and scored == []


def _assert_non_finite_level_stops_the_march(monkeypatch, make, fault, error):
    cfg = make(n_cells=32, t_end=0.25)
    history = run_scenario(cfg).history
    # the fourth level of the block pass's second block of 256 cells; the
    # first level's cells are the first to reach that age
    i0, B = block_bounds(history.m, 256)[1]
    assert B > 4
    level = i0 + 3
    recurrence = surfgrow.scenarios.shear_by_age

    def faulty_recurrence(F12, F22, tau1, params, dt, ages):
        shears, rates = recurrence(F12, F22, tau1, params, dt, ages)
        if fault == "inf_F12":
            shears[level] = np.inf
            rates[level] = float(first_integral(np.array([np.inf]), np.array([F22]),
                                                tau1, params)[0])
        else:
            rates[level] = np.nan
        return shears, rates

    monkeypatch.setattr(surfgrow.scenarios, "shear_by_age", faulty_recurrence)
    checked = _levels_checked(monkeypatch)
    scored = _scored(monkeypatch)
    dt, _ = cfg.resolve_dt()
    step = history[level].step
    with pytest.raises(error) as info:
        run_scenario(cfg)
    assert str(info.value).startswith(f"step {step}, t = {step * dt:.6g}: ")
    assert "F_e12" in str(info.value) if error is ValidationError else \
        "non-finite" in str(info.value)
    # the levels before it are checked, and the run is not scored
    assert checked == [level] and scored == []
    # an offending residual at an earlier level is named first
    _offend_at(monkeypatch, level - 1)
    with pytest.raises(IncompatibleAnsatz) as info:
        run_scenario(cfg)
    assert str(info.value).startswith(f"step {step - 1}, t = {(step - 1) * dt:.6g}: ")


@pytest.mark.parametrize("fault, error", [("nan_g", SingularSystem),
                                          ("inf_F12", ValidationError)])
def test_non_finite_level_stops_the_march_at_its_step(monkeypatch, fault, error):
    _assert_non_finite_level_stops_the_march(monkeypatch, nn_config, fault, error)


@pytest.mark.parametrize("fault, error", [("nan_g", SingularSystem),
                                          ("inf_F12", ValidationError)])
def test_non_finite_level_stops_the_level_march_at_its_step(monkeypatch, fault, error):
    # fdm_shear's traction follows the top velocity, and it is marched by
    # age like the other kinds: a fault in its initial body's table stops
    # the march at the faulty level
    _assert_non_finite_level_stops_the_march(monkeypatch, fdm_config, fault, error)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("fault, error", [("rates", SingularSystem),
                                          ("F12", ValidationError)])
def test_both_infinities_in_a_level_name_its_step(monkeypatch, fault, error):
    # a level whose shear rates hold +inf and -inf sums them to NaN in its
    # face velocities: the march names the step instead of ending with
    # numpy's invalid-value warning.  Three steps after fdm_shear's first
    # deposited cell enters, its initial body's table gets +inf and its
    # deposit's table -inf, at the ages those cells first reach there.
    cfg = fdm_config(n_cells=32, t_end=0.25)
    step = _entered(run_fdm_shear(cfg).history) + 3
    faults = iter([(step, np.inf), (3, -np.inf)])
    recurrence = surfgrow.scenarios.shear_by_age

    def faulty_recurrence(F12, F22, tau1, params, dt, ages):
        shears, rates = recurrence(F12, F22, tau1, params, dt, ages)
        age, value = next(faults)
        if fault == "F12":
            shears[age] = value
            rates[age] = float(first_integral(np.array([value]), np.array([F22]),
                                              tau1, params)[0])
        else:
            rates[age] = value
        return shears, rates

    monkeypatch.setattr(surfgrow.scenarios, "shear_by_age", faulty_recurrence)
    dt, _ = cfg.resolve_dt()
    with pytest.raises(error) as info:
        run_fdm_shear(cfg)
    assert str(info.value).startswith(f"step {step}, t = {step * dt:.6g}: ")
    # the F12 fault gives the level's rates both infinities too
    assert np.isinf(first_integral(np.array([np.inf, -np.inf]), np.ones(2), 0.0,
                                   cfg.params)).all()


@pytest.mark.parametrize("probe_x2", [0.25, 0.9, -1.0, 5.0])
@pytest.mark.parametrize("mu_values", [None, (1.0, 0.1, 0.01, 0.001)],
                         ids=["defaults", "to_1e-3"])
def test_sweep_values_are_the_scored_members_probes(monkeypatch, mu_values, probe_x2):
    # each value is bitwise the probe of the member that run_non_normal
    # marches and scores (the mu = 1e-3 member's 0.0 included), and the
    # sweep scores every member
    cfg = nn_config(n_cells=32)
    scale = cfg.params.G * cfg.t_end
    mus = mu_values or tuple(c * scale for c in (1.0, 0.3, 0.1, 0.03, 0.01))
    reference = [abs(float(run_non_normal(_sweep_member(mu)).probe(probe_x2)["F_e"][0, 1]))
                 for mu in mus]
    if mu_values and probe_x2 == 0.25:
        assert reference[-1] == 0.0

    scored = _scored(monkeypatch)
    sweep = run_mu_sweep(cfg, probe_x2=probe_x2, mu_values=mu_values)
    assert [member.params.mu for member in scored] == list(mus)
    assert [mu for mu, _ in sweep] == list(mus)
    assert all(type(value) is float for _, value in sweep)
    assert [_bits(value) for _, value in sweep] == [_bits(value) for value in reference]


def test_sweep_members_keep_every_gate(monkeypatch):
    # a member passes every gate of run_non_normal, and the error names the
    # step of the member that failed: the second one here
    cfg, mus = nn_config(n_cells=32), (1.0, 0.1)
    first, second = (run_non_normal(_sweep_member(mu)).history for mu in mus)
    dt, _ = _sweep_member(mus[1]).resolve_dt()
    _offend_at(monkeypatch, len(first) + 3)
    step = int(second.step[3])
    with pytest.raises(IncompatibleAnsatz) as info:
        run_mu_sweep(cfg, mu_values=mus)
    assert str(info.value) == (f"step {step}, t = {step * dt:.6g}: reduced solve residual "
                               f"1.000e-03; the through-thickness ansatz is inconsistent")
    monkeypatch.undo()
    # a non-finite rate at age 5 of the second member's table
    recurrence = surfgrow.scenarios.shear_by_age

    def faulty_recurrence(F12, F22, tau1, params, dt, ages):
        shears, rates = recurrence(F12, F22, tau1, params, dt, ages)
        if params.mu == mus[1]:
            rates[5] = np.nan
        return shears, rates

    monkeypatch.setattr(surfgrow.scenarios, "shear_by_age", faulty_recurrence)
    step = int(second.step[5])
    with pytest.raises(SingularSystem) as info:
        run_mu_sweep(cfg, mu_values=mus)
    assert str(info.value) == (f"step {step}, t = {step * dt:.6g}: "
                               f"momentum solve produced non-finite values")


# The audit of the per-level checks: one fault class at a time, injected
# through the age tables (``shear_by_age``) from age 10 on.  A wrong map
# cannot be built: ``History`` derives it from the schedule
# (``test_history_derives_its_map_from_the_schedule``).  Per kind and class: the check that refuses the
# run first (its error's name, or None for a run that passes every check),
# the stored level where it does, and the gated residuals that pass the
# limit at that level when the gate is lifted.
AUDIT_AGE = 10
NON_FINITE = "momentum solve produced non-finite values"  # the v_surf check
AUDIT = {
    "non_normal": {"shear": ("reduced solve", AUDIT_AGE, {"system"}),
                   "rate": ("reduced solve", AUDIT_AGE, {"system"}),
                   "non_finite": (NON_FINITE, AUDIT_AGE, None),
                   "moving_top": None, "entry_state": None},
    "fdm_shear": {"shear": ("reduced solve", AUDIT_AGE, {"system", "momentum", "traction"}),
                  "rate": ("reduced solve", AUDIT_AGE, {"system", "momentum", "traction"}),
                  "non_finite": (NON_FINITE, AUDIT_AGE, None),
                  "moving_top": ("momentum jump", AUDIT_AGE, {"momentum", "traction"}),
                  "entry_state": ("reduced solve", 0, {"system", "momentum", "traction"})},
    "thermal": {"shear": ("reduced solve", AUDIT_AGE, {"system"}),
                "rate": ("reduced solve", AUDIT_AGE, {"system"}),
                "non_finite": (NON_FINITE, AUDIT_AGE, None),
                "moving_top": None, "entry_state": None},
}


def _inject(monkeypatch, fault):
    """Inject one fault class into every run that follows:
    - ``shear``: the tables' shears from age 10 on offset by 1e-3;
    - ``rate``: their rates offset the same way;
    - ``non_finite``: a NaN rate at age 10;
    - ``moving_top``: shears offset by 2e-4 from age 10 on with the rates
      the march's traction gives them, so every first integral holds and
      only the top velocity moves;
    - ``entry_state``: every table starts from an entry shear off by 1e-3.
    """
    recurrence = surfgrow.scenarios.shear_by_age

    def faulty(F12, F22, tau1, params, dt, ages):
        if fault == "entry_state":
            F12 = F12 + 1e-3
        shears, rates = recurrence(F12, F22, tau1, params, dt, ages)
        for a in range(AUDIT_AGE, ages):
            if fault == "shear":
                shears[a] += 1e-3
            elif fault == "rate":
                rates[a] += 1e-3
            elif fault == "moving_top":
                shears[a] += 2e-4
                rates[a] = float(first_integral(np.array([shears[a]]), np.array([F22]),
                                                tau1, params)[0])
        if fault == "non_finite" and AUDIT_AGE < ages:
            rates[AUDIT_AGE] = np.nan
        return shears, rates

    monkeypatch.setattr(surfgrow.scenarios, "shear_by_age", faulty)


@pytest.mark.parametrize("fault", ["shear", "rate", "non_finite", "moving_top",
                                   "entry_state"])
@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_audit_names_the_first_check_each_fault_class_trips(monkeypatch, make, fault):
    cfg = make(n_cells=32, t_end=0.25)
    clean = run_scenario(cfg).history
    dt, _ = cfg.resolve_dt()
    expected = AUDIT[cfg.kind][fault]
    _inject(monkeypatch, fault)
    gated = {"system": "system_residual", "momentum": "momentum_residual",
             "traction": "traction_residual"}
    if expected is None:
        # no per-level check catches the class: the run passes, and no
        # residual moves off round-off
        history = run_scenario(cfg).history
        for column in gated.values():
            assert history.metrics[column].max() <= 1e-15, column
        return
    name, level, over = expected
    step = int(clean.step[level])
    error = SingularSystem if name == NON_FINITE else IncompatibleAnsatz
    with pytest.raises(error) as info:
        run_scenario(cfg)
    assert str(info.value).startswith(f"step {step}, t = {step * dt:.6g}: {name}")
    if over is None:
        return
    # with the gate lifted the run passes, and the offending level's row
    # shows every gated residual that reads the fault
    monkeypatch.setattr(surfgrow.scenarios, "ANSATZ_RESIDUAL_LIMIT", np.inf)
    history = run_scenario(cfg).history
    limit = ANSATZ_RESIDUAL_LIMIT
    first = min(int(np.argmax(history.metrics[column] > limit)) for column in
                (gated[check] for check in over))
    assert first == level
    assert {check for check, column in gated.items()
            if history.metrics[column][level] > limit} == over
    assert all(history.metrics[column][:level].max(initial=0.0) <= limit
               for column in gated.values())
    # the traction residual reads the momentum jump residual's value, to
    # round-off: it catches nothing the other does not
    assert history.metrics["traction_residual"][level] == pytest.approx(
        history.metrics["momentum_residual"][level], rel=1e-9, abs=1e-15)
    if cfg.kind != "fdm_shear":
        # the level's top cell is younger than the fault: the system
        # residual that reads it comes from the interior rows alone
        age_of_top = level - int(np.searchsorted(history.m, history.m[level]))
        assert age_of_top < AUDIT_AGE
