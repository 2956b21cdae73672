import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfgrow.scenarios
from surfgrow import (IncompatibleAnsatz, MaterialParams, NoOracle, OutOfBody,
                      PathlineRecord, ScenarioConfig, SingularSystem,
                      ValidationError, analytic_non_normal, convergence_study,
                      integrate_characteristics, reconstruct_reference,
                      reconstruction_roundtrip_error,
                      run_fdm_shear, run_mu_sweep, run_non_normal, run_scenario,
                      run_thermal, trace_history_pathlines,
                      pathline_grid_discrepancy, write_fields)
from surfgrow.balance import (SideState, advance_domain,
                              boundary_normal_velocity, growth_traction,
                              jump_residuals, quasistatic_momentum_solve_1d)
from surfgrow.constitutive import total_stress
from surfgrow.grids import interp_columns
from surfgrow.kinematics import _transport_step_1d, reduced_step_1d, replay_reference
from surfgrow.output import METRIC_FIELDS
from surfgrow.scenarios import BLOCK_LEVELS, RunResult
from surfgrow.tensors import det, inverse
from surfgrow.verify import verify_scenario


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
    with pytest.raises(ValidationError, match="^mu_sweep"):
        nn_config(mu_sweep=sweep)
    with pytest.raises(ValidationError, match="^mu_sweep"):
        run_mu_sweep(nn_config(), mu_values=sweep)
    assert nn_config(mu_sweep=(0.1, 1e-3)).sweep_values() == (0.1, 1e-3)


def test_config_rejects_non_normal_preexisting_body():
    # the closed-form oracle assumes a body grown from nothing
    with pytest.raises(ValidationError, match="H0"):
        nn_config(H0=0.5)
    assert nn_config(H0=0.0).height0 == 0.0


def test_config_rejects_dt_beyond_relaxation_bound():
    # 1 - G dt / mu = -4: marched, this gave an L-inf F_e12 error of 2.0
    with pytest.raises(ValidationError, match="relaxation"):
        nn_config(dt=0.5)
    # thermal deposits carry F_e22 = 1/alpha, tightening the bound to
    # dt <= mu alpha^2 / G = 0.25
    with pytest.raises(ValidationError, match="relaxation"):
        thermal_config(alpha=0.5, dt=0.4)
    thermal_config(alpha=0.5, dt=0.2)
    fdm_config(dt=1.0)
    # the default step and the sweep's dt = mu / (2G) are inside the bound
    nn_config(params=MaterialParams(G=1.0, mu=1e-3, rho=1.0))
    nn_config(params=MaterialParams(G=1.0, mu=1e-3, rho=1.0), dt=5e-4)
    # mu = 0 has no relaxation bound and no stable step
    for make in (nn_config, fdm_config, thermal_config):
        for dt in (None, 0.5):
            with pytest.raises(ValidationError, match="mu"):
                make(params=MaterialParams(G=1.0, mu=0.0, rho=1.0), dt=dt)


def test_default_dt_respects_relaxation_bound():
    # t_end / (4 n) = 0.00125 exceeds mu alpha^2 / G = 0.00025; the default
    # step takes half the bound instead
    cfg = thermal_config(params=MaterialParams(G=1.0, mu=1e-3, rho=1.0),
                         alpha=0.5, n_cells=200)
    dt, n_steps = cfg.resolve_dt()
    assert cfg.relaxation_bound == pytest.approx(2.5e-4, rel=1e-12)
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


def test_non_normal_zero_alpha_stays_stress_free():
    res = run_non_normal(nn_config(alpha=0.0, n_cells=32))
    for rec in res.history:
        assert np.abs(rec.F_e - np.eye(2)).max() == 0.0
        assert np.abs(rec.v_nodes).max() == 0.0
        assert np.abs(rec.p - 1.0).max() == 0.0


def test_non_normal_pressure_uniform_and_ansatz_preserved():
    res = run_non_normal(nn_config())
    assert res.max_metric("max_p_dev") <= 1e-8
    assert res.max_metric("max_F_e21") <= 1e-12
    assert res.max_metric("det_drift") <= 1e-12
    assert res.max_metric("system_residual") <= 1e-10
    for rec in res.history:
        assert abs(rec.grid.height - rec.t) <= 1e-12  # H = V_G t
        assert np.abs(rec.F_e[:, 0, 0] - 1.0).max() <= 1e-12
        assert np.abs(rec.F_e[:, 1, 1] - 1.0).max() <= 1e-12


def test_non_normal_error_against_closed_form():
    res = run_non_normal(nn_config(n_cells=128))
    assert res.oracle_errors["linf_F_e12"].max() <= 2e-2
    assert res.oracle_errors["linf_p"].max() <= 1e-10


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
    # the last level is step n_steps; no level is stored before the first
    # center is reached
    first = n_steps + 1 - len(history)
    if first > 0:
        assert grid.centers[0] > height(first - 1)
    for k, rec in enumerate(history, start=first):
        m = rec.grid.n_cells
        assert rec.t == k * dt
        assert rec.grid.height == height(k)
        assert rec.grid.dx == grid.dx
        np.testing.assert_array_equal(rec.grid.centers, grid.centers[:m])
        assert grid.centers[m - 1] <= rec.grid.height
        assert m == n_cells or grid.centers[m] > rec.grid.height
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
    growth = cfg.growth_input()
    v_surf = 0.0
    for rec in history:
        tau = growth.t_b if growth.v_a is None else growth_traction(
            cfg.mass_rate, growth.v_a, np.array([v_surf, 0.0]), growth.t_b)
        sol = quasistatic_momentum_solve_1d(rec.F_e12, rec.F_e0, rec.grid, cfg.params, tau)
        np.testing.assert_array_equal(rec.g, sol.g)
        np.testing.assert_array_equal(rec.v_nodes, sol.v_nodes)
        assert rec.v_surf == sol.v_nodes[-1]
        v_surf = rec.v_surf


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
    # steady deposition: nothing moves after the jump, so the replayed F is
    # the identity and the relaxed shape is the attachment inverse
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
        assert abs(pl.F_e[0, 0, 1] + cfg.alpha) <= bound


def _per_sample_discrepancy(history, pathlines):
    """The gap sample by sample: the stored level at ``rint((t - t0)/dt)``
    clamped to the history, the height clamped to that level's body."""
    t0 = history[0].t
    dt = history[1].t - history[0].t
    last = len(history) - 1
    worst = 0.0
    for pl in pathlines:
        for m, t in enumerate(pl.t):
            rec = history[min(max(int(round((t - t0) / dt)), 0), last)]
            x2 = min(max(pl.x[m, 1], 0.0), rec.grid.height)
            F_grid = interp_columns(np.array([x2]), rec.grid.centers, rec.F_e)[0]
            worst = max(worst, float(np.max(np.abs(F_grid - pl.F_e[m]))))
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
    x = np.column_stack([np.zeros(40), x2])
    assert t.max() > t_end and x2.max() > H_end and t.min() < 0 and x2.min() < 0
    # with F_e = I the gap of one sample is |F_e12| of the grid where it
    # lands, so scoring samples one at a time shows any level it misplaces
    F_e = np.broadcast_to(np.eye(2), (40, 2, 2))
    for m in range(40):
        one = [PathlineRecord(t=t[m:m + 1], x=x[m:m + 1], F_e=F_e[m:m + 1])]
        gap = pathline_grid_discrepancy(res, one)
        assert repr(gap) == repr(_per_sample_discrepancy(history, one)), m
    pathlines = [PathlineRecord(t=t, x=x, F_e=F_e)] + trace_history_pathlines(res, count=3)
    gap = pathline_grid_discrepancy(res, pathlines)
    assert repr(gap) == repr(_per_sample_discrepancy(history, pathlines))


def test_discrepancy_of_no_pathlines_is_zero():
    res = run_non_normal(nn_config(n_cells=32, t_end=0.25))
    assert pathline_grid_discrepancy(res, []) == 0.0


def test_roundtrip_keeps_one_level_of_the_replay():
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
    assert value == expected
    # holding every frame would take len(history) frames' worth
    assert peak < 10 * frame_bytes


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
    # march over the stored levels is the general RK2 integrator, bitwise
    res = run_scenario(make(n_cells=32, t_end=0.5))
    history = res.history
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
        np.testing.assert_array_equal(pl.t, ref.t)
        np.testing.assert_array_equal(pl.x, ref.x)
        np.testing.assert_array_equal(pl.F_e, ref.F_e)
        # each record owns its arrays rather than viewing a shared buffer
        assert all(a.flags.owndata for a in (pl.t, pl.x, pl.F_e))


def test_convergence_study_fdm_is_scheme_exact():
    rows = convergence_study(fdm_config(t_end=1.0), [16, 32])
    assert all(r.linf <= 1e-10 for r in rows)


def test_convergence_study_single_row_has_no_order():
    rows = convergence_study(nn_config(t_end=0.25), [32])
    assert len(rows) == 1 and rows[0].order is None


def test_convergence_study_thermal_has_no_oracle():
    with pytest.raises(NoOracle):
        convergence_study(thermal_config(), [32, 64])


def test_mu_sweep_defaults():
    cfg = nn_config()
    assert cfg.sweep_values() == (1.0, 0.3, 0.1, 0.03, 0.01)
    assert replace(cfg, mu_sweep=(0.5, 0.1)).sweep_values() == (0.5, 0.1)


@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_reduced_step_reproduces_general_transport(make):
    # v = v1(x2) e1: the general upwind transport with v2 = 0 on the active
    # cells, then the attachment value appended for the cells the boundary
    # reached, is bitwise the source-only step the march takes
    cfg = make(n_cells=32, t_end=0.25)
    res = run_scenario(cfg)
    dt, _ = cfg.resolve_dt()
    F_att = cfg.attachment_deformation()
    # the general kernel's ghost cells need two cells; take a step that
    # attaches a cell
    j = next(j for j, (a, b) in enumerate(zip(res.history, res.history[1:]))
             if 2 <= a.grid.n_cells < b.grid.n_cells)
    prev, cur = res.history[j], res.history[j + 1]
    v1 = 0.5 * (prev.v_nodes[:-1] + prev.v_nodes[1:])
    general = _transport_step_1d(prev.F_e, np.stack([v1, np.zeros_like(v1)], axis=1),
                                 prev.grad_v, prev.grid, dt, inflow_bc=F_att,
                                 mass_rate=cfg.mass_rate)
    fresh = cur.grid.n_cells - prev.grid.n_cells
    general = np.concatenate([general, np.broadcast_to(F_att, (fresh, 2, 2))])
    reduced = reduced_step_1d(prev.F_e12, prev.g, prev.F_e0[:, 1, 1], dt,
                              cur.grid.n_cells, F_att[0, 1])
    np.testing.assert_array_equal(reduced, general[:, 0, 1])
    np.testing.assert_array_equal(cur.F_e12, general[:, 0, 1])
    # the other components are the cells' constants
    np.testing.assert_array_equal(cur.F_e, general)
    # rho never leaves its attachment value
    for rec in res.history:
        assert np.all(rec.rho == cfg.params.rho)
    # the replay, from the first level of two cells, matches one through
    # the general transport kernel that appends F = I for attached cells
    i0 = next(i for i, rec in enumerate(res.history) if rec.grid.n_cells >= 2)
    history = res.history[i0:]
    F = np.broadcast_to(np.eye(2), history[0].F_e.shape).copy()
    frames = reconstruct_reference(history)
    np.testing.assert_array_equal(frames[0].F, F)
    for a, b, frame in zip(history, history[1:], frames[1:]):
        v1 = 0.5 * (a.v_nodes[:-1] + a.v_nodes[1:])
        F = _transport_step_1d(F, np.stack([v1, np.zeros_like(v1)], axis=1),
                               a.grad_v, a.grid, b.t - a.t, inflow_bc=np.eye(2),
                               mass_rate=0.0)
        fresh = b.grid.n_cells - a.grid.n_cells
        F = np.concatenate([F, np.broadcast_to(np.eye(2), (fresh, 2, 2))])
        np.testing.assert_array_equal(frame.F, F)


@pytest.mark.parametrize("make", [nn_config, fdm_config, thermal_config])
def test_rank_one_step_is_the_full_source_update(make):
    # grad v = g e1 (x) e2 and T21 = 0: the shear update F12 + dt (g F22) is
    # bitwise the (0, 1) entry of T + dt (grad_v @ T) and of the general
    # transport kernel with v2 = 0, whose other entries leave T as it is, on
    # every stored level and every replayed frame
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
            if m >= 2:  # the kernel's ghost cells need two cells
                np.testing.assert_array_equal(
                    full, _transport_step_1d(T, np.zeros((m, 2)), grad_v, rec.grid,
                                             dt, None, 0.0))
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
    growth = config.growth_input()
    M, t_b = config.mass_rate, growth.t_b
    n_hat = np.array([0.0, 1.0])
    v_surf = np.array([rec.v_nodes[-1], 0.0])
    v_a = growth.v_a if growth.v_a is not None else v_surf
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
            "max_F_e21": float(np.max(np.abs(rec.F_e[:, 1, 0]))),
            "max_p_dev": float(np.max(np.abs(rec.p - config.params.G)))}


def _per_level_oracle(config, history):
    p = config.params
    rows = []
    for rec in history:
        if config.kind == "non_normal":
            v1_ref, f_ref, p_ref = analytic_non_normal(rec.grid.centers, rec.t, config.alpha,
                                                       p.G, p.mu, config.V_G)
            ef = rec.F_e[:, 0, 1] - f_ref
            v1 = 0.5 * (rec.v_nodes[:-1] + rec.v_nodes[1:])
            rows.append({"linf_F_e12": np.max(np.abs(ef)),
                         "rms_F_e12": np.sqrt(np.mean(ef ** 2)),
                         "linf_v1": np.max(np.abs(v1 - v1_ref)),
                         "linf_p": np.max(np.abs(rec.p - p_ref))})
        else:
            M = config.mass_rate
            sigma = total_stress(rec.F_e, rec.grad_v, rec.p, p)
            rows.append({"linf_F_e12": np.max(np.abs(rec.F_e[:, 0, 1] - M * config.v0 / p.G)),
                         "linf_v1": np.max(np.abs(rec.v_nodes)),
                         "linf_sigma12": np.max(np.abs(sigma[:, 0, 1] - M * config.v0)),
                         "linf_sigma11": np.max(np.abs(sigma[:, 0, 0]
                                                       - (M * config.v0) ** 2 / p.G))})
    return {"t": np.array([rec.t for rec in history]),
            **{name: np.array([row[name] for row in rows]) for name in rows[0]}}


def _assert_scored_like_per_level_reference(result):
    for rec in result.history:
        assert sorted(rec.metrics) == sorted(METRIC_FIELDS)
        for name, value in _per_level_metrics(result.config, rec).items():
            assert type(rec.metrics[name]) is float
            assert rec.metrics[name] == value, name
    if result.config.kind == "thermal":
        assert result.oracle_errors == {}
        return
    reference = _per_level_oracle(result.config, result.history)
    assert sorted(result.oracle_errors) == sorted(reference)
    for name, values in reference.items():
        np.testing.assert_array_equal(result.oracle_errors[name], values, err_msg=name)


@pytest.mark.parametrize("make, dt", [(nn_config, 1.0 / 33), (fdm_config, 2.0 / 32),
                                      (thermal_config, 1.0 / 32)])
@pytest.mark.parametrize("levels", [1, BLOCK_LEVELS, BLOCK_LEVELS + 1])
def test_block_scoring_matches_per_level_reference(make, dt, levels):
    # 33 stored levels: two full blocks and one level over (non_normal's
    # first center, dx / 2 = 1/64, is reached at step 1)
    cfg = make(n_cells=32, dt=dt)
    result = run_scenario(cfg)
    assert len(result.history) == 2 * BLOCK_LEVELS + 1
    _assert_scored_like_per_level_reference(result)
    # rescore the first levels alone: one level, exactly one block, one over
    solve_only = ("traction_residual", "system_residual")
    history = [replace(rec, metrics={k: rec.metrics[k] for k in solve_only})
               for rec in result.history[:levels]]
    prefix = RunResult(config=cfg, history=history)
    surfgrow.scenarios._score_levels(cfg, history)
    if cfg.kind == "non_normal":
        surfgrow.scenarios._attach_oracle_errors_non_normal(prefix)
    elif cfg.kind == "fdm_shear":
        surfgrow.scenarios._attach_oracle_errors_fdm(prefix)
    _assert_scored_like_per_level_reference(prefix)
    for rec, full in zip(prefix.history, result.history):
        assert rec.metrics == full.metrics


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
    # per level: the owned F_e12 and g (2 floats a cell) and a small
    # constant for the record, its grid, its metrics and its views of the
    # run's constants; an owned (n, 2, 2) F_e stack would add 4 floats a
    # cell, and owned p and v_nodes 2 more
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
    assert not any("F_e" in vars(rec) for rec in res.history)
    for rec in res.history:
        m = rec.grid.n_cells
        assert rec.F_e12.shape == rec.g.shape == (m,)
        assert rec.F_e12.flags.owndata and rec.g.flags.owndata
        for view in (rec.F_e0, rec.p, rec.rho):
            assert view.base is not None and not view.flags.writeable


@pytest.mark.parametrize("kind", ["fdm_shear", "thermal"])
def test_verify_tables_read_the_columns(kind):
    rows, result = verify_scenario(kind)
    assert all(row.ok for row in rows)
    assert not any("F_e" in vars(rec) for rec in result.history)


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
    for frame, rec in replay_reference(res.history):
        m = rec.grid.n_cells
        F = np.broadcast_to(np.eye(2), (m, 2, 2)).copy()
        F[:, 0, 1] = frame.F[:, 0, 1]
        np.testing.assert_array_equal(frame.F, F)
        reference = inverse(rec.F_e) @ frame.F
        assert np.all(np.abs(frame.F_relax - reference) <= np.spacing(np.abs(reference)))


def test_error_mid_march_names_step_and_time(monkeypatch):
    solve = surfgrow.scenarios.quasistatic_momentum_solve_1d
    calls = []

    def failing_solve(*args, **kwargs):
        calls.append(1)
        if len(calls) == 6:  # fdm_shear solves at t = 0 first: step 5
            raise SingularSystem("injected")
        return solve(*args, **kwargs)

    monkeypatch.setattr(surfgrow.scenarios, "quasistatic_momentum_solve_1d",
                        failing_solve)
    cfg = fdm_config(t_end=0.5)
    dt, _ = cfg.resolve_dt()
    with pytest.raises(SingularSystem) as info:
        run_fdm_shear(cfg)
    assert str(info.value) == f"step 5, t = {5 * dt:.6g}: injected"
    assert isinstance(info.value.__cause__, SingularSystem)
    assert str(info.value.__cause__) == "injected"


def test_ansatz_residual_is_checked_for_every_kind(monkeypatch):
    solve = surfgrow.scenarios.quasistatic_momentum_solve_1d
    calls = []

    def inconsistent_solve(*args, **kwargs):
        calls.append(1)
        sol = solve(*args, **kwargs)
        # non_normal solves from step 2, when H = 2 dt reaches the first
        # center dx / 2: the fourth solve is step 5
        if len(calls) == 4:
            sol = replace(sol, system_residual=1e-3)
        return sol

    monkeypatch.setattr(surfgrow.scenarios, "quasistatic_momentum_solve_1d",
                        inconsistent_solve)
    cfg = nn_config(n_cells=32, t_end=0.25)
    dt, _ = cfg.resolve_dt()
    with pytest.raises(IncompatibleAnsatz) as info:
        run_non_normal(cfg)
    assert str(info.value).startswith(f"step 5, t = {5 * dt:.6g}: ")
    assert "1.000e-03" in str(info.value)
