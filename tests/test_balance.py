import numpy as np
import pytest

from surfgrow import (Grid1D, MaterialParams, NegativeHeight, NotReduced,
                      ScenarioConfig, SideState, SingularSystem, ValidationError,
                      advance_domain, boundary_normal_velocity, growth_traction,
                      jump_residuals, neo_hookean_stress, normal_pressure,
                      run_non_normal)
from surfgrow.balance import cell_S22, require_reduced, solve_residuals
from surfgrow.tensors import identity

from references import first_integral

E2 = np.array([0.0, 1.0])


def test_boundary_normal_velocity_examples():
    assert boundary_normal_velocity(0.0, 1.0, np.zeros(2), E2) == 0.0
    # normal accretion: V_b . n = M / rho, so H(t) = V_G t
    assert boundary_normal_velocity(0.7, 1.0, np.zeros(2), E2) == 0.7
    # deposition: M = rho h v0 / L gives V_b2 = h v0 / L
    rho, h, v0, L = 1.0, 0.1, 1.0, 1.0
    assert boundary_normal_velocity(rho * h * v0 / L, rho, np.zeros(2), E2) == h * v0 / L
    with pytest.raises(ValidationError):
        boundary_normal_velocity(0.1, 0.0, np.zeros(2), E2)


def test_growth_traction_examples():
    t_b = np.array([0.3, -0.1])
    np.testing.assert_array_equal(growth_traction(0.0, np.array([5.0, 1.0]),
                                                  np.array([2.0, 0.0]), t_b), t_b)
    rho, h, v0, L = 1.0, 0.1, 1.0, 1.0
    M = rho * h * v0 / L
    np.testing.assert_allclose(
        growth_traction(M, np.array([v0, 0.0]), np.zeros(2), np.zeros(2)),
        [rho * h * v0 ** 2 / L, 0.0], atol=1e-16)
    np.testing.assert_allclose(
        growth_traction(0.1, np.array([1.0, 0.0]), np.zeros(2), np.zeros(2)),
        [0.1, 0.0], atol=1e-16)


def test_jump_residuals_trivial():
    state = SideState(rho=1.0, v=np.array([0.2, 0.0]), sigma=np.eye(2))
    mass, mom = jump_residuals(state, state, np.zeros(2), E2, 0.0,
                               np.array([0.2, 0.0]))
    assert mass == 0.0
    np.testing.assert_array_equal(mom, np.zeros(2))


def test_jump_residuals_vacuum_growth_bc():
    # body satisfying the growth boundary conditions against vacuum
    M, rho = 0.4, 2.0
    v = np.array([0.1, 0.0])
    v_a = np.array([1.0, 0.0])
    t_b = np.array([0.05, -0.02])
    sigma = np.zeros((2, 2))
    traction = growth_traction(M, v_a, v, t_b)
    sigma[:, 1] = traction  # sigma . e2 matches the developed traction
    sigma[1, 0] = sigma[0, 1]
    body = SideState(rho=rho, v=v, sigma=sigma)
    ambient = SideState(rho=0.0, v=v_a,
                        sigma=np.array([[0.0, t_b[0]], [t_b[0], t_b[1]]]))
    V_b = np.array([0.0, boundary_normal_velocity(M, rho, v, E2)])
    mass, mom = jump_residuals(body, ambient, V_b, E2, M, v_a)
    assert abs(mass) <= 1e-15
    assert np.abs(mom).max() <= 1e-15


def test_jump_residuals_uniform_shear_steady_state():
    G, M, v0 = 1.0, 0.1, 1.0
    params = MaterialParams(G=G, mu=1.0, rho=1.0)
    F_e = np.array([[1.0, M * v0 / G], [0.0, 1.0]])
    sigma = neo_hookean_stress(F_e, G, params)
    body = SideState(rho=1.0, v=np.zeros(2), sigma=sigma)
    ambient = SideState(rho=0.0, v=np.array([v0, 0.0]), sigma=np.zeros((2, 2)))
    V_b = np.array([0.0, M / 1.0])
    mass, mom = jump_residuals(body, ambient, V_b, E2, M, np.array([v0, 0.0]))
    assert abs(mass) <= 1e-12
    assert np.abs(mom).max() <= 1e-12


def test_jump_conditions_broadcast_like_scalar_calls():
    rng = np.random.default_rng(3)
    B = 17
    rho = rng.uniform(0.5, 2.0, B)
    v = rng.standard_normal((B, 2))
    sigma = rng.standard_normal((B, 2, 2))
    n = rng.standard_normal((B, 2))
    n /= np.linalg.norm(n, axis=1)[:, None]
    v_a = rng.standard_normal(2)  # one attachment velocity for every level
    t_b = rng.standard_normal(2)
    M = 0.3
    ambient_sigma = np.array([[0.0, t_b[0]], [t_b[0], t_b[1]]])
    speed = boundary_normal_velocity(M, rho, v, n)
    V_b = speed[:, None] * n + rng.standard_normal((B, 2))
    mass, mom = jump_residuals(SideState(rho=rho, v=v, sigma=sigma),
                               SideState(rho=0.0, v=v_a, sigma=ambient_sigma),
                               V_b, n, M, v_a)
    assert speed.shape == mass.shape == (B,) and mom.shape == (B, 2)
    for i in range(B):
        s = boundary_normal_velocity(M, float(rho[i]), v[i], n[i])
        assert type(s) is float and s == speed[i]
        m, p = jump_residuals(SideState(rho=float(rho[i]), v=v[i], sigma=sigma[i]),
                              SideState(rho=0.0, v=v_a, sigma=ambient_sigma),
                              V_b[i], n[i], M, v_a)
        assert type(m) is float and m == mass[i]
        np.testing.assert_array_equal(p, mom[i])
    with pytest.raises(ValidationError, match="rho"):
        boundary_normal_velocity(M, np.array([1.0, 0.0]), v[:2], n[:2])


@pytest.fixture
def params():
    return MaterialParams(G=1.0, mu=0.1, rho=1.0)


def level_solve(F12, F_e0, dx, params, traction):
    """One level's solve as the march runs it: the first integral, its
    running sum from the clamped base, and the residuals of the level.
    Returns ``(g, v_nodes, system_residual, traction_residual)``."""
    F22 = require_reduced(F_e0)[:, 1, 1]
    tau = np.array([traction], dtype=float)
    g = first_integral(F12, F22, tau[0, 0], params)
    v_nodes = np.concatenate([[0.0], (dx * g).cumsum()])
    system, residual = solve_residuals(F12, g[None], [len(F12)], v_nodes[None],
                                       cell_S22(F22), F22, tau, params, dx)
    return g, v_nodes, float(system[0]), float(residual[0])


def test_stacked_solve_is_each_level_alone(params):
    # levels of 3, 5, 5 and 8 cells as zero-padded rows, with face
    # velocities padded by the top value or by zeros, and with work arrays
    # of stale values: every level's residuals are bitwise those of its own
    # solve
    rng = np.random.default_rng(3)
    counts, dx = np.array([3, 5, 5, 8]), 0.125
    F22 = rng.uniform(0.5, 2.0, 8)
    F_e0 = identity((8,))
    F_e0[:, 1, 1] = F22
    tau = rng.standard_normal((4, 2))
    alone, rows, rates = [], np.zeros((4, 8)), np.zeros((4, 8))
    V, V0 = np.empty((4, 9)), np.zeros((4, 9))
    for b, m in enumerate(counts):
        rows[b, :m] = rng.standard_normal(m)
        rates[b, :m], v_nodes, system, traction = level_solve(rows[b, :m], F_e0[:m], dx,
                                                              params, tau[b])
        alone.append((system, traction))
        V[b] = v_nodes[-1]
        V[b, :m + 1] = V0[b, :m + 1] = v_nodes
    stale = (*np.full((3, 40), np.nan), np.ones(40, bool))
    for v_nodes, work in ((V, None), (V0, None), (V, stale), (V0, stale)):
        system, traction = solve_residuals(rows, rates, counts, v_nodes, cell_S22(F22), F22,
                                           tau, params, dx, work=work)
        assert [(s, t) for s, t in zip(system.tolist(), traction.tolist())] == alone


def test_stacked_solve_reads_a_given_past_mask(params):
    # the march hands the solve its block's mask of the cells past each
    # level's top, a view of a wider array, and three float work arrays:
    # the residuals are bitwise those of the solve that builds the mask
    rng = np.random.default_rng(5)
    counts, dx = np.array([2, 4, 4, 7]), 0.25
    F22 = rng.uniform(0.5, 2.0, 7)
    rows, rates = np.zeros((4, 7)), np.zeros((4, 7))
    V = np.zeros((4, 8))
    for b, m in enumerate(counts):
        rows[b, :m], rates[b, :m] = rng.standard_normal((2, m))
        V[b, 1:m + 1] = np.cumsum(dx * rates[b, :m])
    tau = rng.standard_normal((4, 2))
    built = solve_residuals(rows, rates, counts, V, cell_S22(F22), F22, tau, params, dx)
    wide = np.greater_equal(np.arange(9), counts[:, None])
    stale = tuple(np.full((3, 40), np.nan))
    for past in (wide[:, :7], np.ascontiguousarray(wide[:, :7])):
        given = solve_residuals(rows, rates, counts, V, cell_S22(F22), F22, tau, params, dx,
                                work=stale, past=past)
        assert [a.tobytes() for a in given] == [a.tobytes() for a in built]


def test_solve_equilibrium_is_static(params):
    grid = Grid1D(32, 1.0)
    _, v_nodes, system, traction = level_solve(np.zeros(32), identity((32,)), grid.dx,
                                               params, np.zeros(2))
    np.testing.assert_array_equal(v_nodes, np.zeros(33))
    np.testing.assert_array_equal(normal_pressure(identity((32,)), params.G, 0.0),
                                  np.full(32, params.G))
    assert system <= 1e-12 and traction <= 1e-12


def test_normal_pressure_fixes_sigma22_and_rejects_non_finite(params):
    # p = G S22 - tau2 makes sigma22 = -p + G S22 equal tau2 in every cell
    F_e0 = identity((8,))
    F_e0[:, 1, 1] = np.linspace(0.5, 2.0, 8)
    p = normal_pressure(F_e0, params.G, 0.25)
    np.testing.assert_allclose(-p + params.G * F_e0[:, 1, 1] ** 2, 0.25, rtol=0,
                               atol=1e-15)
    for bad in (np.nan, np.inf):
        F_e0[3, 1, 1] = bad
        with pytest.raises(SingularSystem):
            normal_pressure(F_e0, params.G, 0.0)


def test_solve_fresh_uniform_layer_linear_profile(params):
    # uniform attachment shear -alpha: exact solution is linear with slope
    # G alpha / mu, the immediate post-attachment rate of the closed form
    alpha = 0.5
    grid = Grid1D(64, 1.0)
    g, v_nodes, _, _ = level_solve(np.full(64, -alpha), identity((64,)), grid.dx,
                                   params, np.zeros(2))
    slope = params.G * alpha / params.mu
    np.testing.assert_allclose(v_nodes, slope * grid.faces, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(g, np.full(64, slope), rtol=1e-12)


def test_solve_uniform_shear_with_matching_traction_is_steady(params):
    M, v0 = 0.1, 1.0
    gamma = M * v0 / params.G
    grid = Grid1D(48, 1.3)
    g, v_nodes, _, _ = level_solve(np.full(48, gamma), identity((48,)), grid.dx,
                                   params, np.array([M * v0, 0.0]))
    np.testing.assert_array_equal(v_nodes, np.zeros(49))
    np.testing.assert_array_equal(g, np.zeros(48))


def test_solve_rejects_out_of_family_fields():
    F_e0 = identity((16,))
    F_e0[:, 1, 0] = 1e-3
    with pytest.raises(NotReduced):
        require_reduced(F_e0)
    # the family is exact: any nonzero F_e21 is refused, however small
    F_e0[:, 1, 0] = 0.0
    F_e0[7, 1, 0] = 1e-9
    with pytest.raises(NotReduced):
        require_reduced(F_e0)
    F_e0[7, 1, 0] = -0.0
    assert require_reduced(F_e0) is F_e0
    # a non-finite entry is refused, naming the field
    for bad in (np.nan, np.inf):
        F_e0 = identity((16,))
        F_e0[5, 1, 1] = bad
        with pytest.raises(ValidationError, match="F_e"):
            require_reduced(F_e0)


def test_solve_requires_viscosity_and_clamped_base():
    with pytest.raises(ValidationError, match="mu"):
        ScenarioConfig(kind="non_normal", params=MaterialParams(G=1.0, mu=0.0, rho=1.0))
    # every level of a march starts its face velocities at the clamped base
    history = run_non_normal(ScenarioConfig(kind="non_normal", n_cells=16,
                                            t_end=0.25)).history
    assert any(np.abs(history.v_nodes(j)).max() > 0 for j in range(len(history)))
    assert all(history.v_nodes(j)[0] == 0.0 for j in range(len(history)))


def test_solve_matches_dense_tridiagonal_system(params):
    # the running sum of the first integral against a dense solve of the
    # scaled tridiagonal system (unknowns: v at faces 1..n, face 0 clamped)
    n, H, tau1 = 40, 1.7, 0.3
    grid = Grid1D(n, H)
    F12 = 0.4 * np.sin(3.0 * grid.centers) - 0.2 * grid.centers ** 2
    F_e0 = identity((n,))
    F_e0[:, 1, 1] = 1.0 + 0.1 * np.cos(grid.centers)
    _, v_nodes, system, _ = level_solve(F12, F_e0, grid.dx, params,
                                        np.array([tau1, 0.0]))
    G, mu, dx = params.G, params.mu, grid.dx
    S12 = F12 * F_e0[:, 1, 1]
    assert np.ptp(S12) > 0.1  # non-uniform
    A = np.zeros((n, n))
    rhs = np.empty(n)
    for i in range(n - 1):
        A[i, i] = -2.0
        A[i, i + 1] = 1.0
        if i > 0:
            A[i, i - 1] = 1.0
        rhs[i] = -(G / mu) * dx * (S12[i + 1] - S12[i])
    A[n - 1, n - 2], A[n - 1, n - 1] = -1.0, 1.0
    rhs[n - 1] = (dx / mu) * (tau1 - G * S12[-1])
    u = np.linalg.solve(A, rhs)
    assert v_nodes[0] == 0.0
    np.testing.assert_allclose(v_nodes[1:], u, rtol=0, atol=1e-12)
    assert system <= 1e-12


def test_solve_degenerate_grid():
    # a level's grid holds at least one cell of positive finite width
    for n, dx in ((0, None), (4, 0.0), (4, -0.1), (4, float("nan"))):
        with pytest.raises(ValidationError):
            Grid1D(n, 1.0, dx=dx)


@pytest.mark.parametrize("grid", [Grid1D(1, 0.3), Grid1D(1, 0.0026, dx=0.005)])
def test_solve_one_cell(params, grid):
    # the first active cell of a body grown from nothing relaxes too: the
    # solve is the first integral at the one cell, v = [0, dx g0]
    g, v_nodes, system, traction = level_solve(np.array([-0.5]), identity((1,)), grid.dx,
                                               params, np.zeros(2))
    assert g[0] == 0.5 * params.G / params.mu
    np.testing.assert_array_equal(v_nodes, [0.0, grid.dx * g[0]])
    assert system <= 1e-14 and traction <= 1e-14


def test_advance_domain_examples():
    assert advance_domain(1.0, 0.0, 0.5) == 1.0
    assert advance_domain(1.0, 1.0, 0.25) == 1.25
    with pytest.raises(NegativeHeight):
        advance_domain(1.0, -2.0, 0.6)


def test_advance_domain_fused_composition_is_bitwise():
    H0, rate, dt, n = 1.0, 1.0 / 3.0, 0.1, 10
    assert advance_domain(H0, rate, dt, n_steps=n) == H0 + rate * (n * dt)
    # an array of step counts: every height bitwise the call for its count
    counts = np.arange(1, 50)
    heights = advance_domain(H0, rate, dt, n_steps=counts)
    assert heights.tolist() == [advance_domain(H0, rate, dt, n_steps=k) for k in range(1, 50)]
    with pytest.raises(NegativeHeight, match="H = -0.2$"):
        advance_domain(1.0, -2.0, 0.3, n_steps=np.arange(1, 4))
