import math

import numpy as np
import pytest

from surfgrow import (CFLViolation, GrowthNotSupported, History, NotReduced,
                      OutOfDomain, PeriodicStrip, SingularTensor, ValidationError,
                      advance_deformation_strip, advance_inverse_motion,
                      deformation_from_inverse_motion, integrate_characteristics,
                      reconstruct_reference)
from surfgrow.kinematics import CFL_LIMIT, PathlineRecord, reduced_step_1d
from surfgrow.tensors import identity


def shear_grad(n, g):
    grad = np.zeros((n, 2, 2))
    grad[:, 0, 1] = g
    return grad


def test_zero_velocity_leaves_field_unchanged():
    rng = np.random.default_rng(0)
    F12 = rng.standard_normal(8)
    np.testing.assert_array_equal(
        reduced_step_1d(F12, np.zeros(8), rng.standard_normal(8), 0.01, 8, 0.0), F12)


def test_reduced_shear_preserves_ansatz_bitwise():
    # the full source update T + dt (grad v) T with grad v = g e1 (x) e2
    # keeps the 21 entry and the diagonal bitwise, and its shear is the
    # reduced step's, so stepping the shear alone loses nothing
    F_e = identity((16,))
    F_e[:, 0, 1] = np.linspace(-0.5, 0.0, 16)
    F12 = F_e[:, 0, 1].copy()
    for _ in range(50):
        F_e = F_e + 1e-3 * (shear_grad(16, 3.0) @ F_e)
        F12 = reduced_step_1d(F12, np.full(16, 3.0), 1.0, 1e-3, 16, 0.0)
    np.testing.assert_array_equal(F_e[:, 1, 0], np.zeros(16))
    np.testing.assert_array_equal(F_e[:, 0, 0], np.ones(16))
    np.testing.assert_array_equal(F_e[:, 1, 1], np.ones(16))
    np.testing.assert_array_equal(F_e[:, 0, 1], F12)


def test_constant_shear_source_one_step_exact():
    k, dt = 2.5, 1e-3
    out = reduced_step_1d(np.zeros(8), np.full(8, k), 1.0, dt, 8, 0.0)
    np.testing.assert_array_equal(out, np.full(8, k * dt))


def test_cfl_violation_raises():
    # dx1 = dx2 = 1/8 and |v1| = 2: the CFL number is 16 dt, at the bound
    # 0.9 for dt = 0.9/16
    strip = PeriodicStrip(n1=8, n2=8)
    v = np.zeros((8, 8, 2))
    v[..., 0] = 2.0
    F = identity((8, 8))
    q = np.zeros((8, 8, 2))
    at_bound = CFL_LIMIT / 16.0
    advance_deformation_strip(F, v, np.zeros((8, 8, 2, 2)), strip, at_bound)
    advance_inverse_motion(q, v, strip, at_bound)
    with pytest.raises(CFLViolation):
        advance_deformation_strip(F, v, np.zeros((8, 8, 2, 2)), strip, 1.01 * at_bound)
    with pytest.raises(CFLViolation):
        advance_inverse_motion(q, v, strip, 1.01 * at_bound)


def test_characteristics_static_and_translation():
    static = integrate_characteristics(
        lambda x, t: (np.zeros(2), np.zeros((2, 2))),
        np.array([0.2, 0.3]), 0.0, 1.0, 0.1, np.array([[1.0, 0.5], [0.0, 1.0]]))
    np.testing.assert_array_equal(static.x[-1], [0.2, 0.3])
    np.testing.assert_array_equal(static.F_e[-1], [[1.0, 0.5], [0.0, 1.0]])

    c = np.array([0.4, -0.2])
    moving = integrate_characteristics(
        lambda x, t: (c, np.zeros((2, 2))),
        np.array([0.0, 1.0]), 0.0, 2.0, 0.05, np.eye(2))
    np.testing.assert_allclose(moving.x[-1], np.array([0.0, 1.0]) + 2.0 * c,
                               atol=1e-14)
    np.testing.assert_array_equal(moving.F_e[-1], np.eye(2))


def test_characteristic_matches_attachment_decay_closed_form():
    # sheared-attachment fields: along a pathline seeded at attachment the
    # shear decays exponentially at rate G/mu
    G, mu, alpha, V_G = 1.0, 0.1, 0.5, 1.0
    lam = G / mu

    def sampler(x, t):
        age = t - x[1] / V_G
        g = alpha * lam * math.exp(-lam * age)
        v1 = V_G * alpha * (math.exp(-lam * age) - math.exp(-lam * t))
        return np.array([v1, 0.0]), np.array([[0.0, g], [0.0, 0.0]])

    x2 = 0.4
    pl = integrate_characteristics(sampler, np.array([0.0, x2]), x2 / V_G, 1.0,
                                   1e-3, np.array([[1.0, -alpha], [0.0, 1.0]]))
    ref = -alpha * np.exp(-lam * (pl.t - x2 / V_G))
    assert np.abs(pl.F_e[:, 0, 1] - ref).max() <= 2e-4
    np.testing.assert_array_equal(pl.x[:, 1], np.full(pl.t.size, x2))


def test_characteristics_are_pathlines():
    # position update is independent of the tensor carried along
    def sampler(x, t):
        return (np.array([math.sin(x[1]) + 0.2 * t, math.cos(x[0])]),
                np.array([[0.0, math.cos(x[1])], [-math.sin(x[0]), 0.0]]))

    seed = np.array([0.3, 0.8])
    pl = integrate_characteristics(sampler, seed, 0.0, 1.5, 0.01, np.eye(2))
    # independent midpoint integration of dx/dt = v with the same steps
    x = seed.copy()
    t, h = 0.0, 1.5 / 150
    for _ in range(150):
        xm = x + 0.5 * h * sampler(x, t)[0]
        x = x + h * sampler(xm, t + 0.5 * h)[0]
        t += h
    np.testing.assert_array_equal(pl.x[-1], x)


def test_characteristic_det_drift_is_second_order():
    def sampler(x, t):  # divergence-free, non-commuting gradient
        return (np.array([math.sin(x[1]), math.sin(x[0])]),
                np.array([[0.0, math.cos(x[1])], [math.cos(x[0]), 0.0]]))

    drifts = []
    for dt in (0.02, 0.01):
        pl = integrate_characteristics(sampler, np.array([0.3, 0.7]), 0.0, 2.0,
                                       dt, np.eye(2))
        d = pl.F_e[:, 0, 0] * pl.F_e[:, 1, 1] - pl.F_e[:, 0, 1] * pl.F_e[:, 1, 0]
        drifts.append(np.abs(d - 1.0).max())
    assert 3.2 <= drifts[0] / drifts[1] <= 4.8


def test_out_of_domain_detected():
    with pytest.raises(OutOfDomain):
        integrate_characteristics(
            lambda x, t: (np.array([0.0, 1.0]), np.zeros((2, 2))),
            np.array([0.0, 0.5]), 0.0, 1.0, 0.1, np.eye(2),
            domain=lambda x, t: x[1] <= 0.75)


def test_pathline_record_validates_times():
    with pytest.raises(ValidationError):
        PathlineRecord(t=[0.0, 0.0], x=np.zeros((2, 2)), F_e=identity((2,)))


def _static_history(n=8, steps=5, F_e12=0.25, F_e0=None):
    # `steps` levels of the same n cells, at rest
    F_e0 = identity((n,)) if F_e0 is None else F_e0
    # every level reads the same n cells of one source
    return History(t=0.1 * np.arange(steps), step=np.arange(steps), H=np.ones(steps),
                   m=np.full(steps, n), start=np.zeros(steps, dtype=int),
                   v_surf=np.zeros(steps), metrics={},
                   source=np.stack([np.full(n, F_e12), np.zeros(n)]), col=np.arange(n),
                   F_e0=F_e0, p=np.ones(n), rho=np.ones(n), dx=1.0 / n)


def test_reconstruct_static_body():
    history = _static_history()
    frames = reconstruct_reference(history)
    for frame, rec in zip(frames, history):
        np.testing.assert_array_equal(frame.F, identity((8,)))
        np.testing.assert_allclose(frame.F_relax,
                                   np.linalg.inv(rec.F_e), atol=1e-14)
        np.testing.assert_allclose(rec.F_e @ frame.F_relax, frame.F, atol=1e-14)


def test_replay_refuses_a_singular_elastic_deformation():
    # det F_e = F11 F22 = 0 in one cell: F_relax = F_e^{-1} F does not exist
    F_e0 = identity((8,))
    F_e0[3, 0, 0] = 0.0
    with pytest.raises(SingularTensor):
        reconstruct_reference(_static_history(F_e0=F_e0))


def test_replay_refuses_a_history_outside_the_reduction():
    # the replay drops the F_e21 terms, so a history with a nonzero one is
    # refused rather than given a wrong F_relax
    F_e0 = identity((8,))
    F_e0[3, 1, 0] = 0.5
    with pytest.raises(NotReduced, match="F_e21"):
        reconstruct_reference(_static_history(F_e0=F_e0))


def test_reconstruct_accepts_interior_reference_time():
    history = _static_history()
    frames = reconstruct_reference(history, t0=0.2)
    assert len(frames) == 3 and frames[0].t == 0.2
    with pytest.raises(ValidationError):
        reconstruct_reference(history, t0=0.123)


def test_inverse_motion_static_and_translation():
    strip = PeriodicStrip(n1=8, n2=8)
    q = np.zeros((8, 8, 2))
    v = np.zeros((8, 8, 2))
    np.testing.assert_array_equal(advance_inverse_motion(q, v, strip, 0.05), q)

    v[...] = [0.3, 0.0]
    out = q
    for _ in range(10):
        out = advance_inverse_motion(out, v, strip, 0.05)
    # chi^{-1} = x - c t, stored as deviation -c t; F stays the identity
    np.testing.assert_allclose(out, np.broadcast_to([-0.15, 0.0], out.shape),
                               atol=1e-14)
    np.testing.assert_allclose(deformation_from_inverse_motion(out, strip),
                               identity((8, 8)), atol=1e-12)


def test_inverse_motion_rejects_growth():
    strip = PeriodicStrip(n1=8, n2=8)
    with pytest.raises(GrowthNotSupported):
        advance_inverse_motion(np.zeros((8, 8, 2)), np.zeros((8, 8, 2)), strip,
                               0.01, mass_rate=0.5)
