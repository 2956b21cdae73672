import numpy as np
import pytest

from surfgrow import (AttachmentSpec, MaterialParams, NoInverse, ValidationError,
                      attach_elastic_deformation, neo_hookean_stress, total_stress)


@pytest.fixture
def params():
    return MaterialParams(G=1.0, mu=0.1, rho=1.0)


def shear(gamma):
    return np.array([[1.0, gamma], [0.0, 1.0]])


def test_material_params_invariants():
    with pytest.raises(ValidationError, match="G"):
        MaterialParams(G=-1.0)
    with pytest.raises(ValidationError, match="mu"):
        MaterialParams(mu=-0.1)
    with pytest.raises(ValidationError, match="rho"):
        MaterialParams(rho=0.0)


def test_stress_identity_with_hydrostatic_pressure_is_zero(params):
    np.testing.assert_array_equal(neo_hookean_stress(np.eye(2), params.G, params),
                                  np.zeros((2, 2)))


def test_stress_of_uniform_shear_state(params):
    # M = 0.1, v0 = 1: gamma = M v0 / G; the sheared state carries
    # sigma = [[(M v0)^2 / G, M v0], [M v0, 0]] at p = G.
    M, v0 = 0.1, 1.0
    gamma = M * v0 / params.G
    s = neo_hookean_stress(shear(gamma), params.G, params)
    ref = np.array([[(M * v0) ** 2 / params.G, M * v0], [M * v0, 0.0]])
    np.testing.assert_allclose(s, ref, atol=1e-15)


def test_stress_identity_zero_pressure(params):
    np.testing.assert_array_equal(neo_hookean_stress(np.eye(2), 0.0, params),
                                  params.G * np.eye(2))


def test_stress_is_bitwise_symmetric(params):
    rng = np.random.default_rng(3)
    F = rng.uniform(-2, 2, (40, 2, 2))
    s = neo_hookean_stress(F, rng.uniform(-1, 1, 40), params)
    np.testing.assert_array_equal(s[..., 0, 1], s[..., 1, 0])


def test_total_stress_reduces_without_viscosity(params):
    F = shear(0.4)
    grad_v = np.array([[0.0, 2.0], [0.5, 0.0]])
    np.testing.assert_array_equal(
        total_stress(F, grad_v, 0.7, MaterialParams(G=1.0, mu=0.0, rho=1.0)),
        neo_hookean_stress(F, 0.7, params))
    np.testing.assert_array_equal(total_stress(F, np.zeros((2, 2)), 0.7, params),
                                  neo_hookean_stress(F, 0.7, params))


def test_total_stress_pure_viscous_shear(params):
    a = 0.8
    s = total_stress(np.eye(2), np.array([[0.0, a], [0.0, 0.0]]), params.G, params)
    np.testing.assert_allclose(s, params.mu * a * np.array([[0, 1], [1, 0]]),
                               atol=1e-15)


def test_attach_stress_free(params):
    F_e, p = attach_elastic_deformation(AttachmentSpec(), params)
    np.testing.assert_array_equal(F_e, np.eye(2))
    assert p == params.G


def test_attach_from_shear_traction(params):
    M, v0 = 0.1, 1.0
    spec = AttachmentSpec.from_traction((M * v0, 0.0), params)
    F_e, p = attach_elastic_deformation(spec, params)
    np.testing.assert_array_equal(F_e, shear(M * v0 / params.G))
    assert p == params.G
    # verify by evaluating the stress response on the output
    s = neo_hookean_stress(F_e, p, params)
    assert abs(s[0, 1] - 0.1) <= 1e-15 and abs(s[1, 1]) <= 1e-15


def test_attach_roundtrip_recovers_gamma(params):
    for gamma in np.linspace(-2.0, 2.0, 41):
        s = neo_hookean_stress(shear(gamma), params.G, params)
        F_e, p = attach_elastic_deformation(AttachmentSpec(sigma_star=s), params)
        assert abs(F_e[0, 1] - gamma) <= 1e-10
        assert F_e[0, 0] * F_e[1, 1] - F_e[0, 1] * F_e[1, 0] == 1.0


def test_attach_rejects_inconsistent_request(params):
    bad = AttachmentSpec(sigma_star=np.array([[5.0, 0.1], [0.1, 0.0]]))
    with pytest.raises(NoInverse):
        attach_elastic_deformation(bad, params)


def test_attachment_spec_requires_symmetry():
    with pytest.raises(ValidationError, match="symmetric"):
        AttachmentSpec(sigma_star=np.array([[0.0, 1.0], [0.0, 0.0]]))
