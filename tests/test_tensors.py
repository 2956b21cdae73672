import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from surfgrow import EPS_DET, SingularTensor, ValidationError, det, inverse, sym
from surfgrow.tensors import identity, require_finite

EPS = np.finfo(float).eps


def mat(a, b, c, d):
    return np.array([[a, b], [c, d]], dtype=float)


entries = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)


@st.composite
def tensors(draw, min_det=0.0):
    t = mat(draw(entries), draw(entries), draw(entries), draw(entries))
    assume(abs(t[0, 0] * t[1, 1] - t[0, 1] * t[1, 0]) >= min_det)
    return t


def test_det_examples():
    assert det(np.eye(2)) == 1.0
    assert det(mat(1.0, -0.5, 0.0, 1.0)) == 1.0
    assert det(mat(2.0, 0.0, 0.0, 3.0)) == 6.0


def test_det_broadcasts_over_stacks():
    stack = np.stack([np.eye(2), mat(2, 0, 0, 3)])
    np.testing.assert_array_equal(det(stack), [1.0, 6.0])


def test_inverse_examples():
    np.testing.assert_array_equal(inverse(np.eye(2)), np.eye(2))
    np.testing.assert_array_equal(inverse(mat(1, 0.1, 0, 1)), mat(1, -0.1, 0, 1))
    with pytest.raises(SingularTensor):
        inverse(np.zeros((2, 2)))


def test_inverse_tolerance_configurable():
    near = mat(1e-5, 0, 0, 1e-5)  # det = 1e-10
    inverse(near)  # fine at the default tolerance
    with pytest.raises(SingularTensor):
        inverse(near, eps=1e-9)
    assert EPS_DET == 1e-12


def test_inverse_reproduces_identity_to_8_eps():
    rng = np.random.default_rng(7)
    for _ in range(200):
        t = rng.uniform(-2, 2, (2, 2))
        if abs(det(t)) < 0.5:
            continue
        err = np.abs(t @ inverse(t) - np.eye(2)).max()
        assert err <= 8 * EPS


def test_sym_examples():
    a = 0.3
    np.testing.assert_array_equal(sym(mat(0, a, 0, 0)), mat(0, a / 2, a / 2, 0))
    s = mat(1, 2, 2, 5)
    np.testing.assert_array_equal(sym(s), s)
    np.testing.assert_array_equal(sym(mat(1, 2, 4, 3)), mat(1, 3, 3, 3))


@given(tensors(min_det=0.05), tensors(min_det=0.05))
@settings(max_examples=150, deadline=None)
def test_det_is_multiplicative(a, b):
    lhs = det(a @ b)
    rhs = det(a) * det(b)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


@given(tensors(min_det=0.01))
@settings(max_examples=150, deadline=None)
def test_inverse_involution(a):
    back = inverse(inverse(a))
    assert np.abs(back - a).max() <= 1e-10 * max(1.0, np.abs(a).max())


@given(tensors())
@settings(max_examples=100, deadline=None)
def test_sym_idempotent(a):
    s = sym(a)
    np.testing.assert_array_equal(sym(s), s)


@given(tensors(), tensors(), st.floats(min_value=-2, max_value=2, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_sym_linear(a, b, c):
    lhs = sym(a + c * b)
    rhs = sym(a) + c * sym(b)
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_3x3_input_is_rejected():
    with pytest.raises(ValidationError, match="2, 2"):
        det(np.eye(3))
    with pytest.raises(ValidationError, match="2, 2"):
        inverse(np.eye(3))


def test_identity_stack():
    eye = identity((4,))
    assert eye.shape == (4, 2, 2)
    np.testing.assert_array_equal(eye[2], np.eye(2))


def test_require_finite_rejects_nan():
    with pytest.raises(ValidationError, match="F_e"):
        require_finite(np.array([1.0, np.nan]), "F_e")
