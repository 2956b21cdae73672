"""The vectorised %.17g kernel against Python's own formatting."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfgrow.errors import ValidationError
from surfgrow.output import format_rows


def _lines(values) -> bytes:
    # one value a row, through the writers' own path
    return format_rows([b"", b"\n"], [np.asarray(values, dtype=np.float64)]).tobytes()


def _expected(values) -> bytes:
    return b"".join(b"%.17g\n" % v for v in np.asarray(values, dtype=np.float64).tolist())


def _assert_same(values):
    values = np.asarray(values, dtype=np.float64)
    ours, theirs = _lines(values).split(b"\n"), _expected(values).split(b"\n")
    wrong = [(v, a, b) for v, a, b in zip(values.tolist(), ours, theirs) if a != b]
    assert not wrong and len(ours) == len(theirs), wrong[:10]


def _bits(patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])
EDGES = [
    0.0, 5e-324, np.nextafter(sys.float_info.min, 0.0), sys.float_info.min,
    sys.float_info.max, np.inf, *_bits([0x7FF8000000000000, 0x7FF0000000000001]),
    # the fixed-notation bounds, the carry to 1e+17 and an exact tie
    *np.nextafter([1e-5, 1e-4, 1e16, 1e17], -np.inf), 1e-5, 1e-4, 1e16, 1e17,
    *np.nextafter([1e-5, 1e-4, 1e16, 1e17], np.inf),
    99999999999999999.0, 123456789012345.625,
    # an exponent that rounding across a power of ten would miss, and a
    # value far below the fixed-notation range
    9.9999999999999997e-278, 1e-300,
    *POWERS, *np.nextafter(POWERS, np.inf), *np.nextafter(POWERS, -np.inf),
]


def test_edge_values_print_as_python_does():
    values = np.array(EDGES)
    _assert_same(np.concatenate([values, -values]))
    assert _lines([]) == b""


def test_each_value_prints_alone_as_in_a_block():
    # a block's values do not change one another's text
    values = np.array(EDGES)
    assert b"".join(_lines([v]) for v in values) == _lines(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns_print_as_python_does(patterns):
    _assert_same(_bits(patterns))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-2 ** 53, 2 ** 53), min_size=1, max_size=64))
def test_integers_print_as_percent_d(integers):
    # the writers print integer columns (steps, pathline indices) this way
    assert _lines(np.array(integers)) == b"".join(b"%d\n" % k for k in integers)


def test_fixed_text_holding_a_nul_is_refused():
    # a row's bytes are its layout with the NULs deleted, so a NUL in the
    # fixed text would vanish from the file
    values = np.array([1.0, 2.0])
    for fixed in ([b"\0", b"\n"], [b"", b"a\0b", b"\n"], [b"", b"\n\0"]):
        with pytest.raises(ValidationError, match="NUL"):
            format_rows(fixed, [values] * (len(fixed) - 1))
    assert format_rows([b"", b",", b"\n"], [values, -values]).tobytes() == b"1,-1\n2,-2\n"
