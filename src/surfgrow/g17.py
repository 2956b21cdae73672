"""The bytes of ``b"%.17g" % x`` for a block of float64 values at once.

``g17(x, text)`` lays out value ``x[i]`` in the last ``WIDTH`` bytes of
row ``i`` of a byte matrix, after the caller's text, NUL wherever a byte
is not shown, so that the row less its NULs is that text and exactly the
bytes that Python's ``b"%.17g" % x[i]`` prints.  The caller compacts many
rows at once by deleting the NULs (``output.format_rows``).

The digits come from fast arithmetic that is exact where it claims to be,
after Loitsch's Grisu (PLDI 2010).  ``|x| 10^k``, with ``k`` chosen so that
it has 17 integer digits, is formed as a double-double: ``10^k`` is held as
``(hi + lo) 2^q``, its parts rounded from Python integers, ``|x| 2^q`` is an
exact scaling, and its product with ``hi`` is split exactly as Dekker's
(Numer. Math. 18, 1971).  The rounded sum is the 17-digit integer, unless
its fraction lies within ``_NEAR_HALF`` of one half: there the rounding
cannot be told from the error of the sum (an exact tie among them), and
the value is printed by Python's ``%``, as are infinities and NaNs.  The
decimal exponent is the least ``X`` whose 17-digit integer is below
``10^17``: the estimate ``floor(log10 |x|)`` is corrected in at most
``_PASSES`` passes, and a value still unsettled falls back too.  Zeros are
laid out directly.

A field holds, in order: the sign; the prefix ``0.0000`` of fixed notation
below 1; the 17 digits, each followed by a point; and ``e±XXX``.  Which
bytes are shown depends only on the layout of the exponent (fixed notation
for ``-4 <= X < 17``, else ``d.ddd`` and two or three exponent digits), on
how many digits are left once trailing zeros are stripped and on the
sign.  The tables, about 130 KB, are built from Python integers at first
use (``_tables``), never at import.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# A field's bytes: sign, "0.0000", 17 digit-and-point pairs, "e±XXX" and
# two spare bytes, so that the last point and the exponent are one uint64.
_SIGN, _PREFIX, _DIGITS, _EXPONENT = 0, 1, 7, 41
WIDTH = 48
# Decimal exponents the tables cover: every finite double's, with room for
# the correcting passes.
_X_MIN, _X_MAX = -330, 320
# Passes that correct the decimal exponent's estimate; one is enough but
# next to a power of ten, where log10 may round across it.
_PASSES = 3
# How close to one half the fraction of |x| 10^k may come before its
# rounding is left to ``%``: the double-double sum is off by under 1e-13.
_NEAR_HALF = 2.0 ** -40
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitting constant
_E16, _E17 = 10 ** 16, 10 ** 17


@cache
def _tables() -> dict:
    """The scaled powers of ten, the digits of 0 .. 9999 and the layouts,
    read-only."""
    X = range(_X_MIN, _X_MAX + 1)
    hi, lo, q = [], [], []
    for x in X:
        k = 16 - x
        # 10^k = (A / B) 2^q with 1 <= A / B < 2, rounded to hi + lo
        qk = (10 ** k).bit_length() - 1 if k >= 0 else -(10 ** -k - 1).bit_length()
        A, B = (10 ** k, 1 << qk) if k >= 0 else (1 << -qk, 10 ** -k)
        hi.append(A / B)
        lo.append(((A << 52) - int(hi[-1] * 2 ** 52) * B) / (B << 52))
        q.append(qk)
    groups = np.arange(10000, dtype=np.int16)
    digits = np.full((10000, 8), ord("."), np.uint8)  # "d.d.d.d."
    last = np.zeros(10000, np.int8)  # the place of the last nonzero digit, 1 .. 4
    for j in range(4):
        digit = groups // 10 ** (3 - j) % 10
        digits[:, 2 * j] = ord("0") + digit
        last[digit != 0] = j + 1
    # the point after the last digit, then e±XX or e±XXX, as one uint64
    exponent = np.zeros((len(X), 8), np.uint8)
    for row, x in zip(exponent, X):
        row[:len(b".e%+03d" % x)] = np.frombuffer(b".e%+03d" % x, np.uint8)
    template = np.zeros(WIDTH, np.uint8)
    template[_SIGN] = ord("-")
    template[_PREFIX:_DIGITS] = np.frombuffer(b"0.0000", np.uint8)
    template[_DIGITS + 1:_EXPONENT:2] = ord(".")
    # layouts: fixed notation at X = -4 .. 16, then d.ddd with two and
    # with three exponent digits; per layout and digits kept, a row that
    # is 0xFF at the bytes shown, the sign's among them, and 0 elsewhere
    layout = np.array([x + 4 if -4 <= x < 17 else 21 if abs(x) < 100 else 22 for x in X])
    keep = np.zeros((23, 18, WIDTH), np.uint8)
    keep[..., _SIGN] = 0xFF
    for s in range(23):
        lead = max(s - 3, 0) if s < 21 else 1  # digits before the point
        for k in range(1, 18):
            v = keep[s, k]
            if s < 4:  # 0.000ddd
                v[_PREFIX:_PREFIX + 5 - s] = 0xFF
            shown = max(lead, k)
            v[_DIGITS:_DIGITS + 2 * shown:2] = 0xFF
            if lead and shown > lead:
                v[_DIGITS + 2 * lead - 1] = 0xFF
            if s >= 21:
                v[_EXPONENT:_EXPONENT + s - 17] = 0xFF
    return {"scale": np.array([hi, lo]), "q": np.array(q, np.int16),
            "digits": digits.view(np.uint64).reshape(-1), "last": last,
            "start": np.array([[1], [5], [9], [13]], np.int8),
            "exponent": exponent.view(np.uint64).reshape(-1), "template": template,
            "layout": (18 * layout).astype(np.int16),
            "keep": keep.reshape(-1, WIDTH)}


def _scaled(a: np.ndarray, i: np.ndarray, t: dict) -> tuple[np.ndarray, np.ndarray]:
    """``round(a 10^(16 - X))`` as int64, ``X = _X_MIN + i``, and where it is
    uncertain: its fraction within ``_NEAR_HALF`` of one half, ties among them."""
    hi, lo = t["scale"].take(i, axis=1, mode="clip")
    xs = np.ldexp(a, t["q"].take(i, mode="clip"))
    p = xs * hi
    # Dekker: xs hi = p + e exactly, with xs = xh + xl and hi = hh + hl in
    # 26 bits each
    xh = xs * _SPLIT
    xl = xh - xs
    xh -= xl
    np.subtract(xs, xh, out=xl)
    hh = hi * _SPLIT
    e = hh - hi
    hh -= e
    hl = np.subtract(hi, hh, out=hi)
    np.multiply(xh, hh, out=e)
    e -= p
    e += np.multiply(xh, hl, out=xh)
    e += np.multiply(xl, hh, out=hh)
    e += np.multiply(xl, hl, out=hl)
    r = np.multiply(xs, lo, out=xs)
    r += e  # a 10^k - p, within 1e-13; p is an integer, as a 10^k >= 2^52
    near = np.add(r, 0.5, out=e)
    np.floor(near, out=near)
    D = p.astype(np.int64)
    D += near.astype(np.int64)
    r -= near
    return D, np.abs(r, out=r) > 0.5 - _NEAR_HALF


def g17(x: np.ndarray, text: np.ndarray) -> bytearray:
    """Each ``x[i]``, as float64, laid out after ``text[i % k]`` in row ``i``
    of a new ``(len(x), w)`` byte matrix, returned as its bytes, for ``text``
    of ``(k, w - WIDTH)``, ``len(x)`` a multiple of ``k``: row ``i`` less its
    NULs is ``text[i % k]`` less its NULs and then ``b"%.17g" % x[i]``."""
    t = _tables()
    x = np.asarray(x, dtype=np.float64)
    a = np.abs(x)
    odd = ~(a < np.inf)  # an infinity or NaN
    zero = a == 0
    np.copyto(a, 2.0, where=odd | zero)  # their digits are replaced below
    i = np.log10(a)
    i -= _X_MIN
    i = i.astype(np.intp)  # floor(log10 a) - _X_MIN, a positive number
    D, unsure = _scaled(a, i, t)
    odd |= unsure
    # X is the least exponent whose integer is below 10^17: go up from 10^17
    # and more; from 10^16 and less, down unless the exponent below reaches
    # 10^17, where it is settled
    settled = np.zeros(len(x), bool)
    for _ in range(_PASSES):
        up = D >= _E17
        moving = ((D <= _E16) | up) > settled  # and not settled
        moving = moving.nonzero()[0]
        if not len(moving):
            break
        up = up[moving]
        im = i[moving] + np.where(up, 1, -1)
        Dm, unsure = _scaled(a[moving], im, t)
        odd[moving] |= unsure
        take = up | (Dm < _E17)
        i[moving[take]], D[moving[take]] = im[take], Dm[take]
        settled[moving[~take]] = True
    else:
        odd |= ((D >= _E17) | (D <= _E16)) > settled
    del a, settled
    np.copyto(D, 0, where=zero)  # "0", as 2.0 is laid out
    k, before = text.shape
    rows = np.empty((k, before + WIDTH), np.uint8)  # the text and template of k rows
    rows[:, :before], rows[:, before:] = text, t["template"]
    out = bytearray(len(x) * (before + WIDTH))
    chars = np.frombuffer(out, np.uint8).reshape(len(x), before + WIDTH)
    chars.reshape(-1, rows.size)[:] = rows.reshape(-1)
    field = chars[:, before:]
    field[:, _EXPONENT - 1:].view(np.uint64)[:, 0] = t["exponent"].take(i, mode="clip")
    # the first digit, then four groups of four, and the digits kept once
    # the trailing zeros are stripped
    high = D // _E16
    np.add(high, ord("0"), out=field[:, _DIGITS], casting="unsafe")
    D -= high * _E16
    np.floor_divide(D, 10 ** 8, out=high)
    D -= high * 10 ** 8
    groups = np.empty((4, len(x)), np.intp)
    for j, part in ((0, high), (2, D)):
        np.floor_divide(part, 10 ** 4, out=groups[j])
        np.subtract(part, groups[j] * 10 ** 4, out=groups[j + 1])
    del high, D
    words = field[:, _DIGITS + 2:_EXPONENT].view(np.uint64)
    for j in range(4):
        words[:, j] = t["digits"].take(groups[j], mode="clip")
    last = t["last"].take(groups, mode="clip")
    del groups
    kept = last + t["start"]
    kept *= last > 0
    kept = kept.max(axis=0, initial=1).astype(np.intp)
    del last
    kept += t["layout"].take(i)
    field &= t["keep"].take(kept, axis=0, mode="clip")
    field[:, _SIGN] *= np.signbit(x)
    for row in odd.nonzero()[0].tolist():
        txt = np.frombuffer(b"%.17g" % x[row], np.uint8)
        field[row] = 0
        field[row, :len(txt)] = txt
    return out
