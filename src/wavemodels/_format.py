"""CSV rows of float64 values, each value the bytes of ``b"%.17g" % v``.

``FLOAT_FORMAT`` is the format of every float the package writes.
``csv_rows(values, lead)`` turns a 2-D block of values into its CSV lines,
and ``lead_text(x)`` formats a column of lead values (node coordinates)
once, for ``csv_rows`` to repeat.  Every line is byte for byte what
Python's ``%`` writes, which is correctly rounded (Gay's dtoa): a value
this module cannot settle exactly is formatted by ``%`` itself.

The digits.  A finite nonzero |x| = m 2^e (``frexp``) prints as 17 digits
N in [10^16, 10^17) and a decimal exponent E, N = round(|x| 10^(16-E)).
E starts as floor(log10 |x|).  V = |x| 10^(16-E) is computed as a
double-double S + r: 10^k is tabled as (hi + lo) 2^s with hi in [1, 2),
from exact integers; m hi is Dekker's TwoProduct (Veltkamp split 2^27 + 1),
m lo is added, and a fast two-sum renormalizes before ``ldexp`` scales by
2^(e+s).  The error of S + r is below 1e-13, against the 1e-9 margins
below.  Python's ``%`` formats the non-finite values, those with V within
1e-9 of a half-integer (a tie, which ``%`` rounds half to even, or too near
one to decide), and those with (S - 10^16) + r below 1e-9 or N >= 10^17,
where E may be off by one: one round settles every other value, and only
values at and next to a power of ten miss it.

The layout.  Each value owns a row of WIDTH bytes: its sign, the "0.000"
that fixed notation puts before E < 0, the digit d0, a point, d1..d16 as
four "%04d" quads, the exponent text, and a separator.  Every byte the
value does not print is NUL, and the NULs are deleted once per block by
``bytes.translate``.  The "0.000" and exponent words come from tables
indexed by E, and each quad is masked to the digits left to print (17
less the trailing zeros, and at least the integer digits) by a table of
masks indexed by that count.  Fixed notation with E >= 1 moves the point
behind d_E by one permutation of its row; at E = 0 the point is already
there, as it is for zeros and non-finite values, which carry E = 0.  The
tables are built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["FLOAT_FORMAT", "csv_rows", "lead_text"]

FLOAT_FORMAT = "%.17g"  # all emitted floats carry 17 significant digits
WIDTH = 32  # bytes per value; the longest text is "-2.2250738585072014e-308"
_D0, _POINT, _QUADS = 6, 7, 8  # columns of the row; the exponent word is 24..31
_E_MIN, _E_MAX = -330, 330  # decimal exponents of the tables, with a margin
_MARGIN = 1e-9


def _split(a):
    """Veltkamp's split of a into a 26-bit high part and the rest."""
    c = 134217729.0 * a  # 2^27 + 1
    high = c - (c - a)
    return high, a - high


def _pow10() -> np.ndarray:
    """Rows (hi, hi's split high, hi's split low, lo, s) with (hi + lo) 2^s
    = 10^(16 - E), E = _E_MAX, _E_MAX - 1, ..., _E_MIN; hi in [1, 2), and
    hi + lo correct to ~2^-106."""
    out = np.empty((5, _E_MAX - _E_MIN + 1))
    for j, k in enumerate(range(16 - _E_MAX, 17 - _E_MIN)):
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        s = num.bit_length() - den.bit_length()
        if (num << max(-s, 0)) < (den << max(s, 0)):
            s -= 1
        num, den = (num, den << s) if s >= 0 else (num << -s, den)
        hi = num / den  # int division rounds correctly
        lo = (num * 2**52 - int(hi * 2**52) * den) / (den * 2**52)
        out[:, j] = hi, 0.0, 0.0, lo, s
    out[1], out[2] = _split(out[0])
    return out


@functools.cache
def _tables():
    """The read-only tables, built once: the 10^k table; per exponent E the
    row's bytes 0..7 and 24..31 as uint64 ("0.000" cut to fixed notation's
    E in [-4, -1]; "e+XX" or "e-XXX" outside [-4, 16]; the separator);
    ``quads[q]``, "%04d" % q as a little-endian uint32; the trailing zeros
    of each quad; ``moves[E]``, the permutation of a row that puts the
    point behind d_E; and ``masks[k, j]``, the bytes of quad j that k
    printed digits keep (the first clip(k - 1 - 4j, 0, 4) bytes)."""
    head, tail = bytearray(), bytearray()
    for exp in range(_E_MIN, _E_MAX + 1):
        head += (b"\0" + b"0.000"[: 1 - exp]).ljust(8, b"\0") if -4 <= exp < 0 else bytes(8)
        tail += (b"" if -4 <= exp <= 16 else b"e%+03d" % exp).ljust(7, b"\0") + b","
    i = np.arange(10_000, dtype=np.uint16)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1) + 48
    trailing = sum((i % 10**j == 0).view(np.uint8) for j in (1, 2, 3)) + (i == 0)
    moves = np.tile(np.arange(WIDTH), (17, 1))
    for exp in range(17):
        moves[exp, _POINT : _POINT + exp + 1] = [*range(_QUADS, _QUADS + exp), _POINT]
    first = np.array([0, 0xFF, 0xFFFF, 0xFFFFFF, 0xFFFFFFFF], dtype=np.uint32)
    masks = first[np.clip(np.arange(18)[:, None] - 1 - 4 * np.arange(4), 0, 4)]
    tables = (_pow10(), np.frombuffer(head, dtype="<u8"), np.frombuffer(tail, dtype="<u8"),
              digits.astype(np.uint8).view("<u4").ravel(), trailing, moves, masks)
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(pow10, m, e, exp):
    """N = round(V) for V = m 2^e 10^(16 - exp), with V - 10^16 and the
    distance of V from the nearest integer (a tie at 0.5)."""
    hi, hi_high, hi_low, lo, s = pow10.take(_E_MAX - exp, axis=1)
    p = m * hi
    m_high, m_low = _split(m)
    q = (((m_high * hi_high - p) + m_high * hi_low + m_low * hi_high) + m_low * hi_low
         + m * lo)
    big = p + q
    shift = (e + s.astype(np.int64)).astype(np.int32)
    small = np.ldexp(q - (big - p), shift)
    big = np.ldexp(big, shift)  # an integer wherever V >= 10^16 > 2^53
    whole = np.floor(small + 0.5)
    n = big.astype(np.int64) + whole.astype(np.int64)
    return n, (big - 1e16) + small, np.abs(small - whole)


def _decimal(x):
    """(N, E, indices): per value of the float64 array x, its 17 digits N
    and decimal exponent E, and the indices of the values, zeros aside,
    that only ``%`` formats."""
    pow10 = _tables()[0]
    a = np.abs(x)
    finite = (a > 0.0) & (a < np.inf)  # nonzero and finite: NaN fails both
    a[~finite] = 1.0
    m, e = np.frexp(a)
    exp = np.floor(np.log10(a)).astype(np.int64)

    n, above, tie = _scaled(pow10, m, e, exp)
    fallback = (above < _MARGIN) | (n >= 10**17) | (tie > 0.5 - _MARGIN)
    return n, exp, np.flatnonzero((fallback & finite) | ~(finite | (x == 0.0)))


def fields(x) -> np.ndarray:
    """(x.size, WIDTH) uint8: per value of x in C order, the bytes of
    ``b"%.17g" % v`` with NULs between them, and a ',' in the last column."""
    _, head, tail, quads, trailing, moves, masks = _tables()
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    n, exp, fallback = _decimal(x)
    high = n // 10**8
    low = (n - high * 10**8).astype(np.uint32)
    d0 = high // 10**8
    mid = (high - d0 * 10**8).astype(np.uint32)
    q = [mid // 10_000, mid % 10_000, low // 10_000, low % 10_000]
    zeros = trailing[q[3]] + (q[3] == 0) * (
        trailing[q[2]] + (q[2] == 0) * (trailing[q[1]] + (q[1] == 0) * trailing[q[0]]))
    nd = 17 - zeros.astype(np.int64)  # significant digits
    fixed = (exp >= -4) & (exp <= 16)
    point = np.where(fixed, exp + 1, 1)  # the digits before the point
    keep = np.maximum(nd, point)  # the digits printed

    rows = np.empty((x.size, WIDTH // 8), dtype="<u8")
    rows[:, 0] = head.take(exp - _E_MIN)
    rows[:, 3] = tail.take(exp - _E_MIN)
    words = rows.view("<u4")
    mask = masks.take(keep, axis=0)
    for j, quad in enumerate(q):
        words[:, 2 + j] = quads.take(quad) & mask[:, j]
    text = rows.view(np.uint8)
    text[:, 0] = np.where(np.signbit(x), 45, 0)  # '-'
    text[:, _D0] = d0 + 48
    text[:, _POINT] = np.where((nd > point) & (point > 0), 46, 0)  # '.'
    moved = np.flatnonzero(fixed & (exp > 0))
    text[moved] = np.take_along_axis(text[moved], moves[exp[moved]], axis=1)
    text[x == 0.0, 1:] = np.frombuffer(b"0".ljust(WIDTH - 2, b"\0") + b",", dtype=np.uint8)
    for i, v in zip(fallback.tolist(), x[fallback].tolist()):
        s = b"%.17g" % v
        text[i, :-1] = 0
        text[i, : len(s)] = np.frombuffer(s, dtype=np.uint8)
    return text


def lead_text(x) -> np.ndarray:
    """The ``fields`` of the values of x less the columns that are NUL in
    every row: lead columns for ``csv_rows``, formatted once and gathered
    per row."""
    text = fields(x)
    return text[:, text.any(axis=0)]


def csv_rows(values, lead=None) -> bytes:
    """The CSV lines of the rows of a 2-D float array: a row's lead columns
    (the row of the ``lead_text`` matrix ``lead``, one row per value row),
    then its values as ``%.17g``, joined by ',' and ended by '\\n'."""
    text = fields(values).reshape(len(values), -1)
    text[:, -1] = ord("\n")
    if lead is not None:
        text = np.concatenate([lead, text], axis=1)
    return text.tobytes().translate(None, b"\0")
