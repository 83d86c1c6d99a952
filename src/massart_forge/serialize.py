"""JSON and CSV emission with floats at 17 significant digits.

The standard encoder prints shortest-roundtrip floats; report files pin
the full 17 significant digits instead so downstream diffs are stable.
JSON floats go through Python's ``format(v, ".17g")``.

CSV rows.  ``csv_rows`` writes ``("%.17g," * c + ",".join(["%d"] * j) +
"\\n") % row`` for every row of an (n, c) float block and an (n, j) integer
block, byte for byte, without formatting one value at a time.  Python's
``%.17g`` rounds the exact binary value of x to 17 significant digits, ties
to even, and prints fixed notation when the rounded value's decimal exponent
k is in [-4, 16], trailing zeros and a bare point stripped.  With a = |x|:

* 1e-4 <= a < 10, not integral: k is in [-4, 0] and the digits are
  N = round_half_even(a * 10^(16 - k)), an integer in [10^16, 10^17).
  Step 1 estimates k, step 2 scales exactly, step 3 rounds; each is exact:

  1. k^ = floor(log10 a), clipped to [-4, 0]; where N >= 10^17 it is
     recomputed at k^ + 1, where N < 10^16 at k^ - 1, once.  Let
     K = floor(log10 a) exactly.  k is K: rounding up to 10^(K+1) would
     need a >= 10^(K+1) (1 - 5e-18), but 10 and 1 are doubles with the one
     below each at least 2^-53 = 1.1e-16 (relative) lower, and below 0.1,
     0.01 and 0.001 the nearest doubles are 8.3e-17, 1.5e-16 and 1.96e-16
     lower.  ``np.log10`` errs by a few ulps, so k^ differs from k only
     within ~1e-14 (relative) of a power of ten, by one.  If k^ = k - 1,
     a * 10^(16 - k^) >= 10^17 - 1/2, so N >= 10^17; if k^ = k + 1,
     N >= 10^16 would need a >= 10^(K+1) (1 - 5e-17), which the same gaps
     rule out.  Either way the retry lands on k.
  2. hi, lo = two_product(a, 10.0 ** (16 - k)) (Dekker 1971, with
     Veltkamp's split by 2^27 + 1) gives hi + lo = a * 10^(16 - k) exactly.
     10^e is a double for e <= 22 (5^22 < 2^53), and 16 - k is in [16, 20].
     Nothing overflows: the largest intermediate is (2^27 + 1) * 1e20.
     Nothing underflows: the product is exact when the factors' exponents
     sum to at least e_min + 52 = -970 (Boldo 2006), and here a >= 2^-14
     and the power of ten is at least 1e16.
  3. N = int64(hi) + int64(rint(lo)).  When N is in [10^16, 10^17) the
     exact product is at least 10^16 - 1/2 > 2^53, so hi >= 2^53, where
     doubles are even integers, and |lo| <= ulp(hi)/2 <= 8.  Adding the
     even integer hi does not change which of two neighbours is even, so
     ``rint``'s ties to even on lo give round_half_even(hi + lo), exactly as
     ``%.17g``.  A product below 2^53 yields N < 2^53 + 1 < 10^16, which
     still reads "k^ too high" correctly.

  The text is sign, the integer digit, the point and the fraction digits,
  trailing zeros stripped.  Since a is not integral, its fractional part
  is at least ulp(a) >= 1.1e-16 a, more than half the last digit's
  10^(k - 16) <= 1e-16 a, away from both integers, so the rounding neither
  drops the fraction nor carries into the integer digit: that digit is
  trunc(a), 0 below k = 0, and at least one fraction digit is nonzero.
* Every other value (±0 and the other integral values, 0 < a < 1e-4,
  a >= 10, nan, inf) is formatted by Python's own ``"%.17g" % v``; a
  ``gen`` draw of 2.1 M values has about 170 of them.

Layout.  Each field is laid out in a fixed-width slot of a uint8 matrix,
NUL where it has no character: the separator before it ("," or nothing for
the first column), the sign, the integer digit and the point right-aligned,
then the fraction digits left-aligned with trailing zeros as NUL.  An
integer field is its separator, sign and ``%d`` digits, right-aligned in a
narrower slot.  Each row's slots are followed by its "\\n".  Digits come
four at a time from a table of ASCII groups, one copy with trailing zeros
as NUL; the separator, sign and leading zeros come from small tables
indexed by the digit count (integers) or by k and the integer digit
(floats).  Every table is built on first use.  Dropping every NUL with one
boolean mask leaves the rows.
"""

from __future__ import annotations

import functools
import math

import numpy as np

INDENT = 2  # spaces per nesting level


def _render(obj, level: int) -> str:
    pad = " " * (INDENT * (level + 1))
    closing = " " * (INDENT * level)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}"{key}": {_render(val, level + 1)}'
            for key, val in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + closing + "}"
    if isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            return "[]"
        rows = [f"{pad}{_render(val, level + 1)}" for val in seq]
        return "[\n" + ",\n".join(rows) + "\n" + closing + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, float):
        if math.isnan(obj):
            return '"nan"'
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return format(obj, ".17g")
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    raise TypeError(f"cannot serialise {type(obj)!r}")


def dumps(obj) -> str:
    return _render(obj, 0) + "\n"


def dump(obj, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(obj))


# ---------------------------------------------------------------- CSV rows

_FLOAT_SLOT = 32  # bytes per float field: head (sep, sign, integer digit,
# point, first fraction digit) right-aligned in 0..15, 16 more digits in 16..31;
# the longest fallback field, ",-1.2345678901234567e-308", takes 25
_INT_SLOT = 24  # bytes per integer field: sep, sign and <= 20 digits right-aligned
_K_LO, _K_HI = -4, 0  # decimal exponents of the vectorized float fields
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant

_COMMA, _MINUS, _ZERO = (ord(ch) for ch in ",-0")


@functools.cache
def _groups() -> np.ndarray:
    """The 4-digit ASCII group of every g < 10^4 as one uint32 of its bytes,
    then the same groups with trailing zeros as NUL ("0000" all NUL)."""
    g = np.arange(10_000, dtype=np.uint32)
    chars = np.full(g.shape, 0x30303030, "<u4")  # byte i holds digit i of g
    zeros = np.zeros(g.shape, np.intp)  # trailing zero digits
    for i, unit in enumerate((1000, 100, 10, 1)):
        chars += g // unit % 10 << np.uint32(8 * i)
        zeros += g % (10 * unit) == 0
    keep = np.array([0xFFFFFFFF, 0xFFFFFF, 0xFFFF, 0xFF, 0], "<u4")[zeros]
    table = np.concatenate([chars, chars & keep]).view(np.uint32)
    table.flags.writeable = False
    return table


_STRIPPED = 10_000  # offset of the trailing-zeros-stripped groups
_TEN4, _TEN8, _TEN16 = np.uint32(10**4), np.uint64(10**8), np.uint64(10**16)


@functools.cache
def _int_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer heads: keep[d] keeps the last d digit bytes of a 24-byte
    slot, marks[(2 sep + neg) 21 + d] puts the separator and sign before
    them; searchsorted in 10^1..10^19 gives the digit count."""
    keep = np.zeros((21, _INT_SLOT), np.uint8)
    marks = np.zeros((2, 2, 21, _INT_SLOT), np.uint8)
    for d in range(1, 21):
        keep[d, _INT_SLOT - d :] = 0xFF
        marks[:, 1, d, _INT_SLOT - 1 - d] = _MINUS
        marks[1, 0, d, _INT_SLOT - 1 - d] = _COMMA
        marks[1, 1, d, _INT_SLOT - 2 - d] = _COMMA
    powers = 10 ** np.arange(1, 20, dtype=np.uint64)
    return keep.view(np.uint64), marks.view(np.uint64).reshape(-1, _INT_SLOT // 8), powers


@functools.cache
def _scales() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """10^(16 - k) for k = _K_LO.._K_HI (exact: 16 - k <= 20 <= 22) and its
    Veltkamp halves."""
    scale = 10.0 ** (16 - np.arange(_K_LO, _K_HI + 1))
    scale_hi = _SPLIT * scale - (_SPLIT * scale - scale)
    return scale, scale_hi, scale - scale_hi


@functools.cache
def _float_heads() -> np.ndarray:
    """The float heads as one word each, byte 7 left for the first fraction
    digit; index (2 sep + neg) 14 + case: case k + 4 for k < 0 is "0." and
    -k - 1 zeros, case 4 + i for k = 0 is "i." (i = 1..9)."""
    head = np.zeros((2, 2, 14, 8), np.uint8)
    for case in range(14):
        body = "0." + "0" * (3 - case) if case < 4 else f"{case - 4}."
        for sep in (0, 1):
            for neg in (0, 1):
                text = ("," * sep + "-" * neg + body).encode()
                head[sep, neg, case, 7 - len(text) : 7] = list(text)
    return head.view(np.uint64).ravel()


def _put_digits(out: np.ndarray, value: np.ndarray, groups: int, strip: bool = False) -> None:
    """Write the zero-padded decimal of the uint64 value (< 10^(4 groups))
    into the last axis of out, 4 bytes per group; with strip, trailing
    zeros as NUL.  8-digit pieces split in uint32, where division is cheap."""
    slots, table = out.view(np.uint32), _groups()
    offset = np.full(value.shape, _STRIPPED, np.uint32)  # while the lower groups are 0
    while groups > 0:
        rest = value // _TEN8
        piece = (value - rest * _TEN8).astype(np.uint32)
        value = rest
        high = piece // _TEN4
        for group in (piece - high * _TEN4, high)[: min(groups, 2)]:
            groups -= 1
            slots[..., groups] = np.take(table, group + offset if strip else group)
            if strip:
                offset *= group == 0


def _int_text(out: np.ndarray, mag: np.ndarray, neg: np.ndarray, sep: np.ndarray) -> None:
    """Fill 24-byte slots with "sep sign digits" right-aligned: the decimal
    digits of the uint64 mag, "-" where neg, "," where sep is 1."""
    _put_digits(out[..., 4:], mag, 5)
    keep, marks, powers = _int_tables()
    digits = np.searchsorted(powers, mag, side="right") + 1
    words = out.view(np.uint64)
    words &= np.take(keep, digits, axis=0)
    words |= np.take(marks, digits + 21 * (neg + 2 * sep), axis=0)


def _scaled(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """round_half_even(a * 10^(16 - k)) as int64, by an exact two-product."""
    i = k - _K_LO
    scale, scale_hi, scale_lo = (np.take(table, i) for table in _scales())
    hi = a * scale
    a_hi = _SPLIT * a
    a_hi -= a_hi - a
    a_lo = a - a_hi
    lo = a_hi * scale_hi  # ((a_hi b_hi - hi) + a_hi b_lo + a_lo b_hi) + a_lo b_lo
    lo -= hi
    lo += np.multiply(a_hi, scale_lo, out=a_hi)
    lo += np.multiply(a_lo, scale_hi, out=scale_hi)
    lo += np.multiply(a_lo, scale_lo, out=a_lo)
    return hi.astype(np.int64) + np.rint(lo, out=lo).astype(np.int64)


def _float_fields(out: np.ndarray, x: np.ndarray, sep: np.ndarray) -> None:
    """Fill the (n, c, _FLOAT_SLOT) slots out with the fields of x (n, c)."""
    a = np.abs(x)
    neg = np.signbit(x)
    with np.errstate(invalid="ignore"):  # trunc of inf and nan
        integral = a == np.trunc(a)
    frac = (a >= 1e-4) & (a < 10.0) & ~integral
    other = ~frac
    af = a if frac.all() else np.where(frac, a, 1.5)  # the rest is overwritten

    k = np.log10(af)
    k = np.clip(np.floor(k, out=k), _K_LO, _K_HI, out=k).astype(np.intp)
    digits = _scaled(af, k)
    for step, wrong in ((1, digits >= 10**17), (-1, digits < 10**16)):
        if wrong.any():
            k[wrong] += step
            digits[wrong] = _scaled(af[wrong], k[wrong])

    whole = af.astype(np.uint64)  # trunc(a), 0 below k = 0
    fraction = digits.view(np.uint64) - whole * _TEN16
    np.multiply(fraction, np.uint64(10), out=fraction, where=k == 0)  # left-align 16 digits
    first = fraction // _TEN16
    _put_digits(out[..., 16:32], fraction - first * _TEN16, 4, strip=True)
    case = k - _K_LO + whole.view(np.int64)  # k + 4 below 1, 4 + i at k = 0
    head = np.take(_float_heads(), case + 14 * (neg + 2 * sep))
    out[..., 8:16].view(np.uint64)[..., 0] = head | (first + _ZERO) << np.uint64(56)

    if other.any():  # the tested fallback: Python's own %.17g
        rows, cols = np.nonzero(other)
        text = [("," * s + "%.17g" % v).encode() for s, v in zip(sep[cols].tolist(), x[rows, cols].tolist())]
        out[rows, cols] = np.frombuffer(
            np.array(text, dtype=f"S{_FLOAT_SLOT}").tobytes(), np.uint8
        ).reshape(-1, _FLOAT_SLOT)


def csv_rows(floats, ints) -> bytes:
    """The bytes of ``("%.17g," * c + ",".join(["%d"] * j) + "\\n") % row``
    for every row of an (n, c) float64 block and an (n, j) integer block."""
    floats = np.asarray(floats, dtype=np.float64)
    ints = np.asarray(ints, dtype=np.int64)
    if floats.ndim != 2 or ints.ndim != 2 or len(floats) != len(ints):
        raise ValueError(f"need (n, c) floats and (n, j) ints, got {floats.shape} and {ints.shape}")
    n, c = floats.shape
    j = ints.shape[1]
    end = (b"," if c and not j else b"") + b"\n"
    width = c * _FLOAT_SLOT + j * _INT_SLOT + 8
    out = np.zeros((n, width), np.uint8)
    sep = (np.arange(c + j) > 0).astype(np.intp)  # a comma before every field but the first
    if c:
        _float_fields(out[:, : c * _FLOAT_SLOT].reshape(n, c, _FLOAT_SLOT), floats, sep[:c])
    if j:
        neg = ints < 0
        mag = ints.view(np.uint64)
        mag = np.where(neg, -mag, mag)  # |v| in uint64, the int64 minimum too
        _int_text(out[:, c * _FLOAT_SLOT : width - 8].reshape(n, j, _INT_SLOT), mag, neg, sep[c:])
    out[:, width - 8 : width - 8 + len(end)] = list(end)
    return out[out != 0].tobytes()
