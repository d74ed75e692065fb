"""The CSV bytes of a float64 table, every field exactly repr(float), from
numpy ufuncs on uint64 lanes: the formatter of `possys simulate`.

On the 401 x 2001 table of `perfbench/configs/simulate-n2000.json`, repr
costs about 700 ns per field, because CPython's dtoa does bignum
arithmetic, and `csv_rows` about 170 ns (one BLAS thread, 2-vCPU
Xeon).  It works on whole blocks, with no gather or scatter by field index,
in three steps.

* Digits: Ryu's shortest round-trip digits (Adams, "Ryu: fast float-to-string
  conversion", PLDI 2018), its e2 < 0 branch, which holds every double below
  2^54.  There the shift j of Ryu's 64 x 128-bit product is 118...122, so
  the interval vr, vp, vm needs the product of the mantissa and the 125-bit
  5^i only from bit 96 up: five 32-bit limb products and no carry chain
  (`_interval`).  The first digit removal always holds; two more run on the
  whole block, and two on the fields still removing.
* Layout: each field becomes a row-major record of four little-endian
  uint64 words: the sign at byte 1, the digits right-aligned to byte 23 with
  the point put in, the exponent at bytes 24..28, the separator at byte 29
  and NUL bytes elsewhere.  `bytes.translate` then drops the NUL bytes.
* Fallback: repr formats the fields the kernel does not cover: inf and nan;
  |x| >= 2^54 (Ryu's e2 >= 0); Ryu's trailing-zero cases (q <= 1, or the
  mantissa divisible by 2^q), which hold the doubles with few significant
  digits such as 0.5, and the powers of two; the fields that remove more
  than five digits, short values such as 0.15; the few whose interval the
  limbs from bit 96 up may read one off; and positional outputs with no
  digit after the point but repr's ".0", such as 123.0.  Zero is one of
  them, and takes its sign and "0.0" without repr.

Python's repr uses the same rules: shortest digits that round-trip, the
closest of those, ties to even; exponent form below 1e-4 and from 1e16 up,
with a sign and at least two exponent digits.
"""
import numpy as np

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_LOW20 = _U(0xFFFFF)
_WORD = 2**64 - 1
# digit removals made on the whole block before the loop narrows to the
# fields still removing: most fields remove one to three
_WHOLE = 3
# further removals on the fields still removing; the fields that remove more
# than _WHOLE + _NARROW digits, short values such as 0.15, are repr's
_NARROW = 2

# Ryu's table of 5^i, i < 326, as the 32-bit limbs 1..3 of its top 125 bits
# (limb 0 enters only through carries that _interval leaves out), and its
# bit length
_pow5, _split = 1, []
for _i in range(326):
    _split.append([_pow5.bit_length()] + [(_pow5 << 125 >> _pow5.bit_length()) >> s & 0xFFFFFFFF for s in (32, 64, 96)])
    _pow5 *= 5
_split = np.array(_split, np.int64)
# Ryu's constants by biased exponent: the limbs of 5^i, the shift j less 118,
# the decimal exponent e10 of vr, the mask of the q - 2 low bits of m2 (2^q
# divides mv = 4 m2 when none of them is set; 0 where q <= 2 or beyond the
# e2 < 0 branch, so that repr formats those) and the implicit bit
_biased = np.arange(1077)
_e2 = np.maximum(_biased, 1) - 1077
_q = ((-_e2 * 732923) >> 20) - (_e2 < -1)
_i = -_e2 - _q
_RYU = np.zeros((7, 2048), np.uint64)
_RYU[:3, :1077] = _split[_i, 1:].T
_RYU[3, :1077] = _q - _split[_i, 0] + 125 - 118
_RYU[4, :1077] = (_q + _e2).astype(np.uint64)
_RYU[5, :1077] = np.where(_q > 1, (_U(1) << (np.minimum(_q, 63) - 2).astype(np.uint64)) - _U(1), 0)
_RYU[6, 1:1077] = 1 << 52
# 10^r and half a unit of the last digit kept after r removals (none for r = 0)
_POW10 = np.array([10**r for r in range(20)], np.uint64)
_HALF = np.array([_WORD] + [5 * 10 ** (r - 1) for r in range(1, 20)], np.uint64)
# by bit length b + 1: the most decimal digits, and the least number with that many
_NDIGITS = np.array([len(str(2 ** (b + 1) - 1)) for b in range(64)], np.int64)
_NDIGITS_FROM = np.array([10 ** (d - 1) for d in _NDIGITS.tolist()], np.uint64)
# four ASCII digits per entry, the first in the lowest byte
_v = np.arange(10000, dtype=np.uint64)
_DIGITS4 = sum((_v // _U(10 ** (3 - i)) % _U(10) + _U(0x30)) << _U(8 * i) for i in range(4))
# by c * 23 + lo, as three words each of record bytes 0..23: the mask of the
# head [2 + lo, 2 + c), the mask of the tail [3 + c, 24) and the point at
# byte 2 + c (none for c = 21, where no digit follows it)
_c, _lo, _byte = np.ogrid[:23, :23, :24]
_LAYOUT = (
    np.stack(np.broadcast_arrays(
        ((_byte >= 2 + _lo) & (_byte < 2 + _c)) * 0xFF,
        (_byte >= 3 + _c) * 0xFF,
        ((_byte == 2 + _c) & (_c < 21)) * 0x2E,
    ), axis=2).astype(np.uint8).view("<u8").reshape(23 * 23, 9).T.astype(np.uint64)
)
# by e + 400, as record bytes 24..31: "e", the sign, the hundreds (NUL below
# 100), the tens and the units; entry 0 is no exponent
_e = np.arange(-400, 400)
_EXPONENT = (
    np.stack([
        np.full(800, ord("e")),
        np.where(_e < 0, ord("-"), ord("+")),
        np.where(abs(_e) >= 100, 0x30 + abs(_e) // 100, 0),
        0x30 + abs(_e) // 10 % 10,
        0x30 + abs(_e) % 10,
        *np.zeros((3, 800), int),
    ], axis=1).astype(np.uint8).view("<u8").ravel().astype(np.uint64)
)
_EXPONENT[0] = 0
# "0.0" at record bytes 21..23
_ZERO = int.from_bytes(b"0.0", "little") << 40
del _pow5, _split, _i, _biased, _e2, _q, _v, _c, _lo, _byte, _e


def _interval(bits):
    """Ryu's vr, vp and vm (with mmShift 1) and e10 by lane, and whether repr
    formats the lane instead.

    With X = m2 5^i and j = 118 + sh, sh = 0..4, vr = X >> (j - 2),
    vp = (2 X + 5^i) >> (j - 1) and vm = (4 X - 2 5^i) >> j.  X >> 96 is
    read off the limb products at bit 96 and up and the high halves of those
    at bit 64, as T = X >> 116 and the 20 bits L below it, and is 0 to 3
    short.  Then vr = T >> sh, and vp and vm are T plus the carry of 2 L + p3
    out of 21 bits, and the carry or borrow of 4 L - 2 p3 out of 22, shifted
    by sh.
    """
    biased = ((bits >> _U(52)) & _U(0x7FF)).view(np.int64)
    p1, p2, p3, sh, e10, qmask, implicit = np.take(_RYU, biased, axis=1)
    frac = bits & _U(2**52 - 1)
    m2 = frac | implicit
    a0, a1 = m2 & _LOW32, m2 >> _U(32)
    u = a0 * p3 + a1 * p2 + ((a0 * p2) >> _U(32)) + ((a1 * p1) >> _U(32))
    low = u & _LOW20
    top = (u >> _U(20)) + ((a1 * p3) << _U(12))
    vr = top >> sh
    up = (low << _U(1)) + p3
    vp = (top + (up >> _U(21))) >> sh
    um = (low << _U(2)) - (p3 << _U(1))
    vm = (top + (um.view(np.int64) >> 22).view(np.uint64)) >> sh
    # what is left out adds 0 to 3 to L, 0 to 8 to 2 L + p3 and -2 to 15 to
    # 4 L - 2 p3 (with the bits of X below 96): repr formats the lanes where
    # that could cross a multiple of 2^20, 2^21 or 2^22, about 1 in 10^5
    near = ((low + _U(4)) & _LOW20) < _U(5)
    near |= (((up >> _U(1)) + _U(4)) & _LOW20) < _U(5)
    near |= (((um >> _U(2)) + _U(4)) & _LOW20) < _U(5)
    # and the trailing-zero cases and the powers of two (mmShift 0)
    return vr, vp, vm, e10, near | ((m2 & qmask) == 0) | (frac == 0)


def csv_rows(table) -> bytes:
    """`"".join(",".join(map(repr, row)) + "\\n" for row in table.tolist())`,
    ASCII-encoded, for a 2-D float64 array."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    rows, cols = table.shape
    bits = table.view(np.uint64).ravel()
    vr, vp, vm, e10, fallback = _interval(bits)

    # remove r digits while vp / 10^r > vm / 10^r.  vp - vm > 38 at every
    # exponent the kernel formats (a test checks each), so one removal always
    # holds; the next ones run on the whole block, then on the fields still
    # removing
    kept = vr // _U(10)
    removed = np.ones(bits.size, np.int64)
    for r in range(2, _WHOLE + 1):
        more = vp // _POW10[r] > vm // _POW10[r]
        kept = kept + (vr // _POW10[r] - kept) * more.astype(np.uint64)
        removed += more
    live = np.flatnonzero(more)
    v, p, m = kept[live], vp[live] // _POW10[_WHOLE], vm[live] // _POW10[_WHOLE]
    for _ in range(_NARROW):
        p, m = p // _U(10), m // _U(10)
        more = p > m
        live, v, p, m = live[more], v[more] // _U(10), p[more], m[more]
        removed[live] += 1
        kept[live] = v
    fallback[live] = True
    # round up when the removed digits are half a unit or more, and when
    # vm / 10^r is vr / 10^r: vm itself is outside the interval
    base = kept * np.take(_POW10, removed, mode="clip")
    digits = kept + ((vr - base >= np.take(_HALF, removed, mode="clip")) | (vm >= base))
    exp = e10.view(np.int64) + removed
    del vr, vp, vm, kept, base, removed, e10

    length = ((digits | _U(1)).astype(np.float64).view(np.int64) >> 52) - 1023
    ndigits = _NDIGITS[length] - (digits < _NDIGITS_FROM[length])
    # point - 1 is the decimal exponent of the first digit: exponent form
    # below -4 and from 16 up, as repr's 1e-4 and 1e16
    point = exp + ndigits
    sci = (point + 3).view(np.uint64) > _U(19)
    fallback |= ~sci & (exp >= 0)

    # "0" and the digits zero-padded to 20, at record bytes 3..23
    high = digits // _POW10[8]
    low = digits - high * _POW10[8]
    g0 = high // _POW10[8]
    high -= g0 * _POW10[8]
    g1, g3 = high // _POW10[4], low // _POW10[4]
    d0 = _U(0x30 << 24) | (_DIGITS4[g0.view(np.int64)] << _U(32))
    d1 = _DIGITS4[g1.view(np.int64)] | (_DIGITS4[(high - g1 * _POW10[4]).view(np.int64)] << _U(32))
    d2 = _DIGITS4[g3.view(np.int64)] | (_DIGITS4[(low - g3 * _POW10[4]).view(np.int64)] << _U(32))
    # of those 21 digits, the point goes before digit c, the digits before it
    # move down a byte, and the zeros before digit lo go
    c = 21 + exp - (point - 1) * sci
    lo = np.minimum(21 - ndigits, c - 1)
    head0, head1, head2, tail0, tail1, tail2, dot0, dot1, dot2 = np.take(_LAYOUT, c * 23 + lo, axis=1, mode="clip")
    # one record of four words per field, row-major, so that the records are
    # the output bytes in order once the NUL bytes go
    record = np.empty((bits.size, 4), "<u8")
    record[:, 0] = (bits >> _U(63)) * _U(0x2D00) | ((d0 >> _U(8)) | (d1 << _U(56))) & head0 | d0 & tail0 | dot0
    record[:, 1] = ((d1 >> _U(8)) | (d2 << _U(56))) & head1 | d1 & tail1 | dot1
    record[:, 2] = (d2 >> _U(8)) & head2 | d2 & tail2 | dot2
    separators = np.full(cols, _U(0x2C << 40))
    separators[-1] = 0x0A << 40
    record.reshape(rows, cols, 4)[:, :, 3] = _EXPONENT[(point + 399) * (sci & ~fallback)].reshape(rows, cols) | separators

    # zero, a fallback field (frac 0), is its sign and "0.0"
    fallback = np.flatnonzero(fallback)
    zero = bits[fallback] << _U(1) == 0
    zeros, fallback = fallback[zero], fallback[~zero]
    record[zeros, 0] = (bits[zeros] >> _U(63)) * _U(0x2D00)
    record[zeros, 1] = 0
    record[zeros, 2] = _ZERO
    if fallback.size:
        text = np.array([repr(v).encode() for v in table.ravel()[fallback].tolist()], "S24")
        record.view(np.uint8)[fallback, :24] = text.view(np.uint8).reshape(-1, 24)
    return record.tobytes().translate(None, b"\0")
