"""The CSV bytes of a float64 table, every field exactly repr(float), from
numpy ufuncs on uint64 lanes: the formatter of `possys simulate`.

Calling repr per field costs about 1.6 us on a 16-17 digit double, because
CPython's dtoa does bignum arithmetic.  `csv_rows` formats a whole block at
about a quarter of that, in three steps.

* Digits: Ryu's shortest round-trip digits (Adams, "Ryu: fast float-to-string
  conversion", PLDI 2018), its e2 < 0 branch, which holds every double below
  2^54.  There the shift j of Ryu's 64 x 128-bit product is 118...122, so the
  product of the mantissa and the 125-bit 5^i is eight 32-bit limb products
  and a carry chain, and the interval ends vp and vm come off the same limbs.
  Ryu's digit-removal loop runs on the whole block for the first few digits,
  then on the fields still removing digits.
* Layout: each field becomes a record of four little-endian uint64 words:
  the sign at byte 1, the digits right-aligned to byte 23 with the point put
  in, the exponent at bytes 24..28, the separator at byte 29 and NUL bytes
  elsewhere.  The NUL bytes are then squeezed out.
* Fallback: repr formats the fields the kernel does not cover: inf and nan;
  |x| >= 2^54 (Ryu's e2 >= 0); Ryu's trailing-zero cases (q <= 1, or the
  mantissa divisible by 2^q), which hold the doubles with few significant
  digits such as 0.5; and positional outputs with no digit after the point
  but repr's ".0", such as 123.0.  Zero takes neither path: its record is
  "0.0" with its sign.

Python's repr uses the same rules: shortest digits that round-trip, the
closest of those, ties to even; exponent form below 1e-4 and from 1e16 up,
with a sign and at least two exponent digits.
"""
import numpy as np

_U = np.uint64
_LOW32 = _U(0xFFFFFFFF)
_WORD = 2**64 - 1
# digit removals made on the whole block before the loop narrows to the
# fields still removing: most fields remove one to three
_WHOLE = 3

# Ryu's table of 5^i, i < 326, as four 32-bit limbs of its top 125 bits, and
# its bit length
_pow5, _split = 1, []
for _i in range(326):
    _split.append([_pow5.bit_length()] + [(_pow5 << 125 >> _pow5.bit_length()) >> s & 0xFFFFFFFF for s in (0, 32, 64, 96)])
    _pow5 *= 5
_split = np.array(_split, np.int64)
# Ryu's constants by biased exponent: the limbs of 5^i, the shift j, the
# decimal exponent e10 of vr, the mask of the q low bits of mv (mv has 55;
# 0 where q <= 1 or beyond the e2 < 0 branch: repr formats those) and the
# implicit bit
_biased = np.arange(1077)
_e2 = np.maximum(_biased, 1) - 1077
_q = ((-_e2 * 732923) >> 20) - (_e2 < -1)
_i = -_e2 - _q
_RYU = np.zeros((8, 2048), np.uint64)
_RYU[:4, :1077] = _split[_i, 1:].T
_RYU[4, :1077] = _q - _split[_i, 0] + 125
_RYU[5, :1077] = (_q + _e2).astype(np.uint64)
_RYU[6, :1077] = np.where(_q > 1, (_U(1) << np.minimum(_q, 63).astype(np.uint64)) - _U(1), 0)
_RYU[7, 1:1077] = 1 << 52
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
_BITS_1E_4, _BITS_1E16 = np.array([1e-4, 1e16]).view(np.uint64)
del _pow5, _split, _i, _biased, _e2, _q, _v, _c, _lo, _byte, _e


def csv_rows(table) -> bytes:
    """`"".join(",".join(map(repr, row)) + "\\n" for row in table.tolist())`,
    ASCII-encoded, for a 2-D float64 array."""
    table = np.ascontiguousarray(table, dtype=np.float64)
    rows, cols = table.shape
    bits = table.view(np.uint64).ravel()
    # every field starts as its sign, "0.0" and its separator; the fields
    # that are not zero get their digits below
    words = np.zeros((4, bits.size), "<u8")
    words[0] = (bits >> _U(63)) * _U(0x2D00)
    words[2] = _ZERO
    separators = words[3].reshape(rows, cols)
    separators[:] = 0x2C << 40
    separators[:, -1] = 0x0A << 40
    fields = np.flatnonzero(bits << _U(1))
    bits = bits[fields]
    biased = ((bits >> _U(52)) & _U(0x7FF)).view(np.int64)
    p0, p1, p2, p3, j, e10, qmask, implicit = np.take(_RYU, biased, axis=1)
    frac = bits & _U(2**52 - 1)
    m2 = frac | implicit
    fallback = ((m2 << _U(2)) & qmask) == 0

    # X = m2 * 5^i as 32-bit limbs x0..x3 and xh, its bits from 128 up
    a0, a1 = m2 & _LOW32, m2 >> _U(32)
    t = a0 * p0
    x0, carry = t & _LOW32, t >> _U(32)
    t, s = a0 * p1, a1 * p0
    u = carry + (t & _LOW32) + (s & _LOW32)
    x1, carry = u & _LOW32, (u >> _U(32)) + (t >> _U(32)) + (s >> _U(32))
    t, s = a0 * p2, a1 * p1
    u = carry + (t & _LOW32) + (s & _LOW32)
    x2, carry = u & _LOW32, (u >> _U(32)) + (t >> _U(32)) + (s >> _U(32))
    t, s = a0 * p3, a1 * p2
    u = carry + (t & _LOW32) + (s & _LOW32)
    x3, xh = u & _LOW32, (u >> _U(32)) + (t >> _U(32)) + (s >> _U(32)) + a1 * p3
    # vr = mv 5^i >> j with mv = 4 m2, vp = (mv + 2) 5^i >> j and
    # vm = (mv - 1 - mmShift) 5^i >> j, the last on signed limbs; mmShift is 0
    # only for a power of two above the least normal
    vr = (xh << (_U(130) - j)) | (x3 >> (j - _U(98)))
    carry = ((x0 << _U(1)) + p0) >> _U(32)
    carry = ((x1 << _U(1)) + p1 + carry) >> _U(32)
    carry = ((x2 << _U(1)) + p2 + carry) >> _U(32)
    u = (x3 << _U(1)) + p3 + carry
    vp = (((xh << _U(1)) + (u >> _U(32))) << (_U(129) - j)) | ((u & _LOW32) >> (j - _U(97)))
    mm_shift = _U(1) - ((frac == 0) & (biased > 1))
    carry = ((x0 << _U(2)).view(np.int64) - (p0 << mm_shift).view(np.int64)) >> 32
    carry = ((x1 << _U(2)).view(np.int64) - (p1 << mm_shift).view(np.int64) + carry) >> 32
    carry = ((x2 << _U(2)).view(np.int64) - (p2 << mm_shift).view(np.int64) + carry) >> 32
    u = (x3 << _U(2)).view(np.int64) - (p3 << mm_shift).view(np.int64) + carry
    vm = (((xh << _U(2)).view(np.int64) + (u >> 32)).view(np.uint64) << (_U(128) - j)) | (
        (u.view(np.uint64) & _LOW32) >> (j - _U(96))
    )
    # a block's peak memory is two fifths lower with the limbs freed here
    del p0, p1, p2, p3, j, qmask, implicit, frac, m2, mm_shift, a0, a1, t, s, u, carry, x0, x1, x2, x3, xh

    # remove r digits while vp / 10^r > vm / 10^r, first on the whole block,
    # then on the fields still removing
    removed = np.zeros(bits.size, np.int64)
    kept = vr
    for r in range(1, _WHOLE + 1):
        more = vp // _POW10[r] > vm // _POW10[r]
        kept = kept + (vr // _POW10[r] - kept) * more.astype(np.uint64)
        removed += more
    live = np.flatnonzero(more)
    v, p, m = kept[live], vp[live] // _POW10[_WHOLE], vm[live] // _POW10[_WHOLE]
    while live.size:
        p, m = p // _U(10), m // _U(10)
        more = p > m
        live, v, p, m = live[more], v[more] // _U(10), p[more], m[more]
        removed[live] += 1
        kept[live] = v
    # round up when the removed digits are half a unit or more, and when
    # vm / 10^r is vr / 10^r: vm itself is outside the interval
    base = kept * np.take(_POW10, removed, mode="clip")
    digits = kept + ((vr - base >= np.take(_HALF, removed, mode="clip")) | (vm >= base))
    exp = e10.view(np.int64) + removed
    del vr, vp, vm, kept, base, removed, e10

    # exponent form below 1e-4 and from 1e16 up, compared as IEEE bits
    magnitude = bits & _U(2**63 - 1)
    sci = (magnitude < _BITS_1E_4) | (magnitude >= _BITS_1E16)
    fallback |= ~sci & (exp >= 0)
    length = ((digits | _U(1)).astype(np.float64).view(np.int64) >> 52) - 1023
    ndigits = _NDIGITS[length] - (digits < _NDIGITS_FROM[length])

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
    c = 21 + exp - (ndigits - 1 + exp) * sci
    lo = np.minimum(21 - ndigits, c - 1)
    head0, head1, head2, tail0, tail1, tail2, dot0, dot1, dot2 = np.take(_LAYOUT, c * 23 + lo, axis=1, mode="clip")
    words[0, fields] |= ((d0 >> _U(8)) | (d1 << _U(56))) & head0 | d0 & tail0 | dot0
    words[1, fields] = ((d1 >> _U(8)) | (d2 << _U(56))) & head1 | d1 & tail1 | dot1
    words[2, fields] = (d2 >> _U(8)) & head2 | d2 & tail2 | dot2
    words[3, fields] |= _EXPONENT[(exp + ndigits + 399) * (sci & ~fallback)]

    record = words.T.copy().view(np.uint8)
    fallback = fields[fallback]
    if fallback.size:
        text = np.array([repr(v).encode() for v in table.ravel()[fallback].tolist()], "S24")
        record[fallback, :24] = text.view(np.uint8).reshape(-1, 24)
    record = record.ravel()
    return record[record != 0].tobytes()
