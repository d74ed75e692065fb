"""`floatfmt.csv_rows` writes the bytes repr writes, for any float64."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from possys import floatfmt


def reference(table):
    return "".join(",".join(map(repr, row)) + "\n" for row in table.tolist()).encode()


@given(
    st.integers(1, 6).flatmap(
        lambda cols: st.lists(st.lists(st.integers(0, 2**64 - 1), min_size=cols, max_size=cols), min_size=1, max_size=8)
    )
)
def test_arbitrary_bit_patterns(rows):
    table = np.array(rows, np.uint64).view(np.float64)
    assert floatfmt.csv_rows(table) == reference(table)


def test_every_class_of_double():
    """A million seeded bit patterns; every power of two, every 10^k and the
    1e-4 and 1e16 switch points, each with its two neighbours; zeros,
    subnormals, inf and nan; all of them negated too."""
    patterns = np.random.default_rng(20181).integers(0, 2**64, 10**6, dtype=np.uint64, endpoint=False)
    centres = np.array(
        [2.0**e for e in range(-1074, 1024)] + [float(f"1e{k}") for k in range(-324, 309)] + [1e-4, 1e16], np.float64
    )
    special = np.array([0.0, 5e-324, 1e-310, 2.2250738585072009e-308, np.inf, np.nan], np.float64)
    values = np.concatenate(
        [patterns.view(np.float64), centres, np.nextafter(centres, np.inf), np.nextafter(centres, -np.inf), special]
    )
    values = np.concatenate([values, -values])
    table = np.concatenate([values, np.zeros(-values.size % 1000)]).reshape(-1, 1000)
    for block in np.array_split(table, len(table) // 16):
        assert floatfmt.csv_rows(block) == reference(block)


def test_ryu_shifts_fit_the_limb_carry_chain():
    # X is read from bit 96 up, which holds for shifts j = 118 + sh of 118
    # to 122 bits; the top limb of 5^i has 29 bits, so the sum at bit 96 fits
    # in 64 bits
    shifts = floatfmt._RYU[3, :1077]
    assert shifts.max() <= 4
    assert floatfmt._RYU[2, :1077].max() < 2**29


def test_one_digit_removal_always_holds():
    # vp - vm > 4 5^i / 2^j - 1 > 38 at every exponent the kernel formats
    # (its trailing-zero mask is not 0), so vp / 10 > vm / 10
    for biased in np.flatnonzero(floatfmt._RYU[5]):
        p1, p2, p3, sh = (int(v) for v in floatfmt._RYU[:4, biased])
        assert ((p3 << 64 | p2 << 32 | p1) >> (sh + 84)) - 1 > 38


def ryu_interval(x):
    """Ryu's vr, vp and vm of the double x, exactly, for x in the kernel's
    e2 < 0 branch and not a power of two: (4 m2 + d) 5^i >> j, d = 0, 2, -2,
    with the top 125 bits of 5^i."""
    bits = int(np.float64(abs(x)).view(np.uint64))
    biased = bits >> 52
    m2 = bits & (2**52 - 1) | (1 << 52 if biased else 0)
    e2 = max(biased, 1) - 1077
    q = ((-e2 * 732923) >> 20) - (e2 < -1)
    pow5 = 5 ** (-e2 - q)
    big = (pow5 << 125) >> pow5.bit_length()
    j = q - pow5.bit_length() + 125
    return tuple((4 * m2 + d) * big >> j for d in (0, 2, -2))


# doubles whose vr, vp or vm comes out one off when X is read from bit 96 up
# without the carries from below: `_interval` must hand them to repr
MISREAD = [
    1.0007601089321932e-21, 8.079866167385062e-129, -6.811115509024461e-113,
    -0.021630216948346923, -0.9055951217246372, 6.5737851110602445,
    0.011833051263341129, 0.1724425429158372, -44544.300064861534,
]


def test_interval_is_ryus_wherever_repr_does_not_format():
    rng = np.random.default_rng(5)
    values = np.concatenate([
        MISREAD,
        rng.random(2000) * 10.0 ** rng.integers(-20, 16, 2000),
        rng.integers(0, 2**62, 2000, dtype=np.uint64).view(np.float64),
    ])
    vr, vp, vm, _, fallback = floatfmt._interval(values.view(np.uint64))
    assert fallback[: len(MISREAD)].all()
    assert np.mean(fallback) < 0.05
    for k in np.flatnonzero(~fallback):
        assert (vr[k], vp[k], vm[k]) == ryu_interval(values[k]), values[k]
    table = np.array(MISREAD).reshape(3, 3)
    assert floatfmt.csv_rows(table) == reference(table)


def test_blocks_with_and_without_zero_fields():
    block = np.random.default_rng(3).standard_normal((6, 7)) * 10.0 ** np.arange(-5, 2)
    assert floatfmt.csv_rows(block) == reference(block)
    block[0, 0], block[2, 3], block[5, 6] = 0.0, -0.0, 0.0
    block[4] = -0.0
    assert floatfmt.csv_rows(block) == reference(block)
    for zeros in (np.zeros((3, 4)), -np.zeros((2, 1)), np.array([[0.0, -0.0, 1e-300, -0.0]])):
        assert floatfmt.csv_rows(zeros) == reference(zeros)


# doubles with few significant digits: their digits come out of far more
# removals than the loop makes, so repr formats them
SHORT = np.concatenate([
    0.05 * np.arange(401), np.arange(-50.0, 51.0), 0.1 * np.arange(-30, 31), 2.0 ** -np.arange(70), 1e-4 * np.arange(1, 13),
])


@pytest.mark.parametrize("cap", [0, floatfmt._NARROW, 20])
def test_removal_cap_changes_no_byte(monkeypatch, cap):
    monkeypatch.setattr(floatfmt, "_NARROW", cap)
    rng = np.random.default_rng(4)
    mixed = rng.random(SHORT.size) * 10.0 ** rng.integers(-6, 3, SHORT.size)
    for table in (SHORT.reshape(-1, 15), np.column_stack((SHORT, mixed))):
        assert floatfmt.csv_rows(table) == reference(table)
