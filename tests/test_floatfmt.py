"""`floatfmt.csv_rows` writes the bytes repr writes, for any float64."""
import numpy as np
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
    # the product is combined from 32-bit limbs x3 and up, which holds for
    # shifts of 118 to 122 bits
    shifts = floatfmt._RYU[4, :1077]
    assert shifts.min() >= 118 and shifts.max() <= 122
