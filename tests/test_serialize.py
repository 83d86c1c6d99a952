"""csv_rows against Python's own per-row %-formatting, byte for byte."""

import math
import sys
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from massart_forge import cli, serialize
from massart_forge.hardpair import HardPairConfig, build_hard_pair
from massart_forge.instance import make_instance, random_unit_vector, sample_labeled


def _ref_rows(floats, ints) -> bytes:
    """The per-row loop csv_rows replaces: one %-format per row."""
    floats, ints = np.asarray(floats, dtype=float), np.asarray(ints, dtype=np.int64)
    row_format = "%.17g," * floats.shape[1] + ",".join(["%d"] * ints.shape[1]) + "\n"
    return "".join(
        row_format % (*f, *i) for f, i in zip(floats.tolist(), ints.tolist())
    ).encode()


def _check(floats, ints=None):
    floats = np.asarray(floats, dtype=float)
    if floats.ndim == 1:
        floats = floats.reshape(-1, 1)
    if ints is None:
        ints = np.arange(len(floats))[:, None] - 3
    assert serialize.csv_rows(floats, ints) == _ref_rows(floats, ints)


def _neighbours(values, ulps: int) -> np.ndarray:
    """Every double within `ulps` steps of each value, both signs."""
    out = []
    for v in values:
        down = up = float(v)
        out.append(v)
        for _ in range(ulps):
            down, up = math.nextafter(down, -math.inf), math.nextafter(up, math.inf)
            out += [down, up]
    out = np.array(out)
    return np.concatenate([out, -out])


_BITS = st.integers(min_value=0, max_value=2**64 - 1)
_INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)


@st.composite
def _blocks(draw):
    n = draw(st.integers(min_value=0, max_value=12))
    c = draw(st.integers(min_value=0, max_value=4))
    j = draw(st.integers(min_value=0, max_value=3))
    bits = draw(st.lists(_BITS, min_size=n * c, max_size=n * c))
    ints = draw(st.lists(_INT64, min_size=n * j, max_size=n * j))
    floats = np.array(bits, dtype=np.uint64).view(np.float64).reshape(n, c)
    return floats, np.array(ints, dtype=np.int64).reshape(n, j)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(block=_blocks())
def test_csv_rows_matches_percent_format_on_any_bits(block):
    floats, ints = block
    assert serialize.csv_rows(floats, ints) == _ref_rows(floats, ints)


def test_powers_of_ten_and_their_neighbours():
    _check(_neighbours([10.0**e for e in range(-5, 18)], 4))


def test_ties_round_to_even():
    # odd j: 18 significant digits ending in 5, an exact tie at 17 digits
    _check(np.arange(2**17, 10 * 2**17, 9) / 2**17)
    _check(np.arange(10_486, 104_858) / 2**20)


def test_specials_and_fast_path_edges():
    tiny = 5e-324
    edges = _neighbours([1e-4, 10.0, 1e16], 3)
    _check(np.concatenate([
        [0.0, -0.0, tiny, -tiny, sys.float_info.min, sys.float_info.max,
         -sys.float_info.max, math.nan, math.inf, -math.inf, 1.0, 100.0, 2.0**53, 2.0**52 + 0.5,
         9999999999999998.0, 0.5, 9.5, 10.5, 123.25, 1e15 + 0.125],
        edges,
    ]))


def test_int_columns_and_shapes():
    rng = np.random.default_rng(5)
    ints = np.array([[-(2**63), 2**63 - 1, 0], [-1, 1, 10**18], [-(10**18), 99, -100]])
    _check(rng.standard_normal((3, 2)), ints)
    for c in (1, 3, 20):
        n = 2 * cli.CSV_BLOCK_ROWS + 5
        floats = rng.standard_normal((n, c)) * 10.0 ** rng.integers(-6, 17, (n, c))
        labels = rng.integers(-1, 2, (n, 1))
        _check(floats, labels)
        assert serialize.csv_rows(floats, np.empty((n, 0), np.int64)) == _ref_rows(
            floats, np.empty((n, 0))
        )


def test_write_csv_blocks_rows_whatever_n(tmp_path):
    rng = np.random.default_rng(6)
    n = 2 * cli.CSV_BLOCK_ROWS + 3  # not a multiple of the block
    floats, ints = rng.standard_normal((n, 3)), rng.integers(0, 2, (n, 2))
    path = tmp_path / "rows.csv"
    cli._write_csv(path, "a,b,c,d,e", floats, ints)
    assert path.read_bytes() == b"a,b,c,d,e\n" + _ref_rows(floats, ints)


def test_no_double_lies_in_the_too_high_estimate_window():
    """The docstring's step-1 case: below 10^e (e = 1, 0, -1, -2, -3) the
    nearest double is more than 5e-17 lower (relative), so no value below
    10 rounds up to 10 at 17 digits (k stays <= 0), and a k estimate one
    too high cannot round a to 10^16 at that exponent."""
    for e in (1, 0, -1, -2, -3):
        power = Fraction(10) ** e
        below = float(power)
        if Fraction(below) >= power:
            below = math.nextafter(below, 0.0)
        assert (power - Fraction(below)) / power > Fraction(5, 10**17)


def test_gen_csv_equals_the_per_row_reference(tmp_path):
    config = HardPairConfig(zeta=0.05, d=10, epsilon=0.05)
    pair = build_hard_pair(config)
    for seed in (3, 7):
        out = tmp_path / f"gen{seed}.csv"
        assert cli.main([
            "gen", "--zeta", "0.05", "--d", "10", "--epsilon", "0.05", "--eta", "0.3",
            "--m", "20", "--n", "100000", "--seed", str(seed), "--out", str(out),
        ]) == 0
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        instance = make_instance(pair, random_unit_vector(20, rng), 0.3)
        x, y = sample_labeled(instance, rng, 100_000)
        header = ",".join([f"x_{i + 1}" for i in range(20)] + ["y"]).encode() + b"\n"
        assert out.read_bytes() == header + _ref_rows(x, y[:, None])
