import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from massart_forge import lift
from massart_forge.errors import BasisSizeError, RangeError
from massart_forge.instance import make_instance, random_unit_vector, sample_labeled
from massart_forge.hardpair import HardPairConfig, build_hard_pair
from massart_forge.planner import log_binomial

# reduced-dimension configuration: degree 4d+2 at the acceptance desk scale
# would need ~7e15 monomials, so lift checks run here
LIFT_CONFIG = dict(zeta=0.45, d=4, epsilon=0.1)


def test_basis_m2_d2():
    basis = lift.enumerate_basis(2, 2)
    assert basis.exponents == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))


def test_basis_m1_d3():
    assert len(lift.enumerate_basis(1, 3)) == 4


@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6))
@settings(max_examples=40, deadline=None)
def test_basis_size_and_determinism(m, degree):
    basis = lift.enumerate_basis(m, degree)
    again = lift.enumerate_basis(m, degree)
    assert basis.exponents == again.exponents
    assert len(set(basis.exponents)) == len(basis)
    assert len(basis) == math.comb(m + degree, degree)
    # grlex size agrees with the planner's log-binomial route
    assert len(basis) == round(math.exp(log_binomial(m + degree, degree)))


def test_basis_memoised_and_read_only():
    basis = lift.enumerate_basis(3, 4)
    assert lift.enumerate_basis(3, 4) is basis
    assert lift.enumerate_basis(3, 5) is not basis
    for shared in (basis.parent, basis.parent_var, basis.exponent_matrix, basis.multinomials):
        with pytest.raises(ValueError):
            shared[1] = 0
    assert isinstance(basis.runs, tuple)
    assert all(isinstance(run, tuple) for run in basis.runs)


@pytest.mark.parametrize("m", range(1, 6))
def test_runs_read_only_earlier_columns(m):
    for degree in range(0, 9):
        basis = lift.enumerate_basis(m, degree)
        assert len(basis.runs) == m * degree
        covered = 1  # the constant monomial is column 0
        for start, end, first, var in basis.runs:
            assert start == covered and end > start
            # a block multiply reads all its inputs before writing
            assert first + (end - start) <= start
            for i in range(start, end):
                assert basis.parent[i] == first + (i - start)
                assert basis.parent_var[i] == var
            covered = end
        assert covered == len(basis)
        assert np.array_equal(basis.exponent_matrix, np.array(basis.exponents).reshape(-1, m))
        assert basis.multinomials.tolist() == [float(lift.multinomial(e)) for e in basis.exponents]


def test_basis_size_cap():
    with pytest.raises(BasisSizeError):
        lift.enumerate_basis(40, 12)


def test_veronese_values():
    basis = lift.enumerate_basis(2, 2)
    assert np.array_equal(
        lift.veronese(basis, np.array([2.0, 3.0])), [1.0, 2.0, 3.0, 4.0, 6.0, 9.0]
    )
    at_zero = lift.veronese(basis, np.zeros(2))
    assert at_zero[0] == 1.0 and np.all(at_zero[1:] == 0.0)


def test_veronese_reproduces_polynomials(rng):
    for _ in range(50):
        m = int(rng.integers(1, 5))
        degree = int(rng.integers(0, 5))
        basis = lift.enumerate_basis(m, degree)
        weights = rng.standard_normal(len(basis))
        x = rng.standard_normal((20, m))
        direct = np.zeros(20)
        for w, alpha in zip(weights, basis.exponents):
            direct += w * np.prod(x ** np.array(alpha), axis=1)
        got = lift.veronese(basis, x) @ weights
        assert np.allclose(got, direct, rtol=1e-9, atol=1e-9)


def test_multinomial():
    assert lift.multinomial((0, 0)) == 1
    assert lift.multinomial((2, 0)) == 1
    assert lift.multinomial((1, 1)) == 2
    assert lift.multinomial((2, 1, 1)) == 12


def test_halfspace_linear_case():
    basis = lift.enumerate_basis(2, 2)
    v = np.array([1.0, 0.0])
    weights = lift.halfspace_from_ptf(v, np.array([0.0, 1.0]), basis, 10)
    want = np.zeros(10)
    want[1] = 1.0
    assert np.array_equal(weights.w, want)


def test_halfspace_square_case():
    basis = lift.enumerate_basis(2, 2)
    a, b = 0.6, 0.8
    weights = lift.halfspace_from_ptf(np.array([a, b]), np.array([0.0, 0.0, 1.0]), basis, 6)
    assert weights.w[3] == pytest.approx(a * a)
    assert weights.w[4] == pytest.approx(2 * a * b)
    assert weights.w[5] == pytest.approx(b * b)


def test_halfspace_degree_overflow():
    basis = lift.enumerate_basis(2, 2)
    with pytest.raises(RangeError):
        lift.halfspace_from_ptf(np.array([1.0, 0.0]), np.ones(5), basis, 10)


def test_linearity_bridge(rng):
    worst = 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 5))
        degree = int(rng.integers(1, 7))
        basis = lift.enumerate_basis(m, degree)
        v = random_unit_vector(m, rng)
        coeffs = rng.standard_normal(degree + 1)
        weights = lift.halfspace_from_ptf(v, coeffs, basis, len(basis) + 2)
        x = rng.standard_normal((20, m))
        proj = x @ v
        direct = np.zeros(20)
        scale = np.zeros(20)
        for j, c in enumerate(coeffs):
            direct += c * proj**j
            scale += abs(c) * np.abs(proj) ** j
        got = weights.decision_values(x)
        worst = max(worst, float(np.max(np.abs(got - direct) / np.maximum(scale, 1e-30))))
    assert worst <= 1e-8


def test_consistency_with_ptf(rng):
    pair = build_hard_pair(HardPairConfig(**LIFT_CONFIG))
    v = random_unit_vector(3, rng)
    instance = make_instance(pair, v, 0.3)
    degree = len(instance.J2_polynomial) - 1
    basis = lift.enumerate_basis(3, degree)
    weights = lift.halfspace_from_ptf(v, instance.J2_polynomial, basis, len(basis) + 8)
    x, _ = sample_labeled(instance, rng, 10_000)
    report = lift.check_consistency(instance, weights, x)
    assert report.agreement == 1.0
    assert np.all(weights.w[len(basis):] == 0.0)
    # a point with projection in a J2 interior is negative on both sides
    t_mid = 0.5 * (pair.J2.intervals[4][0] + pair.J2.intervals[4][1])
    point = t_mid * v
    assert weights.decision_values(point[None, :])[0] < 0.0


# the per-monomial loops that veronese and halfspace_from_ptf replaced, kept
# verbatim: the run and table forms must reproduce them bit for bit
def _ref_veronese(basis, x):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    out = np.empty((pts.shape[0], len(basis)))
    out[:, 0] = 1.0
    for i in range(1, len(basis)):
        out[:, i] = out[:, basis.parent[i]] * pts[:, basis.parent_var[i]]
    return out[0] if single else out


def _ref_halfspace_from_ptf(v, coefficients, basis, M):
    v = np.asarray(v, dtype=float)
    coefficients = np.asarray(coefficients, dtype=float)
    degree = len(coefficients) - 1
    w = np.zeros(M)
    for i, alpha in enumerate(basis.exponents):
        j = sum(alpha)
        if j > degree or coefficients[j] == 0.0:
            continue
        v_pow = 1.0
        for vi, a in zip(v, alpha):
            if a:
                v_pow *= vi**a
        w[i] = coefficients[j] * lift.multinomial(alpha) * v_pow
    return w


def _assert_bitwise(basis, v, coeffs, x, M):
    features = lift.veronese(basis, x)
    want_features = _ref_veronese(basis, x)
    assert features.flags.c_contiguous
    assert features.shape == want_features.shape
    assert features.tobytes() == want_features.tobytes()
    weights = lift.halfspace_from_ptf(v, coeffs, basis, M)
    want_w = _ref_halfspace_from_ptf(v, coeffs, basis, M)
    assert weights.w.tobytes() == want_w.tobytes()
    want_values = want_features @ want_w[: len(basis)]
    assert weights.decision_values(x).tobytes() == want_values.tobytes()


@pytest.mark.parametrize("m", range(1, 6))
def test_lift_bitwise_matches_per_monomial_loops(m):
    rng = np.random.default_rng(1000 + m)
    for degree in range(0, 9):
        basis = lift.enumerate_basis(m, degree)
        for poly_degree in sorted({0, degree // 2, degree}):
            v = random_unit_vector(m, rng)
            coeffs = rng.standard_normal(poly_degree + 1)
            coeffs[rng.random(poly_degree + 1) < 0.3] = 0.0  # exact zeros
            x = rng.standard_normal((37, m))
            _assert_bitwise(basis, v, coeffs, x, len(basis) + 3)
            _assert_bitwise(basis, v, coeffs, x[0], len(basis))  # one point


@pytest.mark.parametrize("rows", [1024, 10_000])
def test_lift_section_basis_bitwise(rows):
    # the (3, 18) basis of verify's lift section, at the row block that
    # check_consistency lifts at once and at the section's whole sample
    rng = np.random.default_rng(7)
    pair = build_hard_pair(HardPairConfig(**LIFT_CONFIG))
    v = random_unit_vector(3, rng)
    instance = make_instance(pair, v, 0.3)
    basis = lift.enumerate_basis(3, len(instance.J2_polynomial) - 1)
    assert (basis.m, basis.degree, len(basis)) == (3, 18, 1330)
    x, _ = sample_labeled(instance, rng, rows)
    _assert_bitwise(basis, v, instance.J2_polynomial, x, len(basis) + 8)
