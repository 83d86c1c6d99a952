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
    for shared in (basis.parent, basis.parent_var):
        with pytest.raises(ValueError):
            shared[1] = 0


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
