import math

import numpy as np
import pytest

from massart_forge import instance as inst
from massart_forge.errors import DensityGapError, RangeError
from massart_forge.hardpair import HardPairConfig, IntervalUnion, build_hard_pair
from massart_forge.sqlab import NullDistribution


@pytest.fixture(scope="module")
def loose_pair():
    # wide zeta pushes measurable mass outside J1 u J2 for conditional tests
    return build_hard_pair(HardPairConfig(zeta=0.49, d=4, epsilon=0.1))


def test_make_instance_validation(desk_pair, rng):
    v = inst.random_unit_vector(5, rng)
    made = inst.make_instance(desk_pair, v, 0.5)
    assert made.p == 0.5
    with pytest.raises(RangeError):
        inst.make_instance(desk_pair, v, 0.6)
    with pytest.raises(RangeError):
        inst.make_instance(desk_pair, v * 1.5, 0.3)


def test_projection_along_axis(desk_pair, rng):
    v = np.zeros(4)
    v[0] = 1.0
    made = inst.make_instance(desk_pair, v, 0.3)
    x = rng.standard_normal((10, 4))
    assert np.array_equal(made.project(x), x[:, 0])


def test_interval_polynomial_single():
    coeffs = inst.build_interval_polynomial(IntervalUnion(((-1.0, 1.0),)))
    assert np.allclose(coeffs, [-1.0, 0.0, 1.0])


def test_interval_polynomial_two_intervals():
    region = IntervalUnion(((0.0, 1.0), (2.0, 3.0)))
    coeffs = inst.build_interval_polynomial(region)
    evaluate = np.polynomial.polynomial.polyval
    assert evaluate(1.5, coeffs) > 0.0
    assert evaluate(0.5, coeffs) < 0.0
    assert evaluate(2.5, coeffs) < 0.0
    for endpoint in (0.0, 1.0, 2.0, 3.0):
        assert evaluate(endpoint, coeffs) == pytest.approx(0.0, abs=1e-12)


def test_ptf_sign_cases(desk_pair, rng):
    v = inst.random_unit_vector(6, rng)
    made = inst.make_instance(desk_pair, v, 0.3)
    delta = desk_pair.config.delta
    t_in_j2 = 0.5 * (desk_pair.J2.intervals[3][0] + desk_pair.J2.intervals[3][1])
    assert inst.ptf_sign(made, t_in_j2 * v) == -1
    assert inst.ptf_sign(made, 0.0 * v) == 1  # centre of a J1 interval
    assert inst.ptf_sign(made, (11.0 * delta) * v) == 1


def test_ptf_sign_matches_root_product(desk_pair, rng):
    roots = desk_pair.J2.endpoints
    t = rng.uniform(-8.0, 8.0, 100_000)
    keep = np.min(np.abs(t[:, None] - roots[None, :]), axis=1) >= 1e-9
    q = inst.evaluate_from_roots(roots, t[keep])
    by_poly = np.where(q < 0.0, -1, 1)
    by_membership = np.where(desk_pair.J2.contains(t[keep]), -1, 1)
    assert np.array_equal(by_poly, by_membership)


def test_flip_probability_values(desk_pair, rng):
    v = inst.random_unit_vector(8, rng)
    made = inst.make_instance(desk_pair, v, 0.3)
    delta = desk_pair.config.delta
    # centre of a J1 interval (n = 2 <= d)
    assert inst.flip_probability(made, (2.0 * delta) * v) == 0.0
    # outer piece centre, positive density off J1 u J2: exactly eta
    assert inst.flip_probability(made, (12.0 * delta) * v) == 0.3
    with pytest.raises(DensityGapError):
        inst.flip_probability(made, (delta / 2.0) * v)


def test_massart_exactness(desk_pair, rng):
    v = inst.random_unit_vector(12, rng)
    made = inst.make_instance(desk_pair, v, 0.3)
    x, _ = inst.sample_labeled(made, rng, 100_000)
    flips = inst.flip_probability(made, x)
    assert set(np.unique(flips).tolist()) <= {0.0, 0.3}


def test_opt_error(desk_pair, rng):
    v = inst.random_unit_vector(8, rng)
    made = inst.make_instance(desk_pair, v, 0.3)
    opt = inst.opt_error(made)
    assert 0.0 <= opt <= 0.3 * desk_pair.config.zeta <= desk_pair.config.zeta
    tiny = inst.make_instance(desk_pair, v, 1e-9)
    assert inst.opt_error(tiny) <= 1e-9


def test_opt_error_monte_carlo(loose_pair, rng):
    # empirical mean of the flipping probability vs its expectation
    v = inst.random_unit_vector(6, rng)
    made = inst.make_instance(loose_pair, v, 0.3)
    opt = inst.opt_error(made)
    x, _ = inst.sample_labeled(made, rng, 1_000_000)
    flips = inst.flip_probability(made, x)
    sigma = float(flips.std()) / math.sqrt(len(flips))
    assert abs(float(flips.mean()) - opt) <= 4.0 * sigma + 1e-9


def test_sample_labeled_statistics(desk_pair, rng):
    v = inst.random_unit_vector(10, rng)
    made = inst.make_instance(desk_pair, v, 0.3)
    n = 1_000_000
    x, y = inst.sample_labeled(made, rng, n)
    sigma = math.sqrt(made.p * (1.0 - made.p) / n)
    assert abs((y == 1).mean() - made.p) <= 4.0 * sigma
    # positive-label projections never land in J2
    assert not bool(desk_pair.J2.contains(x[y == 1] @ v).any())
    # a fixed direction orthogonal to v stays standard normal
    u = inst.random_unit_vector(10, rng)
    u -= (u @ v) * v
    u /= np.linalg.norm(u)
    proj = x @ u
    assert abs(proj.mean()) <= 4.0 / math.sqrt(n)
    assert abs(proj.var() - 1.0) <= 4.0 * math.sqrt(2.0 / n)


def test_bayes_and_constant_errors(desk_pair, rng):
    v = inst.random_unit_vector(10, rng)
    made = inst.make_instance(desk_pair, v, 0.3)
    n = 100_000
    x, y = inst.sample_labeled(made, rng, n)
    opt = inst.opt_error(made)
    bayes = float(np.mean(inst.ptf_sign(made, x) != y))
    assert abs(bayes - opt) <= 4.0 * math.sqrt(max(opt * (1 - opt), 1e-18) / n) + 1.0 / n
    const = float(np.mean(np.full(n, 1) != y))
    assert abs(const - 0.3) <= 4.0 * math.sqrt(0.3 * 0.7 / n)


def test_conditional_law_off_support(loose_pair, rng):
    v = inst.random_unit_vector(6, rng)
    made = inst.make_instance(loose_pair, v, 0.3)
    x, y = inst.sample_labeled(made, rng, 2_000_000)
    flips = inst.flip_probability(made, x)
    off = flips == 0.3
    count = int(off.sum())
    assert count > 0
    frac = float((y[off] == -1).mean())
    assert abs(frac - 0.3) <= 4.0 * math.sqrt(0.3 * 0.7 / count)


def test_sample_null(rng):
    n = 400_000
    x, y = NullDistribution(6, 0.7).sample_xy(rng, n)
    assert abs(y.mean() - 0.4) <= 4.0 * math.sqrt(1.0 - 0.4**2) / math.sqrt(n)
    for i in range(6):
        assert abs((y * x[:, i]).mean()) <= 4.0 / math.sqrt(n)
    _, y_half = NullDistribution(3, 0.5).sample_xy(rng, n)
    assert abs(y_half.mean()) <= 4.0 / math.sqrt(n)


def test_embedding_is_orthonormal(rng):
    # embed sets x.v = t up to rounding and keeps z's component on v-perp
    for m in (1, 2, 3, 17):
        v = inst.random_unit_vector(m, rng)
        t = rng.standard_normal(50) * 10.0 ** rng.uniform(-3.0, 3.0, 50)
        z = rng.standard_normal((50, m))
        x = z.copy()
        assert inst.embed(v, t, x) is x  # in place
        tol = 1e-12 * (1.0 + np.abs(t))
        assert np.all(np.abs(x @ v - t) <= tol)
        perp = np.eye(m) - np.outer(v, v)
        assert np.all(np.abs(x @ perp - z @ perp) <= tol[:, None])
