"""The m-dimensional labeled distribution with a hidden direction.

With probability p = 1 - eta a point is drawn with its projection onto the
hidden unit direction v distributed as A and labeled +1; otherwise the
projection follows B and the label is -1.  Both are standard Gaussian in
the orthogonal complement of v.  The flipping probability against the sign
rule "negative exactly on J2" is 0 on J1 u J2 and exactly eta elsewhere on
the support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.random  # every command draws: load it with the package, not on the first draw
from numpy.polynomial import polynomial as npoly

from .errors import DensityGapError, RangeError
from .hardpair import HardPair, IntervalUnion, sample

__all__ = [
    "MassartInstance",
    "make_instance",
    "build_interval_polynomial",
    "evaluate_from_roots",
    "draw_labels",
    "embed",
    "sample_labeled",
    "flip_probability",
    "opt_error",
    "ptf_sign",
    "random_unit_vector",
]


def build_interval_polynomial(region: IntervalUnion) -> np.ndarray:
    """Coefficients (ascending) of q(t) = prod_i (t - a_i)(t - b_i).

    q is negative exactly on the open interval interiors and positive
    outside the closure; every endpoint is a root.  Disjointness is
    enforced by the IntervalUnion type itself.
    """
    if len(region) == 0:
        raise ValueError("empty interval union")
    return npoly.polyfromroots(region.endpoints)


def evaluate_from_roots(roots: np.ndarray, t) -> np.ndarray:
    """q(t) as the explicit root product; numerically stable at any degree.

    Kept until the lift check's sign certification ("Lift signs" under the
    ROADMAP item "Certificates compared at a precision that resolves them")
    decides its use.

    The expanded coefficient form loses the sign near roots once the degree
    grows past ~20; the product form keeps relative error at ~degree * ulp.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    return np.prod(t[:, None] - np.asarray(roots)[None, :], axis=1)


@dataclass(frozen=True, eq=False)
class MassartInstance:
    m: int
    v: np.ndarray
    eta: float
    p: float
    pair: HardPair
    J2_polynomial: np.ndarray  # ascending coefficients, degree 2*(2d+1)

    def __post_init__(self):
        if abs(float(np.linalg.norm(self.v)) - 1.0) > 1e-12:
            raise RangeError(f"v must be a unit vector; |v| = {np.linalg.norm(self.v)}")
        if not (0.0 < self.eta <= 0.5):
            raise RangeError(f"eta = {self.eta} outside (0, 1/2]")

    def project(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return x @ self.v if x.ndim > 1 else np.atleast_1d(float(x @ self.v))

    def off_support_mass(self) -> float:
        """Marginal mass of the mixture with projection outside J1 u J2."""
        off_a, off_b = self.pair.off_j_mass()
        return self.p * off_a + (1.0 - self.p) * off_b


def make_instance(pair: HardPair, v: np.ndarray, eta: float) -> MassartInstance:
    v = np.asarray(v, dtype=float)
    return MassartInstance(
        m=len(v),
        v=v,
        eta=float(eta),
        p=1.0 - float(eta),
        pair=pair,
        J2_polynomial=build_interval_polynomial(pair.J2),
    )


def random_unit_vector(m: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal(m)
    return g / np.linalg.norm(g)


def embed(v: np.ndarray, t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Set each row's component on the unit vector v to t, in place: x +=
    (t - x v) v^T.  A standard normal x becomes t v plus a standard
    Gaussian on the orthogonal complement of v, the part x already had."""
    x += np.multiply.outer(t - x @ v, v)
    return x


def draw_labels(rng: np.random.Generator, n: int, p: float) -> np.ndarray:
    """n >= 1 labels, +1 with probability p and -1 otherwise."""
    if n < 1:
        raise RangeError(f"n = {n} must be at least 1")
    return np.where(rng.random(n) < p, 1, -1)


def sample_labeled(
    instance: MassartInstance, rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """n draws from the labeled distribution as (X, y) arrays.

    Labels first, then the A-projections for the +1 block, the
    B-projections for the -1 block, then one (n, m) normal block that
    ``embed`` turns into x: a fixed consumption order for reproducibility.
    """
    y = draw_labels(rng, n, instance.p)
    t = np.empty(n)
    pos = y == 1
    n_pos = int(pos.sum())
    if n_pos:
        t[pos] = sample(instance.pair.A, rng, n_pos)
    if n - n_pos:
        t[~pos] = sample(instance.pair.B, rng, n - n_pos)
    x = rng.standard_normal((n, instance.m))
    return embed(instance.v, t, x), y


def flip_probability(instance: MassartInstance, x) -> np.ndarray | float:
    """Exact flipping probability at x: 0 on J1 u J2, eta elsewhere.

    Raises on projections falling in a density gap of the marginal, where
    the conditional label law is undefined.
    """
    t = instance.project(x)
    scalar = np.asarray(x).ndim == 1
    in_j = instance.pair.J1.contains(t) | instance.pair.J2.contains(t)
    gap = instance.pair.in_support_gap(t) & ~in_j
    if np.any(gap):
        bad = t[gap][0]
        raise DensityGapError(
            f"projection {bad!r} has zero marginal density; eta(x) undefined"
        )
    out = np.where(in_j, 0.0, instance.eta)
    return float(out[0]) if scalar else out


def opt_error(instance: MassartInstance) -> float:
    """E eta(x) = eta * (mixture mass with projection outside J1 u J2)."""
    return instance.eta * instance.off_support_mass()


def ptf_sign(instance: MassartInstance, x) -> np.ndarray | int:
    """-1 iff the projection lies in J2 (closed membership), else +1."""
    t = instance.project(x)
    out = np.where(instance.pair.J2.contains(t), -1, 1)
    return int(out[0]) if np.asarray(x).ndim == 1 else out
