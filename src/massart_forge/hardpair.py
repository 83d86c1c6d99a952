"""One-dimensional hard measure pair: periodic Gaussian combs A and B.

A places density (delta/(2*eps)) * G(x) on the intervals
[n*delta - eps, n*delta + eps]; B relabels the central pieces (|n| <= d)
to [n*delta - 5*eps, n*delta - 3*eps] carrying the density shifted by
4*eps, and keeps the outer pieces of A untouched.  Both are normalised by
the same constant Z, the total comb mass.  J1 holds the central pieces of
A, J2 the central pieces of B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    ConfigValidationError,
    DeltaBoundError,
    DimensionBoundError,
    EpsilonBoundError,
)

__all__ = [
    "phi_mass",
    "comb_delta",
    "HardPairConfig",
    "IntervalUnion",
    "PiecewiseGaussianMeasure",
    "HardPair",
    "build_hard_pair",
    "total_mass",
    "mass_in",
    "cdf",
    "sample",
    "density_curve",
]


def gaussian_pdf(x):
    return np.exp(-0.5 * np.square(x)) / math.sqrt(2.0 * math.pi)


def phi_mass(a, b):
    """Phi(b) - Phi(a) for a <= b, accurate in both tails.

    Intervals entirely in the right tail are mirrored so the difference is
    formed between small same-scale numbers instead of two values near 1.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    right = a >= 0.0
    lo = np.where(right, -b, a)
    hi = np.where(right, -a, b)
    return ndtr(hi) - ndtr(lo)


def comb_delta(zeta: float, d: int) -> float:
    """The comb period delta = 4 sqrt(log(1/zeta))/d."""
    return 4.0 * math.sqrt(math.log(1.0 / zeta)) / d


def _piece_index(starts: np.ndarray, ends: np.ndarray, x) -> np.ndarray:
    """Index of the sorted closed piece [starts_i, ends_i] holding each x, or -1."""
    x = np.asarray(x, dtype=float)
    idx = np.searchsorted(starts, x, side="right") - 1
    ok = idx >= 0
    safe = np.clip(idx, 0, len(starts) - 1)
    ok &= x <= ends[safe]
    return np.where(ok, safe, -1)


@dataclass(frozen=True)
class HardPairConfig:
    """Parameters of the construction; delta is derived, not chosen.

    zeta: target fraction of mass allowed off J1 (and off J2), in (0, 1/2).
    d: number of positive central periods; J1 and J2 each get 2d+1 intervals.
    epsilon: half-width of each comb interval; must satisfy epsilon < delta/8.
    n_max: periods retained per side for numerics.  Defaults to
        ceil(max(12, d*delta + 2)/delta) so the retained comb always covers
        the central region and the neglected Gaussian tail stays below 1e-20.
    """

    zeta: float
    d: int
    epsilon: float
    n_max: int | None = None

    def __post_init__(self):
        if not (0.0 < self.zeta < 0.5):
            raise ConfigValidationError("0 < zeta < 1/2", f"zeta = {self.zeta}")
        if int(self.d) != self.d or self.d < 2:
            raise DimensionBoundError(f"d = {self.d}, need an integer >= 2")
        delta = self.delta
        if not (delta < 1.0):
            raise DeltaBoundError(
                f"delta = 4*sqrt(log(1/zeta))/d = {delta:.6g} >= 1; increase d"
            )
        if not (0.0 < self.epsilon < delta / 8.0):
            raise EpsilonBoundError(
                f"epsilon = {self.epsilon} not in (0, delta/8 = {delta / 8.0:.6g})"
            )
        if self.n_max is None:
            object.__setattr__(
                self, "n_max", math.ceil(max(12.0, self.d * delta + 2.0) / delta)
            )
        if self.n_max * delta < 10.0:
            raise ConfigValidationError(
                "n_max*delta >= 10", f"n_max*delta = {self.n_max * delta:.6g}"
            )
        if self.n_max <= self.d:
            raise ConfigValidationError(
                "n_max > d", f"n_max = {self.n_max} must exceed d = {self.d}"
            )

    @property
    def delta(self) -> float:
        return comb_delta(self.zeta, self.d)


@dataclass(frozen=True)
class IntervalUnion:
    """Sorted union of pairwise-disjoint closed intervals."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for i, (a, b) in enumerate(self.intervals):
            if a > b:
                raise ValueError(f"interval [{a}, {b}] has a > b")
            if i > 0 and a <= self.intervals[i - 1][1]:
                raise ValueError("intervals must be sorted and pairwise disjoint")

    def __len__(self) -> int:
        return len(self.intervals)

    def contains(self, x):
        """Closed-interval membership; vectorised."""
        endpoints = self.endpoints
        return _piece_index(endpoints[0::2], endpoints[1::2], x) >= 0

    @property
    def endpoints(self) -> np.ndarray:
        return np.array([v for ab in self.intervals for v in ab])


@dataclass(frozen=True, eq=False)
class PiecewiseGaussianMeasure:
    """Density s_i * G(x + h_i) / z on piece [a_i, b_i], zero elsewhere.

    ``z`` is the shared normalisation constant; ``tail_start`` is where the
    truncated periods begin, used for the reported tail bound.
    """

    a: np.ndarray
    b: np.ndarray
    scale: np.ndarray
    shift: np.ndarray
    z: float
    tail_start: float

    def __post_init__(self):
        if np.any(self.a[1:] <= self.b[:-1]):
            raise ValueError("pieces must be sorted and pairwise disjoint")
        if np.any(self.scale < 0.0):
            raise ValueError("piece scales must be nonnegative")
        if not self.z > 0.0:
            raise ValueError("normalisation constant must be positive")

    @property
    def piece_masses(self) -> np.ndarray:
        """Unnormalised mass of each piece (exact truncated-Gaussian)."""
        return self.scale * phi_mass(self.a + self.shift, self.b + self.shift)

    def piece_index(self, x):
        """Index of the piece containing each x, or -1."""
        return _piece_index(self.a, self.b, x)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        idx = self.piece_index(x)
        safe = np.clip(idx, 0, len(self.a) - 1)
        val = self.scale[safe] * gaussian_pdf(x + self.shift[safe]) / self.z
        return np.where(idx >= 0, val, 0.0)


@dataclass(frozen=True)
class HardPair:
    config: HardPairConfig
    A: PiecewiseGaussianMeasure
    B: PiecewiseGaussianMeasure
    J1: IntervalUnion
    J2: IntervalUnion

    def in_support_gap(self, t):
        """True where the mixture marginal density vanishes."""
        return (self.A.piece_index(t) < 0) & (self.B.piece_index(t) < 0)

    def off_j_mass(self) -> tuple[float, float]:
        """Mass of A and of B outside J1 u J2."""
        joint = IntervalUnion(tuple(sorted(self.J1.intervals + self.J2.intervals)))
        return 1.0 - mass_in(self.A, joint), 1.0 - mass_in(self.B, joint)


def build_hard_pair(config: HardPairConfig) -> HardPair:
    """Construct (A, B, J1, J2) for the given configuration.

    A keeps every comb piece [n*delta - eps, n*delta + eps], |n| <= n_max.
    B copies A's pieces for |n| > d and replaces each central piece by
    [n*delta - 5*eps, n*delta - 3*eps] with density shift +4*eps.  Both
    share the normalisation Z = total comb mass of A's pieces.
    """
    delta, eps, d, n_max = config.delta, config.epsilon, config.d, config.n_max

    ns = np.arange(-n_max, n_max + 1, dtype=float)
    centers = ns * delta
    a_pieces = centers - eps
    b_pieces = centers + eps
    scale = np.full(ns.shape, delta / (2.0 * eps))
    zero_shift = np.zeros_like(ns)

    z = float(np.sum(scale * phi_mass(a_pieces, b_pieces)))
    tail_start = n_max * delta + eps

    A = PiecewiseGaussianMeasure(
        a=a_pieces, b=b_pieces, scale=scale, shift=zero_shift, z=z,
        tail_start=tail_start,
    )

    central = np.abs(ns) <= d
    b_a = np.where(central, centers - 5.0 * eps, a_pieces)
    b_b = np.where(central, centers - 3.0 * eps, b_pieces)
    b_shift = np.where(central, 4.0 * eps, 0.0)
    order = np.argsort(b_a)
    B = PiecewiseGaussianMeasure(
        a=b_a[order], b=b_b[order], scale=scale[order], shift=b_shift[order], z=z,
        tail_start=tail_start,
    )

    central_ns = np.arange(-d, d + 1, dtype=float)
    J1 = IntervalUnion(
        tuple((n * delta - eps, n * delta + eps) for n in central_ns)
    )
    J2 = IntervalUnion(
        tuple((n * delta - 5.0 * eps, n * delta - 3.0 * eps) for n in central_ns)
    )
    return HardPair(config=config, A=A, B=B, J1=J1, J2=J2)


def total_mass(measure: PiecewiseGaussianMeasure) -> tuple[float, float]:
    """(sum of retained unnormalised piece masses, bound on neglected mass).

    The tail bound is the comb covering argument: the neglected periods
    carry at most twice the Gaussian mass beyond where they start.
    """
    value = float(np.sum(measure.piece_masses))
    tail_bound = float(2.0 * ndtr(-measure.tail_start))
    return value, tail_bound


def mass_in(measure: PiecewiseGaussianMeasure, region: IntervalUnion) -> float:
    """Exact normalised mass of the measure restricted to the region."""
    total = 0.0
    starts = np.array([a for a, _ in region.intervals])
    ends = np.array([b for _, b in region.intervals])
    for a, b, s, h in zip(measure.a, measure.b, measure.scale, measure.shift):
        lo = np.maximum(starts, a)
        hi = np.minimum(ends, b)
        keep = lo <= hi
        if np.any(keep):
            total += float(
                s * np.sum(phi_mass(lo[keep] + h, hi[keep] + h))
            )
    return total / measure.z


def cdf(measure: PiecewiseGaussianMeasure, x):
    """Normalised CDF of the measure (vectorised).

    Kept as the reference that test_sampling_ks compares ``sample`` against.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    full = measure.scale * phi_mass(measure.a + measure.shift, measure.b + measure.shift)
    cum = np.concatenate([[0.0], np.cumsum(full)])
    # pieces 0..idx-2 lie fully left of x; piece idx-1 may be partial
    idx = np.searchsorted(measure.a, x, side="right")
    out = cum[np.maximum(idx - 1, 0)].copy()
    out[idx == 0] = 0.0
    started = idx >= 1
    if np.any(started):
        j = idx[started] - 1
        xx = np.minimum(x[started], measure.b[j])
        out[started] += measure.scale[j] * phi_mass(
            measure.a[j] + measure.shift[j], xx + measure.shift[j]
        )
    return out / measure.z


def sample(measure: PiecewiseGaussianMeasure, rng: np.random.Generator, n: int) -> np.ndarray:
    """Exact inverse-CDF sampling: pick a piece by mass, invert within it.

    The within-piece inversion mirrors right-tail pieces into the left tail
    so the Gaussian CDF values stay well away from 1.
    """
    masses = np.maximum(measure.piece_masses, 0.0)
    probs = masses / masses.sum()
    idx = rng.choice(len(probs), size=n, p=probs)
    u = rng.random(n)
    lo = measure.a[idx] + measure.shift[idx]
    hi = measure.b[idx] + measure.shift[idx]
    mirror = lo >= 0.0
    left = np.where(mirror, -hi, lo)
    right = np.where(mirror, -lo, hi)
    pl = ndtr(left)
    ph = ndtr(right)
    x = ndtri(pl + u * (ph - pl))
    x = np.where(mirror, -x, x)
    return x - measure.shift[idx]


def density_curve(pair: HardPair, n_points: int, lo: float, hi: float):
    """Grid rows (x, density_A, density_B, in_J1, in_J2) for plotting."""
    x = np.linspace(lo, hi, n_points)
    return (
        x,
        pair.A.density(x),
        pair.B.density(x),
        pair.J1.contains(x).astype(int),
        pair.J2.contains(x).astype(int),
    )
