"""Monomial feature map, zero padding, and halfspace weights that
reproduce a projection-polynomial threshold after the lift.

A univariate polynomial q applied to the projection <v, x> becomes the
linear functional <w, V(x)> over the monomial features V(x) = (x^alpha):
the weight on x^alpha is q's coefficient at |alpha| times the multinomial
coefficient of alpha times v^alpha.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BasisSizeError, RangeError

__all__ = [
    "MonomialBasis",
    "HalfspaceWeights",
    "enumerate_basis",
    "veronese",
    "halfspace_from_ptf",
    "multinomial",
    "check_consistency",
    "ConsistencyReport",
]

SIZE_CAP = 20_000_000
CONSISTENCY_BLOCK_ROWS = 1024  # sample rows lifted at once by check_consistency


def _compositions(total: int, parts: int):
    """Exponent tuples summing to total, in descending lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@dataclass(frozen=True, eq=False)
class MonomialBasis:
    """All multi-indices with |alpha| <= degree in graded lex order.

    The constant monomial comes first; within a degree the exponent tuples
    descend lexicographically (x1^2, x1 x2, x2^2, ...).  parent/parent_var
    express each monomial as parent monomial times one variable, which lets
    the feature map run in one multiply per entry.  Both arrays are
    read-only: ``enumerate_basis`` hands one basis to every caller.
    """

    m: int
    degree: int
    exponents: tuple[tuple[int, ...], ...]
    parent: np.ndarray
    parent_var: np.ndarray

    def __len__(self) -> int:
        return len(self.exponents)


@lru_cache(maxsize=32)
def enumerate_basis(m: int, degree: int) -> MonomialBasis:
    """The basis of all monomials of degree <= degree in m variables,
    memoised on (m, degree)."""
    if m < 1 or degree < 0:
        raise RangeError(f"need m >= 1 and degree >= 0, got m = {m}, degree = {degree}")
    size = math.comb(m + degree, degree)
    if size > SIZE_CAP:
        raise BasisSizeError(
            f"basis would hold {size} monomials, over the cap of {SIZE_CAP}"
        )
    exponents: list[tuple[int, ...]] = []
    for deg in range(degree + 1):
        exponents.extend(_compositions(deg, m))
    index = {e: i for i, e in enumerate(exponents)}
    parent = np.zeros(len(exponents), dtype=np.int64)
    parent_var = np.zeros(len(exponents), dtype=np.int64)
    for i, e in enumerate(exponents):
        if i == 0:
            parent[i] = -1
            parent_var[i] = -1
            continue
        var = next(j for j, a in enumerate(e) if a > 0)
        reduced = list(e)
        reduced[var] -= 1
        parent[i] = index[tuple(reduced)]
        parent_var[i] = var
    parent.flags.writeable = False
    parent_var.flags.writeable = False
    return MonomialBasis(
        m=m, degree=degree, exponents=tuple(exponents), parent=parent,
        parent_var=parent_var,
    )


def veronese(basis: MonomialBasis, x: np.ndarray) -> np.ndarray:
    """Feature matrix of all monomials; accepts one point or a batch."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != basis.m:
        raise RangeError(f"point dimension {pts.shape[1]} != basis dimension {basis.m}")
    out = np.empty((pts.shape[0], len(basis)))
    out[:, 0] = 1.0
    for i in range(1, len(basis)):
        out[:, i] = out[:, basis.parent[i]] * pts[:, basis.parent_var[i]]
    return out[0] if single else out


def multinomial(alpha: tuple[int, ...]) -> int:
    """|alpha|! / prod(alpha_i!), exact integer arithmetic."""
    out = 1
    seen = 0
    for a in alpha:
        seen += a
        out *= math.comb(seen, a)
    return out


@dataclass(frozen=True, eq=False)
class HalfspaceWeights:
    w: np.ndarray
    basis: MonomialBasis
    M: int

    def decision_values(self, x: np.ndarray) -> np.ndarray:
        """<w, E(x)> for the zero-padded embedding; padding contributes 0."""
        return veronese(self.basis, x) @ self.w[: len(self.basis)]


def halfspace_from_ptf(
    v: np.ndarray, coefficients: np.ndarray, basis: MonomialBasis, M: int
) -> HalfspaceWeights:
    """Weights w with <w, V(x)> = sum_j c_j <v, x>^j for every x.

    w is padded with exact zeros up to length M.
    """
    v = np.asarray(v, dtype=float)
    coefficients = np.asarray(coefficients, dtype=float)
    degree = len(coefficients) - 1
    if degree > basis.degree:
        raise RangeError(
            f"polynomial degree {degree} exceeds basis degree {basis.degree}"
        )
    if abs(float(np.linalg.norm(v)) - 1.0) > 1e-12:
        raise RangeError("v must be a unit vector")
    if M < len(basis):
        raise RangeError(f"M = {M} smaller than basis size {len(basis)}")
    w = np.zeros(M)
    for i, alpha in enumerate(basis.exponents):
        j = sum(alpha)
        if j > degree or coefficients[j] == 0.0:
            continue
        v_pow = 1.0
        for vi, a in zip(v, alpha):
            if a:
                v_pow *= vi**a
        w[i] = coefficients[j] * multinomial(alpha) * v_pow
    return HalfspaceWeights(w=w, basis=basis, M=M)


@dataclass(frozen=True)
class ConsistencyReport:
    n_checked: int
    n_excluded: int
    n_agree: int

    @property
    def agreement(self) -> float:
        return self.n_agree / self.n_checked if self.n_checked else 1.0


def check_consistency(
    instance, weights: HalfspaceWeights, samples: np.ndarray, exclusion: float = 1e-9
) -> ConsistencyReport:
    """Fraction of samples where sign(<w, E(x)>) matches the interval sign rule.

    Projections within ``exclusion`` of a J2 endpoint are skipped: both
    sides change sign there and ties are representation noise.
    """
    from .instance import ptf_sign  # local import to avoid a cycle

    samples = np.asarray(samples, dtype=float)
    t = samples @ instance.v
    endpoints = instance.pair.J2.endpoints
    near = np.min(np.abs(t[:, None] - endpoints[None, :]), axis=1) < exclusion
    kept = samples[~near]
    # lift in blocks of rows: all at once the feature matrix is len(kept) x M'
    values = np.empty(len(kept))
    for start in range(0, len(kept), CONSISTENCY_BLOCK_ROWS):
        block = slice(start, start + CONSISTENCY_BLOCK_ROWS)
        values[block] = weights.decision_values(kept[block])
    lifted = np.where(values >= 0.0, 1, -1)
    direct = ptf_sign(instance, kept)
    return ConsistencyReport(
        n_checked=len(kept),
        n_excluded=int(near.sum()),
        n_agree=int((lifted == direct).sum()),
    )
