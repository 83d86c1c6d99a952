"""Monomial feature map, zero padding, and halfspace weights that
reproduce a projection-polynomial threshold after the lift.

A univariate polynomial q applied to the projection <v, x> becomes the
linear functional <w, V(x)> over the monomial features V(x) = (x^alpha):
the weight on x^alpha is q's coefficient at |alpha| times the multinomial
coefficient of alpha times v^alpha.

Both maps work on whole arrays at once.  Each monomial is its parent
monomial times one variable, and in graded lex order the monomials that
share a degree and a multiplying variable sit in one contiguous run whose
parents are contiguous too: m * degree runs in all.  ``veronese`` fills a
run with one column-block multiply and ``halfspace_from_ptf`` gathers v^alpha
from a small table of powers.  Every feature is still the IEEE product of
the same two values, and every weight the same products in the same order,
as in a loop over the monomials, and ``decision_values`` makes the same
matrix-vector product on the same (n, M') row-major layout, so no bit of
the features, the weights or the decision values depends on the batching.
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
    the feature map run in one multiply per entry.  ``runs`` groups those
    multiplies: each (start, end, parent_start, var) fills monomials
    start..end-1 from monomials parent_start.. times variable var, and
    every parent of a run comes before its start.  ``exponent_matrix`` is
    the (len, m) array of the exponents and ``multinomials`` each
    monomial's multinomial coefficient as a float.  The arrays are
    read-only: ``enumerate_basis`` hands one basis to every caller.
    """

    m: int
    degree: int
    exponents: tuple[tuple[int, ...], ...]
    parent: np.ndarray
    parent_var: np.ndarray
    runs: tuple[tuple[int, int, int, int], ...]
    exponent_matrix: np.ndarray
    multinomials: np.ndarray

    def __len__(self) -> int:
        return len(self.exponents)


def _runs(parent: list[int], parent_var: list[int]) -> tuple[tuple[int, int, int, int], ...]:
    """Maximal runs of monomials whose parents are consecutive and share a
    variable.  A run breaks where a parent reaches its own start: a block
    multiply reads all its inputs before writing, so a run may not read
    what it writes (at m = 1 every monomial would otherwise chain into one)."""
    runs: list[list[int]] = []
    for i in range(1, len(parent)):
        if runs:
            start, end, first, var = runs[-1]
            if (
                parent_var[i] == var
                and parent[i] == first + (end - start)
                and parent[i] < start
            ):
                runs[-1][1] = i + 1
                continue
        runs.append([i, i + 1, parent[i], parent_var[i]])
    return tuple(tuple(run) for run in runs)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


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
    parent = [-1] * len(exponents)
    parent_var = [-1] * len(exponents)
    for i, e in enumerate(exponents[1:], start=1):
        var = next(j for j, a in enumerate(e) if a > 0)
        reduced = list(e)
        reduced[var] -= 1
        parent[i] = index[tuple(reduced)]
        parent_var[i] = var
    return MonomialBasis(
        m=m,
        degree=degree,
        exponents=tuple(exponents),
        parent=_read_only(np.array(parent, dtype=np.int64)),
        parent_var=_read_only(np.array(parent_var, dtype=np.int64)),
        runs=_runs(parent, parent_var),
        exponent_matrix=_read_only(np.array(exponents, dtype=np.int64).reshape(-1, m)),
        multinomials=_read_only(np.array([float(multinomial(e)) for e in exponents])),
    )


def veronese(basis: MonomialBasis, x: np.ndarray) -> np.ndarray:
    """Feature matrix of all monomials; accepts one point or a batch.

    The (n, M') row-major matrix is filled one run of ``basis.runs`` at a
    time: columns start..end-1 are columns parent_start.. times column var
    of x, the same product per entry as one multiply per monomial.
    """
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    pts = x[None, :] if single else x
    if pts.shape[1] != basis.m:
        raise RangeError(f"point dimension {pts.shape[1]} != basis dimension {basis.m}")
    out = np.empty((pts.shape[0], len(basis)))
    out[:, 0] = 1.0
    for start, end, first, var in basis.runs:
        np.multiply(
            out[:, first : first + (end - start)], pts[:, var : var + 1],
            out=out[:, start:end],
        )
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
    # the monomials of degree <= degree lead the graded basis
    n = math.comb(basis.m + degree, degree) if degree >= 0 else 0
    exps = basis.exponent_matrix[:n]
    # powers[i, a] = v_i ** a as a Python float pow; v^alpha multiplies the
    # factors in variable order, a zero exponent contributing exactly 1.0
    powers = np.array([[vi**a for a in range(degree + 1)] for vi in v.tolist()])
    v_pow = powers[0, exps[:, 0]]
    for i in range(1, basis.m):
        v_pow = v_pow * powers[i, exps[:, i]]
    c = coefficients[exps.sum(axis=1)]
    w = np.zeros(M)
    # a zero coefficient leaves an exact +0.0, whatever the sign of the product
    w[:n] = np.where(c == 0.0, 0.0, c * basis.multinomials[:n] * v_pow)
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
