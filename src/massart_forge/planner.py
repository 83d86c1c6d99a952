"""Log-space parameter schedule and the Tsybakov <-> Massart noise-level
translation.

The asymptotic schedule exists for feasibility analysis and documentation;
all of its arithmetic stays in natural logs so a target dimension scale of
e^(1e6) causes no overflow.  Numerical work runs on desk configurations,
HardPairConfig values that specify (zeta, d, epsilon) directly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import InfeasiblePlanError, RangeError
from .hardpair import comb_delta

__all__ = [
    "Constants",
    "AsymptoticPlan",
    "TsybakovParams",
    "plan",
    "log_binomial",
    "tsybakov_to_massart",
    "verify_tsybakov",
]


@dataclass(frozen=True)
class Constants:
    """Free constants of the schedule; only positivity is inherent.

    The defaults are calibrated so the embedding-dimension check
    M'_log <= log M holds on the documented desk range of log M
    (1e3 .. 1e5 with zeta = exp(-sqrt(log M))); they remain fully
    user-overridable and every plan re-validates feasibility.
    """

    C_tau: float = 64.0
    C_m: float = 2.5e-8
    C_d: float = 8.0
    C_zeta: float = 1.0 / 16.0

    def __post_init__(self):
        for name in ("C_tau", "C_m", "C_d", "C_zeta"):
            if not getattr(self, name) > 0.0:
                raise RangeError(f"{name} must be positive")


@dataclass(frozen=True)
class AsymptoticPlan:
    M_log: float
    eta: float
    zeta: float
    l: float
    log_tau: float
    m: int
    d: int
    k: float
    delta: float
    log_epsilon: float
    c: float
    M_prime_log: float
    constants: Constants

    def to_dict(self) -> dict:
        return {
            "log_M": self.M_log,
            "eta": self.eta,
            "zeta": self.zeta,
            "l": self.l,
            "log_tau": self.log_tau,
            "m": self.m,
            "d": self.d,
            "k": self.k,
            "delta": self.delta,
            "log_epsilon": self.log_epsilon,
            "c": self.c,
            "M_prime_log": self.M_prime_log,
            "constants": asdict(self.constants),
            "note": (
                "log_tau is computed under the chosen C_tau; the schedule's "
                "rate constant is a free parameter of the construction."
            ),
        }


_STIRLING_FROM = 16  # below it log binom is summed term by term


def _stirling_tail(x: float) -> float:
    """ln x! - ((x + 1/2) ln x - x + ln sqrt(2 pi)) for x >= 16, from
    Stirling's series; the first omitted term is below 1.2e-14."""
    inv = 1.0 / x
    inv2 = inv * inv
    return inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 * (1.0 / 1260.0 - inv2 / 1680.0)))


def log_binomial(n: int, r: int) -> float:
    """Natural log of binom(n, r), accurate when r << n.

    With r <= n - r = k the form is
        r ln(n/r) + k ln(1 + r/k) + (ln n - ln r - ln k - ln 2 pi)/2
        + tail(n) - tail(r) - tail(k),
    a sum of terms that do not cancel: the log-gamma difference
    ln n! - ln k! would lose all of r ln(n/r) once n ln n outgrows it by
    2^53.  Below r = 16 the log is the sum of ln(n - i) less ln r!.
    """
    if not (0 <= r <= n):
        raise RangeError(f"need 0 <= r <= n, got n = {n}, r = {r}")
    r = min(r, n - r)
    if r < _STIRLING_FROM:
        return math.fsum(math.log(n - i) for i in range(r)) - math.lgamma(r + 1.0)
    k = n - r
    return (
        r * math.log(n / r)
        + k * math.log1p(r / k)
        + 0.5 * (math.log(n) - math.log(r) - math.log(k) - math.log(2.0 * math.pi))
        + _stirling_tail(n) - _stirling_tail(r) - _stirling_tail(k)
    )


def _ceil_finite(name: str, value: float, flag: str) -> int:
    """ceil(value), refusing a schedule value that overflowed a float."""
    if not math.isfinite(value):
        raise RangeError(f"{name} overflows a float; lower {flag} or --log-M")
    return math.ceil(value)


def plan(M_log: float, eta: float, zeta: float, constants: Constants = Constants()) -> AsymptoticPlan:
    """Evaluate the full schedule at target scale log M, all in log space.

    Derivations, in order: tau from (M, zeta); m and d from tau; delta from
    d; k and epsilon from tau; the query-exponent constant c; and the
    embedding dimension bound M' = binom(m + 8d, 8d).  Raises an
    infeasibility error naming the first violated constraint.
    """
    if not (0.0 < zeta <= eta):
        raise RangeError(f"need 0 < zeta <= eta, got zeta = {zeta}, eta = {eta}")
    if not (eta <= 0.5):
        raise RangeError("eta out of range (0, 1/2]")
    if M_log <= math.e:
        raise InfeasiblePlanError("log M", f"log M = {M_log} too small for log log M")

    log1z = math.log(1.0 / zeta)
    loglogM = math.log(M_log)
    l = M_log / (loglogM**3 * log1z)
    if l < constants.C_zeta:
        raise InfeasiblePlanError(
            "l too small",
            f"l = log M/((log log M)^3 log(1/zeta)) = {l:.6g} < C_zeta = {constants.C_zeta:.6g}",
        )

    log1tau = M_log**2 / (constants.C_tau * loglogM**3 * log1z)
    log_tau = -log1tau
    if log1tau <= 1.0:
        raise InfeasiblePlanError(
            "log(1/tau) > 1", f"log(1/tau) = {log1tau:.6g} leaves log log(1/tau) <= 0"
        )
    loglog1tau = math.log(log1tau)

    m = _ceil_finite(
        "m = C_m log(1/tau) log(1/zeta)^4", constants.C_m * log1tau * log1z**4, "--C-m"
    )
    d = _ceil_finite(
        "d = C_d sqrt(log(1/zeta) log(1/tau) log log(1/tau))",
        constants.C_d * math.sqrt(log1z * log1tau * loglog1tau),
        "--C-d",
    )
    if d < 2:
        raise InfeasiblePlanError("d >= 2", f"schedule produced d = {d}")

    delta = comb_delta(zeta, d)
    if not (delta < 1.0):
        raise InfeasiblePlanError("delta < 1", f"delta = {delta:.6g}")

    loglog1z = math.log(log1z)
    if loglog1z <= 0.0:
        raise InfeasiblePlanError(
            "log log(1/zeta) > 0", f"zeta = {zeta} >= 1/e degenerates k"
        )
    k = 4.0 * log1tau / loglog1z
    log_epsilon = log_tau - k * math.log(12.0 * math.sqrt(log1z))
    if not (log_epsilon < math.log(delta / 8.0)):
        raise InfeasiblePlanError(
            "epsilon < delta/8",
            f"log epsilon = {log_epsilon:.6g} >= log(delta/8) = {math.log(delta / 8.0):.6g}",
        )

    c = 1.0 / (144.0 * log1z**2)
    if not math.isfinite(m + 8.0 * d):
        raise RangeError(f"m + 8d = {m:.6g} + 8 * {d:.6g} overflows a float; lower --C-m or --C-d")
    M_prime_log = log_binomial(m + 8 * d, 8 * d)
    if M_prime_log > M_log:
        raise InfeasiblePlanError(
            "M_prime_log <= log M",
            f"log binom(m+8d, 8d) = {M_prime_log:.6g} > log M = {M_log:.6g}",
        )

    return AsymptoticPlan(
        M_log=M_log, eta=eta, zeta=zeta, l=l, log_tau=log_tau, m=m, d=d, k=k,
        delta=delta, log_epsilon=log_epsilon, c=c, M_prime_log=M_prime_log,
        constants=constants,
    )


@dataclass(frozen=True)
class TsybakovParams:
    A_const: float
    alpha: float

    def __post_init__(self):
        if not self.A_const > 0.0:
            raise RangeError(f"A = {self.A_const} must be positive")
        if not (0.0 < self.alpha < 1.0):
            raise RangeError(f"alpha = {self.alpha} must lie in (0, 1)")

    @property
    def tail_exponent(self) -> float:
        return self.alpha / (1.0 - self.alpha)


def tsybakov_to_massart(params: TsybakovParams, zeta: float) -> float:
    """eta = 1/2 - (zeta/A)^((1-alpha)/alpha).

    The inverse direction zeta = A (1/2 - eta)^(alpha/(1-alpha)) holds
    exactly; a range error is raised when the result leaves (0, 1/2].
    """
    if not (0.0 < zeta):
        raise RangeError(f"zeta = {zeta} must be positive")
    eta = 0.5 - (zeta / params.A_const) ** ((1.0 - params.alpha) / params.alpha)
    if not (0.0 < eta <= 0.5):
        raise RangeError(
            f"translated eta = {eta:.6g} outside (0, 1/2]; "
            f"need zeta < A (1/2)^(alpha/(1-alpha))"
        )
    return eta


def verify_tsybakov(instance, params: TsybakovParams, t_grid) -> bool:
    """Check P[eta(x) >= 1/2 - t] <= A t^(alpha/(1-alpha)) on the grid.

    The flipping probability takes only the values 0 and eta, so the left
    side is exactly 0 (threshold above eta) or the off-(J1 u J2) mass of
    the marginal (threshold at or below eta, including the t = 1/2
    endpoint where the event degenerates to the nonzero-flip set).
    """
    off = instance.off_support_mass()
    for t in t_grid:
        if not (0.0 < t <= 0.5):
            raise RangeError(f"grid point t = {t} outside (0, 1/2]")
        threshold = 0.5 - t
        prob = 0.0 if threshold > instance.eta else off
        if prob > params.A_const * t**params.tail_exponent:
            return False
    return True
