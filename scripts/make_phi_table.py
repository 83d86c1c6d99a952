"""Generate src/massart_forge/_phi_table.py, the rational coefficients of the
package's Gaussian CDF.

    python3 scripts/make_phi_table.py

Needs mpmath (the ``test`` extra); the package itself never imports this
script or mpmath.  The table is committed and the tests read it as it is.

hardpair writes Phi(-t) = exp(-t^2/2) * R(t) for t >= 0, where
R(t) = exp(t^2/2) Phi(-t) (the Mills ratio over sqrt(2 pi)) is smooth,
positive and falls like 1/(t sqrt(2 pi)).  Two rational fits cover it:

- NEAR: R(t) = P(t)/Q(t), degree 8/8, on 0 <= t <= SPLIT;
- FAR:  t R(t) = P(w)/Q(w), degree 5/5 in w = 1/t^2, for t >= SPLIT, whose
  limit at w = 0 is 1/sqrt(2 pi).

Each fit minimises the largest relative error over Chebyshev points of its
interval: Sanathanan-Koerner iterations (the linearised least-squares
problem weighted by the previous denominator), then Lawson reweighting
toward equal ripple.  Everything runs at 40 digits; the coefficients are
rounded once, to the nearest double.  The script prints each fit's largest
relative error on a grid 10x denser than the fitting points.
"""

from __future__ import annotations

from pathlib import Path

import mpmath as mp

mp.mp.dps = 40

SPLIT = 6
NEAR_DEGREES = (8, 8)
FAR_DEGREES = (5, 5)
POINTS = 240
ITERATIONS = 40
SK_ONLY = 5  # iterations before Lawson reweighting starts

OUT = Path(__file__).resolve().parents[1] / "src" / "massart_forge" / "_phi_table.py"


def mills(t):
    """R(t) = exp(t^2/2) Phi(-t)."""
    t = mp.mpf(t)
    return mp.exp(t * t / 2) * mp.ncdf(-t)


def far_target(w):
    """t R(t) at t = 1/sqrt(w); 1/sqrt(2 pi) at w = 0."""
    if w == 0:
        return 1 / mp.sqrt(2 * mp.pi)
    t = 1 / mp.sqrt(w)
    return t * mills(t)


def chebyshev_points(a, b, n):
    a, b = mp.mpf(a), mp.mpf(b)
    inner = [(a + b) / 2 + (b - a) / 2 * mp.cos(mp.pi * (2 * i + 1) / (2 * n)) for i in range(n)]
    return [a] + inner + [b]


def relative_errors(num, den, xs, fs):
    return [(mp.polyval(num[::-1], x) / mp.polyval(den[::-1], x) - f) / f for x, f in zip(xs, fs)]


def fit(f, a, b, degrees):
    """(numerator, denominator) in ascending powers, denominator[0] = 1,
    minimising max |P/Q - f| / |f| on [a, b]; and that maximum."""
    n, m = degrees
    xs = chebyshev_points(a, b, POINTS)
    fs = [f(x) for x in xs]
    weights = [mp.mpf(1)] * len(xs)
    previous = [mp.mpf(1)] * len(xs)
    best = None
    for iteration in range(ITERATIONS):
        rows, rhs = [], []
        for x, fx, weight, q in zip(xs, fs, weights, previous):
            s = mp.sqrt(weight) / (fx * q)
            rows.append([s * x**j for j in range(n + 1)] + [-s * fx * x**j for j in range(1, m + 1)])
            rhs.append(s * fx)
        a_mat, y = mp.matrix(rows), mp.matrix(rhs)
        c = mp.lu_solve(a_mat.T * a_mat, a_mat.T * y)
        num = [c[j] for j in range(n + 1)]
        den = [mp.mpf(1)] + [c[n + j] for j in range(1, m + 1)]
        errs = relative_errors(num, den, xs, fs)
        worst = max(abs(e) for e in errs)
        if best is None or worst < best[2]:
            best = (num, den, worst)
        previous = [mp.polyval(den[::-1], x) for x in xs]
        if iteration >= SK_ONLY:
            weights = [wt * abs(e) for wt, e in zip(weights, errs)]
            total = sum(weights)
            weights = [wt / total for wt in weights]
    return best


def dense_error(f, a, b, num, den):
    xs = chebyshev_points(a, b, 10 * POINTS)
    return max(abs(e) for e in relative_errors(num, den, xs, [f(x) for x in xs]))


def as_doubles(coeffs):
    """Highest power first, as Horner's rule reads them."""
    return tuple(float(c) for c in reversed(coeffs))


def main() -> None:
    near = fit(mills, 0, SPLIT, NEAR_DEGREES)
    far = fit(far_target, 0, mp.mpf(1) / SPLIT**2, FAR_DEGREES)
    near_err = dense_error(mills, 0, SPLIT, near[0], near[1])
    far_err = dense_error(far_target, 0, mp.mpf(1) / SPLIT**2, far[0], far[1])
    print(f"near {NEAR_DEGREES}: max relative error {mp.nstr(near_err, 3)}")
    print(f"far {FAR_DEGREES}: max relative error {mp.nstr(far_err, 3)}")

    def block(name, coeffs):
        body = "".join(f"    {c!r},\n" for c in as_doubles(coeffs))
        return f"{name} = (\n{body})\n"

    OUT.write_text(
        '"""Rational coefficients of hardpair\'s Gaussian CDF.  Generated by\n'
        "scripts/make_phi_table.py with mpmath; do not edit by hand.\n\n"
        "Phi(-t) = exp(-t^2/2) R(t) for t >= 0.  For t < SPLIT, R(t) =\n"
        "NEAR_P(t)/NEAR_Q(t); for t >= SPLIT, t R(t) = FAR_P(w)/FAR_Q(w) with\n"
        "w = 1/t^2.  Coefficients run from the highest power down.  Largest\n"
        "relative error of the exact rationals against mpmath, on a grid ten\n"
        f"times denser than the fit: near {mp.nstr(near_err, 3)}, far {mp.nstr(far_err, 3)}.\n"
        '"""\n\n'
        f"SPLIT = {float(SPLIT)!r}\n"
        + block("NEAR_P", near[0])
        + block("NEAR_Q", near[1])
        + block("FAR_P", far[0])
        + block("FAR_Q", far[1]),
        encoding="utf-8",
    )
    print(f"wrote {OUT}")


if __name__ == "__main__":
    main()
