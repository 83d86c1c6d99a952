"""Rational coefficients of hardpair's Gaussian CDF.  Generated by
scripts/make_phi_table.py with mpmath; do not edit by hand.

Phi(-t) = exp(-t^2/2) R(t) for t >= 0.  For t < SPLIT, R(t) =
NEAR_P(t)/NEAR_Q(t); for t >= SPLIT, t R(t) = FAR_P(w)/FAR_Q(w) with
w = 1/t^2.  Coefficients run from the highest power down.  Largest
relative error of the exact rationals against mpmath, on a grid ten
times denser than the fit: near 1.96e-17, far 3.71e-18.
"""

SPLIT = 6.0
NEAR_P = (
    1.1729883327252387e-12,
    1.581686275608471e-05,
    0.0003715354566313021,
    0.0040797623246302175,
    0.026999248682957118,
    0.11629013856001974,
    0.3283242936785982,
    0.5711162812979607,
    0.5,
)
NEAR_Q = (
    3.9647191735640563e-05,
    0.0009312949507606959,
    0.010266226212139967,
    0.06860639949851527,
    0.3016663179248883,
    0.8885876464749698,
    1.7046380862664925,
    1.9401171233987826,
    1.0,
)
FAR_P = (
    485.5014064611056,
    2103.7091647610637,
    1289.0352306204395,
    247.8575781085624,
    17.604771186044797,
    0.3989422804014327,
)
FAR_Q = (
    3681.2706099052784,
    7629.061593853429,
    3774.1617349398884,
    663.4154305919058,
    45.12861722334898,
    1.0,
)
