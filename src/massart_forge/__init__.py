"""Hard-instance constructions for learning halfspaces under Massart noise,
with exact verification tooling and a simulated statistical-query lab."""

__version__ = "0.5.0"

from .hardpair import (
    HardPair,
    HardPairConfig,
    IntervalUnion,
    PiecewiseGaussianMeasure,
    build_hard_pair,
    mass_in,
    sample,
    total_mass,
)
from .instance import (
    MassartInstance,
    build_interval_polynomial,
    flip_probability,
    make_instance,
    opt_error,
    ptf_sign,
    sample_labeled,
)
from .lift import enumerate_basis, halfspace_from_ptf, veronese
from .moments import (
    chi_square_vs_gaussian,
    fourier_discrepancy_bound,
    gaussian_moment,
    measure_moment,
    moment_discrepancy_report,
)
from .planner import (
    AsymptoticPlan,
    Constants,
    TsybakovParams,
    log_binomial,
    plan,
    tsybakov_to_massart,
    verify_tsybakov,
)
from .sqlab import (
    OracleConfig,
    SQOracle,
    SQQuery,
    distinguishing_experiment,
    learner_chow,
    learner_constant,
    near_orthogonal_set,
)
from .verification import build_verification_report
