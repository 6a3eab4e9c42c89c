"""Support-size estimation toolkit.

Estimates the number of distinct symbols of an unknown discrete distribution
from a sample, given only a lower bound 1/k on the nonzero masses.  The main
estimator applies Chebyshev-polynomial weights to the small-multiplicity
fingerprint counts; classical baselines (plug-in, Good-Turing, Chao-Lee,
Efron-Thisted, Good-Toulmin) are included, together with synthetic benchmark
families and a numerical laboratory for the matching lower-bound machinery.
"""

from importlib.resources import files as _files

from .chebyshev import CoefficientTable, g_table, shifted_coeffs
from .errors import (
    DecodeError,
    DegenerateDegreeError,
    EmptyInputError,
    FingerprintFormatError,
    ParameterError,
    PrecisionError,
    SolverError,
    SupportSizeError,
    UndefinedEstimatorError,
)
from .estimators import (
    DEFAULT_CONFIG,
    ESTIMATORS,
    Estimate,
    EstimatorConfig,
    chao_lee,
    chebyshev_estimate,
    degree_params,
    efron_thisted,
    good_toulmin,
    good_turing,
    plug_in,
    run_estimator,
)
from .ingest import (
    Fingerprint,
    Histogram,
    TokenizerConfig,
    build_histogram,
    fingerprint_from_counts,
    fingerprint_of,
    read_fingerprint_file,
    resample,
    split_paragraphs,
    tokenize,
    write_fingerprint_file,
)
from .sweep import (
    ProbeResult,
    SweepRow,
    SweepSpec,
    probe_sample_complexity,
    run_sweep,
    trial_rng,
    wilson_interval,
)
from .synth import (
    DiscreteDistribution,
    draw_counts,
    effective_k,
    make_mixture,
    make_uniform,
    make_zipf,
    parse_family,
    sample_fingerprint,
)
from .theory import (
    ApproxResult,
    LeCamCertificate,
    PriorPair,
    TvBound,
    TvEstimate,
    best_inv_approx,
    closed_form_error,
    construct_prior_pair,
    lecam_certificate,
    lecam_recipe,
    max_exp_cheby,
    poisson_tail_bound,
    primal_value,
    rate_envelope,
    tv_bound,
    tv_exact,
    tv_exact_atoms,
)

__version__ = "0.1.0"


def shakespeare_fingerprint() -> Fingerprint:
    """The bundled word-frequency fingerprint of the Shakespearean canon.

    Word types occurring 1..100 times, as tabulated by Efron & Thisted
    (Biometrika 1976, Table 1): 30,688 types covering 194,667 word
    occurrences.  A further 846 types occur more than 100 times; their exact
    multiplicities are not tabulated, so they are not representable here --
    add them to the plug-in side of any estimate by hand (every estimator in
    this package weights multiplicities above its degree identically, so
    that addition is exact).
    """
    path = _files("supportsize.data").joinpath("shakespeare_et_table1.txt")
    return read_fingerprint_file(str(path))


SHAKESPEARE_TYPES_ABOVE_100 = 846  # word types beyond the tabulated multiplicities
