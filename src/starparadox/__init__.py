"""Numerical laboratory for the Bayesian star paradox on three taxa.

A two-state symmetric substitution model on a rooted triplet, posteriors
over the three resolved trees under arbitrary branch-length priors, a
classifier for tempered priors (the regularity class under which a
resolved tree keeps non-vanishing probability of spurious near-certain
support as star-tree data grows), and the moment-ratio machinery behind
the threshold bound 2 t R_t >= alpha.
"""

from .model import (
    DeltaStats,
    Interval,
    PatternCounts,
    PatternProbs,
    band_half_width,
    band_interval,
    counts_in_band,
    delta_stats,
    in_band_fc,
    kl_divergence,
    log_pattern_prob_arrays,
    pattern_probs,
    star_probs,
    zeta,
    zeta_inv,
)
from .priors import (
    DiscretePrior,
    LogPrior,
    PowerPrior,
    Prior,
    QuadratureError,
    TamePrior,
    TLogPrior,
    UniformPrior,
    h_aux,
    parse_prior,
    prior_from_json,
)
from .tempering import (
    Condition2Result,
    ExpansionViolation,
    TaylorModel,
    TemperVerdict,
    check_condition2,
    check_tempered,
    fit_taylor,
)
from .posterior import (
    DegenerateEstimate,
    ParadoxResult,
    PosteriorEstimate,
    log_expected_kernel,
    paradox_scan,
    simulate_counts,
    tree_posterior,
    wilson_interval,
)
from .claims import (
    Claim1Report,
    Claim2Report,
    EmptyStratum,
    conditional_ratio_scan,
    in_band_advantage,
)
from .moments import (
    TailParams,
    beta_fn,
    chi_weighted_sum,
    lemma_chi_check,
    moment_curve,
    moment_mt,
    threshold_scan,
)

__version__ = "0.3.5"
