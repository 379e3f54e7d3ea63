"""Volatility inference for high-frequency Levy data under microstructure
noise, via deliberately misspecified Gaussian quasi-likelihoods whose
posteriors are recentered and retempered to match frequentist asymptotics."""

from .errors import CLTWindowWarning, ConfigurationError, DegenerateDataError
from .simulate import (
    CompoundPoisson,
    ModelSpec,
    NoJumps,
    SamplePath,
    TrimmedStable,
    VarianceGamma,
    simulate_path,
    simulate_stable_trimmed,
    simulate_vg_increments,
)
from .transform import apply_transform, eigen_variance, transform_entry, transform_matrix
from .likelihood import (
    LikelihoodContext,
    fisher_info,
    loglik,
    make_context,
    mle,
    score,
)
from .estimators import (
    EstimatorReport,
    PreavgConfig,
    estimate_no_noise,
    estimate_noise,
    jump_qv_hat,
    kappa_noise,
    kappa_nonoise,
    noise_variance_hat,
    preavg_threshold_estimator,
    threshold_rv,
    v_noise,
)
from .posterior import (
    AnalyticPosterior,
    ChainConfig,
    EmpiricalPosterior,
    ExponentialPrior,
    IntervalReport,
    InverseGammaPrior,
    TruncatedNormalPrior,
    UniformPrior,
    adjust,
    equal_tail_interval,
    hpd_interval,
    normal_reference,
    point_estimates,
    tempered_posterior_conjugate,
    tempered_posterior_mcmc,
    tv_distance,
)
from .reference_bayes import (
    JointPriors,
    gibbs_full_joint,
    marginal_theta,
)
from .experiments import (
    ExperimentConfig,
    config_from_dict,
    default_config,
    emit_plot_data,
    fit_replication,
    load_config,
    run,
)

__version__ = "0.1.0"
