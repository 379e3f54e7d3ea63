class ConfigurationError(ValueError):
    """Invalid model, estimator or experiment configuration."""


class DegenerateDataError(ValueError):
    """Data admit no estimate or posterior summary: no maximizer inside the
    parameter domain (e.g. all-zero increments), no posterior mean, or an HPD
    root bracket that does not hold. The one failure an experiment records
    as a failed row instead of aborting the run."""


class CLTWindowWarning(UserWarning):
    """Threshold exponent outside the CLT window of the activity index; the
    threshold estimate is still consistent."""
