class ConfigurationError(ValueError):
    """Invalid model, estimator or experiment configuration."""


class DegenerateDataError(ValueError):
    """Data admits no maximizer inside the parameter domain (e.g. all-zero increments)."""


class CLTWindowWarning(UserWarning):
    """Threshold exponent outside the CLT window of the activity index; the
    threshold estimate is still consistent."""
