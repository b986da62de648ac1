"""Exception types shared across the package."""


class PaoiLabError(Exception):
    """Base class for all errors raised by paoi_lab."""


class SimulationStall(PaoiLabError):
    """The event loop preempted too many times without a reception."""


class ConfigError(PaoiLabError):
    """An experiment or a call that cannot run as given: a malformed
    configuration, an invalid window, a policy with no closed form, or a
    threshold or trajectory past what a float or memory holds."""
