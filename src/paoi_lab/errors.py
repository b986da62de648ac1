"""Exception types shared across the package."""


class PaoiLabError(Exception):
    """Base class for all errors raised by paoi_lab."""


class NoAnalyticForm(PaoiLabError):
    """The requested policy has no closed-form PAoI; simulate instead."""


class InvalidWindow(PaoiLabError):
    """Threshold search window violates its preconditions."""


class SimulationStall(PaoiLabError):
    """The event loop preempted too many times without a reception."""


class ConfigError(PaoiLabError):
    """Experiment configuration file is malformed."""
