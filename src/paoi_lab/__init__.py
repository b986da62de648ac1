"""Average peak Age of Information under preemptive threshold request policies.

A single source generates an update whenever the monitor asks for one;
service times are i.i.d. with a general distribution, and a request may
preempt the attempt in flight.  This package evaluates the average peak
AoI of such policies in closed form, optimizes the preemption threshold,
decides when preempting beats never preempting, and validates everything
against a discrete-event simulation.
"""

from .analytic import (
    PaoiValue,
    paoi_fixed_threshold,
    paoi_policy,
    paoi_repetitive,
    paoi_xmin,
    paoi_zero_wait,
)
from .distributions import (
    Deterministic,
    Erlang,
    Exponential,
    HyperExponential,
    LogNormal,
    Pareto,
    ServiceDistribution,
    ShiftedExponential,
    TwoPoint,
)
from .errors import (
    ConfigError,
    InvalidWindow,
    NoAnalyticForm,
    PaoiLabError,
    SimulationStall,
)
from .optimize import (
    OptimizationResult,
    PreemptionVerdict,
    bellman_fixed_point,
    default_window,
    mean_residual_witness,
    min_achievable_paoi,
    optimal_threshold,
    preemption_beneficial,
    theta_grid,
    twopoint_benefit_threshold,
)
from .policies import (
    ChoiceSampler,
    FixedThreshold,
    MedianThreshold,
    PointSampler,
    Policy,
    RandomizedThreshold,
    RepetitiveSequence,
    ThresholdSampler,
    TriangularSampler,
    UniformSampler,
    XMinThreshold,
    ZeroWait,
)
from .simulate import (
    PaoiEstimate,
    aoi_trajectory,
    estimate_paoi,
    pooled_estimate,
    run_replications,
    simulate_peaks,
)

__version__ = "0.1.0"
