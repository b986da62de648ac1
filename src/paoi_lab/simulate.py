"""Monte-Carlo simulation of the AoI sample path under preemptive requests.

The event loop is attempt-driven: after every reception a new request
goes out immediately (work conservation), each attempt either completes
within its threshold or is preempted at the threshold, and time advances
by ``min(threshold, service)`` per attempt.  No event queue is needed for
a single source and server.  The loop reads two iterators: the service
times, drawn in blocks from one generator, and per peak the thresholds
of its attempts (a deterministic policy's sequence with its last entry
repeated, or one i.i.d. draw per attempt from a second generator).

A packet is received at time zero and the initial AoI equals a fresh
service draw, so the first peak is that draw plus the first
inter-reception time.  A service time exactly equal to its threshold
counts as received, matching the right-closed truncated integrals on the
analytic side (this is load-bearing for distributions with atoms).

A deterministic policy whose repeating last threshold has ``F = 0`` and
is reached with positive probability strands every peak that gets there
(the analytic value is ``inf``) and raises :class:`SimulationStall`
before the first draw; otherwise ``stall_limit`` consecutive preemptions
raise it.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from itertools import chain, count, islice, repeat
from typing import Iterator, Optional, Sequence

import numpy as np

from .distributions import ServiceDistribution
from .errors import SimulationStall
from .policies import Policy, RandomizedThreshold, ThresholdSampler, resolve

__all__ = [
    "PeakRecord",
    "AoiBreakpoint",
    "PaoiEstimate",
    "simulate_peaks",
    "estimate_paoi",
    "aoi_trajectory",
    "simulate_randomized",
    "run_replications",
    "pooled_estimate",
]

DEFAULT_STALL_LIMIT = 10**9
_BATCH_COUNT = 30
_Z95 = 1.96
_DRAW_BLOCK = 4096


@dataclass(frozen=True)
class PeakRecord:
    """One AoI peak: ``peak = received_service + interreception`` exactly.

    ``received_service`` is the service time of the update that ended the
    *previous* peak (the initial draw for the first record);
    ``preemptions`` counts the attempts dropped before this reception.
    """

    index: int
    peak: float
    received_service: float
    interreception: float
    preemptions: int
    receive_time: float


@dataclass(frozen=True)
class AoiBreakpoint:
    """Sawtooth breakpoint: AoI hits ``peak`` just before ``time`` and
    drops to ``reset_to`` (the just-received update's service time)."""

    time: float
    peak: float
    reset_to: float


@dataclass(frozen=True)
class PaoiEstimate:
    """Sample-mean PAoI with a batch-means confidence interval.

    Consecutive peaks share a service term and are not independent, so
    the standard error comes from batch means rather than the i.i.d.
    formula.  ``ci95`` is ``mean +- 1.96 * std_error``.
    """

    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    peak_count: int
    seed: Optional[int] = None

    @property
    def ci95(self) -> tuple[float, float]:
        return (self.ci_low, self.ci_high)


def _iter_peaks(
    d: ServiceDistribution,
    policy: Policy,
    seed: int,
    stall_limit: int,
) -> Iterator[PeakRecord]:
    # Two child streams so that policies which do not randomize consume
    # the exact same service draws as a fixed-threshold run with the
    # same seed.
    ss_service, ss_threshold = np.random.SeedSequence(seed).spawn(2)
    rng_service = np.random.default_rng(ss_service)
    rng_threshold = np.random.default_rng(ss_threshold)
    thresholds = resolve(policy, d)
    if thresholds is None:
        # every peak reads the one endless stream of i.i.d. draws
        per_peak = repeat(iter(partial(policy.sampler.draw, rng_threshold), None))
    else:
        head, tail = thresholds[:-1], thresholds[-1]
        # the loop itself needs only sample_batch and support_min from a
        # law, so cdf and sf are read only for a tail at or below its minimum
        if (
            tail <= d.support_min()
            and d.cdf(tail) == 0.0
            and all(d.sf(s) > 0.0 for s in head)
        ):
            raise SimulationStall(
                f"no attempt at the repeating last threshold of {policy!r} "
                f"can deliver under {d!r}: P(X <= {tail:g}) = 0"
            )
        per_peak = (chain(head, repeat(tail)) for _ in count())
    draws = chain.from_iterable(
        iter(lambda: d.sample_batch(rng_service, _DRAW_BLOCK).tolist(), None)
    )

    x_prev = next(draws)  # initial AoI: a packet is received at time zero
    now = 0.0
    for k, thetas in enumerate(per_peak, 1):
        y = 0.0
        drops = 0
        for theta in thetas:
            x = next(draws)
            if x <= theta:  # reception wins the tie
                y += x
                break
            y += theta
            drops += 1
            if drops >= stall_limit:
                raise SimulationStall(
                    f"{drops} consecutive preemptions without a reception "
                    f"under {policy!r}; is the threshold below the support?"
                )
        now += y
        yield PeakRecord(
            index=k,
            peak=x_prev + y,
            received_service=x_prev,
            interreception=y,
            preemptions=drops,
            receive_time=now,
        )
        x_prev = x


def simulate_peaks(
    d: ServiceDistribution,
    policy: Policy,
    peaks: int,
    seed: int,
    stall_limit: int = DEFAULT_STALL_LIMIT,
    warmup: int = 0,
) -> list[PeakRecord]:
    """Simulate exactly ``peaks`` AoI peaks after ``warmup`` discarded ones.

    Identical arguments reproduce the identical record list.  The process
    regenerates at every reception, and no policy carries history across
    one, so every peak but the first has the same law.  The first differs:
    its carried service is the unconditioned initial draw, where every
    later peak carries a service time that completed within its threshold
    (``X | X <= theta``).  Any ``warmup >= 1`` drops it.
    """
    if peaks < 1:
        raise ValueError("need at least one peak")
    if warmup < 0:
        raise ValueError("warmup must be nonnegative")
    gen = _iter_peaks(d, policy, seed, stall_limit)
    return list(islice(gen, warmup, warmup + peaks))


def aoi_trajectory(
    d: ServiceDistribution,
    policy: Policy,
    horizon: float,
    seed: int,
    stall_limit: int = DEFAULT_STALL_LIMIT,
) -> list[AoiBreakpoint]:
    """Sawtooth breakpoints of the AoI path for receptions up to ``horizon``.

    Shares the event loop with :func:`simulate_peaks`, so the peaks read
    off the trajectory coincide with the simulated peak series for the
    same seed.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    gen = _iter_peaks(d, policy, seed, stall_limit)
    out = []
    prev = next(gen)
    while prev.receive_time <= horizon:
        # the drop-to value of this reception is the next record's
        # carried service time
        nxt = next(gen)
        out.append(AoiBreakpoint(prev.receive_time, prev.peak, nxt.received_service))
        prev = nxt
    return out


def estimate_paoi(
    peaks: Sequence[PeakRecord],
    seed: Optional[int] = None,
    batches: int = _BATCH_COUNT,
) -> PaoiEstimate:
    """Batch-means estimate of the average PAoI from a peak series."""
    if len(peaks) < 2:
        raise ValueError("need at least two peaks to estimate")
    values = np.array([r.peak for r in peaks])
    k = len(values)
    nb = min(batches, k)
    m = k // nb
    batch_means = values[: nb * m].reshape(nb, m).mean(axis=1)
    mean = float(values.mean())
    se = float(batch_means.std(ddof=1) / math.sqrt(nb))
    return PaoiEstimate(
        mean=mean,
        std_error=se,
        ci_low=mean - _Z95 * se,
        ci_high=mean + _Z95 * se,
        peak_count=k,
        seed=seed,
    )


def simulate_randomized(
    d: ServiceDistribution,
    sampler: ThresholdSampler,
    peaks: int,
    seed: int,
    stall_limit: int = DEFAULT_STALL_LIMIT,
    warmup: int = 0,
) -> PaoiEstimate:
    """Estimate PAoI under i.i.d. per-request threshold randomization."""
    records = simulate_peaks(
        d, RandomizedThreshold(sampler), peaks, seed, stall_limit, warmup
    )
    return estimate_paoi(records, seed=seed)


def _replicate(args) -> PaoiEstimate:
    d, policy, peaks, seed, stall_limit, warmup = args
    records = simulate_peaks(d, policy, peaks, seed, stall_limit, warmup)
    return estimate_paoi(records, seed=seed)


def run_replications(
    d: ServiceDistribution,
    policy: Policy,
    peaks: int,
    replications: int,
    base_seed: int,
    stall_limit: int = DEFAULT_STALL_LIMIT,
    warmup: int = 0,
    workers: int = 1,
) -> list[PaoiEstimate]:
    """Independent replications with seeds ``base_seed + i``, in seed order.

    ``workers > 1`` fans replications out to processes; results are
    reduced by replication index, so the output never depends on the
    completion order.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    jobs = [
        (d, policy, peaks, base_seed + i, stall_limit, warmup)
        for i in range(replications)
    ]
    if workers <= 1 or replications == 1:
        return [_replicate(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(workers, replications)) as pool:
        return list(pool.map(_replicate, jobs))


def pooled_estimate(
    estimates: Sequence[PaoiEstimate], seed: Optional[int] = None
) -> PaoiEstimate:
    """Pool replication estimates: mean of means, standard errors combined
    in quadrature."""
    if not estimates:
        raise ValueError("nothing to pool")
    n = len(estimates)
    mean = float(np.mean([e.mean for e in estimates]))
    se = float(math.sqrt(sum(e.std_error**2 for e in estimates)) / n)
    return PaoiEstimate(
        mean=mean,
        std_error=se,
        ci_low=mean - _Z95 * se,
        ci_high=mean + _Z95 * se,
        peak_count=sum(e.peak_count for e in estimates),
        seed=seed,
    )
