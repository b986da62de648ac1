"""Monte-Carlo simulation of the AoI sample path under preemptive requests.

The model is attempt-driven: after every reception a new request goes out
immediately (work conservation), each attempt either completes within its
threshold or is preempted at the threshold, and time advances by
``min(threshold, service)`` per attempt.  No event queue is needed for a
single source and server.

The engine works on blocks of 4096 service draws from one generator.
Attempt ``i`` reads service draw ``i + 1`` and, under a randomized policy,
threshold draw ``i`` from a second generator (``draw_batch``, bit-equal to
one ``draw`` per attempt).  Per block it finds the receptions with one
array comparison (a threshold sequence with a head chases one pointer per
peak through a table of where each start position leads), sums each peak's
dropped thresholds in the order one attempt at a time would add them, and
emits the block's peaks as columns.  A peak still open at the block end
carries its partial sum and drop count into the next block.  The result
equals the one-attempt-at-a-time loop bit for bit.  :func:`simulate_peaks`
and :func:`aoi_trajectory` return the series as NumPy record arrays, whose
field names are the CSV headers of the peak dump and the trajectory.

A packet is received at time zero and the initial AoI equals a fresh
service draw, so the first peak is that draw plus the first
inter-reception time.  A service time exactly equal to its threshold
counts as received, matching the right-closed truncated integrals on the
analytic side (this is load-bearing for distributions with atoms).

A policy that can never deliver raises :class:`SimulationStall` before the
first draw: a deterministic policy whose repeating last threshold has
``F = 0`` and is reached with positive probability (the analytic value is
``inf``), or a randomized one whose largest possible threshold has
``F = 0``.  Otherwise a peak that reaches ``stall_limit`` consecutive
preemptions raises it, once a caller asks for that peak.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Iterator, Optional, Sequence

import numpy as np

from .distributions import ServiceDistribution
from .errors import ConfigError, SimulationStall
from .policies import Policy, resolve

__all__ = [
    "PaoiEstimate",
    "simulate_peaks",
    "estimate_paoi",
    "aoi_trajectory",
    "run_replications",
    "pooled_estimate",
]

DEFAULT_STALL_LIMIT = 10**9
_BATCH_COUNT = 30
_Z95 = 1.96
_DRAW_BLOCK = 4096
# receptions one trajectory may hold: building one takes about 80 bytes a
# reception (4.1M receptions peaked at 0.36 GB resident)
_MAX_TRAJECTORY = 2**22


@dataclass(frozen=True)
class PaoiEstimate:
    """Sample-mean PAoI with a batch-means confidence interval.

    Consecutive peaks share a service term and are not independent, so
    the standard error comes from batch means rather than the i.i.d.
    formula.  ``ci_low`` and ``ci_high`` are ``mean -+ 1.96 * std_error``.
    """

    mean: float
    std_error: float
    ci_low: float
    ci_high: float
    peak_count: int
    seed: Optional[int] = None


def _sequence_ends(x, table, rank0):
    """Reception positions in the block ``x`` under the threshold sequence
    ``table`` (its last entry repeating), when the peak open at the block
    start has made ``rank0`` attempts."""
    size, m = len(x), len(table) - 1
    if not m:
        return np.flatnonzero(x <= table[0])  # reception wins the tie
    pos = np.arange(size + 1)
    # nxt[q]: the first reception at the repeating threshold at or after q
    nxt = np.minimum.accumulate(np.where(x <= table[m], pos[:-1], size)[::-1])[::-1]
    nxt = np.append(nxt, size)
    # end[p]: the reception a peak starting at p leads to (size: none here)
    end = nxt[np.minimum(pos + m, size)]
    for i in reversed(range(m)):  # the earliest head hit wins
        hit = np.flatnonzero(x[i:] <= table[i])
        end[hit] = hit + i
    # the open peak goes on with the head entries it has left
    left = min(max(m - rank0, 0), size)
    e = nxt[left]
    for p in range(left):
        if x[p] <= table[rank0 + p]:
            e = p
            break
    ends, end = [], end.tolist()
    while e < size:  # one step per peak
        ends.append(e)
        e = end[e + 1]
    return np.array(ends, dtype=np.intp)


def _sequence_sums(table, y_open, rank0, drops):
    """Per peak, the thresholds of its dropped attempts under the sequence
    ``table``, added left to right as the attempt loop adds them.  The first
    peak goes on from ``y_open`` at rank ``rank0``; every later one starts
    from 0.0 at rank 0, so its sum is a prefix sum of the sequence."""
    m = len(table) - 1
    ranks = np.arange(drops[1:].max(initial=0))
    prefix = np.cumsum(np.concatenate(([0.0], table[np.minimum(ranks, m)])))
    y = np.empty(len(drops))
    y[1:] = prefix[drops[1:]]
    ranks = np.arange(rank0, rank0 + drops[0])
    y[0] = np.cumsum(np.concatenate(([y_open], table[np.minimum(ranks, m)])))[-1]
    return y


def _sampled_sums(thetas, y_open, ends, drops):
    """Per peak, the drawn thresholds of its dropped attempts, which start
    after the previous reception in ``ends``, added left to right as the
    attempt loop adds them; the first peak goes on from ``y_open``.

    Round ``j`` adds the ``j``-th dropped threshold of every peak with more
    than ``j`` drops; the peaks still open after the last round finish in
    one ``np.cumsum`` each, which is a sequential sum too.  A round and a
    cumsum cost about the same, so the rounds stop at the rank that
    minimizes rounds plus cumsums.
    """
    starts = np.concatenate(([0], ends + 1))
    more = len(drops) - np.cumsum(np.bincount(drops))  # peaks with > j drops
    rounds = int(np.argmin(more + np.arange(len(more))))
    y = np.zeros(len(starts))
    y[0] = y_open
    act = np.flatnonzero(drops)
    for j in range(rounds):
        y[act] += thetas[starts[act] + j]
        act = act[drops[act] > j + 1]
    for i in act.tolist():
        tail = thetas[starts[i] + rounds : starts[i] + drops[i]]
        y[i] = np.cumsum(np.concatenate(([y[i]], tail)))[-1]
    return y


def _deliverable(d: ServiceDistribution, policy: Policy) -> Optional[tuple[float, ...]]:
    """``resolve(policy, d)``, raising :class:`SimulationStall` where the
    policy never delivers: every threshold of its head passes attempts on
    and its tail (a sampler's largest draw, a sequence's last entry) has
    ``F = 0``.  The loop itself needs only ``sample_batch`` and
    ``support_min`` from a law, so ``cdf`` and ``sf`` are read only for a
    tail at or below its minimum."""
    thresholds = resolve(policy, d)
    if thresholds is None:
        head, tail = (), policy.sampler.supremum()
        what = f"no threshold that {policy!r} draws"
    else:
        head, tail = thresholds[:-1], thresholds[-1]
        what = f"no attempt at the repeating last threshold of {policy!r}"
    if tail <= d.support_min() and d.cdf(tail) == 0.0 and all(d.sf(s) > 0.0 for s in head):
        raise SimulationStall(f"{what} can deliver under {d!r}: P(X <= {tail:g}) = 0")
    return thresholds


def _blocks(
    d: ServiceDistribution,
    policy: Policy,
    seed: int,
    stall_limit: int,
) -> Iterator[tuple[np.ndarray, ...]]:
    """The endless peak series: per block of service draws, the columns
    ``peak, received_service, interreception, preemptions, receive_time``
    of the peaks whose reception falls in it (none if no peak ends there)."""
    if stall_limit < 1:  # the count is checked after a drop
        raise ValueError(f"stall_limit must be at least 1, got {stall_limit!r}")
    # Two child streams so that policies which do not randomize consume
    # the exact same service draws as a fixed-threshold run with the
    # same seed.
    ss_service, ss_threshold = np.random.SeedSequence(seed).spawn(2)
    rng_service = np.random.default_rng(ss_service)
    rng_threshold = np.random.default_rng(ss_threshold)
    thresholds = _deliverable(d, policy)
    table = None if thresholds is None else np.array(thresholds, dtype=float)

    draws = np.asarray(d.sample_batch(rng_service, _DRAW_BLOCK), dtype=float)
    x_prev, x = draws[0], draws[1:]  # initial AoI: a packet is received at time zero
    now = 0.0
    y_open, drops_open = 0.0, 0  # the peak waiting for its reception
    while True:
        size = len(x)
        # drops[i]: the attempts peak i drops in this block; the last peak
        # is still open at the block end
        if thresholds is None:
            thetas = policy.sampler.draw_batch(rng_threshold, size)
            ends = np.flatnonzero(x <= thetas)  # reception wins the tie
            drops = np.diff(ends, prepend=-1, append=size) - 1
            y = _sampled_sums(thetas, y_open, ends, drops)
        else:
            ends = _sequence_ends(x, table, drops_open)
            drops = np.diff(ends, prepend=-1, append=size) - 1
            y = _sequence_sums(table, y_open, drops_open, drops)
        drops[0] += drops_open
        y_open, drops_open = y[-1], int(drops[-1])
        y = y[:-1] + x[ends]
        stalled = np.flatnonzero(drops >= stall_limit)
        k = int(stalled[0]) if stalled.size else len(ends)
        if k:
            received = np.concatenate(([x_prev], x[ends[: k - 1]]))
            times = np.cumsum(np.concatenate(([now], y[:k])))[1:]
            yield received + y[:k], received, y[:k], drops[:k], times
            x_prev, now = x[ends[k - 1]], times[-1]
        if stalled.size:
            raise SimulationStall(
                f"{stall_limit} consecutive preemptions without a reception "
                f"under {policy!r}; is the threshold below the support?"
            )
        x = np.asarray(d.sample_batch(rng_service, _DRAW_BLOCK), dtype=float)


# A draw, a sum or an estimate past the largest float reads inf silently,
# as Python's float arithmetic does; the state covers the whole loop over
# _blocks, not a block held open across its yield.
_silent_overflow = np.errstate(over="ignore", invalid="ignore")


@_silent_overflow
def _columns(d, policy, seed, stall_limit, peaks=math.inf, horizon=math.inf):
    """The columns of :func:`_blocks`, each joined into one array, up to the
    block that holds the ``peaks``-th peak or the first reception past
    ``horizon``; no block past it is drawn.  Up to a finite ``horizon``,
    raises :class:`ConfigError` as soon as the receptions so far, at their
    pace, project past ``_MAX_TRAJECTORY`` by the horizon."""
    parts, have = [], 0
    for cols in _blocks(d, policy, seed, stall_limit):
        parts.append(cols)
        have += len(cols[0])
        t_last = cols[-1][-1]
        if have >= peaks or t_last > horizon:
            break
        if horizon < math.inf and have > _MAX_TRAJECTORY * (t_last / horizon):
            raise ConfigError(
                f"a trajectory to time {horizon:g} needs more than {_MAX_TRAJECTORY} "
                f"receptions under {policy!r}: the first {have} end by time {t_last:g}"
            )
    return [np.concatenate(c) for c in zip(*parts)]


def _peak_range(d, policy, peaks, seed, stall_limit, warmup):
    """The columns of peaks ``warmup + 1`` to ``warmup + peaks``."""
    if peaks < 1:
        raise ValueError("need at least one peak")
    if warmup < 0:
        raise ValueError("warmup must be nonnegative")
    cols = _columns(d, policy, seed, stall_limit, peaks=warmup + peaks)
    return [c[warmup : warmup + peaks] for c in cols]


def simulate_peaks(
    d: ServiceDistribution,
    policy: Policy,
    peaks: int,
    seed: int,
    stall_limit: int = DEFAULT_STALL_LIMIT,
    warmup: int = 0,
) -> np.recarray:
    """Simulate exactly ``peaks`` AoI peaks after ``warmup`` discarded ones.

    Returns a record array, one record per peak, with the fields ``k``
    (the peak's number, from ``warmup + 1``), ``peak``,
    ``received_service``, ``interreception``, ``preemptions`` and
    ``receive_time``.  ``peak = received_service + interreception``
    exactly; ``received_service`` is the service time of the update that
    ended the previous peak (the initial draw for the first peak), and
    ``preemptions`` counts the attempts dropped before this reception.

    Identical arguments reproduce the identical records.  The process
    regenerates at every reception, and no policy carries history across
    one, so every peak but the first has the same law.  The first differs:
    its carried service is the unconditioned initial draw, where every
    later peak carries a service time that completed within its threshold
    (``X | X <= theta``).  Any ``warmup >= 1`` drops it.
    """
    cols = _peak_range(d, policy, peaks, seed, stall_limit, warmup)
    k = np.arange(warmup + 1, warmup + peaks + 1)
    fields = "k,peak,received_service,interreception,preemptions,receive_time"
    return np.rec.fromarrays([k, *cols], names=fields)


def aoi_trajectory(
    d: ServiceDistribution,
    policy: Policy,
    horizon: float,
    seed: int,
    stall_limit: int = DEFAULT_STALL_LIMIT,
) -> np.recarray:
    """Sawtooth breakpoints of the AoI path for receptions up to ``horizon``.

    Returns a record array, one record per reception, with the fields
    ``time``, ``peak`` and ``reset_to``: AoI hits ``peak`` just before
    ``time`` and drops to ``reset_to``, the just-received update's service
    time.  Shares the event loop with :func:`simulate_peaks`, so the peaks
    read off the trajectory coincide with the simulated peak series for
    the same seed.  The loop runs up to the first reception past
    ``horizon``, whose carried service time is the last drop-to value.
    Raises :class:`ConfigError` as soon as the receptions so far, at their
    pace, project past 2**22 by the horizon.
    """
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    peak, received, _, _, times = _columns(d, policy, seed, stall_limit, horizon=horizon)
    n = int(np.searchsorted(times, horizon, side="right"))
    # a reception's drop-to value is the next peak's carried service time
    return np.rec.fromarrays([times[:n], peak[:n], received[1 : n + 1]], names="time,peak,reset_to")


def _with_ci95(mean: float, se: float, peak_count: int, seed: Optional[int]) -> PaoiEstimate:
    return PaoiEstimate(mean, se, mean - _Z95 * se, mean + _Z95 * se, peak_count, seed)


@_silent_overflow
def _batch_means(values: np.ndarray, seed: Optional[int] = None) -> PaoiEstimate:
    k = len(values)
    if k < 2:
        raise ValueError("need at least two peaks to estimate")
    nb = min(_BATCH_COUNT, k)
    m = k // nb
    batch_means = values[: nb * m].reshape(nb, m).mean(axis=1)
    se = float(batch_means.std(ddof=1) / math.sqrt(nb))
    return _with_ci95(float(values.mean()), se, k, seed)


def estimate_paoi(peaks: np.recarray, seed: Optional[int] = None) -> PaoiEstimate:
    """Batch-means estimate of the average PAoI from the ``peak`` field of
    a peak series, as :func:`simulate_peaks` returns it."""
    # a contiguous copy, summed as a replication's own peak column is
    return _batch_means(np.array(peaks.peak, dtype=float), seed)


def _estimate(d, policy, peaks, stall_limit, warmup, seed) -> PaoiEstimate:
    """The estimate of one replication, from its seed."""
    return _batch_means(_peak_range(d, policy, peaks, seed, stall_limit, warmup)[0], seed)


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
    job = partial(_estimate, d, policy, peaks, stall_limit, warmup)
    seeds = range(base_seed, base_seed + replications)
    if workers <= 1 or replications == 1:
        return list(map(job, seeds))
    # imported here: the pool's modules (multiprocessing, queue) cost every
    # command's start-up about 14 ms, and only a fanned-out run needs them
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(workers, replications)) as pool:
        return list(pool.map(job, seeds))


@_silent_overflow
def pooled_estimate(
    estimates: Sequence[PaoiEstimate], seed: Optional[int] = None
) -> PaoiEstimate:
    """Pool replication estimates: mean of means, standard errors combined
    in quadrature."""
    if not estimates:
        raise ValueError("nothing to pool")
    mean = float(np.mean([e.mean for e in estimates]))
    se = float(math.sqrt(sum(e.std_error**2 for e in estimates)) / len(estimates))
    return _with_ci95(mean, se, sum(e.peak_count for e in estimates), seed)
