"""Monte-Carlo simulation of the AoI sample path under preemptive requests.

The model is attempt-driven: after every reception a new request goes out
immediately (work conservation), each attempt either completes within its
threshold or is preempted at the threshold, and time advances by
``min(threshold, service)`` per attempt.  No event queue is needed for a
single source and server.

The engine reads blocks of 4096 service draws from an iterator over one
seed's service stream.  Attempt ``i`` reads service draw ``i + 1`` and,
under a randomized policy, threshold draw ``i`` from the seed's second
stream (``draw_batch``, bit-equal to one ``draw`` per attempt).  Per block
it finds the receptions with one array comparison (a threshold sequence
with a head chases one pointer per peak through a table of where each
start position leads), sums each peak's dropped thresholds in the order one
attempt at a time would add them (a sequence's prefix sums are built once
per engine), and yields the block's peaks as columns, empty when no
reception falls in the block.  A peak still open at the block end carries
its partial sum and drop count into the next block.  The result equals the
one-attempt-at-a-time loop bit for bit.  :func:`simulate_peaks` and
:func:`aoi_trajectory` return the series as NumPy record arrays, whose
field names are the CSV headers of the peak dump and the trajectory.

Every run, of one policy or of several, goes through one lockstep loop:
every policy of a seed reads the same service draws, so each step draws
one block of the seed's stream and hands that same array to every
policy's engine, and an engine is dropped once it has its peaks or its
horizon, so memory stays at the step's block plus each running policy's
columns.  A single-policy run is a lockstep of one, and each policy's
records and estimate equal the ones it gets alone.  A replication keeps
only the peak column, so its steps build only that column: each peak is
still its carried service plus its inter-reception time, one addition, but
no reception time, carried-service or drop-count column is built.

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
        return (x <= table[0]).nonzero()[0]  # reception wins the tie
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


def _prefix_sums(prefix, table, n):
    """``prefix`` extended to at least ``n + 1`` entries: ``prefix[r]`` is
    the first ``r`` thresholds of the sequence ``table`` (its last entry
    repeating) added left to right, so an extension has the bits of a sum
    built from scratch.  Grows at least twofold, so that a run extends it
    a few times."""
    size = len(prefix)
    if n < size:
        return prefix
    ranks = np.arange(size - 1, max(n + 1, 2 * size) - 1)
    tail = np.cumsum(np.concatenate((prefix[-1:], table[np.minimum(ranks, len(table) - 1)])))
    return np.concatenate((prefix, tail[1:]))


def _sequence_sums(table, prefix, y_open, rank0, drops):
    """Per peak, the thresholds of its dropped attempts under the sequence
    ``table``, added left to right as the attempt loop adds them.  The first
    peak goes on from ``y_open`` at rank ``rank0``; every later one starts
    from 0.0 at rank 0, so its sum is an entry of ``prefix`` (see
    :func:`_prefix_sums`), which must cover every entry of ``drops``."""
    y = prefix[drops]
    y[0] = y_open
    if drops[0]:
        ranks = np.arange(rank0, rank0 + drops[0])
        tail = table[np.minimum(ranks, len(table) - 1)]
        y[0] = np.cumsum(np.concatenate((y[:1], tail)))[-1]
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


def _service_blocks(d: ServiceDistribution, rng: np.random.Generator) -> Iterator[np.ndarray]:
    """The endless service draws of one seed, in blocks of ``_DRAW_BLOCK``."""
    while True:
        yield np.asarray(d.sample_batch(rng, _DRAW_BLOCK), dtype=float)


def _engine(
    d: ServiceDistribution,
    policy: Policy,
    blocks: Iterator[np.ndarray],
    ss_threshold: np.random.SeedSequence,
    stall_limit: int,
    keep: Optional[int] = None,
) -> Iterator[tuple[np.ndarray, ...]]:
    """The endless peak series of ``policy`` on the service ``blocks``: per
    block, the columns ``peak, received_service, interreception,
    preemptions, receive_time`` of the peaks whose reception falls in it
    (empty columns if none), the first ``keep`` of them or all.  With
    ``keep == 1`` a step builds the peak column alone.  Checks its
    arguments at once; no block is read before the first step, and each
    step reads exactly one."""
    if stall_limit < 1:  # the count is checked after a drop
        raise ValueError(f"stall_limit must be at least 1, got {stall_limit!r}")
    thresholds = _deliverable(d, policy)
    table = None if thresholds is None else np.array(thresholds, dtype=float)
    rng_threshold = np.random.default_rng(ss_threshold)
    return _peak_blocks(policy, blocks, table, rng_threshold, stall_limit, keep)


_NO_PEAKS = (np.empty(0), np.empty(0), np.empty(0), np.empty(0, dtype=np.intp), np.empty(0))


def _peak_blocks(policy, blocks, table, rng_threshold, stall_limit, keep):
    """:func:`_engine`'s series under the threshold sequence ``table``, or
    under thresholds drawn from ``rng_threshold`` where ``table`` is None:
    a generator, so that its caller can check the arguments at once.  Each
    peak is its carried service plus its inter-reception time, one addition
    whichever columns a step builds."""
    prefix = np.zeros(1)  # of the sequence, see _prefix_sums
    draws = next(blocks)
    x_prev, x = draws[0], draws[1:]  # initial AoI: a packet is received at time zero
    now = 0.0
    y_open, drops_open = 0.0, 0  # the peak waiting for its reception
    while True:
        size = len(x)
        if table is None:
            thetas = policy.sampler.draw_batch(rng_threshold, size)
            ends = (x <= thetas).nonzero()[0]  # reception wins the tie
        else:
            ends = _sequence_ends(x, table, drops_open)
        # drops[i]: the attempts peak i drops in this block; the last peak
        # is still open at the block end
        drops = np.concatenate((ends, (size,)))
        drops[1:] -= ends + 1
        if table is None:
            y = _sampled_sums(thetas, y_open, ends, drops)
        else:
            prefix = _prefix_sums(prefix, table, drops.max())
            y = _sequence_sums(table, prefix, y_open, drops_open, drops)
        drops[0] += drops_open
        y_open, drops_open = y[-1], int(drops[-1])
        received_next = x[ends]  # the service each reception carries into the next peak
        y = y[:-1] + received_next
        stalled = drops.max() >= stall_limit
        k = int(np.argmax(drops >= stall_limit)) if stalled else len(ends)
        if not k:
            yield _NO_PEAKS[:keep]
        elif keep == 1:
            peak = y[:k]  # a fresh array: add each carried service in place
            peak[0] += x_prev
            peak[1:] += received_next[: k - 1]
            yield (peak,)
            x_prev = received_next[k - 1]
        else:
            received = np.empty(k)
            received[0] = x_prev
            received[1:] = received_next[: k - 1]
            times = np.empty(k + 1)
            times[0] = now
            times[1:] = y[:k]
            times = np.cumsum(times)[1:]
            yield (received + y[:k], received, y[:k], drops[:k], times)[:keep]
            x_prev, now = received_next[k - 1], times[-1]
        if stalled:
            raise SimulationStall(
                f"{stall_limit} consecutive preemptions without a reception "
                f"under {policy!r}; is the threshold below the support?"
            )
        x = next(blocks)


# A draw, a sum or an estimate past the largest float reads inf silently,
# as Python's float arithmetic does; the state covers the whole loop over an
# engine, not a block held open across its yield.
_silent_overflow = np.errstate(over="ignore", invalid="ignore")


@_silent_overflow
def _lockstep(d, policies, seed, stall_limit, peaks=math.inf, horizon=math.inf, keep=None):
    """Per policy, in ``policies`` order, the columns of :func:`_engine` on
    the stream of ``seed`` (the first ``keep`` of them, or all), each joined
    into one array, up to the block that holds the policy's ``peaks``-th
    peak or its first reception past ``horizon``.  Without a horizon the
    engines build only the kept columns; up to one they build all, since
    the reception times decide where each stops.

    The policies read one service stream in lockstep: each step draws one
    block and advances every running engine by one step, which reads that
    block, so each policy reads the draws it reads alone.  A policy that is
    done is dropped, and no block past the last one's is drawn.  The first
    stall the steps meet raises, whichever policy it is in.  Up to a finite
    ``horizon``, raises :class:`ConfigError` as soon as a policy's
    receptions so far, at their pace, project past ``_MAX_TRAJECTORY`` by
    the horizon."""
    # two child streams, so that policies which do not randomize consume the
    # exact same service draws as a fixed-threshold run with the same seed
    ss_service, ss_threshold = np.random.SeedSequence(seed).spawn(2)
    blocks = _service_blocks(d, np.random.default_rng(ss_service))
    block = None

    def step_blocks():  # what an engine reads: the block of the current step
        while True:
            yield block

    built = keep if horizon == math.inf else None
    engines = [  # every policy checked before the first draw
        _engine(d, policy, step_blocks(), ss_threshold, stall_limit, built) for policy in policies
    ]
    parts = [[] for _ in policies]
    have = [0] * len(policies)
    running = list(range(len(policies)))
    while running:
        block = next(blocks)
        for i in running:
            cols = next(engines[i])
            if not len(cols[0]):
                continue
            parts[i].append(cols[:keep])
            have[i] += len(cols[0])
            if have[i] >= peaks:
                engines[i] = None
            elif horizon < math.inf:
                t_last = cols[-1][-1]
                if t_last > horizon:
                    engines[i] = None
                elif have[i] > _MAX_TRAJECTORY * (t_last / horizon):
                    raise ConfigError(
                        f"a trajectory to time {horizon:g} needs more than {_MAX_TRAJECTORY} "
                        f"receptions under {policies[i]!r}: the first {have[i]} end by time "
                        f"{t_last:g}"
                    )
        running = [i for i in running if engines[i] is not None]
    return [[np.concatenate(c) for c in zip(*p)] for p in parts]


def _check_range(peaks, warmup):
    """Reject a peak range that holds no peak."""
    if peaks < 1:
        raise ValueError("need at least one peak")
    if warmup < 0:
        raise ValueError("warmup must be nonnegative")


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
    _check_range(peaks, warmup)
    (cols,) = _lockstep(d, (policy,), seed, stall_limit, peaks=warmup + peaks)
    k = np.arange(warmup + 1, warmup + peaks + 1)
    fields = "k,peak,received_service,interreception,preemptions,receive_time"
    return np.rec.fromarrays([k, *(c[warmup : warmup + peaks] for c in cols)], names=fields)


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
    ((peak, received, _, _, times),) = _lockstep(d, (policy,), seed, stall_limit, horizon=horizon)
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


def _seed_estimates(d, policies, peaks, stall_limit, warmup, seed) -> list[PaoiEstimate]:
    """The estimate of every policy at ``seed``, in ``policies`` order: the
    batch means of its peaks after ``warmup``, from a lockstep run (see
    :func:`_lockstep`) that keeps only the peak column."""
    need = warmup + peaks
    runs = _lockstep(d, policies, seed, stall_limit, peaks=need, keep=1)
    return [_batch_means(peak[warmup:need], seed) for (peak,) in runs]


def _replications(
    d, policies, peaks, replications, base_seed, stall_limit, warmup, workers
) -> list[list[PaoiEstimate]]:
    """Per policy, the estimates of seeds ``base_seed + i`` for ``i`` below
    ``replications``, in seed order; none for no replication.

    One job is one seed for every policy (see :func:`_seed_estimates`).
    ``workers > 1`` fans the seeds out to processes; results are reduced
    by seed, so the output never depends on the completion order.
    """
    _check_range(peaks, warmup)
    job = partial(_seed_estimates, d, tuple(policies), peaks, stall_limit, warmup)
    seeds = range(base_seed, base_seed + replications)
    if workers <= 1 or replications <= 1:
        rows = list(map(job, seeds))
    else:
        # imported here: the pool's modules (multiprocessing, queue) cost
        # every command's start-up about 14 ms, and only a fanned-out run
        # needs them
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, replications)) as pool:
            rows = list(pool.map(job, seeds))
    return [[row[i] for row in rows] for i in range(len(policies))]


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
    completion order.  Each replication equals the one that
    ``simulate`` runs for ``policy`` among other policies: a seed's
    policies share its service draws, and each reads them as if alone.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    (estimates,) = _replications(
        d, (policy,), peaks, replications, base_seed, stall_limit, warmup, workers
    )
    return estimates


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
