"""Monte-Carlo simulation of the AoI sample path under preemptive requests.

The model is attempt-driven: after every reception a new request goes out
immediately (work conservation), each attempt either completes within its
threshold or is preempted at the threshold, and time advances by
``min(threshold, service)`` per attempt.  No event queue is needed for a
single source and server.

The loop draws blocks of 4096 service draws from one seed's service
stream, and each policy's engine steps on them, one or more blocks per
step.  Attempt ``i`` reads service draw ``i + 1`` and, under a randomized
policy, threshold draw ``i`` from the seed's second stream
(``draw_batch``, bit-equal to one ``draw`` per attempt).  Per step an
engine finds the receptions with one array comparison (a threshold
sequence with a head chases one pointer per peak through a table of where
each start position leads), sums each peak's dropped thresholds in the
order one attempt at a time would add them (a sequence's prefix sums are
built once per engine), and returns the step's peaks as columns, empty
when no reception falls in its draws.  A peak still open at the end of a
step carries its partial sum and drop count into the next one.  A step
in which every draw is a reception and no drop is carried in (as under
zero-wait) builds its columns from the draws alone: each
inter-reception time is its draw, and no drop is counted or added.  The
result equals the one-attempt-at-a-time loop bit for bit, however the
draws are cut into steps.  :func:`simulate_peaks` and
:func:`aoi_trajectory` return the series as NumPy record arrays, whose
field names are the CSV headers of the peak dump and the trajectory; each
record is copied once, from the columns of the step that found it.

Every run, of one policy or of several, goes through one lockstep loop:
every policy of a seed reads the same service draws, so the loop draws
one block of the seed's stream at a time and every policy's engine reads
each block.  An engine reads the blocks it has not read yet in one step,
on their concatenation, once they could hold its last peak or a stall
(or every block, up to a horizon), so a step costs its fixed overhead
once per such stretch and not once per block; a step on joined blocks
gives the bits of one step per block.  A step only reads its draws, so
the engines that step on the same stretch share one concatenation, and
a stretch of one block is that block.  An engine holds at most
``_MAX_UNREAD`` blocks unread and is dropped once it has its peaks or its
horizon, so memory stays at that many blocks and one step's arrays over
them, plus each running policy's columns.  :func:`simulate_peaks`,
:func:`aoi_trajectory` and :func:`run_replications` take one policy or a
sequence of them; a sequence runs as one lockstep (per seed, for
replications) and returns one result per policy, in policy order, each
equal to the one its policy gets alone.  The first stall, or trajectory
past its cap, that the lockstep meets raises, whichever policy it is
in.  A replication keeps only the peak column, so its steps build
only that column: each peak is still its carried service plus its
inter-reception time, one addition, but no reception time,
carried-service or drop-count column is built.

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
import numbers
from dataclasses import dataclass
from functools import partial
from typing import Optional, Sequence, Union

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
# blocks an engine may leave unread before its next step: a step on them
# builds arrays of this many blocks
_MAX_UNREAD = 16
# receptions one trajectory may hold: building one takes about 80 bytes a
# reception (4.1M receptions peaked at 0.36 GB resident)
_MAX_TRAJECTORY = 2**22


@dataclass(frozen=True)
class PaoiEstimate:
    """Sample-mean PAoI with a batch-means confidence interval.

    Consecutive peaks share a service term and are not independent, so
    the standard error comes from batch means rather than the i.i.d.
    formula.  ``ci_low`` and ``ci_high`` are ``mean -+ 1.96 * std_error``,
    and nan when the mean is not finite.
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


_NO_PEAKS = (np.empty(0), np.empty(0), np.empty(0), np.empty(0, dtype=np.intp), np.empty(0))
# the records of a peak series: k, then an engine step's columns
_PEAK_RECORD = np.dtype([("k", int), ("peak", float), ("received_service", float),
                         ("interreception", float), ("preemptions", np.intp),
                         ("receive_time", float)])
# trajectory field -> (peak field, shift): trajectory row i holds that field of
# peak i + shift, so a reception drops to the service the next peak carries
_TRAJECTORY_FIELDS = {"time": ("receive_time", 0), "peak": ("peak", 0),
                      "reset_to": ("received_service", 1)}
_TRAJECTORY_RECORD = np.dtype([(name, float) for name in _TRAJECTORY_FIELDS])


class _Engine:
    """The peak series of ``policy`` on one seed, one stretch of service
    draws per :meth:`step`, under the threshold sequence
    ``resolve(policy, d)`` or under thresholds drawn from the stream of
    ``ss_threshold``.  Checks its
    arguments at once, before any block is drawn.  A step returns the
    columns ``peak, received_service, interreception, preemptions,
    receive_time`` of the peaks received in its draws (empty if none), or
    with ``peaks_only`` the peak column alone.  A step that meets a stall
    returns the peaks before it, and the next step raises
    :class:`SimulationStall`, so a caller that stops first never sees it."""

    def __init__(self, d, policy, ss_threshold, stall_limit, peaks_only=False):
        if not isinstance(stall_limit, numbers.Integral):  # nan would never stall
            raise TypeError(f"stall_limit must be an integer, got {stall_limit!r}")
        if stall_limit < 1:  # the count is checked after a drop
            raise ValueError(f"stall_limit must be at least 1, got {stall_limit!r}")
        thresholds = _deliverable(d, policy)
        self.table = None if thresholds is None else np.array(thresholds, dtype=float)
        self.policy, self.stall_limit, self.peaks_only = policy, stall_limit, peaks_only
        if thresholds is None:  # only a randomized policy reads its threshold stream
            self.rng_threshold = np.random.default_rng(ss_threshold)
        self.prefix = np.zeros(1)  # of the sequence, see _prefix_sums
        self.x_prev = None  # the service the open peak carries; none before the first step
        self.now = 0.0
        self.y_open, self.drops_open = 0.0, 0  # the peak waiting for its reception
        self.stalled = False

    def could_end(self, draws, peaks):
        """Whether the next ``draws`` service draws could hold the
        ``peaks``-th peak from here or a stall: every peak reads at least
        one draw (the first step one more, the initial AoI), a stall needs
        ``stall_limit`` drops in a row, and a stalled engine raises on its
        next step."""
        return (
            self.stalled
            or draws >= peaks + (self.x_prev is None)
            or self.drops_open + draws >= self.stall_limit
        )

    def step(self, x):
        """The columns of the peaks received in the service draws ``x``,
        which follow the draws of the previous step."""
        if self.stalled:
            raise SimulationStall(
                f"{self.stall_limit} consecutive preemptions without a reception "
                f"under {self.policy!r}; is the threshold below the support?"
            )
        if self.x_prev is None:  # initial AoI: a packet is received at time zero
            self.x_prev, x = x[0], x[1:]
        table, size = self.table, len(x)
        if table is None:
            thetas = self.policy.sampler.draw_batch(self.rng_threshold, size)
            ends = (x <= thetas).nonzero()[0]  # reception wins the tie
        else:
            ends = _sequence_ends(x, table, self.drops_open)
        if size and len(ends) == size and not self.drops_open:
            # every draw a reception and no drop carried in (so y_open is
            # 0.0): each inter-reception time is its draw, and the service
            # each reception carries into the next peak is that draw too
            k, y, received_next, drops = size, 0.0 + x, x, np.zeros(size, dtype=np.intp)
        else:
            # drops[i]: the attempts peak i drops in this step; the last
            # peak is still open at its end
            drops = np.concatenate((ends, (size,)))
            drops[1:] -= ends + 1
            if table is None:
                y = _sampled_sums(thetas, self.y_open, ends, drops)
            else:
                self.prefix = _prefix_sums(self.prefix, table, drops.max())
                y = _sequence_sums(table, self.prefix, self.y_open, self.drops_open, drops)
            drops[0] += self.drops_open
            self.y_open, self.drops_open = y[-1], int(drops[-1])
            received_next = x[ends]
            y = y[:-1] + received_next
            self.stalled = drops.max() >= self.stall_limit
            k = int(np.argmax(drops >= self.stall_limit)) if self.stalled else len(ends)
            if not k:
                return _NO_PEAKS[:1] if self.peaks_only else _NO_PEAKS
        x_prev, self.x_prev = self.x_prev, received_next[k - 1]
        if self.peaks_only:
            peak = y[:k]  # a fresh array: add each carried service in place
            peak[0] += x_prev
            peak[1:] += received_next[: k - 1]
            return (peak,)
        received = np.empty(k)
        received[0] = x_prev
        received[1:] = received_next[: k - 1]
        times = np.empty(k + 1)
        times[0] = self.now
        times[1:] = y[:k]
        times = np.cumsum(times)[1:]
        self.now = times[-1]
        return received + y[:k], received, y[:k], drops[:k], times


# A draw, a sum or an estimate past the largest float reads inf silently,
# as Python's float arithmetic does; the state covers the whole block loop.
_silent_overflow = np.errstate(over="ignore", invalid="ignore")


@_silent_overflow
def _lockstep(d, policies, seed, stall_limit, peaks=math.inf, horizon=math.inf, peaks_only=False):
    """Per policy, in ``policies`` order, the columns of each step of its
    :class:`_Engine` on the stream of ``seed`` that received, in step
    order, up to the step that holds the policy's ``peaks``-th peak or its
    first reception past ``horizon``; a caller copies each row it keeps
    once, from its step (see :func:`_put_rows`).  ``peaks_only`` keeps the
    peak column alone, and only without a horizon: the reception times
    decide where a trajectory stops.

    The policies read one service stream in lockstep: the loop draws one
    block at a time and keeps it for every running engine, which steps on
    the blocks it has not read, joined, once :meth:`_Engine.could_end`
    holds for them or they reach ``_MAX_UNREAD`` (up to a horizon, on every
    block).  So each policy reads the draws it reads alone, and it has its
    last peak, and meets a stall, on the block where one step per block
    would.  A policy that is done is dropped, and no block past the last
    one's is drawn.  The first stall the steps meet raises, whichever
    policy it is in.  Up to a finite ``horizon``, raises
    :class:`ConfigError` as soon as a policy's receptions so far, at their
    pace, project past ``_MAX_TRAJECTORY`` by the horizon."""
    # two child streams, so that policies which do not randomize consume the
    # exact same service draws as a fixed-threshold run with the same seed
    ss_service, ss_threshold = np.random.SeedSequence(seed).spawn(2)
    rng = np.random.default_rng(ss_service)
    # every policy checked before the first draw
    engines = [_Engine(d, policy, ss_threshold, stall_limit, peaks_only) for policy in policies]
    parts = [[] for _ in policies]
    unread = [[] for _ in policies]
    have = [0] * len(policies)
    running = list(range(len(policies)))
    while running:
        x = np.asarray(d.sample_batch(rng, _DRAW_BLOCK), dtype=float)
        first = joined = None  # the first block and the join of the last stretch stepped on
        for i in running:
            unread[i].append(x)
            if not (
                horizon < math.inf
                or len(unread[i]) >= _MAX_UNREAD
                or engines[i].could_end(len(unread[i]) * _DRAW_BLOCK, peaks - have[i])
            ):
                continue
            stretch, unread[i] = unread[i], []
            if stretch[0] is not first:
                # every stretch ends at this block, so two that start at the
                # same block are one, and a step only reads its draws: the
                # engines that step on it share one join
                first = stretch[0]
                joined = first if len(stretch) == 1 else np.concatenate(stretch)
            cols = engines[i].step(joined)
            if not len(cols[0]):
                continue
            parts[i].append(cols)
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
    return parts


def _put_rows(field, parts, j, start):
    """Fill ``field`` with the rows of column ``j`` of the step columns
    ``parts`` from row ``start`` on, each copied once from its step."""
    at = -start  # where the next step's rows begin in field
    for cols in parts:
        column = cols[j]
        lo, hi = max(at, 0), min(at + len(column), len(field))
        if lo < hi:
            field[lo:hi] = column[lo - at : hi - at]
        at += len(column)


def _as_sequence(policy) -> tuple[tuple, bool]:
    """The policies of ``policy``, one policy or a sequence of them, and
    whether it is one policy."""
    one = not isinstance(policy, Sequence)
    return ((policy,) if one else tuple(policy)), one


def _check_range(peaks, warmup):
    """Reject a peak range that holds no peak or is not counted in integers."""
    for name, count in (("peaks", peaks), ("warmup", warmup)):
        if not isinstance(count, numbers.Integral):
            raise TypeError(f"{name} must be an integer, got {count!r}")
    if peaks < 1:
        raise ValueError("need at least one peak")
    if warmup < 0:
        raise ValueError("warmup must be nonnegative")


def simulate_peaks(
    d: ServiceDistribution,
    policy: Union[Policy, Sequence[Policy]],
    peaks: int,
    seed: int,
    stall_limit: int = DEFAULT_STALL_LIMIT,
    warmup: int = 0,
) -> Union[np.recarray, list[np.recarray]]:
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

    A sequence of policies runs as one lockstep and returns a list of
    record arrays in policy order, each the one its policy gets alone.
    """
    policies, one = _as_sequence(policy)
    _check_range(peaks, warmup)
    records = []
    for parts in _lockstep(d, policies, seed, stall_limit, peaks=warmup + peaks):
        rec = np.recarray(peaks, _PEAK_RECORD)
        rec["k"] = np.arange(warmup + 1, warmup + peaks + 1)
        for j, name in enumerate(_PEAK_RECORD.names[1:]):
            _put_rows(rec[name], parts, j, warmup)
        records.append(rec)
    return records[0] if one else records


def aoi_trajectory(
    d: ServiceDistribution,
    policy: Union[Policy, Sequence[Policy]],
    horizon: float,
    seed: int,
    stall_limit: int = DEFAULT_STALL_LIMIT,
) -> Union[np.recarray, list[np.recarray]]:
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

    A sequence of policies runs as one lockstep and returns a list of
    record arrays in policy order; the first stall or cap the lockstep
    meets raises, whichever policy it is in.
    """
    policies, one = _as_sequence(policy)
    if not 0 < horizon < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    points = []
    for parts in _lockstep(d, policies, seed, stall_limit, horizon=horizon):
        times = np.concatenate([cols[4] for cols in parts])
        rec = np.recarray(int(np.searchsorted(times, horizon, side="right")), _TRAJECTORY_RECORD)
        for name, (field, shift) in _TRAJECTORY_FIELDS.items():
            _put_rows(rec[name], parts, _PEAK_RECORD.names.index(field) - 1, shift)
        points.append(rec)
    return points[0] if one else points


def _with_ci95(mean: float, se: float, peak_count: int, seed: Optional[int]) -> PaoiEstimate:
    # a mean that overflowed has no interval: nan at both ends, where an
    # inf std_error would give ``inf - inf`` below and inf above
    half = _Z95 * se if math.isfinite(mean) else math.nan
    return PaoiEstimate(mean, se, mean - half, mean + half, peak_count, seed)


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
    estimates = []
    for parts in _lockstep(d, policies, seed, stall_limit, peaks=need, peaks_only=True):
        peak = parts[0][0] if len(parts) == 1 else np.concatenate([p for (p,) in parts])
        estimates.append(_batch_means(peak[warmup:need], seed))
    return estimates


def run_replications(
    d: ServiceDistribution,
    policy: Union[Policy, Sequence[Policy]],
    peaks: int,
    replications: int,
    base_seed: int,
    stall_limit: int = DEFAULT_STALL_LIMIT,
    warmup: int = 0,
    workers: int = 1,
) -> Union[list[PaoiEstimate], list[list[PaoiEstimate]]]:
    """Independent replications with seeds ``base_seed + i``, in seed order.

    One job is one seed for every policy (see :func:`_seed_estimates`), so
    a seed's policies share its service draws, and each reads them as if
    alone.  A sequence of policies returns a list of estimates per policy,
    in policy order.  ``workers > 1`` fans the seeds out to processes;
    results are reduced by seed, so the output never depends on the
    completion order.
    """
    if replications < 1:
        raise ValueError("need at least one replication")
    policies, one = _as_sequence(policy)
    _check_range(peaks, warmup)
    job = partial(_seed_estimates, d, policies, peaks, stall_limit, warmup)
    seeds = range(base_seed, base_seed + replications)
    if workers <= 1 or replications <= 1:
        rows = list(map(job, seeds))
    else:
        for policy in policies:  # one that never delivers raises before any worker starts
            _deliverable(d, policy)
        # imported here: the pool's modules (multiprocessing, queue) cost
        # every command's start-up about 14 ms, and only a fanned-out run
        # needs them
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, replications)) as pool:
            rows = list(pool.map(job, seeds))
    estimates = [[row[i] for row in rows] for i in range(len(policies))]
    return estimates[0] if one else estimates


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
