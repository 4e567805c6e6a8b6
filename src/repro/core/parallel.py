"""The parallel hashed oct-tree N-body code, on SimMPI.

This module reassembles the full HOT pipeline of Section 4.2:

1. **Key assignment & parallel sort** — every rank keys its particles
   (global bounding box agreed by allreduce), samples splitter
   candidates, and the ranks agree on key-space splitters; an alltoall
   moves each particle to its owner.  This is the "domain decomposition
   … practically identical to a parallel sorting algorithm".
2. **Branch cells** — each rank computes the coarsest cells fully
   inside its key range (:func:`~repro.core.cellserver.cover_interval`)
   and the ranks allgather those cells' multipoles; everyone assembles
   the shared top of the global tree ("frame") by parallel-axis
   aggregation.
3. **Traversal with deferral** — each rank keeps one struct-of-arrays
   cell table (:class:`~repro.core.cellserver.CellRows`: its local
   subtree, the frame, and every remote row fetched so far) and walks
   *all* its sink groups together: one shared frontier of (group, key)
   pairs per pass, one vectorized MAC test over every pair, accepted
   cells and direct leaves filed into CSR lists — the serial
   :func:`~repro.core.traversal.build_interaction_lists` machinery on
   the parallel tree.  A key the table lacks does not stall the walk:
   its group is parked and the round's misses are *batched per
   destination*; other groups keep walking.  Replies (rows, with
   particles for leaves) are appended to the table, a
   :class:`~repro.core.cellcache.CellCache` maps their keys to row
   indices, and parked groups resume.
4. **Evaluation** — interaction lists are evaluated with the same
   vectorized monopole+quadrupole / direct kernels as the serial code.

Two communication schedules drive step 3, selected by
``ParallelConfig.comm``:

``"async"`` (default)
    The latency-hiding schedule the paper's HOT library uses over
    commodity networks.  Outstanding misses are deduplicated into one
    coalesced request batch per owner and sent with nonblocking
    point-to-point messages
    (:func:`~repro.simmpi.patterns.batched_request_reply`); while the
    requests are on the wire, the rank *evaluates the force kernels of
    every group that already completed its walk* — computation covers
    communication.  Replies land in a persistent
    :class:`~repro.core.cellcache.CellCache` that survives rounds (and,
    in the multi-step driver, timesteps), and a locally-essential-tree
    prefetch (:attr:`ParallelConfig.prefetch`) MAC-tests the domain
    boundary to bulk-fetch likely-needed cells before the walk starts.

``"blocking"``
    The bulk-synchronous reference: each round is an alltoall of
    request batches, a serve step, and an alltoall of replies
    (:class:`~repro.core.abm.ABMChannel`), with all evaluation *after*
    the exchange.  Kept for differential testing — both schedules
    produce bit-identical accelerations and interaction counts, the
    same convention PR 4 established for kernel backends.

Because a cell's leaf-or-internal status depends only on its *global*
particle count, every rank derives the same virtual global tree, and
the result approximates the serial treecode to within MAC error for
any number of ranks.

Virtual time: compute segments charge the cost model with the real
interaction counts (38 flops per particle-particle, 70 per
particle-cell — the paper's accounting), so
:class:`~repro.simmpi.engine.SimResult` timings are meaningful and feed
the Table 6 benchmark.

Resilience: the rank program optionally carries a
:class:`~repro.resilience.checkpoint.Checkpointer`.  Right after the
particle exchange — the point where the expensive-to-recreate
*distributed* state (sorted keyed particles plus the splitter
agreement) first exists — each rank dumps that state through the
two-phase checkpoint store.  On an injected node crash
(:class:`~repro.simmpi.faults.RankFailedError`), the restart loop in
:mod:`repro.resilience.runner` relaunches the program, which restores
the decomposition from its committed snapshot and redoes only the
traversal.  Because the traversal is a deterministic function of that
state, the recovered accelerations are **bit-for-bit identical** to the
fault-free run's — the property ``tests/test_cross_consistency.py``
pins.

Multiple timesteps: :func:`parallel_nbody_run` integrates the system
through ``n_steps`` kick–drift steps inside one SimMPI run, reusing the
remote-cell cache across steps (entries are invalidated by branch
fingerprint when an owner's subtree changes) and *incrementally*
rebalancing the domain boundaries from the measured per-particle
interaction work of the previous step
(:func:`~repro.core.domain.splitter_candidates`) — the paper's
work-weighted decomposition fed by real measurements instead of uniform
weights.
"""

from __future__ import annotations

import bisect
import math
import tempfile
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from ..obs import Recorder
from ..simmpi.api import MAX as MPI_MAX
from ..simmpi.api import MIN as MPI_MIN
from ..simmpi.cost import CostModel
from ..simmpi.engine import SimResult, run
from ..simmpi.faults import FaultPlan
from ..simmpi import patterns as mpi_patterns
from ..simmpi.patterns import batched_request_reply

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (resilience -> core)
    from ..resilience.checkpoint import Checkpointer
    from ..resilience.runner import ResilienceConfig, ResilientResult
from .abm import ABMChannel
from .backend import get_backend
from .cellcache import CellCache
from .cellserver import (
    CellRecord,
    CellRows,
    CellServer,
    _dot_rows,
    _interval_starts,
    _mask_children,
    combine_records,
    cover_interval,
    key_interval,
)
from .domain import merge_splitter_candidates, splitter_candidates
from .keys import ROOT_KEY, BoundingBox, key_level, keys_from_positions
from .mac import OpeningAngleMAC
from ..obs.wallclock import bucket as _wall_bucket
from .traversal import (
    DEFAULT_PAIR_CHUNK,
    FLOPS_PER_CELL_INTERACTION,
    InteractionCounts,
)
from ..machine.specs import FLOPS_PER_INTERACTION

__all__ = [
    "ParallelConfig",
    "ParallelGravityResult",
    "ParallelRunResult",
    "parallel_tree_accelerations",
    "parallel_nbody_run",
]

_MIN_PKEY = 1 << 63
_END_PKEY = 1 << 64

#: Modeled flop cost of one MAC evaluation during list construction.
FLOPS_PER_MAC_TEST = 12.0

#: Base tag of the traversal's batched request/reply rounds (prefetch
#: waves use ``_FETCH_TAG + 10`` so traces distinguish the phases).
_FETCH_TAG = 7_200


@dataclass(frozen=True)
class ParallelConfig:
    """Tunables of the parallel treecode.

    Parameters
    ----------
    theta:
        Opening angle of the multipole acceptance criterion
        (dimensionless, in (0, 1]; smaller is more accurate and more
        expensive).
    eps:
        Plummer softening length, in position units (finite, >= 0).
    G:
        Gravitational constant (sets the unit system; accelerations
        come out in ``G * mass / length**2`` units).
    bucket_size:
        Maximum particles per leaf of the global virtual tree.
    oversample:
        Splitter samples per rank in the parallel sample sort.
    kernel_efficiency:
        Fraction of machine peak the force inner loops sustain; scales
        every modeled compute charge (Table 6 calibration knob).
    max_rounds:
        Safety bound on traversal request/reply rounds (>= 1).
    backend:
        Kernel backend name (``None`` -> ``$REPRO_BACKEND``/numpy).
    eval:
        Force-evaluation strategy for completed walks: ``"batched"``
        (default) concatenates every ready group's interaction list
        into flat CSR rectangles and issues **one** cell and one
        direct kernel call per round — the shape the ``numba`` and
        ``multiprocess`` backends accelerate; ``"pergroup"`` issues
        one dense call of each kind per group over the same CSR lists,
        kept as the differential reference.  Both charge identical
        virtual time (same flop/byte totals) and agree to float
        tolerance.
    comm:
        Communication schedule for the traversal: ``"async"``
        (latency-hiding batched nonblocking messages, the default) or
        ``"blocking"`` (bulk-synchronous ABM reference).  Both produce
        bit-identical physics.
    prefetch:
        Enable the locally-essential-tree prefetch before the walk
        (``"async"`` schedule only).
    prefetch_rounds:
        Maximum prefetch waves (each wave descends one tree level along
        the domain boundary).
    cache_capacity:
        Entry bound of the remote-cell :class:`CellCache`; ``None`` is
        unbounded.  Eviction is applied at round boundaries, after the
        walk has read the round's replies; a bound below the working
        set costs extra requests, never correctness.
    """

    theta: float = 0.6
    eps: float = 0.05
    G: float = 1.0
    bucket_size: int = 32
    oversample: int = 16
    kernel_efficiency: float = 0.25  # fraction of peak the inner loop sustains
    max_rounds: int = 200
    #: Kernel backend name (``None`` -> ``$REPRO_BACKEND``/numpy).
    backend: str | None = None
    eval: str = "batched"
    comm: str = "async"
    prefetch: bool = True
    prefetch_rounds: int = 8
    cache_capacity: int | None = None

    def __post_init__(self) -> None:
        # Checked here, before any rank starts: a NaN softening would
        # otherwise yield all-NaN forces silently, and a bad theta would
        # only raise inside the rank programs after decomposition.
        if not 0.0 < self.theta <= 1.0:
            raise ValueError(f"theta must be in (0, 1], got {self.theta}")
        if not (math.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if self.bucket_size < 1 or self.oversample < 1:
            raise ValueError("invalid configuration")
        if not 0 < self.kernel_efficiency <= 1:
            raise ValueError("kernel_efficiency must be in (0, 1]")
        if self.eval not in ("batched", "pergroup"):
            raise ValueError("eval must be 'batched' or 'pergroup'")
        if self.comm not in ("async", "blocking"):
            raise ValueError("comm must be 'async' or 'blocking'")
        if self.prefetch_rounds < 0:
            raise ValueError("prefetch_rounds must be >= 0")
        if self.cache_capacity is not None and self.cache_capacity < 1:
            raise ValueError("cache_capacity must be positive or None")
        if self.backend is not None:
            get_backend(self.backend)  # fail fast on unknown names


@dataclass
class ParallelGravityResult:
    """Assembled output of a parallel force calculation."""

    accelerations: np.ndarray
    potentials: np.ndarray
    counts: InteractionCounts
    sim: SimResult
    #: Restart bookkeeping when the run executed under a fault plan.
    resilience: "ResilientResult | None" = None
    #: Aggregated communication-layer statistics (requests, batches,
    #: rounds, cache hit/miss/eviction counters, prefetch accuracy),
    #: summed over ranks.
    comm: dict[str, float] = field(default_factory=dict)

    @property
    def mflops_per_proc(self) -> float:
        """Achieved Mflop/s per processor in virtual time (Table 6's metric)."""
        p = len(self.sim.clocks)
        if self.sim.elapsed == 0:
            return 0.0
        return self.counts.flops / (p * self.sim.elapsed) / 1e6


@dataclass
class ParallelRunResult:
    """Assembled output of a multi-timestep parallel N-body run."""

    #: Final particle state, in input order.
    positions: np.ndarray
    velocities: np.ndarray
    #: Accelerations of the last force evaluation, in input order.
    accelerations: np.ndarray
    #: Per-step accelerations (one ``(N, 3)`` array per step, input order).
    step_accelerations: list[np.ndarray]
    #: Interaction totals summed over all steps.
    counts: InteractionCounts
    sim: SimResult
    #: Aggregated communication statistics, summed over ranks and steps.
    comm: dict[str, float] = field(default_factory=dict)
    #: Per-step work imbalance: max over ranks of measured interaction
    #: work divided by the mean (1.0 is perfect balance).
    work_imbalance: list[float] = field(default_factory=list)


#: Identity-keyed memo for :func:`_frame_from_rows`.  Entries keep a
#: strong reference to their row batches, so a cached id can never be
#: recycled by a new object; collective semantics bound the number of
#: batch sets live at once (ranks cannot run more than one step apart),
#: hence the tiny capacity.
_FRAME_MEMO: dict[tuple, tuple] = {}
_FRAME_MEMO_CAP = 4


@dataclass(frozen=True)
class _Frame:
    """The shared top of the global tree plus every rank's branch cells.

    Read-only and shared by all ranks of a step: a rank's cell table
    numbers these rows first and its own rows after them.
    """

    #: Every frame cell: the aggregated shared top and all branches.
    rows: CellRows
    #: Owning rank of each row of ``rows``; -1 for the shared top.
    owner: np.ndarray
    #: Lookup kind of each row (a branch is a remote cell to every
    #: rank but its owner, whose own rows shadow it).
    kind: np.ndarray
    #: Sorted keys of ``rows`` and the row of each.
    index_keys: np.ndarray
    index_rows: np.ndarray
    #: Branch keys ordered by interval start, and those starts.
    branch_keys: np.ndarray
    branch_los: np.ndarray


def _frame_from_rows(all_rows: list[CellRows]) -> _Frame:
    """The frame for one allgathered set of branch rows.

    On a real machine every rank assembles the frame from its own copy
    of the allgathered branch cells.  In the one-process simulation the
    engine hands every rank references to the *same* per-owner batch
    objects, and the frame is a pure function of them — so it is
    computed once and shared.  Safe because the frame is read-only
    after construction, and it turns an O(P) replicated build into
    O(1) per rank — the difference between minutes and hours at
    P = 2560.
    """
    memo_key = tuple(map(id, all_rows))
    hit = _FRAME_MEMO.get(memo_key)
    if hit is not None:
        return hit[1]
    owners: dict[int, int] = {}
    branch_records: list[CellRecord] = []
    for owner_rank, rows in enumerate(all_rows):
        for i in range(len(rows)):
            rec = rows.record(i)
            owners[rec.key] = owner_rank
            branch_records.append(rec)
    frame = _build_frame(branch_records, owners)
    rows = CellRows.from_records(list(frame.values()))
    owner = np.array([owners.get(k, -1) for k in frame], dtype=np.int64)
    order = np.argsort(rows.key)
    branch_keys = np.array(sorted(owners, key=lambda k: key_interval(k)[0]), dtype=np.uint64)
    result = _Frame(
        rows=rows,
        owner=owner,
        kind=np.where(owner >= 0, _BRANCH, _LOCAL).astype(np.int8),
        index_keys=rows.key[order],
        index_rows=order,
        branch_keys=branch_keys,
        branch_los=_interval_starts(branch_keys)[2],
    )
    _FRAME_MEMO[memo_key] = (list(all_rows), result)
    while len(_FRAME_MEMO) > _FRAME_MEMO_CAP:
        del _FRAME_MEMO[next(iter(_FRAME_MEMO))]
    return result


def _build_frame(branch_records: list[CellRecord], owners: dict[int, int]) -> dict[int, CellRecord]:
    """Aggregate branch cells upward to the root; returns key -> record.

    Branch keys themselves are included with the children their owners
    reported; descending into a remote branch's children is what
    triggers a remote request.
    """
    frame: dict[int, CellRecord] = {r.key: r for r in branch_records}
    if not branch_records:
        raise ValueError("no branch records; empty simulation?")
    # Aggregate level by level from the deepest branch upward.
    current = {r.key: r for r in branch_records}
    while True:
        deepest = max(key_level(k) for k in current)
        if deepest == 0:
            break
        parents: dict[int, list[CellRecord]] = {}
        next_current: dict[int, CellRecord] = {}
        for k, rec in current.items():
            lvl = key_level(k)
            if lvl == deepest:
                parents.setdefault(k >> 3, []).append(rec)
            else:
                next_current[k] = rec
        for pk, kids in parents.items():
            if pk in next_current:
                # A shallower branch sharing this key cannot happen
                # (branch intervals are disjoint), but guard anyway.
                kids.append(next_current[pk])
            merged = combine_records(pk, kids)
            frame[pk] = merged
            next_current[pk] = merged
        current = next_current
    if ROOT_KEY not in frame:
        raise RuntimeError("frame aggregation failed to reach the root")
    return frame


class _RemoteStore:
    """A rank's remote-cell cache and the rows its entries index.

    Persists across the timesteps of one run: the cache maps a remote
    key to a row of ``rows`` (the rank's own rows of the last step), and
    each traversal starts by carrying the rows still cached over.
    """

    def __init__(self, capacity: int | None):
        self.cache = CellCache(capacity)
        self.rows: CellRows | None = None


#: Row kinds of a rank's cell table.  Lookups of ``_REMOTE`` rows count
#: as cache hits, lookups of ``_BRANCH`` rows (a remote branch known
#: only from the allgather) and of absent keys as misses.
_LOCAL, _REMOTE, _BRANCH = 0, 1, 2


def _runs(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ``arange(start, start + length)`` runs."""
    ends = np.cumsum(lengths)
    out = np.arange(int(ends[-1]) if ends.size else 0, dtype=np.int64)
    out += np.repeat(starts - (ends - lengths), lengths)
    return out


def _dedupe_last(keys: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique keys, each with the row given last for it."""
    order = np.argsort(keys, kind="stable")
    keys, rows = keys[order], rows[order]
    last = np.ones(keys.size, dtype=bool)
    last[:-1] = keys[1:] != keys[:-1]
    return keys[last], rows[last]


def _search(index_keys: np.ndarray, index_rows: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Row of each key in a sorted key index, -1 where absent."""
    if not index_keys.size:
        return np.full(keys.shape, -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(index_keys, keys), index_keys.size - 1)
    return np.where(index_keys[at] == keys, index_rows[at], -1)


class _CellTable:
    """One rank's struct-of-arrays view of the global tree.

    Rows ``[0, n_frame)`` are the step's shared :class:`_Frame` (never
    copied per rank); rows from ``n_frame`` on are the rank's own: its
    local subtree, then every remote row it has fetched.  Keys resolve
    through the rank's own sorted index first (local and cached rows),
    then the frame's, so a local or fetched row shadows the frame's
    copy of the same cell.
    """

    def __init__(self, frame: _Frame, own: CellRows, n_local: int,
                 cached_keys: np.ndarray):
        self.frame = frame
        self.n_frame = len(frame.rows)
        self.own = own
        self.kind = np.full(len(own), _REMOTE, dtype=np.int8)
        self.kind[:n_local] = _LOCAL
        #: Fetched by the prefetch and not yet read by the walk.
        self.prefetched = np.zeros(len(own), dtype=bool)
        self.n_local = n_local
        self.reindex(cached_keys, np.arange(n_local, len(own), dtype=np.int64))

    def reindex(self, cached_keys: np.ndarray, cached_rows: np.ndarray) -> None:
        """Rebuild the own index from the local rows plus cached rows."""
        keys = np.concatenate([self.own.key[:self.n_local], cached_keys])
        rows = np.concatenate([np.arange(self.n_local, dtype=np.int64), cached_rows])
        self.index_keys, self.index_rows = _dedupe_last(keys, rows + self.n_frame)

    def append(self, batches: list[CellRows]) -> np.ndarray:
        """Add fetched rows; returns their table rows."""
        base = len(self.own)
        self.own = CellRows.concat([self.own] + batches)
        new = np.arange(base, len(self.own), dtype=np.int64)
        self.kind = np.concatenate([self.kind, np.full(new.size, _REMOTE, dtype=np.int8)])
        self.prefetched = np.concatenate([self.prefetched, np.zeros(new.size, dtype=bool)])
        self.index_keys, self.index_rows = _dedupe_last(
            np.concatenate([self.index_keys, self.own.key[new]]),
            np.concatenate([self.index_rows, new + self.n_frame]))
        return new + self.n_frame

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Table row of each key, -1 where the rank knows no such cell."""
        rows = _search(self.index_keys, self.index_rows, keys)
        miss = rows < 0
        if miss.any():
            rows[miss] = _search(self.frame.index_keys, self.frame.index_rows, keys[miss])
        return rows

    def gather(self, rows: np.ndarray, *names: str) -> list[np.ndarray]:
        """Columns ``names`` (``"kind"`` included) at table rows ``rows``."""
        n = self.n_frame
        shared = rows < n
        sources = [(self.frame.kind, self.kind) if c == "kind" else
                   (getattr(self.frame.rows, c), getattr(self.own, c)) for c in names]
        if not shared.any():
            return [mine[rows - n] for _, mine in sources]
        if shared.all():
            return [theirs[rows] for theirs, _ in sources]
        fr, ow = rows[shared], rows[~shared] - n
        out = []
        for theirs, mine in sources:
            col = np.empty((rows.size,) + theirs.shape[1:], dtype=theirs.dtype)
            col[shared] = theirs[fr]
            col[~shared] = mine[ow]
            out.append(col)
        return out


def _run_traversal(
    comm,
    config: ParallelConfig,
    kb,
    server: CellServer,
    frame: _Frame,
    branch_keys_mine: list[int],
    splitters: list[int],
    pos: np.ndarray,
    mass: np.ndarray,
    remote: _RemoteStore,
    branch_fps: dict[int, bytes] | None = None,
):
    """Tree traversal + force evaluation for one rank's particles.

    A generator to be delegated from a rank program.  Returns
    ``(acc, pot, counts, work, stats)`` where ``work`` is the measured
    per-particle interaction flops (the weight the next step's
    incremental rebalancing consumes) and ``stats`` the rank-local
    communication counters.

    The rank's cells live in one :class:`_CellTable`.  All pending sink
    groups walk together in one shared frontier of (group, key) pairs:
    a pass resolves every key with a sorted-index search, MAC-tests
    every resolved pair at once, and files the pairs into CSR cell and
    direct lists.  A key the table lacks parks its group until the
    round's request batch brings the row.

    The interaction list of every sink group is a pure function of the
    global tree and the group geometry, and evaluation order within a
    group is fixed by sorting rows on key — so the ``"async"`` and
    ``"blocking"`` schedules (and any cache state) produce bit-identical
    ``acc``/``pot``/``counts``.
    """
    rank, size = comm.rank, comm.size
    n_owned = pos.shape[0]
    mac = OpeningAngleMAC(config.theta)
    eps2 = config.eps * config.eps
    cache = remote.cache
    bounded = cache.capacity is not None
    stats: dict[str, float] = {
        "rounds": 0, "requests": 0, "batches": 0,
        "prefetch_rounds": 0, "prefetch_fetched": 0, "prefetch_used": 0,
    }

    # -- the cell table: the shared frame, the local subtree, then the
    # remote rows the cache carried over from the last step ------------
    local = server.subtree_rows(branch_keys_mine)
    carried = list(cache.items())
    kept = remote.rows.take([row for _, row in carried]) if carried else CellRows.empty()
    remote.rows = None
    cache.relabel({key: len(local) + i for i, (key, _) in enumerate(carried)})
    table = _CellTable(frame, CellRows.concat([local, kept]), len(local),
                       np.array([key for key, _ in carried], dtype=np.uint64))
    del carried, kept
    n_frame = table.n_frame

    def admit(batches: list, prefetch: bool = False) -> np.ndarray:
        """Append reply rows to the table and the cache; returns their rows."""
        batches = [b for b in batches if b is not None and len(b)]
        if not batches:
            return np.empty(0, dtype=np.int64)
        new = table.append(batches)
        table.prefetched[new - n_frame] = prefetch
        keys = table.own.key[new - n_frame]
        at = np.maximum(np.searchsorted(frame.branch_los, _interval_starts(keys)[2],
                                        side="right") - 1, 0)
        bkeys = frame.branch_keys[at].tolist()
        fps = [b""] * new.size if branch_fps is None else [branch_fps.get(b, b"") for b in bkeys]
        cache.insert_many(keys.tolist(), (new - n_frame).tolist(), bkeys, fps)
        return new

    def settle() -> None:
        """Round boundary: apply the cache's capacity bound."""
        if cache.trim():
            items = list(cache.items())
            table.reindex(np.array([k for k, _ in items], dtype=np.uint64),
                          np.array([r for _, r in items], dtype=np.int64))

    def owner_of(key: int) -> int:
        ilo, _ = key_interval(key)
        return min(bisect.bisect_right(splitters, ilo) - 1, size - 1)

    def requests_by_owner(keys) -> list[list[int]]:
        reqs: list[list[int]] = [[] for _ in range(size)]
        for k in keys:
            reqs[owner_of(k)].append(k)
        return reqs

    local_order = np.argsort(local.key)
    local_sorted = local.key[local_order]

    def serve_batch(requester: int, items: list[Any]) -> CellRows:
        with _wall_bucket("serialization"):
            want = np.array(items, dtype=np.uint64)
            at = np.minimum(np.searchsorted(local_sorted, want), max(local_sorted.size - 1, 0))
            if local_sorted.size and np.array_equal(local_sorted[at], want):
                return local.take(local_order[at])
            return server.rows(want)  # cells this rank holds no particles of

    acc = np.zeros((n_owned, 3))
    pot = np.zeros(n_owned)
    work = np.zeros(n_owned)
    counts = InteractionCounts()

    # -- sink groups: the local leaves, in particle order -----------------
    leaves = np.flatnonzero(local.is_leaf & (local.count > 0))
    g_local = leaves[np.argsort(local.start[leaves], kind="stable")]
    g_key = local.key[g_local]
    g_start = local.start[g_local]
    g_ns = local.stop[g_local] - g_start
    n_groups = g_local.size
    g_com = np.zeros((n_groups, 3))
    g_bmax = np.zeros(n_groups)
    for g in range(n_groups):
        sinks = pos[g_start[g]:g_start[g] + g_ns[g]]
        g_com[g] = sinks.mean(axis=0)
        g_bmax[g] = float(np.linalg.norm(sinks - g_com[g], axis=1).max())

    # Accepted (group, row) pairs of groups not evaluated yet.
    cell_pairs: list[tuple[np.ndarray, np.ndarray]] = []
    direct_pairs: list[tuple[np.ndarray, np.ndarray]] = []

    def walk(fg: np.ndarray, fk: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Advance every frontier pair until the frontier drains.

        Returns the parked ``(group, key)`` pairs — keys the table lacks
        and remote branches the MAC opens — and the MAC-test count.
        """
        wait_g: list[np.ndarray] = []
        wait_k: list[np.ndarray] = []
        tests = hits = misses = 0
        touched: list[int] = []
        while fg.size:
            rows = table.lookup(fk)
            found = rows >= 0
            if not found.all():
                wait_g.append(fg[~found])
                wait_k.append(fk[~found])
                misses += int(fg.size - found.sum())
                fg, rows = fg[found], rows[found]
            kind, count = table.gather(rows, "kind", "count")
            misses += int(np.count_nonzero(kind == _BRANCH))
            hit_rows = rows[kind == _REMOTE] - n_frame
            if hit_rows.size:
                hits += hit_rows.size
                first_use = np.unique(hit_rows[table.prefetched[hit_rows]])
                stats["prefetch_used"] += first_use.size
                table.prefetched[first_use] = False
                if bounded:
                    touched.extend(table.own.key[hit_rows].tolist())
            live = count > 0
            fg, rows = fg[live], rows[live]
            tests += rows.size
            com, bmax, cmass, key = table.gather(rows, "com", "bmax", "mass", "key")
            d = com - g_com[fg]
            dist = np.sqrt(np.einsum("ij,ij->i", d, d))
            ok = mac.accept(dist, bmax, g_bmax[fg], cmass)
            ok &= key != g_key[fg]  # never approximate the group by itself
            cell_pairs.append((fg[ok], rows[ok]))
            fg, rows, key = fg[~ok], rows[~ok], key[~ok]
            start, stop, is_leaf, mask = table.gather(rows, "start", "stop", "is_leaf", "mask")
            payload = stop > start
            direct_pairs.append((fg[payload], rows[payload]))
            opens = ~payload & ~is_leaf & (mask != 0)
            # Anything else is a remote branch known only by its
            # multipole: the MAC wants to open it, so its real row
            # (children or particles) must be fetched — park on it.
            parked = ~payload & ~opens
            wait_g.append(fg[parked])
            wait_k.append(key[parked])
            which, fk = _mask_children(key[opens], mask[opens])
            fg = fg[opens][which]
        if bounded:
            cache.count_lookups(hits, misses, dict.fromkeys(touched))
        else:
            cache.count_lookups(hits, misses)
        empty = np.empty(0, dtype=np.int64)
        wg = np.concatenate(wait_g) if wait_g else empty
        wk = np.concatenate(wait_k) if wait_k else empty.astype(np.uint64)
        return wg, wk, tests

    def take_ready(pairs: list, ready: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Remove and return the pairs of ``ready`` groups, sorted by
        (group, key): the canonical evaluation order."""
        if not pairs:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        g = np.concatenate([p[0] for p in pairs])
        r = np.concatenate([p[1] for p in pairs])
        sel = ready[g]
        pairs[:] = [(g[~sel], r[~sel])]
        g, r = g[sel], r[sel]
        order = np.lexsort((table.gather(r, "key")[0], g))
        return g[order], r[order]

    pos3_owned = np.ascontiguousarray(pos.T) if n_owned else np.zeros((3, 0))

    def evaluate(ready: np.ndarray) -> tuple[float, float]:
        """Evaluate the interaction lists of the ``ready`` groups; returns
        the (flops, bytes) to charge the cost model.

        ``eval="batched"`` issues one cell and one direct kernel call
        over flat CSR rectangles for the whole set; ``"pergroup"`` one
        dense call of each kind per group.  A rectangle's per-sink
        result is independent of the batch it is evaluated in (backend
        contract), and each sink group completes in exactly one batch,
        so accelerations stay bit-identical across comm schedules, cache
        states and round boundaries.
        """
        counts.groups += int(np.count_nonzero(ready))
        cg, cr = take_ready(cell_pairs, ready)
        dg, dr = take_ready(direct_pairs, ready)
        c_groups, c_first, c_width = np.unique(cg, return_index=True, return_counts=True)
        c_offs = np.append(c_first, cg.size)
        com, cmass, quad = table.gather(cr, "com", "mass", "quad")
        own = table.own
        dr = dr - n_frame  # direct sources are always own rows (they carry particles)
        d_len = own.stop[dr] - own.start[dr]
        d_groups, d_first = np.unique(dg, return_index=True)
        src_offs = np.concatenate([[0], np.cumsum(d_len)])[np.append(d_first, dg.size)]
        d_width = np.diff(src_offs)
        src_ids = _runs(own.start[dr], d_len)

        c_ns, d_ns = g_ns[c_groups], g_ns[d_groups]
        p2c, p2p = int(np.dot(c_ns, c_width)), int(np.dot(d_ns, d_width))
        counts.p2c += p2c
        counts.p2p += p2p
        c_sinks = _runs(g_start[c_groups], c_ns)
        d_sinks = _runs(g_start[d_groups], d_ns)
        work[c_sinks] += np.repeat(c_width * FLOPS_PER_CELL_INTERACTION, c_ns)
        work[d_sinks] += np.repeat(d_width * FLOPS_PER_INTERACTION, d_ns)
        flops = p2c * FLOPS_PER_CELL_INTERACTION + p2p * FLOPS_PER_INTERACTION
        mem = p2c * 80.0 + p2p * 32.0
        G = config.G

        if config.eval == "pergroup":
            for i, g in enumerate(c_groups):
                s, e = g_start[g], g_start[g] + g_ns[g]
                c = slice(c_offs[i], c_offs[i + 1])
                a, p = kb.eval_cells_dense(pos[s:e], com[c], cmass[c], quad[c], eps2, G)
                acc[s:e] += a
                pot[s:e] += p
            # Every group has a direct list: it holds at least its own leaf.
            for i, g in enumerate(d_groups):
                s, e = g_start[g], g_start[g] + g_ns[g]
                src = src_ids[src_offs[i]:src_offs[i + 1]]
                a, p = kb.eval_direct_dense(pos[s:e], own.positions[src],
                                            own.masses[src], eps2, G)
                acc[s:e] += a
                pot[s:e] += p
                if eps2 > 0:
                    pot[s:e] += G * mass[s:e] / config.eps
            return flops, mem

        if eps2 > 0 and d_sinks.size:
            # The rectangle includes each sink's softened self-pair (same
            # as the dense kernel); remove the self-energy -G m / eps it
            # adds to the potential.
            pot[d_sinks] += G * mass[d_sinks] / config.eps
        if c_groups.size:
            kb.eval_cell_rects(
                pos3_owned, g_start[c_groups], c_ns, c_offs,
                np.arange(cr.size, dtype=np.int64), np.ascontiguousarray(com.T), cmass,
                np.ascontiguousarray(quad.T), eps2, G, acc, pot, DEFAULT_PAIR_CHUNK,
            )
        if d_groups.size:
            # The own rows' particle pool starts with this rank's own
            # particles, so sink rows index it directly and stay
            # < n_owned: writes into acc/pot are safe.
            kb.eval_direct_rects(
                np.ascontiguousarray(own.positions.T), own.masses,
                g_start[d_groups], d_ns, src_offs, src_ids, eps2, G, acc, pot,
                DEFAULT_PAIR_CHUNK,
            )
        return flops, mem

    def evaluate_many(ready: np.ndarray):
        """Generator charging one labeled compute span for a set of
        completed walks — the overlap work of an async round."""
        flops, mem = evaluate(ready)
        if flops:
            yield comm.compute(
                flops=flops,
                mem_bytes=mem,
                flop_efficiency=config.kernel_efficiency,
                label="force",
            )
        return None

    def prefetch_boundary():
        """Locally-essential-tree prefetch (async schedule only).

        MAC-tests remote cells against the *whole local domain* —
        modeled as the bounding sphere of this rank's particles — and
        bulk-fetches, one tree level per wave, every cell some local
        group might open.  A cell at distance ``d`` from the domain
        center can only be opened by a local group if
        ``d - R <= bmax / theta`` (the domain sphere contains every
        group sphere), so cells failing that test are skipped.  The
        test is conservative per *domain* but heuristic per *group*:
        anything it misses is fetched by the main loop, so accuracy
        affects only timing, never results.
        """
        if n_owned:
            center = pos.mean(axis=0)
            radius = float(np.linalg.norm(pos - center, axis=1).max())
        else:
            center = np.zeros(3)
            radius = 0.0
        inv_theta = 1.0 / config.theta

        def wave_plan(frontier):
            """MAC-test one wave's frontier rows; returns the test count,
            the keys to fetch, and the cached rows of the next wave.  A
            function of its own so the wave's per-row temporaries are
            freed before the rank yields (at large P every rank is
            mid-wave at once)."""
            count, com, bmax, is_leaf, start, stop, mask, key = table.gather(
                frontier, "count", "com", "bmax", "is_leaf", "start", "stop", "mask", "key")
            d = com - center
            # Every local group's MAC accepts a far cell: skip those.
            near = (count > 0) & ~(np.sqrt(_dot_rows(d)) - radius > bmax * inv_theta)
            # A remote branch leaf known only by its multipole, not cached.
            bare = key[near & is_leaf & (stop == start)]
            bare = bare[table.gather(table.lookup(bare), "kind")[0] != _REMOTE]
            opened = near & ~is_leaf
            _, kids = _mask_children(key[opened], mask[opened])
            kid_rows = table.lookup(kids)
            cached = kid_rows >= 0
            cached[cached] = table.gather(kid_rows[cached], "kind")[0] == _REMOTE
            need = np.unique(np.concatenate([bare, kids[~cached]])).tolist()
            return int(np.count_nonzero(count > 0)), need, kid_rows[cached]

        frontier = np.flatnonzero((frame.owner >= 0) & (frame.owner != rank))
        wave = 0
        while wave < config.prefetch_rounds:
            tests, need, next_cached = wave_plan(frontier)
            del frontier
            if tests:
                yield comm.compute(
                    flops=tests * FLOPS_PER_MAC_TEST,
                    flop_efficiency=config.kernel_efficiency,
                    label="prefetch",
                )
            total = yield from mpi_patterns.allreduce(comm, len(need))
            if total == 0:
                break
            reqs = requests_by_owner(need)
            stats["requests"] += len(need)
            stats["batches"] += sum(1 for r in reqs if r)
            replies, _ = yield from batched_request_reply(
                comm, reqs, serve_batch, tag=_FETCH_TAG + 10
            )
            fetched = admit(replies, prefetch=True)
            del replies
            stats["prefetch_fetched"] += fetched.size
            settle()
            frontier = np.concatenate([next_cached, fetched])
            wave += 1
            stats["prefetch_rounds"] = wave

    start_g = np.arange(n_groups, dtype=np.int64)
    start_k = np.full(n_groups, ROOT_KEY, dtype=np.uint64)

    def advance(fg, fk):
        """One walk phase plus its traversal charge; returns the parked
        pairs and the mask of groups they keep blocked."""
        wg, wk, tests = walk(fg, fk)
        settle()
        blocked = np.zeros(n_groups, dtype=bool)
        blocked[wg] = True
        return wg, wk, blocked, tests * FLOPS_PER_MAC_TEST

    def traverse_async():
        """Latency-hiding main loop: per-owner deduplicated request
        batches in flight while completed walks evaluate their forces."""
        fg, fk = start_g, start_k
        pending = np.ones(n_groups, dtype=bool)
        rounds = 0
        while True:
            fg, fk, blocked, walk_flops = advance(fg, fk)
            ready = pending & ~blocked
            pending = blocked
            if walk_flops:
                yield comm.compute(
                    flops=walk_flops,
                    flop_efficiency=config.kernel_efficiency,
                    label="traversal",
                )
            n_blocked = yield from mpi_patterns.allreduce(comm, int(np.count_nonzero(blocked)))
            if n_blocked == 0:
                yield from evaluate_many(ready)
                break
            requested = np.unique(fk).tolist()
            reqs = requests_by_owner(requested)
            stats["requests"] += len(requested)
            stats["batches"] += sum(1 for r in reqs if r)
            replies, _ = yield from batched_request_reply(
                comm, reqs, serve_batch,
                overlap=evaluate_many(ready), tag=_FETCH_TAG,
            )
            admit(replies)
            del replies
            rounds += 1
            stats["rounds"] = rounds
            if rounds > config.max_rounds:
                raise RuntimeError(
                    "traversal did not converge; request round limit hit"
                )

    def traverse_blocking():
        """Bulk-synchronous ABM reference: alltoall request/reply rounds
        with all force evaluation after the exchange (the pre-PR-5
        schedule, kept for differential testing)."""
        abm = ABMChannel(comm, serve_batch)
        fg, fk = start_g, start_k
        pending = np.ones(n_groups, dtype=bool)
        rounds = 0
        while True:
            fg, fk, blocked, walk_flops = advance(fg, fk)
            ready = pending & ~blocked
            pending = blocked
            # Each blocked group requests its own parked keys, once each.
            order = np.lexsort((fk, fg))
            sg, sk = fg[order], fk[order]
            first = np.ones(order.size, dtype=bool)
            first[1:] = (sg[1:] != sg[:-1]) | (sk[1:] != sk[:-1])
            for k in sk[first].tolist():
                abm.request(owner_of(k), k)
            if walk_flops:
                yield comm.compute(
                    flops=walk_flops,
                    flop_efficiency=config.kernel_efficiency,
                    label="traversal",
                )
            yield from evaluate_many(ready)
            done = yield from abm.globally_done(int(np.count_nonzero(blocked)))
            if done:
                break
            replies = yield from abm.exchange()
            admit(replies)
            del replies
            rounds += 1
            if rounds > config.max_rounds:
                raise RuntimeError("traversal did not converge; ABM round limit hit")
        stats["rounds"] = abm.rounds
        stats["requests"] = abm.requests_sent

    if config.comm == "async":
        if config.prefetch and size > 1:
            yield from prefetch_boundary()
        yield from traverse_async()
    else:
        yield from traverse_blocking()
    remote.rows = table.own
    return acc, pot, counts, work, stats


def _branch_rows(server: CellServer, lo: int, hi: int) -> CellRows:
    """This rank's non-empty branch cells over key range [lo, hi), as
    rows without particles — its contribution to the frame allgather."""
    if hi <= lo:
        return CellRows.empty()
    rows = server.rows(cover_interval(lo, hi), with_particles=False)
    return rows.take(np.flatnonzero(rows.count > 0))


def _cache_stats(remote_cache: CellCache) -> dict[str, int]:
    return {f"cache_{k}": v for k, v in remote_cache.snapshot_stats().items()}


def _make_program(
    chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray]],
    config: ParallelConfig,
    ckpt: "Checkpointer | None" = None,
):
    """Build the SPMD rank program closure over the scattered input.

    With a checkpointer, the program dumps its post-exchange particle
    state (the recovery point) and, when handed a restored snapshot,
    skips straight past decomposition to the traversal.
    """

    def program(comm):
        rank, size = comm.rank, comm.size
        kb = get_backend(config.backend)
        snap = ckpt.restored(rank) if ckpt is not None else None
        if snap is not None:
            # -- restart: resume the step from the committed checkpoint --
            keys = snap["keys"]
            pos = snap["pos"]
            mass = snap["mass"]
            ids = snap["ids"]
            n_owned = keys.shape[0]
            splitters = [int(s) for s in snap.meta["splitters"]]
            box = BoundingBox(np.asarray(snap.meta["box_corner"]), snap.meta["box_size"])
            nbytes = keys.nbytes + pos.nbytes + mass.nbytes + ids.nbytes
            # Reading the dump back from local disk costs real time.
            yield comm.elapse(ckpt.dump_time_s(nbytes), label="checkpoint-restore")
        else:
            my_pos, my_mass, my_ids = chunks[rank]
            n_local = my_pos.shape[0]

            # -- global bounding box by reduction --------------------------
            lo = my_pos.min(axis=0) if n_local else np.full(3, np.inf)
            hi = my_pos.max(axis=0) if n_local else np.full(3, -np.inf)
            glo = yield from mpi_patterns.allreduce(comm, lo, op=MPI_MIN)
            ghi = yield from mpi_patterns.allreduce(comm, hi, op=MPI_MAX)
            span = float((ghi - glo).max())
            span = span if span > 0 else 1.0
            box = BoundingBox(glo - 1e-6 * span, span * (1.0 + 2e-6))

            # -- key assignment and local sort ------------------------------
            keys = keys_from_positions(my_pos, box) if n_local else np.empty(0, dtype=np.uint64)
            order = np.argsort(keys, kind="stable")
            keys, pos, mass, ids = keys[order], my_pos[order], my_mass[order], my_ids[order]
            yield comm.compute(flops=30.0 * n_local * max(np.log2(max(n_local, 2)), 1.0),
                               mem_bytes=48.0 * n_local, label="key-sort")

            # -- splitter agreement (sample sort) ---------------------------
            if n_local:
                k = min(n_local, config.oversample * size)
                sample = keys[np.linspace(0, n_local - 1, k).astype(np.int64)]
            else:
                sample = np.empty(0, dtype=np.uint64)
            all_samples = yield from mpi_patterns.allgather(comm, sample)
            merged = np.sort(np.concatenate([s for s in all_samples if s.size]))
            if merged.size == 0:
                raise RuntimeError("no particles anywhere")
            picks = (np.arange(1, size) * merged.size) // size
            splitters = [int(_MIN_PKEY)] + [int(merged[p]) for p in picks] + [int(_END_PKEY)]
            # Enforce monotonicity (duplicate samples give empty ranges).
            for i in range(1, len(splitters)):
                splitters[i] = max(splitters[i], splitters[i - 1])

            # -- particle exchange ------------------------------------------
            bounds = np.searchsorted(keys, np.array(splitters[1:-1], dtype=np.uint64), side="left")
            bounds = np.concatenate([[0], bounds, [n_local]]).astype(np.int64)
            sendbuf = [
                (keys[bounds[d]:bounds[d + 1]], pos[bounds[d]:bounds[d + 1]],
                 mass[bounds[d]:bounds[d + 1]], ids[bounds[d]:bounds[d + 1]])
                for d in range(size)
            ]
            received = yield comm.alltoall(
                sendbuf,
                nbytes=keys.nbytes + pos.nbytes + mass.nbytes + ids.nbytes + 40 * size,
            )
            keys = np.concatenate([r[0] for r in received])
            pos = np.concatenate([r[1] for r in received]) if keys.size else np.empty((0, 3))
            mass = np.concatenate([r[2] for r in received])
            ids = np.concatenate([r[3] for r in received])
            order = np.argsort(keys, kind="stable")
            keys, pos, mass, ids = keys[order], pos[order], mass[order], ids[order]
            n_owned = keys.shape[0]
            yield comm.compute(flops=30.0 * n_owned * max(np.log2(max(n_owned, 2)), 1.0),
                               mem_bytes=48.0 * n_owned, label="exchange-sort")

            if ckpt is not None:
                # The decomposition is the state worth protecting: dump
                # it the moment it exists (gated by the configured
                # interval), so a crash only ever repeats the traversal.
                yield from ckpt.save(
                    comm,
                    {"keys": keys, "pos": pos, "mass": mass, "ids": ids},
                    meta={
                        "phase": "post-exchange",
                        "splitters": [int(s) for s in splitters],
                        "box_corner": box.corner.tolist(),
                        "box_size": box.size,
                    },
                )

        # -- server, branches, frame -------------------------------------
        server = CellServer(keys, pos, mass, box, bucket_size=config.bucket_size)
        branches = _branch_rows(server, splitters[rank], splitters[rank + 1])
        yield comm.compute(flops=120.0 * n_owned, mem_bytes=96.0 * n_owned,
                           label="tree-build")

        all_branches = yield from mpi_patterns.allgather(comm, branches,
                                                         nbytes=branches.nbytes)
        frame = _frame_from_rows(all_branches)

        # -- traversal + evaluation ---------------------------------------
        remote = _RemoteStore(config.cache_capacity)
        acc, pot, counts, _work, stats = yield from _run_traversal(
            comm, config, kb, server, frame, branches.key.tolist(),
            splitters, pos, mass, remote,
        )
        stats.update(_cache_stats(remote.cache))
        return {
            "ids": ids,
            "acc": acc,
            "pot": pot,
            "counts": (counts.p2p, counts.p2c, counts.groups),
            "comm": stats,
        }

    return program


def _aggregate_comm(returns, observer: "Recorder | None" = None) -> dict[str, float]:
    """Sum the per-rank ``comm`` stat dicts; optionally publish them as
    ``treecode.comm.*`` counters on the observer."""
    total: dict[str, float] = {}
    for ret in returns:
        for k, v in (ret.get("comm") or {}).items():
            total[k] = total.get(k, 0.0) + float(v)
    if observer is not None:
        for k, v in total.items():
            observer.count(f"treecode.comm.{k}", v)
    return total


def parallel_tree_accelerations(
    positions: np.ndarray,
    masses: np.ndarray | None = None,
    *,
    n_ranks: int,
    config: ParallelConfig | None = None,
    cost: CostModel | None = None,
    faults: FaultPlan | None = None,
    resilience: "ResilienceConfig | None" = None,
    observer: "Recorder | None" = None,
    record_trace: bool = True,
    trace_sample: float = 1.0,
) -> ParallelGravityResult:
    """Run one parallel treecode force calculation on a simulated cluster.

    Parameters
    ----------
    positions:
        ``(N, 3)`` float64 particle positions (any length unit; the
        code is unit-agnostic, ``config.eps`` shares this unit).
    masses:
        ``(N,)`` masses; defaults to ``1/N`` each (total mass 1).
    n_ranks:
        Number of simulated processors; the input is scattered
        block-wise and the result gathered back into input order.
    config:
        :class:`ParallelConfig`; the default uses the latency-hiding
        ``"async"`` communication schedule.
    cost:
        Pass a :class:`~repro.simmpi.cost.SpaceSimulatorCost` (or any
        cost model) to obtain meaningful virtual timings; the default
        ``ZeroCost`` checks algorithm semantics only.
    faults, resilience:
        With ``faults`` (and optionally an explicit ``resilience``
        configuration) the run executes under the injected failure
        schedule: ranks checkpoint their post-exchange state, node
        crashes abort the job, and the restart loop resumes from the
        last committed epoch until the calculation completes.  The
        returned result then carries the
        :class:`~repro.resilience.runner.ResilientResult` bookkeeping,
        and its forces are bit-for-bit the fault-free ones.
    observer:
        A :class:`~repro.obs.Recorder` receiving spans from the engine
        plus aggregated ``treecode.comm.*`` counters.
    record_trace, trace_sample:
        Forwarded to the engine (fault-free path only): disable or
        decimate per-event trace retention so large-``n_ranks`` scaling
        runs keep their memory bounded.  Physics is unaffected.

    Invariants: for a fixed ``n_ranks`` the returned accelerations are
    bit-identical across ``config.comm`` schedules, cache capacities,
    and prefetch settings — communication strategy never touches the
    physics.  Different rank counts group sink particles differently,
    so results vary across ``n_ranks`` at the MAC-error scale (exactly
    as they do versus the serial treecode), never more.
    """
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must be (N, 3)")
    if masses is None:
        masses = np.full(n, 1.0 / n)
    else:
        masses = np.ascontiguousarray(masses, dtype=np.float64)
        if masses.shape != (n,):
            raise ValueError("masses must be (N,)")
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    if n < n_ranks:
        raise ValueError("need at least one particle per rank")
    config = config or ParallelConfig()

    ids = np.arange(n, dtype=np.int64)
    bounds = np.linspace(0, n, n_ranks + 1).astype(np.int64)
    chunks = [
        (positions[bounds[r]:bounds[r + 1]], masses[bounds[r]:bounds[r + 1]],
         ids[bounds[r]:bounds[r + 1]])
        for r in range(n_ranks)
    ]
    resilient: "ResilientResult | None" = None
    if faults is not None or resilience is not None:
        from ..resilience.runner import ResilienceConfig, run_resilient

        if resilience is None:
            resilience = ResilienceConfig(
                checkpoint_dir=tempfile.mkdtemp(prefix="ss-treecode-ckpt-")
            )
        resilient = run_resilient(
            lambda ckpt: _make_program(chunks, config, ckpt),
            n_ranks,
            cost=cost,
            faults=faults,
            config=resilience,
            observer=observer,
        )
        sim = resilient.sim
    else:
        sim = run(_make_program(chunks, config), n_ranks, cost, observer=observer,
                  record_trace=record_trace, trace_sample=trace_sample)

    acc = np.zeros((n, 3))
    pot = np.zeros(n)
    counts = InteractionCounts()
    for ret in sim.returns:
        acc[ret["ids"]] = ret["acc"]
        pot[ret["ids"]] = ret["pot"]
        counts = counts.merged(InteractionCounts(*ret["counts"]))
    comm_stats = _aggregate_comm(sim.returns, observer)
    return ParallelGravityResult(acc, pot, counts, sim, resilience=resilient,
                                 comm=comm_stats)


def _make_run_program(
    chunks: list[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
    config: ParallelConfig,
    n_steps: int,
    dt: float,
    cache_across_steps: bool,
    rebalance: bool,
):
    """Rank program of the multi-timestep driver.

    One SimMPI program covers all steps, so the remote-cell cache, the
    splitters, and the virtual clocks persist across timesteps — the
    regime the HOT cache and incremental rebalancing were built for.
    """

    def program(comm):
        rank, size = comm.rank, comm.size
        kb = get_backend(config.backend)
        my_pos, my_mass, my_vel, my_ids = chunks[rank]
        n_local = my_pos.shape[0]

        # -- global bounding box, fixed for the whole run -----------------
        # Keys from different steps must live in one namespace (the
        # cache is keyed by them), so the box is agreed once, padded for
        # the expected drift.  A particle escaping the padded box raises
        # from key assignment — enlarge the pad via shorter runs or
        # smaller dt rather than silently re-keying.
        lo = my_pos.min(axis=0) if n_local else np.full(3, np.inf)
        hi = my_pos.max(axis=0) if n_local else np.full(3, -np.inf)
        vmax_l = float(np.linalg.norm(my_vel, axis=1).max()) if n_local else 0.0
        glo = yield from mpi_patterns.allreduce(comm, lo, op=MPI_MIN)
        ghi = yield from mpi_patterns.allreduce(comm, hi, op=MPI_MAX)
        vmax = yield from mpi_patterns.allreduce(comm, vmax_l, op=MPI_MAX)
        span = float((ghi - glo).max())
        span = span if span > 0 else 1.0
        pad = 2.0 * vmax * abs(dt) * n_steps + 0.125 * span
        box = BoundingBox(glo - pad, span + 2.0 * pad)

        # -- initial decomposition (sample sort + exchange) ---------------
        keys = keys_from_positions(my_pos, box) if n_local else np.empty(0, dtype=np.uint64)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        pos, mass, vel, ids = my_pos[order], my_mass[order], my_vel[order], my_ids[order]
        yield comm.compute(flops=30.0 * n_local * max(np.log2(max(n_local, 2)), 1.0),
                           mem_bytes=48.0 * n_local, label="key-sort")
        if n_local:
            k = min(n_local, config.oversample * size)
            sample = keys[np.linspace(0, n_local - 1, k).astype(np.int64)]
        else:
            sample = np.empty(0, dtype=np.uint64)
        all_samples = yield from mpi_patterns.allgather(comm, sample)
        merged = np.sort(np.concatenate([s for s in all_samples if s.size]))
        if merged.size == 0:
            raise RuntimeError("no particles anywhere")
        picks = (np.arange(1, size) * merged.size) // size
        splitters = [int(_MIN_PKEY)] + [int(merged[p]) for p in picks] + [int(_END_PKEY)]
        for i in range(1, len(splitters)):
            splitters[i] = max(splitters[i], splitters[i - 1])

        def exchange_particles(keys, pos, mass, vel, ids):
            cut_keys = np.array(
                [min(int(s), _END_PKEY - 1) for s in splitters[1:-1]], dtype=np.uint64
            )
            bounds = np.searchsorted(keys, cut_keys, side="left")
            bounds = np.concatenate([[0], bounds, [keys.shape[0]]]).astype(np.int64)
            sendbuf = [
                tuple(a[bounds[d]:bounds[d + 1]] for a in (keys, pos, mass, vel, ids))
                for d in range(size)
            ]
            received = yield comm.alltoall(
                sendbuf,
                nbytes=(keys.nbytes + pos.nbytes + mass.nbytes + vel.nbytes
                        + ids.nbytes + 48 * size),
            )
            keys = np.concatenate([r[0] for r in received])
            pos = (np.concatenate([r[1] for r in received])
                   if keys.size else np.empty((0, 3)))
            mass = np.concatenate([r[2] for r in received])
            vel = (np.concatenate([r[3] for r in received])
                   if keys.size else np.empty((0, 3)))
            ids = np.concatenate([r[4] for r in received])
            order = np.argsort(keys, kind="stable")
            n_owned = keys.shape[0]
            yield comm.compute(
                flops=30.0 * n_owned * max(np.log2(max(n_owned, 2)), 1.0),
                mem_bytes=48.0 * n_owned, label="exchange-sort")
            return tuple(a[order] for a in (keys, pos, mass, vel, ids))

        keys, pos, mass, vel, ids = yield from exchange_particles(keys, pos, mass, vel, ids)

        remote = _RemoteStore(config.cache_capacity)
        counts_total = InteractionCounts()
        stats_total: dict[str, float] = {}
        step_outs: list[dict[str, np.ndarray]] = []
        step_work: list[float] = []

        for step in range(n_steps):
            n_owned = keys.shape[0]
            # -- tree build + branch/fingerprint allgather ----------------
            server = CellServer(keys, pos, mass, box, bucket_size=config.bucket_size)
            branches = _branch_rows(server, splitters[rank], splitters[rank + 1])
            yield comm.compute(flops=120.0 * n_owned, mem_bytes=96.0 * n_owned,
                               label="tree-build")
            branch_keys = branches.key.tolist()
            fps_mine = [(k, server.branch_fingerprint(k)) for k in branch_keys]
            all_branches = yield from mpi_patterns.allgather(comm, branches,
                                                             nbytes=branches.nbytes)
            all_fps = yield from mpi_patterns.allgather(comm, fps_mine)
            frame = _frame_from_rows(all_branches)
            branch_fps = {k: fp for batch in all_fps for (k, fp) in batch}

            # -- cache carry-over -----------------------------------------
            if cache_across_steps:
                remote.cache.retain_valid(branch_fps)
            else:
                remote.cache.clear()

            # -- traversal + evaluation -----------------------------------
            acc, pot, counts, work, stats = yield from _run_traversal(
                comm, config, kb, server, frame, branch_keys, splitters, pos, mass,
                remote, branch_fps,
            )
            counts_total = counts_total.merged(counts)
            for k_, v in stats.items():
                stats_total[k_] = stats_total.get(k_, 0.0) + float(v)
            step_outs.append({"ids": ids.copy(), "acc": acc, "pot": pot})
            step_work.append(float(work.sum()))

            # -- kick + drift (symplectic Euler) --------------------------
            vel = vel + acc * dt
            pos = pos + vel * dt
            yield comm.compute(flops=12.0 * n_owned, mem_bytes=96.0 * n_owned,
                               label="integrate")
            if step == n_steps - 1:
                break

            # -- incremental work-weighted rebalancing --------------------
            # Uses the interaction work just measured, while keys are
            # still the pre-drift ones the work was measured against.
            if rebalance and size > 1:
                totals = yield from mpi_patterns.allgather(comm, float(work.sum()))
                total = float(sum(totals))
                before = float(sum(totals[:rank]))
                props = splitter_candidates(keys, work, before, total, size)
                all_props = yield from mpi_patterns.allgather(comm, props)
                splitters = merge_splitter_candidates(splitters, list(all_props))

            # -- re-key (fixed box) and migrate to owners -----------------
            keys = keys_from_positions(pos, box) if n_owned else keys
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            pos, mass, vel, ids = pos[order], mass[order], vel[order], ids[order]
            yield comm.compute(
                flops=30.0 * n_owned * max(np.log2(max(n_owned, 2)), 1.0),
                mem_bytes=48.0 * n_owned, label="key-sort")
            keys, pos, mass, vel, ids = yield from exchange_particles(
                keys, pos, mass, vel, ids)

        stats_total.update(_cache_stats(remote.cache))
        return {
            "ids": ids,
            "pos": pos,
            "vel": vel,
            "steps": step_outs,
            "counts": (counts_total.p2p, counts_total.p2c, counts_total.groups),
            "comm": stats_total,
            "step_work": step_work,
        }

    return program


def parallel_nbody_run(
    positions: np.ndarray,
    masses: np.ndarray | None = None,
    velocities: np.ndarray | None = None,
    *,
    n_ranks: int,
    n_steps: int,
    dt: float,
    config: ParallelConfig | None = None,
    cost: CostModel | None = None,
    observer: "Recorder | None" = None,
    cache_across_steps: bool = True,
    rebalance: bool = True,
    record_trace: bool = True,
    trace_sample: float = 1.0,
) -> ParallelRunResult:
    """Integrate an N-body system for ``n_steps`` kick–drift steps.

    The multi-timestep driver the latency-hiding layer was built for:
    one SimMPI run covers every step, so the remote-cell cache persists
    across steps (entries invalidated by branch fingerprint when an
    owner's subtree changes) and the domain boundaries are rebalanced
    *incrementally* from the interaction work measured in the previous
    step (``rebalance=True``) instead of re-running the sample sort.

    Parameters
    ----------
    positions, masses, velocities:
        ``(N, 3)`` positions, ``(N,)`` masses (default ``1/N``), and
        ``(N, 3)`` velocities (default zero), in a consistent unit
        system with ``config.G`` and ``dt``.
    n_ranks, n_steps, dt:
        Simulated processor count, number of steps, and timestep.  The
        key namespace's bounding box is fixed once, padded for the
        expected drift; particles escaping it raise a ``ValueError``.
    cache_across_steps:
        ``False`` clears the remote-cell cache at every step — the
        "cold" reference the cross-timestep consistency tests compare
        against.  Results are bit-identical either way.
    rebalance:
        ``False`` freezes the initial sample-sort splitters.

    Returns a :class:`ParallelRunResult`; ``step_accelerations`` holds
    every step's accelerations in input order, and ``work_imbalance``
    the measured per-step max/mean work ratio across ranks (the curve
    incremental rebalancing drives toward 1).
    """
    positions = np.ascontiguousarray(positions, dtype=np.float64)
    n = positions.shape[0]
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must be (N, 3)")
    if masses is None:
        masses = np.full(n, 1.0 / n)
    else:
        masses = np.ascontiguousarray(masses, dtype=np.float64)
        if masses.shape != (n,):
            raise ValueError("masses must be (N,)")
    if velocities is None:
        velocities = np.zeros((n, 3))
    else:
        velocities = np.ascontiguousarray(velocities, dtype=np.float64)
        if velocities.shape != (n, 3):
            raise ValueError("velocities must be (N, 3)")
    if n_ranks < 1:
        raise ValueError("n_ranks must be >= 1")
    if n < n_ranks:
        raise ValueError("need at least one particle per rank")
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    config = config or ParallelConfig()

    ids = np.arange(n, dtype=np.int64)
    bounds = np.linspace(0, n, n_ranks + 1).astype(np.int64)
    chunks = [
        (positions[bounds[r]:bounds[r + 1]], masses[bounds[r]:bounds[r + 1]],
         velocities[bounds[r]:bounds[r + 1]], ids[bounds[r]:bounds[r + 1]])
        for r in range(n_ranks)
    ]
    sim = run(
        _make_run_program(chunks, config, n_steps, dt, cache_across_steps, rebalance),
        n_ranks, cost, observer=observer,
        record_trace=record_trace, trace_sample=trace_sample,
    )

    final_pos = np.zeros((n, 3))
    final_vel = np.zeros((n, 3))
    step_acc = [np.zeros((n, 3)) for _ in range(n_steps)]
    counts = InteractionCounts()
    work_totals = [np.zeros(len(sim.returns)) for _ in range(n_steps)]
    for r, ret in enumerate(sim.returns):
        final_pos[ret["ids"]] = ret["pos"]
        final_vel[ret["ids"]] = ret["vel"]
        counts = counts.merged(InteractionCounts(*ret["counts"]))
        for s, out in enumerate(ret["steps"]):
            step_acc[s][out["ids"]] = out["acc"]
        for s, w in enumerate(ret["step_work"]):
            work_totals[s][r] = w
    imbalance = [
        float(w.max() / w.mean()) if w.mean() > 0 else 1.0 for w in work_totals
    ]
    comm_stats = _aggregate_comm(sim.returns, observer)
    return ParallelRunResult(
        positions=final_pos,
        velocities=final_vel,
        accelerations=step_acc[-1],
        step_accelerations=step_acc,
        counts=counts,
        sim=sim,
        comm=comm_stats,
        work_imbalance=imbalance,
    )
