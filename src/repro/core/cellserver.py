"""Serving cell data out of the global key namespace.

In the hashed oct-tree, any processor can name any cell of the global
tree by its Morton key.  A processor that *owns* a contiguous key range
can answer queries about every cell whose key interval lies inside that
range — mass, center of mass, quadrupole, children, or (for leaves) the
particles themselves.  :class:`CellServer` implements that service with
prefix sums over the Morton-sorted local particles: any cell is a
contiguous run, so its record is O(log N) searchsorted plus O(1)
arithmetic, with no explicit tree stored at all.

This is the data-plane half of the paper's "request and receive data
from other processors using the global key name space"; the control
plane (batching, deferral) lives in :mod:`repro.core.abm` and
:mod:`repro.core.parallel`.

:meth:`CellServer.rows` builds the records of many keys at once as
:class:`CellRows`, the struct-of-arrays form the parallel treecode keeps
its cell table in and sends over the wire (bit-identical to
:meth:`CellServer.record`, which stays as the reference).

Also here: :func:`cover_interval`, the minimal aligned-cell cover of a
key interval, which yields each processor's **branch cells** (the
coarsest cells fully owned by one processor), and
:func:`shift_quadrupole`, the parallel-axis combination used to
aggregate branch multipoles into the shared top of the tree.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .keys import KEY_BITS, MAX_LEVEL, BoundingBox, _undilate3, cell_center_and_size, key_level

__all__ = [
    "CellRecord",
    "CellRows",
    "CellServer",
    "content_fingerprint",
    "cover_interval",
    "key_interval",
    "shift_quadrupole",
    "combine_records",
]

_PLACEHOLDER = 1 << (3 * KEY_BITS)


def content_fingerprint(chunks, digest_size: int = 16) -> bytes:
    """Content-addressed digest of an ordered sequence of byte chunks.

    The repo-wide fingerprint primitive (blake2b, 16 bytes by default):
    equal content yields equal digests in every process — unlike
    ``hash()``, there is no per-process randomization — so a fingerprint
    can name work across restarts.  :meth:`CellServer.branch_fingerprint`
    applies it to a branch cell's particle data for cache invalidation;
    :func:`repro.campaign.fingerprint.scenario_fingerprint` applies it
    to canonical scenario JSON so identical simulation requests dedupe
    to cache hits.

    Only the concatenated content matters, not the chunk boundaries —
    callers that need boundary sensitivity (none today) must frame
    their chunks explicitly.

    >>> content_fingerprint([b"ab", b"c"]) == content_fingerprint([b"abc"])
    True
    >>> content_fingerprint([b"abc"]) == content_fingerprint([b"abd"])
    False
    """
    h = hashlib.blake2b(digest_size=digest_size)
    for chunk in chunks:
        h.update(chunk)
    return h.digest()


def _interval_starts(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(level, body, lo)`` of ``uint64`` cell keys: ``lo`` is the first
    particle key of each cell, as in :func:`key_interval`."""
    level = np.asarray(key_level(keys), dtype=np.int64)
    body = keys ^ (np.uint64(1) << (3 * level).astype(np.uint64))
    lo = (body << (3 * (MAX_LEVEL - level)).astype(np.uint64)) | np.uint64(_PLACEHOLDER)
    return level, body, lo


@lru_cache(maxsize=1 << 20)
def key_interval(key: int) -> tuple[int, int]:
    """Particle-key interval [lo, hi) covered by a cell key.

    Cached: the parallel traversal asks it for the owner of every
    requested key, round after round.
    """
    level = key_level(key)
    width = 3 * (MAX_LEVEL - level)
    body = (key - (1 << (3 * level))) << width
    return body + _PLACEHOLDER, body + (1 << width) + _PLACEHOLDER


def cover_interval(lo: int, hi: int) -> list[int]:
    """Minimal set of aligned cell keys exactly covering [lo, hi).

    ``lo``/``hi`` are particle-level keys (placeholder bit set); the
    result is ordered by key interval.  This is the branch-cell
    computation: applied to a processor's key range it yields the
    coarsest cells that are entirely local to that processor.
    """
    if not (_PLACEHOLDER <= lo <= hi <= 2 * _PLACEHOLDER):
        raise ValueError("interval must lie in particle-key space")
    cells: list[int] = []
    cur = lo - _PLACEHOLDER
    end = hi - _PLACEHOLDER
    while cur < end:
        step = 1
        # Grow the block while it stays aligned and inside the interval.
        while cur % (step * 8) == 0 and cur + step * 8 <= end and step * 8 <= 8**MAX_LEVEL:
            step *= 8
        level = MAX_LEVEL
        s = step
        while s > 1:
            s //= 8
            level -= 1
        cells.append((cur // step) + (1 << (3 * level)))
        cur += step
    return cells


def shift_quadrupole(quad: np.ndarray, mass: float, d: np.ndarray) -> np.ndarray:
    """Parallel-axis shift of a packed traceless quadrupole.

    Moving the expansion center by ``-d`` (child COM minus parent COM)
    adds ``m (3 d d^T - |d|^2 I)``; the result stays traceless.
    """
    d2 = float(d @ d)
    out = quad.copy()
    out[0] += mass * (3.0 * d[0] * d[0] - d2)
    out[1] += mass * (3.0 * d[1] * d[1] - d2)
    out[2] += mass * (3.0 * d[2] * d[2] - d2)
    out[3] += mass * 3.0 * d[0] * d[1]
    out[4] += mass * 3.0 * d[0] * d[2]
    out[5] += mass * 3.0 * d[1] * d[2]
    return out


@dataclass
class CellRecord:
    """Everything a remote traversal needs to know about one cell."""

    key: int
    count: int
    mass: float
    com: np.ndarray  # (3,)
    quad: np.ndarray  # (6,) packed traceless
    bmax: float
    is_leaf: bool
    children: tuple[int, ...] = ()  # child keys (internal cells only)
    # Leaf payload (filled when served with particles).
    positions: np.ndarray | None = None
    masses: np.ndarray | None = None


#: Set bits of every ``uint8`` child-occupancy mask.
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int64)
_OCTANTS = np.arange(8, dtype=np.uint64)


def _mask_children(keys: np.ndarray, masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(i, child key)`` for every set bit of occupancy mask ``masks[i]``
    of cell ``keys[i]``, cell by cell in octant order."""
    bits = ((masks[:, None] >> _OCTANTS.astype(np.uint8)) & 1).astype(bool)
    which, octant = np.nonzero(bits)
    return which, (keys[which] << np.uint64(3)) | octant.astype(np.uint64)


def _dot_rows(d: np.ndarray) -> np.ndarray:
    """Row-wise ``d @ d`` with the exact rounding of ``np.linalg.norm``
    on one row (BLAS ``dot``), which an ``einsum`` does not match."""
    return np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0]


@dataclass
class CellRows:
    """Struct-of-arrays cell records: entry ``i`` of every column is one cell.

    The array-native twin of :class:`CellRecord`.  Child keys are held
    as an occupancy mask (bit ``o`` set means child ``(key << 3) | o``
    is non-empty), and the particles a row carries as the slice
    ``start[i]:stop[i]`` of ``positions``/``masses`` (empty for internal
    cells and for leaves sent without particles).

    ``nbytes`` is the wire size, in closed form: the same number the
    recursive :func:`~repro.simmpi.api.payload_nbytes` walk gives for a
    list of per-record tuples ``(key, count, mass, com, quad, bmax,
    is_leaf, children, positions, masses)`` — 200 bytes per row plus 16
    per child key and 32 per carried particle.

    >>> rows = CellRows.empty()
    >>> len(rows), rows.nbytes
    (0, 0)
    """

    key: np.ndarray  # (n,) uint64
    count: np.ndarray  # (n,) int64
    mass: np.ndarray  # (n,)
    com: np.ndarray  # (n, 3)
    quad: np.ndarray  # (n, 6) packed traceless
    bmax: np.ndarray  # (n,)
    is_leaf: np.ndarray  # (n,) bool
    mask: np.ndarray  # (n,) uint8 child occupancy
    start: np.ndarray  # (n,) int64 particle slice into positions/masses
    stop: np.ndarray  # (n,) int64
    positions: np.ndarray  # (m, 3)
    masses: np.ndarray  # (m,)

    _COLUMNS = ("key", "count", "mass", "com", "quad", "bmax", "is_leaf", "mask",
                "start", "stop")

    @classmethod
    def empty(cls) -> "CellRows":
        return cls(
            np.empty(0, np.uint64), np.empty(0, np.int64), np.empty(0), np.empty((0, 3)),
            np.empty((0, 6)), np.empty(0), np.empty(0, bool), np.empty(0, np.uint8),
            np.empty(0, np.int64), np.empty(0, np.int64),
            np.empty((0, 3)), np.empty(0),
        )

    def __len__(self) -> int:
        return self.key.shape[0]

    @property
    def nbytes(self) -> int:
        carried = int((self.stop - self.start).sum())
        return 200 * len(self) + 16 * int(_POPCOUNT8[self.mask].sum()) + 32 * carried

    def select(self, idx) -> "CellRows":
        """Rows ``idx``, still slicing the same particle arrays."""
        return CellRows(**{c: getattr(self, c)[idx] for c in self._COLUMNS},
                        positions=self.positions, masses=self.masses)

    def take(self, idx) -> "CellRows":
        """Rows ``idx`` as a self-contained batch: their particles are
        copied, packed in row order."""
        out = self.select(np.asarray(idx, dtype=np.int64))
        lengths = out.stop - out.start
        stop = np.cumsum(lengths)
        src = np.arange(int(stop[-1]) if stop.size else 0, dtype=np.int64)
        src += np.repeat(out.start - (stop - lengths), lengths)
        out.start, out.stop = stop - lengths, stop
        out.positions, out.masses = self.positions[src], self.masses[src]
        return out

    @classmethod
    def concat(cls, parts: list["CellRows"]) -> "CellRows":
        """Rows of ``parts`` in order; particle slices are re-based onto
        the concatenated particle arrays."""
        if not parts:
            return cls.empty()
        shift = np.cumsum([0] + [p.positions.shape[0] for p in parts[:-1]])
        cols = {c: np.concatenate([getattr(p, c) for p in parts]) for c in cls._COLUMNS}
        base = np.repeat(shift, [len(p) for p in parts])
        cols["start"] = cols["start"] + base
        cols["stop"] = cols["stop"] + base
        return cls(**cols, positions=np.concatenate([p.positions for p in parts]),
                   masses=np.concatenate([p.masses for p in parts]))

    def record(self, i: int) -> CellRecord:
        """Row ``i`` as a :class:`CellRecord`."""
        key = int(self.key[i])
        children = tuple((key << 3) | o for o in range(8) if int(self.mask[i]) >> o & 1)
        positions = masses = None
        if self.stop[i] > self.start[i]:
            positions = self.positions[self.start[i]:self.stop[i]]
            masses = self.masses[self.start[i]:self.stop[i]]
        return CellRecord(key, int(self.count[i]), float(self.mass[i]), self.com[i].copy(),
                          self.quad[i].copy(), float(self.bmax[i]), bool(self.is_leaf[i]),
                          children, positions, masses)

    @classmethod
    def from_records(cls, records: list[CellRecord]) -> "CellRows":
        """Column form of a record list (particle payloads included)."""
        if not records:
            return cls.empty()
        mask = np.zeros(len(records), dtype=np.uint8)
        for i, r in enumerate(records):
            for ck in r.children:
                mask[i] |= 1 << (ck & 7)
        lengths = np.array([0 if r.positions is None else len(r.positions) for r in records],
                           dtype=np.int64)
        stop = np.cumsum(lengths)
        carried = [r for r in records if r.positions is not None]
        return cls(
            key=np.array([r.key for r in records], dtype=np.uint64),
            count=np.array([r.count for r in records], dtype=np.int64),
            mass=np.array([r.mass for r in records], dtype=np.float64),
            com=np.array([r.com for r in records], dtype=np.float64),
            quad=np.array([r.quad for r in records], dtype=np.float64),
            bmax=np.array([r.bmax for r in records], dtype=np.float64),
            is_leaf=np.array([r.is_leaf for r in records], dtype=bool),
            mask=mask, start=stop - lengths, stop=stop,
            positions=(np.concatenate([r.positions for r in carried]) if carried
                       else np.empty((0, 3))),
            masses=np.concatenate([r.masses for r in carried]) if carried else np.empty(0),
        )


def combine_records(key: int, children: list[CellRecord]) -> CellRecord:
    """Aggregate child records into their parent's record.

    Used to build the shared top of the global tree from the gathered
    branch cells of all processors.
    """
    if not children:
        raise ValueError("cannot combine zero children")
    mass = sum(c.mass for c in children)
    count = sum(c.count for c in children)
    if mass > 0:
        com = sum(c.mass * c.com for c in children) / mass
    else:
        com = children[0].com.copy()
    quad = np.zeros(6)
    bmax = 0.0
    for c in children:
        d = c.com - com
        quad += shift_quadrupole(c.quad, c.mass, d)
        bmax = max(bmax, float(np.linalg.norm(d)) + c.bmax)
    return CellRecord(
        key=key,
        count=count,
        mass=mass,
        com=np.asarray(com, dtype=np.float64),
        quad=quad,
        bmax=bmax,
        is_leaf=False,
        children=tuple(sorted(c.key for c in children)),
    )


class CellServer:
    """Answers cell queries for one processor's Morton-sorted particles.

    Parameters
    ----------
    keys, positions, masses:
        The local particle set, already sorted by ``keys``.
    box:
        The *global* bounding box (all processors must agree on it, or
        keys would not form a common namespace).
    bucket_size:
        Cells with at most this many particles are leaves.  Because the
        rule depends only on global cell content, every processor
        derives the same virtual global tree.
    """

    def __init__(
        self,
        keys: np.ndarray,
        positions: np.ndarray,
        masses: np.ndarray,
        box: BoundingBox,
        bucket_size: int = 32,
    ):
        keys = np.ascontiguousarray(keys, dtype=np.uint64)
        if keys.size > 1 and np.any(keys[1:] < keys[:-1]):
            raise ValueError("keys must be sorted")
        if bucket_size < 1:
            raise ValueError("bucket_size must be >= 1")
        self.keys = keys
        self.positions = np.ascontiguousarray(positions, dtype=np.float64)
        self.masses = np.ascontiguousarray(masses, dtype=np.float64)
        self.box = box
        self.bucket_size = bucket_size
        n = keys.shape[0]
        self._cm = np.zeros(n + 1)
        np.cumsum(self.masses, out=self._cm[1:])
        self._cmx = np.zeros((n + 1, 3))
        np.cumsum(self.masses[:, None] * self.positions, axis=0, out=self._cmx[1:])
        second = np.empty((n, 6))
        p = self.positions
        second[:, 0] = self.masses * p[:, 0] * p[:, 0]
        second[:, 1] = self.masses * p[:, 1] * p[:, 1]
        second[:, 2] = self.masses * p[:, 2] * p[:, 2]
        second[:, 3] = self.masses * p[:, 0] * p[:, 1]
        second[:, 4] = self.masses * p[:, 0] * p[:, 2]
        second[:, 5] = self.masses * p[:, 1] * p[:, 2]
        self._cs = np.zeros((n + 1, 6))
        np.cumsum(second, axis=0, out=self._cs[1:])

    @property
    def n_particles(self) -> int:
        return self.keys.shape[0]

    def run_of(self, key: int) -> tuple[int, int]:
        """Local particle run [s, e) of a cell key."""
        lo, hi = key_interval(key)
        s = int(np.searchsorted(self.keys, np.uint64(lo), side="left"))
        e = int(np.searchsorted(self.keys, np.uint64(hi - 1), side="right"))
        return s, e

    def branch_fingerprint(self, key: int) -> bytes:
        """Digest of the particle data inside cell ``key``.

        Hashes the Morton keys, positions, and masses of the cell's
        local run plus the server's prefix-sum state at the run start
        (16 bytes, blake2b).  :meth:`record` values are *differences of
        prefix sums*, so they depend on the accumulated floating-point
        prefix as well as the run itself; including both makes an
        unchanged fingerprint a proof that every record under this
        branch is bit-identical to the one a fresh fetch would return
        (assuming the global box and ``bucket_size`` are unchanged).
        Used by :meth:`repro.core.cellcache.CellCache.retain_valid` to
        invalidate cross-timestep cache entries.
        """
        s, e = self.run_of(key)
        return content_fingerprint([
            np.ascontiguousarray(self.keys[s:e]).tobytes(),
            np.ascontiguousarray(self.positions[s:e]).tobytes(),
            np.ascontiguousarray(self.masses[s:e]).tobytes(),
            self._cm[s : s + 1].tobytes(),
            np.ascontiguousarray(self._cmx[s : s + 1]).tobytes(),
            np.ascontiguousarray(self._cs[s : s + 1]).tobytes(),
        ])

    def record(self, key: int, *, with_particles: bool | None = None) -> CellRecord:
        """Full cell record; empty cells yield ``count == 0`` records.

        ``with_particles`` defaults to "yes if leaf" (what a remote
        requester needs); pass False to suppress the payload.
        """
        s, e = self.run_of(key)
        count = e - s
        level = key_level(key)
        if count == 0:
            return CellRecord(key, 0, 0.0, np.zeros(3), np.zeros(6), 0.0, True)
        mass = float(self._cm[e] - self._cm[s])
        mx = self._cmx[e] - self._cmx[s]
        raw2 = self._cs[e] - self._cs[s]
        com = mx / mass if mass > 0 else self.positions[s].copy()
        quad = np.empty(6)
        quad[0] = raw2[0] - mass * com[0] * com[0]
        quad[1] = raw2[1] - mass * com[1] * com[1]
        quad[2] = raw2[2] - mass * com[2] * com[2]
        quad[3] = raw2[3] - mass * com[0] * com[1]
        quad[4] = raw2[4] - mass * com[0] * com[2]
        quad[5] = raw2[5] - mass * com[1] * com[2]
        trace = quad[0] + quad[1] + quad[2]
        quad[:3] = 3.0 * quad[:3] - trace
        quad[3:] *= 3.0
        center, size = cell_center_and_size(key, self.box)
        bmax = float(np.sqrt(3.0) / 2.0 * size + np.linalg.norm(com - center))
        is_leaf = count <= self.bucket_size or level >= MAX_LEVEL
        children: tuple[int, ...] = ()
        if not is_leaf:
            kids = []
            for octant in range(8):
                ck = (key << 3) | octant
                cs_, ce_ = self.run_of(ck)
                if ce_ > cs_:
                    kids.append(ck)
            children = tuple(kids)
        rec = CellRecord(key, count, mass, com, quad, bmax, is_leaf, children)
        if with_particles is None:
            with_particles = is_leaf
        if with_particles and is_leaf:
            rec.positions = self.positions[s:e].copy()
            rec.masses = self.masses[s:e].copy()
        return rec

    def _runs(self, lo: np.ndarray, last: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        s = np.searchsorted(self.keys, lo, side="left").astype(np.int64)
        e = np.searchsorted(self.keys, last, side="right").astype(np.int64)
        return s, e

    def _local_rows(self, keys) -> CellRows:
        """:meth:`record` for many keys at once, bit for bit.

        Returned rows slice the server's own particle arrays: a leaf's
        ``start:stop`` is its local particle run.
        """
        keys = np.asarray(keys, dtype=np.uint64).reshape(-1)
        n = keys.shape[0]
        level, body, lo = _interval_starts(keys)
        span = np.uint64(1) << (3 * (MAX_LEVEL - level)).astype(np.uint64)  # <= 2**63
        s, e = self._runs(lo, lo + (span - np.uint64(1)))
        count = e - s
        full = count > 0
        mass = self._cm[e] - self._cm[s]
        com = np.zeros((n, 3))
        quad = np.zeros((n, 6))
        bmax = np.zeros(n)
        if full.any():
            f = np.flatnonzero(full)
            fs, fe, m = s[f], e[f], mass[f]
            mx = self._cmx[fe] - self._cmx[fs]
            raw2 = self._cs[fe] - self._cs[fs]
            c = self.positions[fs]
            pos_mass = m > 0
            c[pos_mass] = mx[pos_mass] / m[pos_mass, None]
            q = np.empty((f.size, 6))
            for j, (a, b) in enumerate(((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))):
                q[:, j] = raw2[:, j] - m * c[:, a] * c[:, b]
            trace = q[:, 0] + q[:, 1] + q[:, 2]
            q[:, :3] = 3.0 * q[:, :3] - trace[:, None]
            q[:, 3:] *= 3.0
            # Cell geometry exactly as keys.cell_center_and_size.
            lvl = level[f]
            shift = (KEY_BITS - lvl).astype(np.uint64)
            fbody = body[f] << (3 * shift)
            ijk = np.stack([_undilate3(fbody >> np.uint64(a)) >> shift for a in range(3)], axis=1)
            size = self.box.size / (np.uint64(1) << lvl.astype(np.uint64)).astype(np.float64)
            center = self.box.corner + (ijk.astype(np.float64) + 0.5) * size[:, None]
            bmax[f] = np.sqrt(3.0) / 2.0 * size + np.sqrt(_dot_rows(c - center))
            com[f] = c
            quad[f] = q
        is_leaf = (count <= self.bucket_size) | (level >= MAX_LEVEL)
        mask = np.zeros(n, dtype=np.uint8)
        inner = np.flatnonzero(~is_leaf)
        if inner.size:
            step = span[inner] >> np.uint64(3)
            child_lo = lo[inner, None] + step[:, None] * _OCTANTS
            cs, ce = self._runs(child_lo, child_lo + (step[:, None] - np.uint64(1)))
            mask[inner] = ((ce > cs) << _OCTANTS.astype(np.int64)).sum(axis=1).astype(np.uint8)
        # Internal cells carry no particles: their slice is empty.
        return CellRows(keys, count, mass, com, quad, bmax, is_leaf, mask, s,
                        np.where(is_leaf, e, s), self.positions, self.masses)

    def rows(self, keys, *, with_particles: bool = True) -> CellRows:
        """:meth:`record` of every key in ``keys`` as one self-contained
        :class:`CellRows` batch (leaf particles included unless
        ``with_particles`` is False) — the reply a remote requester gets.
        """
        rows = self._local_rows(keys)
        if not with_particles:
            rows.stop = rows.start
        return rows.take(np.arange(len(rows)))

    def subtree_rows(self, branch_keys: list[int]) -> CellRows:
        """Every non-empty cell at or below the given branch cells, level
        by level, as rows slicing this server's particle arrays."""
        parts = []
        level = np.asarray(branch_keys, dtype=np.uint64)
        while level.size:
            rows = self._local_rows(level)
            rows = rows.select(rows.count > 0)
            parts.append(rows)
            level = _mask_children(rows.key[~rows.is_leaf], rows.mask[~rows.is_leaf])[1]
        if not parts:
            return self._local_rows([])
        return CellRows(**{c: np.concatenate([getattr(p, c) for p in parts])
                           for c in CellRows._COLUMNS},
                        positions=self.positions, masses=self.masses)

    def leaf_groups(self, branch_keys: list[int]) -> list[tuple[int, int, int]]:
        """Virtual-tree leaves under the given branch cells.

        Returns ``(key, start, end)`` runs covering every local
        particle exactly once — the sink groups of the parallel
        traversal.
        """
        groups: list[tuple[int, int, int]] = []
        stack = list(branch_keys)
        while stack:
            key = stack.pop()
            s, e = self.run_of(key)
            if e == s:
                continue
            if e - s <= self.bucket_size or key_level(key) >= MAX_LEVEL:
                groups.append((key, s, e))
                continue
            for octant in range(8):
                stack.append((key << 3) | octant)
        groups.sort(key=lambda g: g[1])
        return groups
