"""Batched tree traversal and force evaluation.

The tree is walked for *all* sink groups per frontier pass: every round
MAC-tests one flat array of (group, candidate-cell) pairs — a shared
distance computation over the whole frontier — and the survivors are
emitted as flat CSR-style interaction lists (accepted cells and direct
source leaves per group).  The lists are then evaluated in a handful of
dense kernel calls through a pluggable :mod:`~repro.core.backend`, with
pair expansion chunked so memory stays bounded at any N.

This replaces the historical one-group-at-a-time walker, which is kept
verbatim as :func:`compute_forces_reference`: the differential-physics
suite pins the batched path to it (accelerations within 1e-10,
bit-identical :class:`InteractionCounts`), and the Table 5 benchmark
measures the batched path's speedup against it.

The structure still mirrors the original HOT code (interaction lists
built per group, then a vectorizable inner loop), which is what makes
the flop accounting honest: the returned :class:`InteractionCounts`
feed the Table 6 performance model with the same
38-flop-per-interaction convention the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..machine.specs import FLOPS_PER_INTERACTION
from ..obs import NULL
from .backend import NumpyBackend, get_backend
from .mac import OpeningAngleMAC
from .tree import Tree

__all__ = [
    "InteractionCounts",
    "InteractionLists",
    "TraversalResult",
    "build_interaction_lists",
    "compute_forces",
    "compute_forces_reference",
    "evaluate_interaction_lists",
]

#: Flop convention for a cell (monopole+quadrupole) interaction.
FLOPS_PER_CELL_INTERACTION = 70.0

#: Default cap on expanded (sink, source) pairs held live per dense
#: kernel evaluation.  Sized so the ~10 live (rows x width) temporaries
#: (~100 B/pair) stay cache-resident — the kernels are memory-bound,
#: and a chunk that spills to DRAM costs more than the batching saves.
DEFAULT_PAIR_CHUNK = 1 << 16

_NP_BACKEND = NumpyBackend()


@dataclass
class InteractionCounts:
    """Interaction totals accumulated by a traversal."""

    p2p: int = 0
    p2c: int = 0
    groups: int = 0

    @property
    def flops(self) -> float:
        """Total flops under the paper's accounting convention."""
        return self.p2p * FLOPS_PER_INTERACTION + self.p2c * FLOPS_PER_CELL_INTERACTION

    def merged(self, other: "InteractionCounts") -> "InteractionCounts":
        return InteractionCounts(
            self.p2p + other.p2p, self.p2c + other.p2c, self.groups + other.groups
        )


@dataclass
class TraversalResult:
    """Accelerations/potentials in the *caller's* particle order."""

    accelerations: np.ndarray
    potentials: np.ndarray
    counts: InteractionCounts


@dataclass
class InteractionLists:
    """Flat CSR interaction lists for every sink group of a tree.

    ``groups[g]`` is a leaf cell id; its accepted cells are
    ``cell_ids[cell_offsets[g]:cell_offsets[g+1]]`` and its *external*
    direct-source leaves ``leaf_ids[leaf_offsets[g]:leaf_offsets[g+1]]``
    (the group's own particle run is implied and appended last during
    evaluation, exactly as the reference walker did).  Per-group list
    order matches the reference walker's breadth-first emission order.
    """

    groups: np.ndarray
    cell_offsets: np.ndarray
    cell_ids: np.ndarray
    leaf_offsets: np.ndarray
    leaf_ids: np.ndarray
    counts: InteractionCounts = field(default_factory=InteractionCounts)
    mac_tests: int = 0
    passes: int = 0

    def cells_of(self, g: int) -> np.ndarray:
        return self.cell_ids[self.cell_offsets[g]:self.cell_offsets[g + 1]]

    def leaves_of(self, g: int) -> np.ndarray:
        return self.leaf_ids[self.leaf_offsets[g]:self.leaf_offsets[g + 1]]


def _expand_children(tree: Tree, g_idx: np.ndarray, cells: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Replace internal cells by their children, keeping group pairing."""
    cnt = tree.n_children[cells]
    first = tree.first_child[cells]
    total = int(cnt.sum())
    if total == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    offs = np.repeat(np.cumsum(cnt) - cnt, cnt)
    children = np.repeat(first, cnt) + (np.arange(total, dtype=np.int64) - offs)
    return np.repeat(g_idx, cnt), children


def _csr_by_group(g_idx: np.ndarray, items: np.ndarray, n_groups: int) -> tuple[np.ndarray, np.ndarray]:
    """Sort (group, item) pairs into CSR form, stable within group."""
    order = np.argsort(g_idx, kind="stable")
    offsets = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(np.bincount(g_idx, minlength=n_groups), out=offsets[1:])
    return offsets, items[order]


def build_interaction_lists(tree: Tree, mac=None, *, observer=NULL) -> InteractionLists:
    """Walk the tree for all sink groups per frontier pass.

    Each pass MAC-tests the full (groups x frontier) candidate set as
    one flat array: accepted cells join their group's cell list,
    rejected external leaves join its direct list, rejected internal
    cells are replaced by their children.  Per-group results are
    identical (same lists, same order) to running the reference
    one-group walker on every leaf.
    """
    if tree.mass is None:
        raise ValueError("tree has no multipoles; build with with_multipoles=True")
    mac = mac if mac is not None else OpeningAngleMAC()
    groups = tree.leaf_ids
    n_groups = groups.shape[0]
    g_com = tree.com[groups]
    g_bmax = tree.bmax[groups]

    g_idx = np.arange(n_groups, dtype=np.int64)
    cells = np.zeros(n_groups, dtype=np.int64)  # every group starts at the root
    acc_g: list[np.ndarray] = []
    acc_c: list[np.ndarray] = []
    dir_g: list[np.ndarray] = []
    dir_c: list[np.ndarray] = []
    mac_tests = 0
    passes = 0

    while cells.size:
        passes += 1
        mac_tests += cells.size
        d = tree.com[cells] - g_com[g_idx]
        dist = np.sqrt(np.einsum("ij,ij->i", d, d))
        # The MAC criteria are elementwise, so the group-side bound may
        # be an array: one shared test over the whole frontier.
        ok = mac.accept(dist, tree.bmax[cells], g_bmax[g_idx], tree.mass[cells])
        ok &= cells != groups[g_idx]  # never approximate the group by itself
        acc_g.append(g_idx[ok])
        acc_c.append(cells[ok])
        og, oc = g_idx[~ok], cells[~ok]
        if oc.size == 0:
            break
        is_leaf = tree.n_children[oc] == 0
        # The group itself is excluded: its own run is appended to the
        # direct list exactly once, at evaluation time.
        ext = is_leaf & (oc != groups[og])
        dir_g.append(og[ext])
        dir_c.append(oc[ext])
        g_idx, cells = _expand_children(tree, og[~is_leaf], oc[~is_leaf])

    ag = np.concatenate(acc_g) if acc_g else np.empty(0, dtype=np.int64)
    ac = np.concatenate(acc_c) if acc_c else np.empty(0, dtype=np.int64)
    dg = np.concatenate(dir_g) if dir_g else np.empty(0, dtype=np.int64)
    dc = np.concatenate(dir_c) if dir_c else np.empty(0, dtype=np.int64)
    cell_offsets, cell_ids = _csr_by_group(ag, ac, n_groups)
    leaf_offsets, leaf_ids = _csr_by_group(dg, dc, n_groups)

    ns = tree.count[groups]
    n_src = ns + _NP_BACKEND.segment_sum(
        tree.count[leaf_ids].astype(np.float64), leaf_offsets
    ).astype(np.int64)
    counts = InteractionCounts(
        p2p=int(np.dot(ns, n_src)),
        p2c=int(np.dot(ns, np.diff(cell_offsets))),
        groups=n_groups,
    )
    lists = InteractionLists(
        groups=groups,
        cell_offsets=cell_offsets,
        cell_ids=cell_ids,
        leaf_offsets=leaf_offsets,
        leaf_ids=leaf_ids,
        counts=counts,
        mac_tests=mac_tests,
        passes=passes,
    )
    observer.count("gravity.mac_tests", mac_tests)
    observer.count("gravity.traversal_passes", passes)
    return lists


def evaluate_interaction_lists(
    tree: Tree,
    lists: InteractionLists,
    *,
    eps: float = 0.0,
    G: float = 1.0,
    backend=None,
    exclude_self_potential: bool = True,
    pair_chunk: int = DEFAULT_PAIR_CHUNK,
    observer=NULL,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate batched interaction lists; returns (acc, pot) tree-order."""
    if not eps >= 0:  # also rejects NaN
        raise ValueError("softening must be non-negative")
    if pair_chunk < 1:
        raise ValueError("pair_chunk must be positive")
    kb = get_backend(backend)
    eps2 = eps * eps
    acc = np.zeros_like(tree.positions)
    pot = np.zeros(tree.n_particles)

    groups = lists.groups
    ns = tree.count[groups]
    g_start = tree.start[groups]

    # Component-major copies (each row contiguous): the pair kernels
    # work on 1-D per-component arrays, so every step is a contiguous
    # ufunc instead of a strided column access.
    pos3 = np.ascontiguousarray(tree.positions.T)
    com3 = np.ascontiguousarray(tree.com.T)
    quad6 = np.ascontiguousarray(tree.quad.T)

    # -- cell (monopole+quadrupole) interactions ------------------------
    with observer.span("gravity.kernel.cells", cat="gravity", backend=kb.name):
        kb.eval_cell_rects(
            pos3, g_start, ns, lists.cell_offsets, lists.cell_ids,
            com3, tree.mass, quad6, eps2, G, acc, pot, pair_chunk,
        )

    # -- direct (particle-particle) interactions ------------------------
    # Augment each group's external source leaves with the group itself
    # (its own run interacts directly, appended last — the reference
    # walker's convention), then expand leaves to particle indices.
    ext = np.diff(lists.leaf_offsets)
    aug_cnt = ext + 1
    aug_off = np.zeros(groups.shape[0] + 1, dtype=np.int64)
    np.cumsum(aug_cnt, out=aug_off[1:])
    aug = np.empty(int(aug_off[-1]), dtype=np.int64)
    own_slots = np.zeros(aug.size, dtype=bool)
    own_slots[aug_off[1:] - 1] = True
    aug[~own_slots] = lists.leaf_ids
    aug[own_slots] = groups
    lcnt = tree.count[aug]
    tot = int(lcnt.sum())
    src_flat = np.arange(tot, dtype=np.int64)
    src_flat += np.repeat(tree.start[aug] - (np.cumsum(lcnt) - lcnt), lcnt)
    src_off = np.zeros(groups.shape[0] + 1, dtype=np.int64)
    np.cumsum(_NP_BACKEND.segment_sum(
        lcnt.astype(np.float64), aug_off
    ).astype(np.int64), out=src_off[1:])

    with observer.span("gravity.kernel.direct", cat="gravity", backend=kb.name):
        kb.eval_direct_rects(
            pos3, tree.masses, g_start, ns, src_off, src_flat,
            eps2, G, acc, pot, pair_chunk,
        )

    if exclude_self_potential and eps2 > 0.0:
        # Remove each particle's softened self-energy -G m / eps.
        pot += G * tree.masses / eps

    observer.count("gravity.p2p", lists.counts.p2p)
    observer.count("gravity.p2c", lists.counts.p2c)
    observer.count("gravity.groups", lists.counts.groups)
    return acc, pot


def compute_forces(
    tree: Tree,
    *,
    mac=None,
    eps: float = 0.0,
    G: float = 1.0,
    exclude_self_potential: bool = True,
    backend=None,
    pair_chunk: int = DEFAULT_PAIR_CHUNK,
    observer=NULL,
) -> TraversalResult:
    """Gravitational accelerations and potentials for all particles.

    Batched: interaction lists for every sink group are built in shared
    frontier passes, then evaluated by the selected kernel backend in
    dense chunked calls.  The group's own particles always interact
    directly (including the softened self-term exclusion), so the
    result converges to the direct O(N^2) sum as the MAC tightens.
    """
    if tree.mass is None:
        raise ValueError("tree has no multipoles; build with with_multipoles=True")
    if not eps >= 0:  # also rejects NaN
        raise ValueError("softening must be non-negative")
    kb = get_backend(backend)
    with observer.span("gravity.compute_forces", cat="gravity", backend=kb.name):
        with observer.span("gravity.traversal", cat="gravity"):
            lists = build_interaction_lists(tree, mac, observer=observer)
        acc, pot = evaluate_interaction_lists(
            tree, lists, eps=eps, G=G, backend=kb,
            exclude_self_potential=exclude_self_potential,
            pair_chunk=pair_chunk, observer=observer,
        )

    # Undo the Morton sort: return in the caller's original order.
    acc_out = np.empty_like(acc)
    pot_out = np.empty_like(pot)
    acc_out[tree.order] = acc
    pot_out[tree.order] = pot
    return TraversalResult(acc_out, pot_out, lists.counts)


# -- the historical one-group-at-a-time walker --------------------------
#
# Kept verbatim as the pinning reference: the differential suite holds
# the batched path to within 1e-10 of this walker with bit-identical
# counts, and bench_table5 measures the batched speedup against it.


def _collect_lists(tree: Tree, group: int, mac) -> tuple[np.ndarray, np.ndarray]:
    """Interaction lists for one sink group: (cell ids, particle idx)."""
    g_com = tree.com[group]
    g_bmax = float(tree.bmax[group])
    accepted: list[np.ndarray] = []
    direct: list[np.ndarray] = []
    frontier = np.array([0], dtype=np.int64)
    while frontier.size:
        dist = np.linalg.norm(tree.com[frontier] - g_com, axis=1)
        ok = mac.accept(dist, tree.bmax[frontier], g_bmax, tree.mass[frontier])
        ok &= frontier != group  # never approximate the group by itself
        accepted.append(frontier[ok])
        opened = frontier[~ok]
        if opened.size == 0:
            break
        # The group itself is excluded: the caller adds its own run to
        # the direct list exactly once.
        leaves = opened[(tree.n_children[opened] == 0) & (opened != group)]
        for leaf in leaves:
            s, c = tree.start[leaf], tree.count[leaf]
            direct.append(np.arange(s, s + c, dtype=np.int64))
        internal = opened[tree.n_children[opened] > 0]
        if internal.size:
            counts = tree.n_children[internal]
            firsts = tree.first_child[internal]
            frontier = np.concatenate(
                [np.arange(f, f + c, dtype=np.int64) for f, c in zip(firsts, counts)]
            )
        else:
            frontier = np.empty(0, dtype=np.int64)
    cells = np.concatenate(accepted) if accepted else np.empty(0, dtype=np.int64)
    parts = np.concatenate(direct) if direct else np.empty(0, dtype=np.int64)
    return cells, parts


def _eval_cells(sinks, com, mass, quad, eps2, G):
    """Monopole + quadrupole field of cells at sink positions."""
    return _NP_BACKEND.eval_cells_dense(sinks, com, mass, quad, eps2, G)


def _eval_direct(sinks, sources, src_mass, eps2, G):
    """Plummer-softened direct sum; zero-distance pairs contribute 0."""
    return _NP_BACKEND.eval_direct_dense(sinks, sources, src_mass, eps2, G)


def compute_forces_reference(
    tree: Tree,
    *,
    mac=None,
    eps: float = 0.0,
    G: float = 1.0,
    exclude_self_potential: bool = True,
) -> TraversalResult:
    """The pre-batching walker: one sink group per frontier walk."""
    if tree.mass is None:
        raise ValueError("tree has no multipoles; build with with_multipoles=True")
    if eps < 0:
        raise ValueError("softening must be non-negative")
    mac = mac if mac is not None else OpeningAngleMAC()
    eps2 = eps * eps

    acc = np.zeros_like(tree.positions)
    pot = np.zeros(tree.n_particles)
    counts = InteractionCounts()

    for group in tree.leaf_ids:
        sl = tree.particles_of(group)
        sinks = tree.positions[sl]
        cells, parts = _collect_lists(tree, group, mac)
        ns = sinks.shape[0]
        counts.groups += 1
        if cells.size:
            a, p = _eval_cells(sinks, tree.com[cells], tree.mass[cells], tree.quad[cells], eps2, G)
            acc[sl] += a
            pot[sl] += p
            counts.p2c += ns * cells.size
        # Direct: external leaf particles plus the group's own run.
        own = np.arange(sl.start, sl.stop, dtype=np.int64)
        all_parts = np.concatenate([parts, own]) if parts.size else own
        a, p = _eval_direct(sinks, tree.positions[all_parts], tree.masses[all_parts], eps2, G)
        acc[sl] += a
        pot[sl] += p
        counts.p2p += ns * all_parts.size
        if exclude_self_potential and eps2 > 0.0:
            # Remove each particle's softened self-energy -G m / eps.
            pot[sl] += G * tree.masses[sl] / eps

    # Undo the Morton sort: return in the caller's original order.
    acc_out = np.empty_like(acc)
    pot_out = np.empty_like(pot)
    acc_out[tree.order] = acc
    pot_out[tree.order] = pot
    return TraversalResult(acc_out, pot_out, counts)
