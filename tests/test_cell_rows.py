"""Struct-of-arrays cell rows: bit-identity with ``CellServer.record``
and the closed-form wire size.

The parallel treecode ships cells between ranks as :class:`CellRows`
batches sized by ``CellRows.nbytes`` instead of walking per-record
tuples through ``payload_nbytes``.  Virtual time depends on those byte
counts, so the closed form must equal the walk over the tuple list
the code used to send, for every kind of row.
"""

import numpy as np
import pytest

from repro.core.cellcache import CellCache
from repro.core.cellserver import CellRows, CellServer
from repro.core.keys import ROOT_KEY, BoundingBox, keys_from_positions
from repro.simmpi.api import payload_nbytes
from repro.simmpi.patterns import wire_nbytes


def _server(n=700, seed=0, bucket=8, clump=False, zero_mass=False):
    rng = np.random.default_rng(seed)
    pos = rng.standard_normal((n, 3)) * rng.random((n, 1)) ** 2
    if clump:
        pos[: n // 2] = pos[0]  # coincident particles: leaves at MAX_LEVEL
    m = rng.random(n) / n
    if zero_mass:
        m[: n // 3] = 0.0
    box = BoundingBox.from_points(pos)
    keys = keys_from_positions(pos, box)
    order = np.argsort(keys, kind="stable")
    return CellServer(keys[order], pos[order], m[order], box, bucket_size=bucket)


def _legacy_wire(rec):
    """The per-record tuple the parallel treecode used to send."""
    return (rec.key, rec.count, rec.mass, rec.com, rec.quad, rec.bmax, rec.is_leaf,
            tuple(rec.children), rec.positions, rec.masses)


def _same_record(a, b):
    return (a.key == b.key and a.count == b.count and a.mass == b.mass
            and a.com.tobytes() == b.com.tobytes() and a.quad.tobytes() == b.quad.tobytes()
            and a.bmax == b.bmax and a.is_leaf == b.is_leaf and a.children == b.children
            and (a.positions is None) == (b.positions is None)
            and (a.positions is None or (a.positions.tobytes() == b.positions.tobytes()
                                         and a.masses.tobytes() == b.masses.tobytes())))


SERVERS = {
    "plain": dict(),
    "clumped": dict(clump=True, bucket=5, seed=1),
    "zero-mass": dict(zero_mass=True, seed=2),
    "bucket-1": dict(n=200, bucket=1, seed=3),
}


@pytest.mark.parametrize("name", sorted(SERVERS))
def test_rows_bit_identical_to_record(name):
    srv = _server(**SERVERS[name])
    keys = srv.subtree_rows([ROOT_KEY]).key.tolist()
    keys += [(ROOT_KEY << 3) | o for o in range(8)]  # some may be empty
    rows = srv.rows(keys)
    for i, k in enumerate(keys):
        assert _same_record(rows.record(i), srv.record(k)), k
    bare = srv.rows(keys, with_particles=False)
    for i, k in enumerate(keys):
        assert _same_record(bare.record(i), srv.record(k, with_particles=False)), k


def test_subtree_rows_cover_the_leaf_groups():
    srv = _server()
    rows = srv.subtree_rows([ROOT_KEY])
    leaves = rows.select(rows.is_leaf)
    runs = sorted(zip(leaves.start.tolist(), leaves.stop.tolist()))
    assert runs == [(s, e) for (_, s, e) in srv.leaf_groups([ROOT_KEY])]
    assert rows.positions is srv.positions  # slices, not copies


def _kinds(srv):
    rows = srv.subtree_rows([ROOT_KEY])
    leaf = int(rows.key[np.flatnonzero(rows.is_leaf)[0]])
    internal = int(rows.key[np.flatnonzero(~rows.is_leaf)[-1]])
    filled = set(rows.key.tolist())
    empty = next(k for k in ((ROOT_KEY << 6) | o for o in range(64)) if k not in filled)
    return {"empty": [empty], "leaf": [leaf], "internal": [internal]}


@pytest.mark.parametrize("kind", ["empty", "leaf", "internal"])
@pytest.mark.parametrize("with_particles", [True, False])
def test_closed_form_size_of_single_rows(kind, with_particles):
    srv = _server()
    keys = _kinds(srv)[kind]
    rows = srv.rows(keys, with_particles=with_particles)
    legacy = [_legacy_wire(srv.record(k, with_particles=with_particles)) for k in keys]
    assert rows.nbytes == payload_nbytes(legacy)
    assert wire_nbytes(rows) == payload_nbytes(legacy)


def test_closed_form_size_of_batches():
    srv = _server(clump=True, bucket=5, seed=1)
    assert CellRows.empty().nbytes == payload_nbytes([]) == 0
    kinds = _kinds(srv)
    keys = srv.subtree_rows([ROOT_KEY]).key.tolist()[::3] + kinds["empty"]
    mixed = srv.rows(keys)
    assert mixed.nbytes == payload_nbytes([_legacy_wire(srv.record(k)) for k in keys])
    # 200 + 16 per child key + 32 per carried particle, per row.
    recs = [srv.record(k) for k in keys]
    expect = sum(200 + 16 * len(r.children) + 32 * (0 if r.positions is None else r.count)
                 for r in recs)
    assert mixed.nbytes == expect


def test_take_and_concat_keep_rows_and_particles():
    srv = _server()
    keys = srv.subtree_rows([ROOT_KEY]).key.tolist()
    rows = srv.rows(keys)
    a, b = rows.take(np.arange(0, len(rows), 2)), rows.take(np.arange(1, len(rows), 2))
    both = CellRows.concat([a, b])
    order = np.concatenate([np.arange(0, len(rows), 2), np.arange(1, len(rows), 2)])
    for j, i in enumerate(order):
        assert _same_record(both.record(j), rows.record(i))
    assert both.nbytes == rows.nbytes


def test_cache_bulk_accounting():
    cache = CellCache(capacity=2)
    cache.insert_many([1, 2, 3], [10, 20, 30], [0, 0, 0], [b"", b"", b""])
    assert len(cache) == 3 and cache.stats["inserts"] == 3  # no eviction yet
    cache.count_lookups(hits=4, misses=1, touched=[1])
    assert (cache.stats["hits"], cache.stats["misses"]) == (4, 1)
    assert cache.trim() == [2]  # 1 was touched, so 2 is least recently used
    cache.relabel({1: 11})
    assert list(cache.items()) == [(3, 30), (1, 11)]
    assert cache.stats["evictions"] == 1
