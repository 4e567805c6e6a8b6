"""Pins the parallel treecode against its own past outputs.

The differential suites compare the parallel schedules with each other
(async against blocking, warm against cold cache), so a change that
moved every schedule the same way would still pass them.  These
digests were recorded from the implementation that walked one cell
record at a time and must not move when the walk is reimplemented:
each covers the accelerations, potentials, interaction counts, the
virtual clock (``float.hex``), the total bytes on the wire and the full
``comm`` counter dict.

Every case passes ``backend="numpy"`` explicitly so a backend selected
through the environment cannot flip them.  To print the digests of the
current code (only when a change is meant to move them)::

    PYTHONPATH=src python tests/test_parallel_pinned.py
"""

import hashlib
import json

import numpy as np
import pytest

from repro.core import ParallelConfig, parallel_nbody_run, parallel_tree_accelerations
from repro.simmpi import SpaceSimulatorCost


def uniform_cube(n, seed=11):
    rng = np.random.default_rng(seed)
    return rng.random((n, 3)), rng.random(n) / n


def clustered_sphere(n, seed=12):
    rng = np.random.default_rng(seed)
    r = rng.random(n) ** (2.0 / 3.0)
    d = rng.standard_normal((n, 3))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return r[:, None] * d, np.full(n, 1.0 / n)


DISTRIBUTIONS = {"uniform": uniform_cube, "clustered": clustered_sphere}


def _config(**kw):
    return ParallelConfig(theta=0.7, eps=0.02, backend="numpy", **kw)


def _sha(*arrays, extra=()):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    h.update(json.dumps(list(extra), sort_keys=True).encode())
    return h.hexdigest()


def _force_digest(res):
    counts = (res.counts.p2p, res.counts.p2c, res.counts.groups)
    return _sha(res.accelerations, res.potentials, extra=(
        counts, float.hex(res.sim.elapsed), res.sim.total_bytes_sent,
        sorted(res.comm.items())))


def _force_case(dist, ranks, **kw):
    pos, m = DISTRIBUTIONS[dist](700)
    res = parallel_tree_accelerations(pos, m, n_ranks=ranks, config=_config(**kw),
                                      cost=SpaceSimulatorCost())
    return _force_digest(res)


def _run_case():
    pos, m = clustered_sphere(600, seed=41)
    vel = 0.05 * np.random.default_rng(5).standard_normal(pos.shape)
    res = parallel_nbody_run(pos, m, vel, n_ranks=4, n_steps=2, dt=0.01,
                             config=_config(), cost=SpaceSimulatorCost())
    counts = (res.counts.p2p, res.counts.p2c, res.counts.groups)
    return _sha(res.positions, res.velocities, *res.step_accelerations, extra=(
        counts, float.hex(res.sim.elapsed), res.sim.total_bytes_sent,
        sorted(res.comm.items()), [float.hex(w) for w in res.work_imbalance]))


def _tight_cache_case():
    pos, m = clustered_sphere(600)
    res = parallel_tree_accelerations(pos, m, n_ranks=4,
                                      config=_config(cache_capacity=64, max_rounds=2000))
    return _sha(res.accelerations)


CASES = {
    **{f"{dist}-{ranks}": (lambda d=dist, r=ranks: _force_case(d, r))
       for dist in sorted(DISTRIBUTIONS) for ranks in (2, 4, 7, 40)},
    "blocking-4": lambda: _force_case("clustered", 4, comm="blocking"),
    "run-4x2": _run_case,
    "tight-cache-4": _tight_cache_case,
}

PINNED = {
    "blocking-4": "56f78cc987d629bc04ae7170851342f2f1b86d2a5d4b0ef8eb3be9a8db5e3b1e",
    "clustered-2": "6bad842aa263d7fcb498429fc18f72e460f48e86cb4d838028698aaba13f9f9d",
    "clustered-4": "a13147f935ad67cba8ca05198831e174e6a6fecab4c6bc40d8fda8ff1b15c39b",
    "clustered-40": "79a4dfd31adcb86e0cd60701b093e093b191950a564f49b31a55b4de194a3bbc",
    "clustered-7": "00d894719390c914a691034369eb4cbea8a2254d4fc175896323bab8c6ae7087",
    "run-4x2": "9defa10099215561a9d331f30010cba3ff5b88cabe10653abfeb0a8ba1dd6e1f",
    "tight-cache-4": "186fb03d1bb95903cad07ab401a4aa4ac8b4549653c0a26db5bed008e02c5b40",
    "uniform-2": "a2bbcfdb632f949710f1cdb5ca1bb964237afa099bade22a6d8234d350db0fb9",
    "uniform-4": "d0f7deee19b637a46c0e9e9ad3640c54d2402decbcafbdc14ac96b41288b79b4",
    "uniform-40": "e910bd4686b411f736ee8068746c3e2b12d6681f599cc7833a05c1621e9054f2",
    "uniform-7": "8747a25bb66f12b0ff228452cc3d464b9459f5d8443d41a5f738ffe4388d4f2f",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_pinned_digest(case):
    assert CASES[case]() == PINNED[case]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}": "{CASES[name]()}",')
