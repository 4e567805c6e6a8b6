"""The benchmark's four workloads.

Each workload builds its inputs from a seed, warms up, runs one timed
call, and checks that call's outputs.  All of them drive the library
through its public entry points only:

``treecode_deep``
    :func:`repro.core.parallel_nbody_run` on a Plummer sphere,
    N = 6144 on 8 simulated ranks for 2 steps (768 particles per rank).
``treecode_wide``
    The same code with N = 3200 on 64 ranks for 1 step (50 particles
    per rank).
``pipeline_chain``
    One in-process :func:`repro.pipeline.run_pipeline` of
    ``PipelineSpec(n_side=24, sn_particles=1500, sn_steps=5)``.
``ensemble_rerun``
    :func:`repro.pipeline.run_ensemble` of 24 entries over 12 distinct
    specs into a fresh store with one worker per core, then the same
    call again against the now warm store.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import numpy as np

#: Ceilings of the accuracy gates on the run's own step-1 forces:
#: about twice the largest p99 measured over seeds 1-10.
FORCE_ERR_P99_MAX = {
    "treecode_deep": 0.008,
    "treecode_wide": 0.012,
    "pipeline_chain": 0.004,
    "ensemble_rerun": 0.0015,
}
#: P(k) of the pipeline against the per-bin reference: the two differ
#: only in summation order.
PK_RTOL = 1e-9
#: Progenitor seeds of the fixed supernova-gravity accuracy probe.
SN_PROBE_SEEDS = range(4)


def _sha(*chunks) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(np.ascontiguousarray(c).tobytes())
    return h.hexdigest()


def _json_sha(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def plummer(n: int, seed: int):
    """Plummer sphere (G = M = a = 1) with isotropic equilibrium
    velocities (Aarseth, Henon & Wielen 1974), mass fraction truncated
    at 0.99 so the padded key box stays compact."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(1e-3, 0.99, n)
    r = 1.0 / np.sqrt(x ** (-2.0 / 3.0) - 1.0)
    pos = r[:, None] * _unit_vectors(rng, n)
    q = np.empty(n)
    todo = np.arange(n)
    while todo.size:
        a = rng.random(todo.size)
        b = 0.1 * rng.random(todo.size)
        ok = b < a * a * (1.0 - a * a) ** 3.5
        q[todo[ok]] = a[ok]
        todo = todo[~ok]
    speed = q * np.sqrt(2.0) * (1.0 + r * r) ** -0.25
    vel = speed[:, None] * _unit_vectors(rng, n)
    return pos, np.full(n, 1.0 / n), vel


def _unit_vectors(rng, n: int) -> np.ndarray:
    d = rng.standard_normal((n, 3))
    return d / np.linalg.norm(d, axis=1, keepdims=True)


def force_errors(positions, masses, eps: float, approx) -> np.ndarray:
    """Relative acceleration error of ``approx`` against the library's
    direct-summation reference."""
    from repro.core.gravity import direct_accelerations

    exact = direct_accelerations(positions, masses, eps=eps, block=256).accelerations
    return np.linalg.norm(approx - exact, axis=1) / np.linalg.norm(exact, axis=1)


def sn_gravity_errors(spec, sn_seed: int) -> np.ndarray:
    """Relative error of the supernova stage's step-1 treecode gravity.

    Rebuilds the stage's initial particle load for ``sn_seed``,
    evaluates the serial treecode the way
    :class:`repro.sph.collapse.CollapseSimulation` does, and compares
    every particle with direct summation.
    """
    from repro.core.gravity import tree_accelerations
    from repro.sph.collapse import CollapseConfig, polytrope_particles

    pos, masses, _ = polytrope_particles(spec.sn_particles, spec.n_poly, seed=sn_seed)
    pos = np.ascontiguousarray(pos, dtype=np.float64)
    cfg = CollapseConfig()
    tree = tree_accelerations(pos, masses, theta=cfg.theta_mac, eps=cfg.eps)
    return force_errors(pos, masses, cfg.eps, tree.accelerations)


def quantiles(err) -> tuple[float, float]:
    p50, p99 = np.quantile(err, [0.5, 0.99])
    return float(p50), float(p99)


def sn_probe_metrics(spec) -> dict:
    """``force_err_*`` of the pipeline workloads: the supernova stage's
    gravity on fixed progenitor loads of the workload's size.

    The run's own loads of 400-1500 particles give quantiles that move
    by up to 80% from seed to seed, so the metric uses loads that do
    not depend on the seed; the run's own loads are gated separately.
    """
    p50, p99 = quantiles(np.concatenate([sn_gravity_errors(spec, k) for k in SN_PROBE_SEEDS]))
    return {"force_err_p50": p50, "force_err_p99": p99}


class Check:
    """Named pass/fail results of one run."""

    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> None:
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> list[str]:
        return [f"{n}: {d}" for n, ok, d in self.results if not ok]


class Workload:
    name = ""

    def __init__(self, seed: int, tmp: str):
        self.seed = seed
        self.tmp = tmp

    def setup(self) -> None:
        """Build inputs and make one warm-up call."""

    def call(self):
        """The timed call; returns its output."""
        raise NotImplementedError

    def digest(self, out) -> str:
        raise NotImplementedError

    def check(self, out, check: Check) -> dict:
        """Correctness gates on one output; returns accuracy metrics."""
        return {}

    def layers(self, out, totals) -> dict:
        """Per-layer metrics read from the output and the span totals."""
        return {}

    def cleanup(self, out) -> None:
        """Remove what one call left in the temp dir."""


class Treecode(Workload):
    n = 0
    ranks = 0
    steps = 0
    dt = 0.01
    theta = 0.7
    eps = 0.02

    def setup(self) -> None:
        from repro.core import ParallelConfig, parallel_nbody_run
        from repro.simmpi.cost import SpaceSimulatorCost

        self._run = parallel_nbody_run
        self._cost = SpaceSimulatorCost
        self.config = ParallelConfig(theta=self.theta, eps=self.eps)
        self.pos, self.mass, self.vel = plummer(self.n, self.seed)
        # A small warm-up: 33 ranks already take the sparse-exchange
        # path that larger rank counts use.
        wpos, wmass, wvel = plummer(512, self.seed + 1)
        self._run(wpos, wmass, wvel, n_ranks=min(self.ranks, 33), n_steps=1, dt=self.dt,
                  config=self.config, cost=self._cost())

    def call(self):
        return self._run(self.pos, self.mass, self.vel, n_ranks=self.ranks,
                         n_steps=self.steps, dt=self.dt, config=self.config,
                         cost=self._cost())

    def digest(self, out) -> str:
        return _sha(out.positions, out.velocities, *out.step_accelerations,
                    np.array([out.counts.p2p, out.counts.p2c, out.counts.groups], dtype=np.float64))

    def check(self, out, check: Check) -> dict:
        p50, p99 = quantiles(force_errors(self.pos, self.mass, self.eps,
                                          out.step_accelerations[0]))
        limit = FORCE_ERR_P99_MAX[self.name]
        check("force_err_p99", p99 < limit, f"p99 {p99:.3g} >= {limit}")
        check("finite_state", bool(np.isfinite(out.positions).all()), "non-finite positions")
        return {"force_err_p50": p50, "force_err_p99": p99}

    def layers(self, out, totals) -> dict:
        sim = out.sim
        comm = out.comm
        hits, misses = comm.get("cache_hits", 0.0), comm.get("cache_misses", 0.0)
        blocked = sum(s.blocked_s for s in sim.stats)
        return {
            "domain.imbalance": max(out.work_imbalance),
            "cellcache.hits": hits,
            "cellcache.misses": misses,
            "cellcache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "cellcache.evictions": comm.get("cache_evictions", 0.0),
            "simmpi.msgs": float(sum(s.msgs_sent for s in sim.stats)),
            "simmpi.bytes": float(sim.total_bytes_sent),
            "simmpi.virtual_s": sim.elapsed,
            "simmpi.blocked_frac": blocked / (len(sim.clocks) * sim.elapsed) if sim.elapsed else 0.0,
            "parallel.requests": comm.get("requests", 0.0),
            "parallel.rounds": comm.get("rounds", 0.0),
            "parallel.prefetch_rounds": comm.get("prefetch_rounds", 0.0),
        }


class TreecodeDeep(Treecode):
    name = "treecode_deep"
    n = 6144
    ranks = 8
    steps = 2


class TreecodeWide(Treecode):
    name = "treecode_wide"
    n = 3200
    ranks = 64
    steps = 1


class PipelineChain(Workload):
    name = "pipeline_chain"

    def setup(self) -> None:
        from repro.campaign import PipelineSpec
        from repro.pipeline import run_pipeline

        self._run = run_pipeline
        self.spec = PipelineSpec(n_side=24, sn_particles=1500, sn_steps=5,
                                 seed=self.seed % (2 ** 31))
        run_pipeline(PipelineSpec(n_side=8, sn_particles=64, sn_steps=1, seed=self.seed))

    def call(self):
        return self._run(self.spec)

    def digest(self, out) -> str:
        return _json_sha(out.to_dict())

    def check(self, out, check: Check) -> dict:
        from repro.cosmology.correlation import measured_power_spectrum_reference
        from repro.pipeline import PIPELINE_STAGES

        state: dict = {}
        for stage in PIPELINE_STAGES[:2]:  # ics, structure: the load P(k) sees
            state.update(stage.run(self.spec, state, None))
        k_ref, p_ref = measured_power_spectrum_reference(
            state["positions"], grid=self.spec.n_side, box_mpc_h=self.spec.box_mpc_h,
            n_bins=self.spec.pk_bins, subtract_shot_noise=False)
        k, p = np.array(out.power_spectrum.k), np.array(out.power_spectrum.power)
        same = k.shape == k_ref.shape and np.allclose(k, k_ref, rtol=PK_RTOL, atol=0) \
            and np.allclose(p, p_ref, rtol=PK_RTOL, atol=0)
        check("pk_vs_reference", same, "P(k) differs from measured_power_spectrum_reference")
        check("halos_found", out.mass_function.n_halos > 0, "no FoF halos")
        _, p99 = quantiles(sn_gravity_errors(self.spec, out.sn_seed))
        limit = FORCE_ERR_P99_MAX[self.name]
        check("force_err_p99", p99 < limit, f"p99 {p99:.3g} >= {limit}")
        return {**sn_probe_metrics(self.spec), "run_force_err_p99": p99}


class EnsembleRerun(Workload):
    name = "ensemble_rerun"
    entries = 24
    distinct = 12

    def setup(self) -> None:
        from repro.campaign import PipelineSpec
        from repro.pipeline import Grid, run_ensemble

        self._run = run_ensemble
        self.workers = os.cpu_count() or 1
        self.base = PipelineSpec(n_side=12, sn_particles=400, sn_steps=3)
        rng = np.random.default_rng(self.seed)
        seeds = tuple(int(s) for s in rng.choice(2 ** 31, size=self.distinct, replace=False))
        self.dists = {"seed": Grid(values=seeds)}
        self._calls = 0
        warm = PipelineSpec(n_side=8, sn_particles=32, sn_steps=1)
        store = os.path.join(self.tmp, "warmup-store")
        run_ensemble(warm, {"seed": Grid(values=(1, 2))}, 2, store, workers=self.workers)
        shutil.rmtree(store)

    def call(self):
        self._calls += 1
        store = os.path.join(self.tmp, f"store-{self._calls}")
        t0 = time.perf_counter()
        cold = self._run(self.base, self.dists, self.entries, store,
                         seed=self.seed, workers=self.workers)
        t1 = time.perf_counter()
        warm = self._run(self.base, self.dists, self.entries, store,
                         seed=self.seed, workers=self.workers)
        t2 = time.perf_counter()
        return {"store": store, "cold": cold, "warm": warm,
                "cold_s": t1 - t0, "warm_s": t2 - t1}

    def digest(self, out) -> str:
        return _json_sha(out["cold"].results)

    def check(self, out, check: Check) -> dict:
        cold, warm = out["cold"].report, out["warm"].report
        check("no_failed_shards", cold.failed == 0 and warm.failed == 0,
              f"failed cold={cold.failed} warm={warm.failed}")
        check("cold_dedupe", cold.dedupe_hits == self.entries - self.distinct
              and cold.computed == self.distinct,
              f"dedupe {cold.dedupe_hits}, computed {cold.computed}")
        check("warm_all_cached", warm.computed == 0 and warm.cache_hits == self.distinct
              and warm.hit_rate == 1.0, f"warm computed {warm.computed}, cached {warm.cache_hits}")
        check("warm_same_results", _json_sha(out["warm"].results) == self.digest(out),
              "warm pass results differ from the cold pass")
        _, p99 = quantiles(np.concatenate([
            sn_gravity_errors(spec, result["products"]["sn_seed"])
            for spec, result in zip(out["cold"].specs[:self.distinct], out["cold"].results)
        ]))
        limit = FORCE_ERR_P99_MAX[self.name]
        check("force_err_p99", p99 < limit, f"p99 {p99:.3g} >= {limit}")
        return {**sn_probe_metrics(self.base), "run_force_err_p99": p99}

    def layers(self, out, totals) -> dict:
        from repro.campaign.store import ResultStore

        cold = out["cold"].report
        with open(ResultStore(out["store"]).events_path) as fh:
            events = [json.loads(line) for line in fh if line.strip()]
        busy = sum(e["seconds"] for e in events if e.get("event") == "computed")
        return {
            "campaign.warm_s": out["warm_s"],
            "campaign.dedupe_hits": float(cold.dedupe_hits),
            "campaign.warm_hit_rate": out["warm"].report.hit_rate,
            "campaign.computed": float(cold.computed),
            "procpool.busy_frac": busy / (cold.workers * out["cold_s"]),
            "procpool.retries": totals.counts.get("procpool.tasks", 0.0)
            - (cold.computed + cold.failed),
        }

    def cleanup(self, out) -> None:
        shutil.rmtree(out["store"])


WORKLOADS = {w.name: w for w in (TreecodeDeep, TreecodeWide, PipelineChain, EnsembleRerun)}
