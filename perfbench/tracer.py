"""In-memory span tracer that charges wall time to the repro layers.

The tracer wraps public callables at the module attribute their caller
looks up (``repro.core.parallel.keys_from_positions``, the
``CellServer`` methods, ``repro.pipeline.driver.PIPELINE_STAGES`` ...)
and records one span per call.  Nothing under ``src/`` changes: every
wrapper lives here and is removed again by :meth:`Tracer.uninstall`.

Spans nest on a stack.  Each closing span is folded into per-name
totals (calls, total seconds, self seconds), where self time is the
span's duration minus the part its child spans cover.  Only plain
functions are wrapped, never generators, so a span always closes
before the SimMPI event loop resumes another rank.

Pool workers forked while the tracer is installed inherit the
wrappers.  Their totals are reset at fork and written to
``trace-<pid>.json`` in ``worker_dir`` whenever a top-level span closes;
:meth:`Tracer.collect_workers` sums those files.
"""

from __future__ import annotations

import dataclasses
import json
import os
import threading
import time
import types

import numpy as np

#: Flops per evaluated pair, the paper's accounting (38 per
#: particle-particle, 70 per particle-cell interaction).
FLOPS_P2P = 38.0
FLOPS_P2C = 70.0
#: Bytes touched per evaluated pair, as the parallel treecode charges
#: its cost model (32 per particle-particle, 80 per particle-cell).
BYTES_P2P = 32.0
BYTES_P2C = 80.0


class Totals:
    """Per-name span totals plus free counters."""

    def __init__(self):
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, float] = {}

    def add_span(self, name: str, dur: float, self_s: float) -> None:
        entry = self.spans.get(name)
        if entry is None:
            entry = self.spans[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += dur
        entry[2] += self_s

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + value

    def merge(self, other: dict) -> None:
        for name, (calls, total, self_s) in other["spans"].items():
            entry = self.spans.setdefault(name, [0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
        for name, value in other["counts"].items():
            self.count(name, value)

    def to_dict(self) -> dict:
        return {"spans": self.spans, "counts": self.counts}

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def calls(self, name: str) -> int:
        return int(self.spans.get(name, (0, 0.0, 0.0))[0])


class Tracer:
    """Span stack, totals and the attribute replacements to undo."""

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.local = Totals()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self._main_thread = threading.get_ident()
        self._owner_pid = os.getpid()
        self.active = False
        os.register_at_fork(after_in_child=self._after_fork)

    # -- span recording ------------------------------------------------
    def _after_fork(self) -> None:
        if self.active:
            self.local = Totals()
            self._stack = []
            self._main_thread = threading.get_ident()

    def _close(self, name: str, t0: float, frame: list[float]) -> None:
        dur = time.perf_counter() - t0
        stack = self._stack
        stack.pop()
        self.local.add_span(name, dur, dur - frame[0])
        if stack:
            stack[-1][0] += dur
        elif os.getpid() != self._owner_pid:
            self._dump_worker()

    def _dump_worker(self) -> None:
        path = os.path.join(self.worker_dir, f"trace-{os.getpid()}.json")
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump(self.local.to_dict(), fh)
        os.replace(tmp, path)

    def timed(self, name: str, fn, on_result=None):
        """``fn`` wrapped in a span named ``name``.

        ``on_result(totals, args, kwargs, result)`` runs after the call
        to record counters from its arguments or result.
        """
        tracer = self

        def wrapped(*args, **kwargs):
            if not tracer.active or threading.get_ident() != tracer._main_thread:
                return fn(*args, **kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, t0, frame)
            if on_result is not None:
                on_result(tracer.local, args, kwargs, result)
            return result

        return wrapped

    # -- installation --------------------------------------------------
    def replace(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        self.replace(owner, attr, self.timed(name, owner.__dict__[attr], on_result))

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- worker totals -------------------------------------------------
    def collect_workers(self) -> Totals:
        """Sum and delete the per-worker span files."""
        out = Totals()
        for entry in sorted(os.listdir(self.worker_dir)):
            if entry.startswith("trace-") and entry.endswith(".json"):
                path = os.path.join(self.worker_dir, entry)
                with open(path) as fh:
                    out.merge(json.load(fh))
                os.remove(path)
        return out


def _unrecursed(fn):
    """A copy of a self-recursive module function whose recursive calls
    go to the copy, not to the module attribute that now holds the
    wrapper — so only the outermost call of a recursion is a span."""
    glb = dict(fn.__globals__)
    clone = types.FunctionType(fn.__code__, glb, fn.__name__, fn.__defaults__, fn.__closure__)
    clone.__kwdefaults__ = fn.__kwdefaults__
    glb[fn.__name__] = clone
    return clone


def _rect_pairs(counts, offsets) -> float:
    return float(np.dot(np.asarray(counts, dtype=np.float64), np.diff(offsets)))


def _timed_backend(tracer: Tracer, inner):
    """A backend sharing ``inner``'s state whose four gravity kernels
    are spans that also count the pairs each call evaluates."""
    base = type(inner)

    def kernel(method: str, span: str, counter: str, pairs):
        def on_result(totals, args, kwargs, result):
            totals.count(counter, pairs(args[1:]))  # args[0] is the backend
            totals.count("backend.calls")

        return tracer.timed(span, getattr(base, method), on_result)

    cls = type(f"Timed{base.__name__}", (base,), {
        "timed": True,
        "eval_cell_rects": kernel("eval_cell_rects", "backend.cell", "backend.p2c",
                                  lambda a: _rect_pairs(a[2], a[3])),
        "eval_direct_rects": kernel("eval_direct_rects", "backend.direct", "backend.p2p",
                                    lambda a: _rect_pairs(a[3], a[4])),
        "eval_cells_dense": kernel("eval_cells_dense", "backend.cell", "backend.p2c",
                                   lambda a: float(a[0].shape[0] * a[1].shape[0])),
        "eval_direct_dense": kernel("eval_direct_dense", "backend.direct", "backend.p2p",
                                    lambda a: float(a[0].shape[0] * a[1].shape[0])),
    })
    proxy = object.__new__(cls)
    proxy.__dict__ = inner.__dict__
    return proxy


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the benchmark attributes time to."""
    import repro.campaign.fingerprint as fingerprint
    import repro.campaign.runner as runner
    import repro.campaign.store as store
    import repro.core.backend as backend
    import repro.core.cellserver as cellserver
    import repro.core.gravity as gravity
    import repro.core.parallel as parallel
    import repro.core.procpool as procpool
    import repro.core.traversal as traversal
    import repro.cosmology.correlation as correlation
    import repro.cosmology.fof as fof
    import repro.cosmology.ics as ics
    import repro.cosmology.pm as pm
    import repro.pipeline.driver as driver
    import repro.resilience.checkpoint as checkpoint
    import repro.simmpi.api as api
    import repro.simmpi.patterns as patterns
    import repro.sph.collapse as collapse
    import repro.sph.density as density
    import repro.sph.forces as forces
    import repro.sph.neighbors as neighbors

    w = tracer.wrap

    # core.keys / core.domain
    w(parallel, "keys_from_positions", "keys")
    w(parallel, "splitter_candidates", "domain")
    w(parallel, "merge_splitter_candidates", "domain")
    # simmpi engine and wire sizing
    w(parallel, "run", "simmpi.run")
    nbytes = tracer.timed("wire.nbytes", _unrecursed(api.payload_nbytes))
    tracer.replace(api, "payload_nbytes", nbytes)
    tracer.replace(patterns, "payload_nbytes", nbytes)
    # core.cellserver
    w(cellserver.CellServer, "__init__", "cellserver.build")
    w(cellserver.CellServer, "record", "cellserver.record")
    w(cellserver.CellServer, "branch_fingerprint", "cellserver.fingerprint")

    # core.backend: every get_backend lookup returns a timed twin of
    # the registry's instance.
    twins: dict[int, object] = {}
    original = backend.get_backend

    def get_backend(choice=None):
        inner = original(choice)
        if getattr(inner, "timed", False):
            return inner
        if id(inner) not in twins:
            twins[id(inner)] = (inner, _timed_backend(tracer, inner))
        return twins[id(inner)][1]

    for module in (parallel, traversal, density, forces, neighbors, pm, fof, correlation):
        tracer.replace(module, "get_backend", get_backend)

    # serial gravity: core.gravity / core.tree / core.traversal
    w(collapse, "tree_accelerations", "gravity")
    w(gravity, "build_tree", "tree.build")
    w(density, "build_tree", "tree.build")
    w(traversal, "build_interaction_lists", "traversal.lists")
    w(traversal, "evaluate_interaction_lists", "traversal.eval")

    # cosmology
    w(ics, "zeldovich_ics", "ics")
    w(pm.PMSolver, "accelerations", "pm")
    w(pm, "cic_deposit", "pm.cic")
    w(pm, "cic_interpolate", "pm.cic")
    w(fof, "friends_of_friends", "fof",
      lambda t, a, k, r: t.count("fof.halos", r.n_halos))
    w(correlation, "measured_power_spectrum", "power")

    # sph
    w(density, "find_neighbors", "sph.neighbors",
      lambda t, a, k, r: t.count("sph.pairs", r.neighbors.size))
    w(collapse, "adapt_smoothing", "sph.density")
    w(collapse, "compute_sph_forces", "sph.forces")
    w(collapse, "neutrino_step", "sph.neutrino")

    # pipeline stages
    tracer.replace(driver, "PIPELINE_STAGES", tuple(
        dataclasses.replace(s, run=tracer.timed(f"pipeline.{s.name}", s.run))
        for s in driver.PIPELINE_STAGES
    ))
    # One span per ensemble scenario, so a pool worker writes its
    # totals once per scenario rather than after every stage.
    w(driver, "run_campaign_scenario", "pipeline.scenario")

    # campaign / resilience.checkpoint / core.procpool
    w(runner, "scenario_fingerprint_hex", "campaign.fingerprint")
    w(fingerprint, "scenario_fingerprint_hex", "campaign.fingerprint")
    for method in ("write_rank", "commit", "prune", "latest_committed", "load_rank"):
        w(checkpoint.CheckpointStore, method, "campaign.checkpoint")
    for method in ("write_results", "write_shards", "build_index"):
        w(store.ResultStore, method, "campaign.finalize")

    start = tracer.timed("procpool.start", lambda fn, *a, **k: fn(*a, **k))

    class TimedExecutor(procpool.ProcessPoolExecutor):
        """Charges construction and the first submit, which forks the
        workers, to ``procpool.start``, and counts submitted tasks."""

        def __init__(self, *args, **kwargs):
            self._started = False
            start(super().__init__, *args, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            tracer.local.count("procpool.tasks")
            if self._started:
                return super().submit(fn, *args, **kwargs)
            self._started = True
            return start(super().submit, fn, *args, **kwargs)

    tracer.replace(procpool, "ProcessPoolExecutor", TimedExecutor)
    tracer.active = True


#: Per-layer metric -> span whose *self* time it reports.
SELF_TIME = {
    "keys.s": "keys",
    "domain.s": "domain",
    "cellserver.build_s": "cellserver.build",
    "cellserver.record_s": "cellserver.record",
    "cellserver.fingerprint_s": "cellserver.fingerprint",
    "backend.cell_s": "backend.cell",
    "backend.direct_s": "backend.direct",
    "wire.nbytes_s": "wire.nbytes",
    "rank.residual_s": "simmpi.run",
    "tree.build_s": "tree.build",
    "traversal.lists_s": "traversal.lists",
    "traversal.eval_s": "traversal.eval",
    "ics.s": "ics",
    "pm.s": "pm",
    "pm.cic_s": "pm.cic",
    "fof.s": "fof",
    "power.s": "power",
    "sph.neighbors_s": "sph.neighbors",
    "sph.density_s": "sph.density",
    "sph.forces_s": "sph.forces",
    "sph.neutrino_s": "sph.neutrino",
    "campaign.fingerprint_s": "campaign.fingerprint",
    "campaign.checkpoint_s": "campaign.checkpoint",
    "campaign.finalize_s": "campaign.finalize",
    "procpool.start_s": "procpool.start",
}
#: Per-layer metric -> span whose *inclusive* time it reports.
TOTAL_TIME = {
    "simmpi.run_s": "simmpi.run",
    "gravity.s": "gravity",
    **{f"pipeline.{s}_s": f"pipeline.{s}"
       for s in ("ics", "structure", "halos", "power", "supernova")},
}
#: Per-layer metrics a workload reads from its call's own result.
FROM_OUTPUT = (
    "domain.imbalance", "cellcache.hits", "cellcache.misses", "cellcache.hit_rate",
    "cellcache.evictions", "simmpi.msgs", "simmpi.bytes", "simmpi.virtual_s",
    "simmpi.blocked_frac", "parallel.requests", "parallel.rounds",
    "parallel.prefetch_rounds", "campaign.warm_s", "campaign.dedupe_hits",
    "campaign.warm_hit_rate", "campaign.computed", "procpool.retries",
    "procpool.busy_frac",
)
#: Per-layer metric -> span whose call count it reports.
CALLS = {
    "keys.calls": "keys",
    "cellserver.records": "cellserver.record",
    "wire.nbytes_calls": "wire.nbytes",
}


def layer_metrics(local: Totals, workers: Totals, from_output: dict,
                  traced_s: float, untraced_s: float) -> dict:
    """Every per-layer metric of one traced call.

    Span metrics add the coordinator's spans (``local``) and those of
    pool workers (``workers``).  ``from_output`` holds the metrics the
    workload read from the call's own result.
    """
    both = Totals()
    both.merge(local.to_dict())
    both.merge(workers.to_dict())
    out = {m: both.self_time(s) for m, s in SELF_TIME.items()}
    out.update({m: both.total(s) for m, s in TOTAL_TIME.items()})
    out.update({m: float(both.calls(s)) for m, s in CALLS.items()})
    for name in ("backend.calls", "backend.p2p", "backend.p2c", "fof.halos",
                 "sph.pairs", "procpool.tasks"):
        out[name] = both.counts.get(name, 0.0)
    p2p, p2c = out["backend.p2p"], out["backend.p2c"]
    busy = out["backend.cell_s"] + out["backend.direct_s"]
    flops = FLOPS_P2P * p2p + FLOPS_P2C * p2c
    out["backend.mflops"] = flops / busy / 1e6 if busy > 0 else 0.0
    out["backend.bytes_computed"] = BYTES_P2P * p2p + BYTES_P2C * p2c
    out.update(dict.fromkeys(FROM_OUTPUT, 0.0))  # layers this workload does not run
    out.update(from_output)
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return out
