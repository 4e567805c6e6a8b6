"""One benchmark process: set up a workload, then measure or trace it.

Started by ``perfbench/run.py`` with the pinned environment it builds;
not meant to be run by hand.  Prints one JSON object as its last line::

    python3 perfbench/child.py --mode setup|measure|trace \\
        --workload NAME --seed N --seconds S --tmp DIR

``setup`` times imports, input generation and one warm-up call.
``measure`` does the same, then repeats the untraced timed call until
``--seconds`` have passed (at least twice) and checks the outputs.
``trace`` makes one untraced and one traced call and reports the
per-layer metrics of the traced one.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def cpu_seconds() -> float:
    """CPU time of this process plus its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def live_children() -> list[int]:
    """PIDs of live (non-zombie) processes whose parent is this one."""
    import multiprocessing

    multiprocessing.active_children()  # reaps finished multiprocessing children
    me = os.getpid()
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == me and fields[0] != "Z":
            found.append(int(entry))
    return found


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--tmp", required=True)
    args = ap.parse_args()

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy as np
    import tracer as tr
    from workloads import WORKLOADS, Check

    wl = WORKLOADS[args.workload](args.seed, args.tmp)
    wl.setup()
    setup_s = time.perf_counter() - T_START
    report = {"setup_s": setup_s, "python": sys.version.split()[0],
              "numpy": np.__version__, "nproc": os.cpu_count()}
    if args.mode == "setup":
        report.update({"attempted": 1, "failed": 0, "failures": []})  # the warm-up call
        print(json.dumps(report))
        return 0

    check = Check()
    attempted = 0

    def timed_call():
        nonlocal attempted
        attempted += 1
        c0, t0 = cpu_seconds(), time.perf_counter()
        out = wl.call()
        return out, time.perf_counter() - t0, cpu_seconds() - c0

    def no_leftover_children(when: str) -> None:
        alive = live_children()
        check(f"no_children_{when}", not alive, f"live child processes {alive}")

    try:
        # One untimed full-size call first: the small warm-up of the
        # set-up does not grow the heap to the working size, and the
        # first full-size call pays those page faults.  Its output is
        # the one the checks look at.
        first, _, _ = timed_call()
        prime_digest = wl.digest(first)
        if args.mode == "measure":
            walls, cpus, digests = [], [], [prime_digest]
            t_begin = time.perf_counter()
            while len(walls) < 2 or time.perf_counter() - t_begin < args.seconds:
                out, wall, cpu = timed_call()
                walls.append(wall)
                cpus.append(cpu)
                digests.append(wl.digest(out))
                no_leftover_children(f"call{len(walls)}")
                wl.cleanup(out)
            self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            check("bit_identical_across_calls", len(set(digests)) == 1,
                  f"{len(set(digests))} distinct output digests over {len(digests)} calls")
            accuracy = wl.check(first, check)  # after peak memory is read
            wl.cleanup(first)
            report.update({
                "walls": walls, "cpus": cpus, "digest": prime_digest,
                "peak_rss_mb": (self_kb + child_kb) / 1024.0, **accuracy,
            })
        else:
            wl.cleanup(first)
            out_u, wall_u, _ = timed_call()
            digest_u = wl.digest(out_u)
            wl.cleanup(out_u)
            check("untraced_repeats", digest_u == prime_digest,
                  "two untraced calls gave different outputs")
            tracer = tr.Tracer(args.tmp)
            tr.install(tracer)
            try:
                out_t, wall_t, _ = timed_call()
            finally:
                tracer.uninstall()
            workers = tracer.collect_workers()
            check("traced_equals_untraced", wl.digest(out_t) == digest_u,
                  "traced outputs differ from untraced outputs")
            wl.check(out_t, check)
            layers = wl.layers(out_t, tracer.local)
            wl.cleanup(out_t)
            # A second untraced call after the traced one, so a drift in
            # machine speed does not read as tracing overhead.
            out_u2, wall_u2, _ = timed_call()
            check("untraced_after_trace", wl.digest(out_u2) == digest_u,
                  "untraced outputs changed after the traced call")
            wl.cleanup(out_u2)
            wall_u = (wall_u + wall_u2) / 2.0
            layers = tr.layer_metrics(tracer.local, workers, layers, wall_t, wall_u)
            no_leftover_children("trace")
            self_sum = sum(v[2] for v in tracer.local.spans.values())
            check("self_times_within_wall", self_sum <= wall_t,
                  f"self times sum {self_sum:.4f} s > traced wall {wall_t:.4f} s")
            check("residual_nonnegative", layers["rank.residual_s"] >= 0.0,
                  f"rank.residual_s {layers['rank.residual_s']:.4f}")
            report.update({"layers": layers, "wall_traced": wall_t,
                           "wall_untraced": wall_u, "digest": digest_u})
    except Exception:  # noqa: BLE001 - a failed call is a failed operation
        traceback.print_exc()
        check("call_completed", False, "the timed call raised")

    report["attempted"] = attempted + len(check.results)
    report["failed"] = len(check.failed)
    report["failures"] = check.failed
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
