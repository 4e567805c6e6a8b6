"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload treecode_deep --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
three fresh processes each time their set-up (the median is
``setup_s``), and the last of them then repeats the timed call for
``--seconds`` seconds.  ``--trace 1`` reports the per-layer metrics
from one traced call.  The last line of standard output is the result
object; the exit code is 0 only when every check passed.

Each benchmark process runs with a pinned environment (see
:func:`pinned_env`) in its own process group, with its temporary files
under ``.perfbench_work/`` in the checkout.  After each one this script
checks that no process of its group is still alive and that no file of
the checkout changed outside that directory.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work")
#: Environment variables that select library behaviour; scrubbed so a
#: run measures the library defaults.
SCRUBBED = ("REPRO_BACKEND", "REPRO_CAMPAIGN_WORKERS", "REPRO_PROCPOOL_WORKERS",
            "REPRO_BENCH_DIR", "REPRO_BENCH_HISTORY")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0


def pinned_env(tmp: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED}
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        # No bytecode writes: the checkout stays as it was, and every
        # run compiles the repro sources the same way.
        "PYTHONDONTWRITEBYTECODE": "1",
        "TMPDIR": tmp,
        # One BLAS/OpenMP thread per process: the ensemble's pool
        # already uses every core.
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def checkout_files() -> dict:
    """(size, mtime) of every file of the checkout outside the work dirs."""
    skip = {WORK, os.path.join(ROOT, ".bench_build"), os.path.join(ROOT, ".git")}
    out = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if os.path.join(dirpath, d) not in skip]
        for name in filenames:
            path = os.path.join(dirpath, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            out[path] = (st.st_size, st.st_mtime_ns)
    return out


def group_members(pgid: int) -> list[int]:
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] != "Z":
            found.append(int(entry))
    return found


def kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)


def run_child(mode: str, args, tmp: str, failures: list) -> dict | None:
    """Run one benchmark process; returns its report, or None."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--tmp", tmp]
    # Output goes to files, not pipes: a leftover process holding a
    # pipe open would block the read instead of being reported.
    out_path = os.path.join(tmp, f"{mode}.out")
    err_path = os.path.join(tmp, f"{mode}.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=pinned_env(tmp), stdout=out, stderr=err,
                                start_new_session=True)
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            failures.append(f"{mode}: timed out after {CHILD_TIMEOUT_S} s")
    leftover = group_members(proc.pid)
    if leftover:
        failures.append(f"{mode}: processes {leftover} outlived the benchmark process")
    kill_group(proc.pid)
    proc.wait()
    with open(err_path) as fh:
        sys.stderr.write(fh.read())
    with open(out_path) as fh:
        lines = fh.read().strip().splitlines()
    if proc.returncode != 0 or not lines:
        failures.append(f"{mode}: exited with code {proc.returncode}")
        return None
    return json.loads(lines[-1])


def source_revision() -> dict:
    """The git revision when there is one, and a digest of ``src/``."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    rev = {"src_sha256": h.hexdigest()}
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev["git"] = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                        capture_output=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return rev


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not (os.path.isfile(spec_path) and os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py"))):
        print("perfbench: run from the root of a repro checkout (src/repro and "
              "BENCHMARK.json not found)", file=sys.stderr)
        return 2
    with open(spec_path) as fh:
        spec = json.load(fh)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    tmp = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(tmp)
    before = checkout_files()
    failures: list[str] = []
    attempted = 0
    reports = []
    try:
        if args.trace:
            modes = ["trace"]
        else:
            modes = ["setup"] * (SETUP_SAMPLES - 1) + ["measure"]
        for mode in modes:
            report = run_child(mode, args, tmp, failures)
            attempted += 1  # the process and its leftover check
            if report is not None:
                reports.append(report)
                attempted += report["attempted"]
                failures.extend(f"{mode}: {f}" for f in report["failures"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    after = checkout_files()
    attempted += 2  # the file check and the metric-completeness check
    changed = sorted(p for p in set(before) | set(after) if before.get(p) != after.get(p))
    if changed:
        failures.append(f"files changed outside the work dir: {changed[:5]}")

    last = reports[-1] if reports else {}
    metrics = {}
    if args.trace:
        layers = last.get("layers", {})
        for m in spec["per_layer"]:
            if m["name"] in layers:
                metrics[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
    elif "walls" in last:
        values = {
            "wall_s": statistics.median(last["walls"]),
            "cpu_s": statistics.median(last["cpus"]),
            "peak_rss_mb": last["peak_rss_mb"],
            "setup_s": statistics.median(r["setup_s"] for r in reports),
            "force_err_p50": last.get("force_err_p50"),
            "force_err_p99": last.get("force_err_p99"),
        }
        for m in spec["end_to_end"]:
            if values.get(m["name"]) is not None:
                metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        failures.append(f"metrics not measured: {missing}")
    failed = len(failures)  # each failure is one failed operation

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": os.cpu_count(),
        "python": last.get("python", platform.python_version()),
        "numpy": last.get("numpy"), "revision": source_revision(),
        "walls": last.get("walls"), "run_force_err_p99": last.get("run_force_err_p99"),
        "failures": failures,
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(WORK, "results", f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}.json"), "w") as fh:
        json.dump({**record, "metrics": metrics}, fh, indent=1)
    for f in failures:
        print(f"perfbench: FAILED {f}", file=sys.stderr)
    print("perfbench env: " + json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
