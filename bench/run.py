"""Layered benchmark of linksched: run one workload (or all) and report.

    python3 bench/run.py --workload sweep-sparse|app-dense|nolp-dense|all \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds src/linksched.  Every run
happens in fresh child processes (bench/worker.py) with BLAS and OpenMP
held to one thread: SETUP_PROBES short processes that only import and
generate the pool, then the workload itself.  set-up time is the median
over those set-ups and the workload's own.  The first probe writes any
missing or stale bytecode of the package, so the median is a warm-import
time whatever cache the checkout held before.  Each workload run has a
wall-clock cap and reports "timed out" instead of hanging.  Timings are
scaled to a nominal machine speed by a reference kernel (reference.py);
the report prints the unscaled ones too.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (from a run whose layer functions are wrapped in spans; the
spans go to .bench_out/).  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The full result,
stamped with the source revision, Python and numpy versions and nproc,
goes to .bench_out/ as well.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from worker import OUT_DIR

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep-sparse", "app-dense", "nolp-dense")
SETUP_PROBES = 6
# The whole run of one workload, set-up probes included, must end by then.
WALL_CAP_S = 170.0
ONE_THREAD = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class TimedOut(Exception):
    pass


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    # Bytecode is written, so every set-up probe after the first imports warm.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for name in ONE_THREAD:
        env[name] = "1"
    return env


def run_child(args: list[str], env: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimedOut()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise TimedOut() from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_revision(root: str) -> dict:
    """git HEAD read from .git when present, and a hash of src/linksched."""
    rev = "none (not a git checkout)"
    head_path = os.path.join(root, ".git", "HEAD")
    if os.path.isfile(head_path):
        with open(head_path, encoding="utf-8") as fh:
            head = fh.read().strip()
        rev = head
        if head.startswith("ref: "):
            ref = head[5:]
            ref_path = os.path.join(root, ".git", ref)
            if os.path.isfile(ref_path):
                with open(ref_path, encoding="utf-8") as fh:
                    rev = fh.read().strip()
            else:
                packed = os.path.join(root, ".git", "packed-refs")
                if os.path.isfile(packed):
                    with open(packed, encoding="utf-8") as fh:
                        for line in fh:
                            parts = line.split()
                            if len(parts) == 2 and parts[1] == ref:
                                rev = parts[0]
    digest = hashlib.sha256()
    pkg = os.path.join(root, "src", "linksched")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()[:16]}


def run_workload(name: str, seed: int, seconds: int, trace: int, root: str) -> dict:
    env = child_env(root)
    deadline = time.monotonic() + WALL_CAP_S
    common = ["--workload", name, "--seed", str(seed)]
    probes = [run_child([*common, "--setup-only"], env, deadline) for _ in range(SETUP_PROBES)]
    result = run_child(
        [*common, "--seconds", str(seconds), "--trace", str(trace)],
        env,
        deadline,
    )
    setups = [p["setup_s"] for p in probes] + [result["metrics"]["setup_s"]]
    raw_setups = [p["setup_raw_s"] for p in probes] + [result["raw"]["setup_s"]]
    result["setup_samples_s"] = setups
    result["metrics"]["setup_s"] = statistics.median(setups)
    result["raw"]["setup_s"] = statistics.median(raw_setups)
    return result


def report(result: dict, spec: dict, stamp: dict) -> None:
    """Human-readable lines; every metric by name with its unit."""
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"== {result['workload']}  seed={result['seed']}  trace={result['trace']}")
    print("   " + "  ".join(f"{k}={v}" for k, v in stamp.items()) + f"  numpy={result['numpy']}")
    print(
        f"   instances: {result['attempted']} attempted, {result['failed']} failed "
        f"(pool {result['pool_size']}, {result['measured_s']:.3f} s timed)"
    )
    for msg in result["failures"]:
        print(f"   FAILED {msg}")
    section = "layers" if result["trace"] else "metrics"
    for name, value in sorted(result.get(section, {}).items()):
        print(f"   {name} = {value!r} {units.get(name, 'count')}")
    if not result["trace"]:
        p90_beyond = result["pool_size"] // 10
        print(
            f"   instance_s_p90 = {result['instance_s_p90']!r} s "
            f"(informational: over {result['pool_size']} per-item medians, "
            f"only {p90_beyond} beyond it)"
        )
        info_units = {"dist_slots_mean": "slots"}
        for name, value in sorted(result["info"].items()):
            print(f"   {name} = {value!r} {info_units.get(name, 'frac')}")
        print(f"   setup samples (s) = {result['setup_samples_s']}")
        raw = "  ".join(f"{k}={v!r}" for k, v in sorted(result["raw"].items()))
        print(f"   unscaled: {raw}  (speed scale {result['speed_scale']:.4f})")
    else:
        print("   largest self times (share of timed run):")
        for name, share in result["dominant"]:
            print(f"     {name}: {share:.3f}")
    print(f"   fingerprint = {result['fingerprint']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "linksched", "experiment.py")):
        print(f"no src/linksched under {root}: run from a linksched checkout", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    stamp = {
        **source_revision(root),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    os.makedirs(OUT_DIR, exist_ok=True)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    final = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, args.trace, root)
        except TimedOut:
            print(f"== {name}: timed out after the {WALL_CAP_S:.0f} s cap")
            return 3
        result["stamp"] = stamp
        report(result, spec, stamp)
        path = os.path.join(OUT_DIR, f"result-{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        values = result["layers"] if args.trace else result["metrics"]
        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing:
            print(f"benchmark does not produce {missing}", file=sys.stderr)
            return 4
        prefix = f"{name}." if args.workload == "all" else ""
        for m in wanted:
            final["metrics"][prefix + m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        final["attempted"] += result["attempted"]
        final["failed"] += result["failed"]
        final["correct"] = final["correct"] and result["failed"] == 0
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
