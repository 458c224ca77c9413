"""One benchmark workload in one process; prints one JSON object.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --workload NAME --seed N --setup-only

Run from the checkout root with PYTHONPATH=src; bench/run.py starts it
that way, in a fresh process per run, so set-up time and peak RSS belong
to the one workload.  Set-up is the import of numpy and the package plus
generating the run's pool of instances.  The loop runs pool items one at
a time (closed loop, one caller) until at least --seconds of timed calls
and at least one full pass over the pool are done; quality numbers and
the fingerprint come from the first pass, so they depend on the seed only.
A later pass must reproduce the first pass's outputs exactly.

How many items a run repeats depends on how fast the machine and the code
are, so every timing weighs each pool item the same: end-to-end times are
taken over each item's median time, and per-layer times over the first
pass.  Two commits thus time the same mix of instances.

End-to-end times are scaled to a nominal machine speed (reference.py): a
reference kernel is timed after set-up and between pool items, and the raw
times are reported next to the scaled ones.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time

perf_counter = time.perf_counter
# Results and span files, relative to the checkout root.
OUT_DIR = ".bench_out"
# Reference kernel samples taken right after set-up.
SETUP_SPEED_SAMPLES = 9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def digest(verdict) -> str:
    """Hash of an item's deterministic outputs: schedules and quality numbers."""
    payload = {
        "schedules": verdict.schedules,
        "quality": {k: repr(v) for k, v in verdict.quality.items()},
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def quality_metrics(qualities: list[dict]) -> tuple[dict, dict]:
    """(gated, informational) quality numbers over the first pass.

    Gated, for every workload: covered_frac, links covered over links given,
    pooled over the SINR-clean schedulers the workload runs (app, pg,
    distributed); tput_per_link_gmean, the geometric mean over those
    schedulers of throughput per link, so each scheduler weighs the same.
    """

    def total(key):
        return sum(q[key] for q in qualities if key in q)

    links = covered = 0
    per_link = []
    for name in ("app", "pg", "dist"):
        n = total(f"{name}_links")
        if not n:
            continue
        links += n
        covered += n - total(f"{name}_uncovered")
        per_link.append(total(f"{name}_throughput") / n)
    gated = {
        "covered_frac": covered / links if links else 0.0,
        "tput_per_link_gmean": (
            math.exp(statistics.fmean(math.log(v) for v in per_link))
            if per_link and min(per_link) > 0.0
            else 0.0
        ),
    }
    info = {}
    ratios = [q["app_throughput"] / q["app_lp_bound"] for q in qualities if "app_lp_bound" in q]
    if ratios:
        info["app_throughput_per_lp"] = statistics.fmean(ratios)
        info["app_uncovered_frac"] = total("app_uncovered") / total("app_links")
    if total("pg_links"):
        info["pg_uncovered_frac"] = total("pg_uncovered") / total("pg_links")
    slots = [q["dist_slots"] for q in qualities if "dist_slots" in q]
    if slots:
        info["dist_slots_mean"] = statistics.fmean(slots)
    return gated, info


def layer_metrics(tracer, first, generate_s, sinr_labels) -> dict:
    """Per-layer numbers of a traced run, per instance over the first pass.

    ``first`` holds the first pass's records, one per pool item, so both
    times and counts cover the same instances whatever the machine's speed;
    the counts repeat exactly for a seed.  Layer times are raw; only
    trace.instances_per_s is scaled, to compare with the untraced
    instances_per_s.
    """
    k = len(first)
    self_s = tracer.self_time_by_name(instances=k)

    def per_op(name):
        return self_s.get(name, 0.0) / k

    def attr(name, key):
        return sum(
            s.attrs.get(key, 0)
            for s in tracer.spans
            if s.name == name and s.instance is not None and s.instance < k
        )

    def count(key):
        return sum(r["counts"].get(key, 0) for r in first)

    iterations = attr("simplex.maximize", "iterations")
    rounded_on = attr("centralized.repair", "rounded_on")
    apps = [s for s in tracer.named("centralized.app") if s.instance < k]
    app_s = sum(s.duration for s in apps)
    contenders = count("protocol.contenders")
    slots = count("protocol.slots")
    m = {
        "scenario.generate_s": generate_s,
        "lp.build_s": per_op("lp.build"),
        "lp.rows": attr("lp.build", "rows") / k,
        "lp.cols": attr("lp.build", "cols") / k,
        "lp.solve_overhead_s": per_op("lp.solve"),
        "simplex.s": per_op("simplex.maximize"),
        "simplex.iterations": iterations / k,
        "simplex.s_per_iter": (
            self_s.get("simplex.maximize", 0.0) / iterations if iterations else 0.0
        ),
        "simplex.pivot_cells": attr("simplex.maximize", "pivot_cells") / k,
        "centralized.round_s": per_op("centralized.round"),
        "centralized.repair_s": per_op("centralized.repair"),
        "centralized.fix_s": per_op("centralized.fix"),
        "centralized.check_s": per_op("centralized.check"),
        "centralized.repair_keep_frac": (
            attr("centralized.repair", "kept") / rounded_on if rounded_on else 0.0
        ),
        "centralized.fix_placed": attr("centralized.fix", "placed") / k,
        "centralized.uncovered": count("centralized.uncovered") / k,
        "centralized.app_cover_frac": (
            1.0 - sum(s.self_s for s in apps) / app_s if app_s else 0.0
        ),
        "baselines.pg_s": per_op("baselines.pg"),
        "baselines.pcg_s": per_op("baselines.pcg"),
        "baselines.pm_s": per_op("baselines.pm"),
        "feasibility.sinr_witnesses.pm": count("feasibility.sinr_witnesses.pm") / k,
        "feasibility.sinr_witnesses.pcg": count("feasibility.sinr_witnesses.pcg") / k,
        "protocol.run_s": per_op("protocol.run"),
        "protocol.slots": slots / k,
        "protocol.s_per_slot": self_s.get("protocol.run", 0.0) / slots if slots else 0.0,
        "protocol.deferral_frac": count("protocol.deferrals") / contenders if contenders else 0.0,
        "protocol.cts_denials": count("protocol.cts_denials") / k,
        "protocol.phase3_failures": count("protocol.phase3_failures") / k,
        "experiment.overhead_s": count("experiment.overhead_s") / k,
        "trace.instances_per_s": k / sum(r["scaled_s"] for r in first),
    }
    for label in sinr_labels:
        m[f"radio.sinr_calls.{label}"] = sum(r["sinr"].get(label, 0) for r in first) / k
    m["radio.sinr_calls.other"] = sum(r["sinr"].get("other", 0) for r in first) / k
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    start = perf_counter()
    import numpy
    import linksched.experiment  # pulls in every module the workloads call

    import_s = perf_counter() - start
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    package_file = linksched.experiment.__file__
    if not os.path.realpath(package_file).startswith(src + os.sep):
        print(f"linksched imported from {package_file}, not from {src}", file=sys.stderr)
        return 2

    from reference import SpeedProbe
    from tracing import Tracer
    from workloads import SINR_SPANS, WORKLOADS, Verdict, install_trace

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]()
    start = perf_counter()
    pool = workload.setup(args.seed)
    generate_s = perf_counter() - start
    # Import and generation are mostly interpreter work.
    setup_speed = SpeedProbe("python")
    for _ in range(SETUP_SPEED_SAMPLES):
        setup_speed.sample()
    setup_raw_s = import_s + generate_s
    setup_s = setup_raw_s * setup_speed.scale()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0
    speed = SpeedProbe(workload.reference)

    tracer = None
    if args.trace:
        tracer = Tracer(SINR_SPANS)
        install_trace(tracer)

    k = len(pool)
    records = []
    first_digests: list[str] = []
    qualities: list[dict] = []
    failures: list[str] = []
    measured = 0.0
    i = 0
    while i < k or measured < args.seconds:
        item = pool[i % k]
        speed.sample()
        root = None
        if tracer is not None:
            tracer.instance = i
            root = tracer.open("op")
        error = None
        begin = perf_counter()
        try:
            outputs = workload.run(item)
        except Exception as exc:  # any exception is one failed operation
            error = f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - begin
        if root is not None:
            tracer.close(root)
        measured += seconds
        sinr = tracer.take_sinr_calls() if tracer is not None else {}
        if error is None:
            try:
                verdict = workload.verify(item, outputs, seconds)
            except Exception as exc:
                verdict = Verdict()
                verdict.fail(f"verify raised {type(exc).__name__}: {exc}")
        else:
            verdict = Verdict()
            verdict.fail(error)
        if tracer is not None:
            tracer.take_sinr_calls()  # the checks above are not the workload's
        if i < k:
            first_digests.append(digest(verdict))
            qualities.append(verdict.quality)
        elif digest(verdict) != first_digests[i % k]:
            verdict.fail(f"item {i % k}: outputs differ from the first pass")
        failures.extend(f"op {i}: {msg}" for msg in verdict.failures)
        records.append(
            {
                "item": i % k,
                "seconds": seconds,
                "first": i < k,
                "failed": bool(verdict.failures),
                "counts": verdict.counts,
                "sinr": sinr,
            }
        )
        i += 1
    speed.sample()
    for index, r in enumerate(records):
        r["scaled_s"] = r["seconds"] * speed.scale_between(index)
    if tracer is not None:
        tracer.restore()

    by_item = collections.defaultdict(list)
    raw_by_item = collections.defaultdict(list)
    for r in records:
        by_item[r["item"]].append(r["scaled_s"])
        raw_by_item[r["item"]].append(r["seconds"])
    item_s = [statistics.median(by_item[j]) for j in range(k)]
    raw_item_s = [statistics.median(raw_by_item[j]) for j in range(k)]
    gated, info = quality_metrics(qualities)
    failed = sum(r["failed"] for r in records)
    metrics = {
        "instances_per_s": k / sum(item_s),
        "instance_s_p50": statistics.median(item_s),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **gated,
    }
    info["failed_frac"] = failed / len(records)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": len(records),
        "failed": failed,
        "failures": failures[:10],
        "pool_size": k,
        "measured_s": measured,
        "raw": {
            "instances_per_s": k / sum(raw_item_s),
            "instance_s_p50": statistics.median(raw_item_s),
            "setup_s": setup_raw_s,
        },
        "speed_scale": speed.scale(),
        "setup_speed_scale": setup_speed.scale(),
        "instance_s_p90": statistics.quantiles(item_s, n=10)[-1] if k >= 2 else item_s[0],
        "import_s": import_s,
        "generate_s": generate_s,
        "numpy": numpy.__version__,
        "fingerprint": hashlib.sha256(
            "\n".join([args.workload, str(args.seed), *first_digests]).encode()
        ).hexdigest(),
        "metrics": metrics,
        "info": info,
        "op_seconds": [[r["item"], r["seconds"]] for r in records],
        "speed_samples_s": speed.samples,
    }
    if tracer is not None:
        labels = sorted(set(SINR_SPANS.values()))
        first = records[:k]
        result["layers"] = layer_metrics(tracer, first, generate_s, labels)
        by_name = tracer.self_time_by_name(instances=k)
        first_s = sum(r["seconds"] for r in first)
        result["dominant"] = [
            [name, s / first_s] for name, s in sorted(by_name.items(), key=lambda kv: -kv[1])[:5]
        ]
        path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(path)
        result["spans_file"] = path
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
