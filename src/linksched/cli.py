"""Command line surface: generate, schedule, simulate, bound, check, experiment.

    linksched gen --n 10 --seed 3 --out inst.txt
    linksched schedule --algo app --scenario inst.txt --frame 8 --out sched.txt
    linksched simulate --scenario inst.txt --seed 3 --out trace.txt
    linksched bound --kind tail --theta 0.5 --a-hat 20
    linksched bound --kind frame --scenario inst.txt
    linksched check --scenario inst.txt --schedule sched.txt
    linksched experiment --n 5 --frame 4 --runs 20 --algos app,pg --out res.csv

Exit codes: 0 success (check: schedule feasible; simulate: full coverage),
1 failure with a diagnostic on stderr, 2 usage errors (from argparse).
`--config` takes a JSON file of ScenarioConfig fields; explicit flags
override it.
"""

from __future__ import annotations

import argparse
import sys

from . import exact
from .centralized import rounding_tail_bound
from .experiment import ALGORITHMS, SCHEDULERS, emit_results, run_experiment, summarize
from .feasibility import check_coverage, check_schedule, throughput
from .lp import LpInfeasibleError
from .protocol import (
    approximation_ratio_bound,
    export_trace,
    frame_length_ratio_bound,
    protocol_params,
    run_distributed,
)
from .scenario import (
    ScenarioConfig,
    generate_scenario,
    read_instance,
    read_schedule,
    write_instance,
    write_schedule,
)


def _load_config(args) -> ScenarioConfig:
    data = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            data = ScenarioConfig.json_fields(fh.read())
    if getattr(args, "n", None) is not None:
        data["pair_count"] = args.n
    if getattr(args, "frame", None) is not None:
        data["frame_length"] = args.frame
    if getattr(args, "runs", None) is not None:
        data["run_count"] = args.runs
    if getattr(args, "master_seed", None) is not None:
        data["master_seed"] = args.master_seed
    if "pair_count" not in data:
        _usage_error("pair count required (--n or --config)")
    return ScenarioConfig(**data)


def _usage_error(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _cmd_gen(args) -> int:
    config = _load_config(args)
    seed = args.seed if args.seed is not None else config.master_seed
    instance = generate_scenario(config, seed)
    write_instance(instance, args.out)
    print(f"wrote {len(instance.links)} links / {len(instance.nodes)} nodes to {args.out}")
    return 0


def _cmd_schedule(args) -> int:
    instance = read_instance(args.scenario)
    schedule, metrics = SCHEDULERS[args.algo](instance, args.frame, args.seed, args.range)
    for name in ("lp_bound", "delta_ratio"):
        if name in metrics:
            print(f"{name}={metrics[name]!r}")
    print(f"throughput={throughput(instance, schedule)!r}")
    print(f"uncovered={len(check_coverage(instance, schedule))}")
    if args.out:
        write_schedule(schedule, args.out)
        print(f"wrote schedule to {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    instance = read_instance(args.scenario)
    params = protocol_params(instance, mini_slot_count=args.mini_slots)
    trace = run_distributed(
        instance, params, max_slots=args.max_slots, seed=args.seed
    )
    if args.out:
        export_trace(trace, args.out)
        print(f"wrote trace to {args.out}")
    print(f"complete={int(trace.complete)}")
    print(f"slots_used={trace.slots_used}")
    if not trace.complete:
        print(
            f"error: coverage incomplete after {len(trace.outcomes)} slots",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_bound(args) -> int:
    if args.kind == "tail":
        if args.theta is None or args.a_hat is None:
            _usage_error("--kind tail needs --theta and --a-hat")
        value = rounding_tail_bound(args.theta, args.delta_ratio, args.a_hat)
    else:  # frame
        if args.scenario:
            instance = read_instance(args.scenario)
            value = frame_length_ratio_bound(instance)
        elif args.d_max is not None and args.alpha is not None and args.beta is not None:
            value = approximation_ratio_bound(args.d_max, args.alpha, args.beta)
        else:
            _usage_error("--kind frame needs --scenario or all of --d-max/--alpha/--beta")
    print(repr(value))
    return 0


def _cmd_check(args) -> int:
    instance = read_instance(args.scenario)
    schedule = read_schedule(args.schedule)
    report = check_schedule(instance, schedule)
    print(report.describe())
    return 0 if report.feasible else 1


def _cmd_experiment(args) -> int:
    config = _load_config(args)
    algorithms = tuple(name for name in args.algos.split(",") if name)
    rows = run_experiment(config, algorithms)
    spath = emit_results(rows, args.out)
    for algorithm, pair_count, count, mean, spread in summarize(rows):
        print(f"{algorithm} n={pair_count}: mean={mean:.4f} stddev={spread:.4f} ({count} runs)")
    print(f"wrote {len(rows)} rows to {args.out} and summary to {spath}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linksched",
        description="SINR-aware link scheduling: LP pipeline, protocol sim, baselines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance file")
    gen.add_argument("--n", type=int, help="communication pair count")
    gen.add_argument("--config", help="JSON file of ScenarioConfig fields")
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    sched = sub.add_parser("schedule", help="run one scheduler on an instance file")
    sched.add_argument("--algo", required=True, choices=["app", "pm", "pg", "pcg", "opt"])
    sched.add_argument("--scenario", required=True)
    sched.add_argument("--frame", type=int, default=100, help="slots per frame")
    sched.add_argument("--seed", type=int, default=0)
    sched.add_argument("--range", type=float, default=2.5, help="pm interference range")
    sched.add_argument("--out")
    sched.set_defaults(func=_cmd_schedule)

    sim = sub.add_parser("simulate", help="run the distributed protocol simulation")
    sim.add_argument("--scenario", required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--max-slots", type=int, default=None)
    sim.add_argument("--mini-slots", type=int, default=64)
    sim.add_argument("--out")
    sim.set_defaults(func=_cmd_simulate)

    bound = sub.add_parser("bound", help="evaluate a guarantee formula")
    bound.add_argument("--kind", required=True, choices=["tail", "frame"])
    bound.add_argument("--theta", type=float)
    bound.add_argument("--delta-ratio", type=float, default=0.0)
    bound.add_argument("--a-hat", type=float)
    bound.add_argument("--scenario")
    bound.add_argument("--d-max", type=float)
    bound.add_argument("--alpha", type=float)
    bound.add_argument("--beta", type=float)
    bound.set_defaults(func=_cmd_bound)

    check = sub.add_parser("check", help="verify a schedule file against an instance")
    check.add_argument("--scenario", required=True)
    check.add_argument("--schedule", required=True)
    check.set_defaults(func=_cmd_check)

    expm = sub.add_parser("experiment", help="run schedulers over generated scenarios")
    expm.add_argument("--n", type=int, help="communication pair count")
    expm.add_argument("--config", help="JSON file of ScenarioConfig fields")
    expm.add_argument("--frame", type=int, default=None)
    expm.add_argument("--runs", type=int, default=None)
    expm.add_argument("--master-seed", dest="master_seed", type=int, default=None)
    expm.add_argument(
        "--algos", default="app,pm,pg,pcg", help=f"comma list from {','.join(ALGORITHMS)}"
    )
    expm.add_argument("--out", required=True)
    expm.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except LpInfeasibleError as err:
        print(f"error: relaxation infeasible: {err}", file=sys.stderr)
        return 1
    except exact.NoFeasibleScheduleError as err:
        print(f"error: no feasible schedule: {err}", file=sys.stderr)
        return 1
    except (ValueError, OSError, RuntimeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
