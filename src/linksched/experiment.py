"""Experiment orchestration: run schedulers over generated scenarios.

One experiment = one ScenarioConfig + a list of algorithm names.  Every
run draws a fresh instance from a per-run seed (derived from the master
seed), hands it to each requested algorithm, and records one ResultRow per
(run, algorithm).  Everything except the wall_time column is a
deterministic function of (config, algorithms).

Algorithms: app (LP + rounding pipeline), pm / pg / pcg (baselines), opt
(exhaustive, skipped when the instance exceeds the enumeration guards),
lp-bound (relaxation objective only), distributed (protocol simulation).
"""

from __future__ import annotations

import csv
import statistics
import time
from dataclasses import dataclass, fields

import numpy as np

from . import exact
from .baselines import pcg_schedule, pg_schedule, pm_schedule
from .centralized import app_schedule
from .feasibility import check_coverage, throughput
from .lp import LpInfeasibleError, build_lp, solve_lp
from .protocol import protocol_params, run_distributed
from .radio import NetworkInstance
from .scenario import ScenarioConfig, generate_scenario


@dataclass(frozen=True)
class ResultRow:
    """One algorithm on one generated instance.

    Metric fields are None when the algorithm does not produce them (a
    baseline has no LP bound) or when the run failed (opt over the size
    guard, infeasible relaxation); wall_time is the only
    nondeterministic field.
    """

    run: int
    seed: int
    algorithm: str
    pair_count: int
    throughput: float | None
    lp_bound: float | None
    opt: float | None
    delta_ratio: float | None
    uncovered: int | None
    slots_used: int | None
    wall_time: float

    def headline(self) -> float | None:
        """The number a throughput plot would show for this row."""
        if self.throughput is not None:
            return self.throughput
        if self.opt is not None:
            return self.opt
        return self.lp_bound


def run_seeds(config: ScenarioConfig) -> list[int]:
    """Per-run seeds, a pure function of the master seed."""
    state = np.random.SeedSequence(config.master_seed).generate_state(
        config.run_count, dtype=np.uint32
    )
    return [int(s) for s in state]


def _schedule_metrics(instance, schedule):
    return schedule, {
        "throughput": throughput(instance, schedule),
        "uncovered": len(check_coverage(instance, schedule)),
    }


def _app(instance, frame_length, seed, interference_range):
    outcome = app_schedule(instance, frame_length, seed)
    bound = outcome.lp_objective
    return outcome.schedule, {
        "throughput": throughput(instance, outcome.schedule),
        "lp_bound": bound,
        "delta_ratio": outcome.delta_a / bound if bound else None,
        "uncovered": len(outcome.uncovered),
    }


def _opt(instance, frame_length, seed, interference_range):
    result = exact.exhaustive_opt(instance, frame_length)
    return result.schedule, {"opt": result.throughput, "uncovered": 0}


def _lp_bound(instance, frame_length, seed, interference_range):
    return None, {"lp_bound": solve_lp(build_lp(instance, frame_length)).objective}


def _distributed(instance, frame_length, seed, interference_range):
    trace = run_distributed(instance, protocol_params(instance), seed=seed)
    schedule = trace.schedule() if trace.complete else None
    return schedule, {
        "throughput": None if schedule is None else throughput(instance, schedule),
        "uncovered": len(instance.links) - len(trace.first_scheduled),
        "slots_used": trace.slots_used,
    }


# name -> (instance, frame_length, seed, interference_range) -> (schedule or
# None, ResultRow metric fields); the CLI's `schedule` command uses it too.
# Entries look the schedulers up in this module's globals at call time, so a
# wrapper bound over `experiment.pg_schedule` (say) sees every call.
SCHEDULERS = {
    "app": _app,
    "pm": lambda inst, t, seed, r: _schedule_metrics(inst, pm_schedule(inst, r, t)),
    "pg": lambda inst, t, seed, r: _schedule_metrics(inst, pg_schedule(inst, t)),
    "pcg": lambda inst, t, seed, r: _schedule_metrics(inst, pcg_schedule(inst, t)),
    "opt": _opt,
    "lp-bound": _lp_bound,
    "distributed": _distributed,
}
ALGORITHMS = tuple(SCHEDULERS)


def _measure(instance: NetworkInstance, config: ScenarioConfig, algorithm: str, seed: int) -> dict:
    t = config.frame_length
    if algorithm == "opt" and (
        len(instance.links) > exact.MAX_EXACT_LINKS or t > exact.MAX_EXACT_SLOTS
    ):
        return {}  # outside the enumeration guards; leave the row empty
    _, metrics = SCHEDULERS[algorithm](instance, t, seed, config.interference_range)
    return metrics


def run_experiment(
    config: ScenarioConfig, algorithms: tuple[str, ...] | list[str]
) -> list[ResultRow]:
    """One ResultRow per (run, algorithm), ordered by (run, algorithm).

    Per-row failures (infeasible relaxation, exhaustion guards) leave the
    metric fields empty instead of aborting the experiment.
    """
    for name in algorithms:
        if name not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {name!r}; choose from {ALGORITHMS}")
    rows: list[ResultRow] = []
    for run, seed in enumerate(run_seeds(config)):
        instance = generate_scenario(config, seed)
        for algorithm in sorted(set(algorithms)):
            start = time.perf_counter()
            try:
                metrics = _measure(instance, config, algorithm, seed)
            except (LpInfeasibleError, exact.NoFeasibleScheduleError):
                metrics = {}
            rows.append(
                ResultRow(
                    run=run,
                    seed=seed,
                    algorithm=algorithm,
                    pair_count=config.pair_count,
                    throughput=metrics.get("throughput"),
                    lp_bound=metrics.get("lp_bound"),
                    opt=metrics.get("opt"),
                    delta_ratio=metrics.get("delta_ratio"),
                    uncovered=metrics.get("uncovered"),
                    slots_used=metrics.get("slots_used"),
                    wall_time=time.perf_counter() - start,
                )
            )
    return rows


def summarize(rows: list[ResultRow]) -> list[tuple[str, int, int, float, float]]:
    """(algorithm, pair_count, count, mean, stddev) over the headline metric."""
    groups: dict[tuple[str, int], list[float]] = {}
    for row in rows:
        value = row.headline()
        if value is None:
            continue
        groups.setdefault((row.algorithm, row.pair_count), []).append(value)
    out = []
    for (algorithm, pair_count), values in sorted(groups.items()):
        spread = statistics.stdev(values) if len(values) > 1 else 0.0
        out.append(
            (algorithm, pair_count, len(values), statistics.mean(values), spread)
        )
    return out


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def summary_path(path: str) -> str:
    if path.endswith(".csv"):
        return path[: -len(".csv")] + ".summary.csv"
    return path + ".summary"


def emit_results(rows: list[ResultRow], path: str) -> str:
    """Write the row table to `path` and a plot-ready summary alongside.

    Returns the summary path.  Columns follow ResultRow field order; empty
    cells are missing values.
    """
    names = [f.name for f in fields(ResultRow)]
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(names)
            for row in rows:
                writer.writerow([_cell(getattr(row, name)) for name in names])
        spath = summary_path(path)
        with open(spath, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["algorithm", "pair_count", "count", "mean", "stddev"])
            for algorithm, pair_count, count, mean, spread in summarize(rows):
                writer.writerow(
                    [algorithm, pair_count, count, repr(mean), repr(spread)]
                )
    except OSError as err:
        raise OSError(f"cannot write results to {path!r}: {err}") from err
    return spath


def read_results(path: str) -> list[ResultRow]:
    names = [f.name for f in fields(ResultRow)]
    int_fields = {"run", "seed", "pair_count", "uncovered", "slots_used"}
    rows: list[ResultRow] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != names:
            raise ValueError(f"unexpected result columns in {path!r}: {header}")
        for record in reader:
            kwargs = {}
            for name, cell in zip(names, record):
                if cell == "":
                    kwargs[name] = None
                elif name == "algorithm":
                    kwargs[name] = cell
                elif name in int_fields:
                    kwargs[name] = int(cell)
                else:
                    kwargs[name] = float(cell)
            rows.append(ResultRow(**kwargs))
    return rows
