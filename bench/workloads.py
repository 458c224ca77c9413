"""The three benchmark workloads, their output checks and their trace hooks.

Each workload turns the benchmark seed into a fixed pool of inputs
(``setup``), runs one pool item through the package's public entry points
(``run``, the only timed call), and checks what came back (``verify``).
``verify`` returns the item's deterministic outputs: the schedules in
``scenario.format_schedule`` form and the quality numbers, which feed the
determinism fingerprint, plus the failed checks.

  sweep-sparse  experiment.run_experiment(app, pm, pg, pcg) at n=30, T=8 on
                the default 100 x 100 area.  Every link fits every slot, so
                the LP and the simplex are nearly all the work and repair
                only confirms.
  app-dense     centralized.app_schedule at n=12, T=24 on a 6 x 6 area: the
                same LP width (288 columns), but a long frame and binding
                interference, so repair drops links and the coverage fix
                places few of them (0-0.4 per instance) and gives up on the
                rest.
  nolp-dense    baselines pg, pcg, pm and the distributed protocol at n=200,
                T=8 on a 15 x 15 area: no LP at all, O(|S|^2) aggregate-SINR
                admissions in pg and 85-135 protocol slots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from linksched import baselines, centralized, experiment, feasibility, protocol, simplex
from linksched import lp
from linksched.feasibility import check_schedule, throughput
from linksched.scenario import ScenarioConfig, format_schedule, generate_scenario

# app throughput may exceed the LP bound by this relative slack only.
LP_BOUND_RTOL = 1e-6
# Explicit protocol horizon: runs on these instances finish in 70-135 slots, while
# the default horizon (|E| * frame_length_ratio_bound) is 1e7-1e11 slots.
PROTOCOL_MAX_SLOTS = 2000
PM_RANGE = 2.5

# sinr_at_receiver calls are counted against the innermost of these spans.
SINR_SPANS = {
    "centralized.repair": "repair",
    "centralized.fix": "fix",
    "baselines.pg": "pg",
    "baselines.pcg": "pcg",
    "centralized.check": "check",
    "protocol.run": "protocol",
}
SINR_MODULES = (centralized, baselines, feasibility, protocol)


@dataclass
class Verdict:
    """What verify found for one pool item."""

    schedules: dict[str, str] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _pool_seeds(seed: int, salt: int, count: int) -> list[int]:
    state = np.random.SeedSequence([seed, salt]).generate_state(count, dtype=np.uint32)
    return [int(s) for s in state]


def _check_clean(verdict: Verdict, label: str, instance, schedule) -> feasibility.ConstraintReport:
    """Fail on any rx, tx, half-duplex or SINR witness."""
    report = check_schedule(instance, schedule)
    for kind in ("rx_conflicts", "tx_conflicts", "half_duplex", "sinr_violations"):
        found = getattr(report, kind)
        if found:
            verdict.fail(f"{label}: {len(found)} {kind} witnesses, first {found[0]}")
    return report


def _check_radio(verdict: Verdict, label: str, instance, schedule) -> int:
    """Fail on radio witnesses; return the SINR witness count (pm, pcg)."""
    report = check_schedule(instance, schedule)
    for kind in ("rx_conflicts", "tx_conflicts", "half_duplex"):
        if getattr(report, kind):
            verdict.fail(f"{label}: {kind} {getattr(report, kind)[0]}")
    return len(report.sinr_violations)


def _verify_app(verdict: Verdict, instance, outcome) -> None:
    verdict.schedules["app"] = format_schedule(outcome.schedule)
    report = _check_clean(verdict, "app", instance, outcome.schedule)
    if tuple(report.uncovered) != tuple(outcome.uncovered):
        verdict.fail("app: uncovered list disagrees with the checker")
    bound = outcome.lp_objective
    value = throughput(instance, outcome.schedule)
    if bound is None or not bound > 0.0:
        verdict.fail(f"app: LP bound {bound!r} is not positive")
        return
    if value > bound * (1.0 + LP_BOUND_RTOL):
        verdict.fail(f"app: throughput {value!r} exceeds LP bound {bound!r}")
    n = len(instance.links)
    verdict.quality.update(
        app_throughput=value,
        app_lp_bound=bound,
        app_links=n,
        app_uncovered=len(outcome.uncovered),
    )
    verdict.counts["centralized.uncovered"] = len(outcome.uncovered)


def _verify_pg(verdict: Verdict, instance, schedule) -> None:
    verdict.schedules["pg"] = format_schedule(schedule)
    report = _check_clean(verdict, "pg", instance, schedule)
    verdict.quality.update(
        pg_throughput=throughput(instance, schedule),
        pg_links=len(instance.links),
        pg_uncovered=len(report.uncovered),
    )


def _verify_witnessed(verdict: Verdict, label: str, instance, schedule) -> None:
    verdict.schedules[label] = format_schedule(schedule)
    witnesses = _check_radio(verdict, label, instance, schedule)
    verdict.counts[f"feasibility.sinr_witnesses.{label}"] = witnesses


class SweepSparse:
    name = "sweep-sparse"
    salt = 1
    reference = "numpy"  # the simplex is about 90% of the time
    pool_size = 16
    algorithms = ("app", "pm", "pg", "pcg")
    config = ScenarioConfig(pair_count=30, frame_length=8, area=100.0, run_count=1)

    def __init__(self) -> None:
        self._captured: dict[str, object] = {}
        for alg, attr in (
            ("app", "app_schedule"),
            ("pm", "pm_schedule"),
            ("pg", "pg_schedule"),
            ("pcg", "pcg_schedule"),
        ):
            self._capture(alg, attr)

    def _capture(self, alg: str, attr: str) -> None:
        """Keep the schedules run_experiment computes but does not return."""
        original = getattr(experiment, attr)
        captured = self._captured

        def capturing(*args, **kwargs):
            result = original(*args, **kwargs)
            captured[alg] = result
            return result

        setattr(experiment, attr, capturing)

    def setup(self, seed: int) -> list:
        pool = []
        for master in _pool_seeds(seed, self.salt, self.pool_size):
            config = replace(self.config, master_seed=master)
            (instance_seed,) = experiment.run_seeds(config)
            pool.append((config, instance_seed, generate_scenario(config, instance_seed)))
        return pool

    def run(self, item):
        config, _, _ = item
        self._captured.clear()
        return experiment.run_experiment(config, self.algorithms)

    def verify(self, item, rows, seconds: float) -> Verdict:
        _, instance_seed, instance = item
        verdict = Verdict()
        captured = dict(self._captured)
        by_alg = {row.algorithm: row for row in rows}
        if sorted(by_alg) != sorted(self.algorithms) or len(rows) != len(self.algorithms):
            verdict.fail(f"expected one row per algorithm, got {[r.algorithm for r in rows]}")
            return verdict
        if any(row.seed != instance_seed for row in rows):
            verdict.fail("rows carry another instance seed than the pool item")
        for alg in self.algorithms:
            if alg not in captured:
                verdict.fail(f"{alg}: no schedule captured")
                return verdict
        outcome = captured["app"]
        _verify_app(verdict, instance, outcome)
        _verify_pg(verdict, instance, captured["pg"])
        for alg in ("pm", "pcg"):
            _verify_witnessed(verdict, alg, instance, captured[alg])
        for alg in self.algorithms:
            schedule = outcome.schedule if alg == "app" else captured[alg]
            row = by_alg[alg]
            if row.throughput != throughput(instance, schedule):
                verdict.fail(f"{alg}: row throughput differs from its schedule")
            if row.uncovered != len(feasibility.check_coverage(instance, schedule)):
                verdict.fail(f"{alg}: row uncovered count differs from its schedule")
        if by_alg["app"].lp_bound != outcome.lp_objective:
            verdict.fail("app: row lp_bound differs from the outcome")
        verdict.counts["experiment.overhead_s"] = seconds - sum(r.wall_time for r in rows)
        return verdict


class AppDense:
    name = "app-dense"
    salt = 2
    reference = "numpy"
    pool_size = 10
    config = ScenarioConfig(pair_count=12, frame_length=24, area=6.0)

    def setup(self, seed: int) -> list:
        return [
            (s, generate_scenario(self.config, s))
            for s in _pool_seeds(seed, self.salt, self.pool_size)
        ]

    def run(self, item):
        seed, instance = item
        return centralized.app_schedule(instance, self.config.frame_length, seed)

    def verify(self, item, outcome, seconds: float) -> Verdict:
        verdict = Verdict()
        _verify_app(verdict, item[1], outcome)
        return verdict


class NolpDense:
    name = "nolp-dense"
    salt = 3
    reference = "python"  # pure-Python SINR admissions
    pool_size = 60
    config = ScenarioConfig(pair_count=200, frame_length=8, area=15.0)

    def setup(self, seed: int) -> list:
        return [
            (s, generate_scenario(self.config, s))
            for s in _pool_seeds(seed, self.salt, self.pool_size)
        ]

    def run(self, item):
        seed, instance = item
        T = self.config.frame_length
        pg = baselines.pg_schedule(instance, T)
        pcg = baselines.pcg_schedule(instance, T)
        pm = baselines.pm_schedule(instance, PM_RANGE, T)
        trace = protocol.run_distributed(
            instance,
            protocol.protocol_params(instance),
            max_slots=PROTOCOL_MAX_SLOTS,
            seed=seed,
        )
        return pg, pcg, pm, trace

    def verify(self, item, outputs, seconds: float) -> Verdict:
        _, instance = item
        pg, pcg, pm, trace = outputs
        verdict = Verdict()
        _verify_pg(verdict, instance, pg)
        _verify_witnessed(verdict, "pcg", instance, pcg)
        _verify_witnessed(verdict, "pm", instance, pm)
        if not trace.complete or trace.slots_used is None:
            verdict.fail(f"distributed: incomplete after {PROTOCOL_MAX_SLOTS} slots")
            return verdict
        schedule = trace.schedule()
        verdict.schedules["distributed"] = format_schedule(schedule)
        report = _check_clean(verdict, "distributed", instance, schedule)
        if report.uncovered:
            verdict.fail(f"distributed: complete run left {len(report.uncovered)} links out")
        verdict.quality.update(
            dist_throughput=throughput(instance, schedule),
            dist_links=len(instance.links),
            dist_uncovered=len(report.uncovered),
            dist_slots=trace.slots_used,
        )
        contenders = sum(len(o.sensing_times) for o in trace.outcomes)
        verdict.counts.update(
            {
                "protocol.slots": trace.slots_used,
                "protocol.contenders": contenders,
                "protocol.deferrals": sum(len(o.deferred) for o in trace.outcomes),
                "protocol.cts_denials": sum(len(o.rts) - len(o.cts) for o in trace.outcomes),
                "protocol.phase3_failures": sum(len(o.failed) for o in trace.outcomes),
            }
        )
        return verdict


WORKLOADS = {w.name: w for w in (SweepSparse, AppDense, NolpDense)}


def _observe_build(span, args, kwargs, model) -> None:
    span.attrs["rows"] = len(model.rows)
    span.attrs["cols"] = model.n_vars


def _observe_maximize(span, args, kwargs, result) -> None:
    """Tableau shape from maximize's arguments (computed, not read back).

    Rows: constraints + finite upper bounds + the two objective rows.
    Width: columns + slacks + one artificial per row whose right side is
    negative once oriented as <=, + the right-hand side.  Zero rows that
    maximize drops are counted, so this is the phase-1 shape.
    """
    objective, constraints = args[0], args[1]
    upper = args[2] if len(args) > 2 else kwargs.get("upper_bounds")
    n = len(objective)
    m = len(constraints)
    artificials = sum(
        1
        for _, sense, rhs in constraints
        if (sense == simplex.GE and rhs > 0.0) or (sense == simplex.LE and rhs < 0.0)
    )
    if upper is not None:
        m += sum(1 for u in upper if u is not None and math.isfinite(u))
    span.attrs["iterations"] = result.iterations
    span.attrs["pivot_cells"] = result.iterations * (m + 2) * (n + m + artificials + 1)


def _observe_repair(span, args, kwargs, slots) -> None:
    span.attrs["rounded_on"] = int(np.count_nonzero(args[2]))
    span.attrs["kept"] = sum(len(s) for s in slots)


def _observe_fix(span, args, kwargs, outcome) -> None:
    before = set().union(*args[2]) if args[2] else set()
    after = outcome.schedule.scheduled_links()
    span.attrs["placed"] = len(after - before)


def install_trace(tracer) -> None:
    """Wrap every layer's public functions at the bindings the package calls."""
    patches = [
        (experiment, "run_experiment", "experiment.run", None),
        (experiment, "generate_scenario", "scenario.generate", None),
        (experiment, "app_schedule", "centralized.app", None),
        (experiment, "pm_schedule", "baselines.pm", None),
        (experiment, "pg_schedule", "baselines.pg", None),
        (experiment, "pcg_schedule", "baselines.pcg", None),
        (centralized, "app_schedule", "centralized.app", None),
        (centralized, "build_lp", "lp.build", _observe_build),
        (centralized, "solve_lp", "lp.solve", None),
        (lp.simplex, "maximize", "simplex.maximize", _observe_maximize),
        (centralized, "randomized_round", "centralized.round", None),
        (centralized, "repair", "centralized.repair", _observe_repair),
        (centralized, "coverage_fix", "centralized.fix", _observe_fix),
        (centralized, "check_schedule", "centralized.check", None),
        (baselines, "pg_schedule", "baselines.pg", None),
        (baselines, "pcg_schedule", "baselines.pcg", None),
        (baselines, "pm_schedule", "baselines.pm", None),
        (protocol, "run_distributed", "protocol.run", None),
    ]
    for module, attr, name, observe in patches:
        tracer.patch(module, attr, name, observe)
    for module in SINR_MODULES:
        tracer.count_sinr(module)

