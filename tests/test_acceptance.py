"""Acceptance gate: one test per release criterion, end to end.

Each test exercises the public API the way a user would and checks an
externally stated guarantee: feasibility witnesses, optimality sandwiches,
tail bounds, sensing-separation invariants, coverage horizons, and
byte-level reproducibility.  Expected values are either closed forms
evaluated inline or empirical quantities checked against their own
confidence bands; nothing is tuned to the implementation.

Budgets: the whole module runs in roughly two minutes, dominated by the
100-scenario sweeps of criterion 9.  Criteria with an explicit wall-clock
cap assert it.
"""

import math
import time

import numpy as np
import pytest

from linksched.baselines import pcg_schedule, pg_schedule, pm_schedule
from linksched.centralized import (
    app_schedule,
    coverage_fix,
    pre_repair_average,
    randomized_round,
    repair,
    rounding_tail_bound,
)
from linksched.exact import exhaustive_opt, minimum_frame_length
from linksched.experiment import run_experiment, run_seeds, summarize, emit_results
from linksched.feasibility import (
    check_coverage,
    check_schedule,
    check_sinr,
    throughput,
)
from linksched.lp import build_lp, solve_lp
from linksched.protocol import (
    approximation_ratio_bound,
    compute_diversity,
    compute_rho,
    frame_length_ratio_bound,
    protocol_params,
    run_distributed,
)
from linksched.radio import Link, NetworkInstance, Node, RadioParams, default_tx_power
from linksched.scenario import ScenarioConfig, generate_scenario, read_instance, write_instance

from util import diversity_instance, random_instance

FIXTURE = "tests/fixtures/accumulation.txt"

# two-sided 99.9% normal quantile
Z_999 = 3.290526731491894


def _zero_witnesses(instance, schedule):
    report = check_schedule(instance, schedule)
    assert not report.rx_conflicts, report.describe()
    assert not report.tx_conflicts, report.describe()
    assert not report.half_duplex, report.describe()
    assert not report.sinr_violations, report.describe()
    return report


def test_criterion_01_schedulers_never_emit_constraint_witnesses():
    """500 random instances: app and pg schedules pass every checker.

    Frame lengths draw from [n, 10] so a cover always exists; coverage
    must either hold or be reported through the uncovered channel.
    """
    start = time.monotonic()
    app_partial = pg_partial = 0
    for seed in range(500):
        r = np.random.default_rng(seed)
        n = int(r.integers(1, 11))
        frame = int(r.integers(n, 11))
        area = float(r.uniform(2.5, 8.0))
        inst = random_instance(seed, n, area=area)

        outcome = app_schedule(inst, frame, seed=seed)
        report = _zero_witnesses(inst, outcome.schedule)
        assert tuple(report.uncovered) == outcome.uncovered
        app_partial += bool(outcome.uncovered)

        sched = pg_schedule(inst, frame)
        _zero_witnesses(inst, sched)
        missing = check_coverage(inst, sched)
        assert sched.scheduled_links() | set(missing) == set(inst.link_ids())
        pg_partial += bool(missing)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"feasibility sweep took {elapsed:.1f}s"
    print(
        f"criterion 1 PASS: 500 instances, zero witnesses, "
        f"{app_partial} app / {pg_partial} pg partial covers, {elapsed:.1f}s"
    )


def test_criterion_02_throughput_sandwiched_by_exact_and_lp():
    """Tiny instances: throughput(app) <= exhaustive optimum <= LP bound."""
    start = time.monotonic()
    rel = 1e-6
    for seed in range(200):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 6))
        frame = int(r.integers(2, 4))
        inst = random_instance(seed, n, area=2.2 * n)

        fractional = solve_lp(build_lp(inst, frame))
        opt = exhaustive_opt(inst, frame).throughput
        outcome = app_schedule(inst, frame, seed=seed)
        achieved = throughput(inst, outcome.schedule)

        assert achieved <= opt * (1.0 + rel), (seed, achieved, opt)
        assert opt <= fractional.objective * (1.0 + rel), (seed, opt, fractional.objective)
        assert outcome.lp_objective == fractional.objective
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"sandwich sweep took {elapsed:.1f}s"
    print(f"criterion 2 PASS: 200 sandwiches hold at rel {rel}, {elapsed:.1f}s")


def test_criterion_03_rounding_is_unbiased_for_the_lp_objective():
    """Mean rounded value over 10k seeds sits in the 99.9% band around the LP."""
    inst = random_instance(7, 4, area=3.5)
    fractional = solve_lp(build_lp(inst, 3))
    values = np.array(
        [
            pre_repair_average(fractional, randomized_round(fractional, seed))
            for seed in range(10_000)
        ]
    )
    half_width = Z_999 * values.std(ddof=1) / math.sqrt(values.size)
    gap = abs(float(values.mean()) - fractional.objective)
    assert gap <= half_width, (gap, half_width)
    print(
        f"criterion 3 PASS: |mean - objective| = {gap:.5f} "
        f"within 99.9% band +-{half_width:.5f}"
    )


def test_criterion_04_success_frequency_dominates_tail_bound():
    """Empirical Pr[A >= (1-theta) * OPT] beats the analytic lower bound."""
    assert rounding_tail_bound(0.5, 0.0, 20.0) == pytest.approx(
        1.0 - math.exp(-2.5), rel=1e-9
    )

    inst = random_instance(7, 4, area=3.5)
    frame = 3
    fractional = solve_lp(build_lp(inst, frame))
    opt = exhaustive_opt(inst, frame).throughput

    achieved = []
    deltas = []
    for seed in range(500):
        raw = randomized_round(fractional, seed)
        slots = repair(inst, fractional, raw)
        outcome = coverage_fix(
            inst,
            fractional,
            slots,
            a_rand=pre_repair_average(fractional, raw),
            rng_seed=seed,
        )
        achieved.append(throughput(inst, outcome.schedule))
        deltas.append(outcome.delta_a)

    # the decomposed pipeline is the public one minus the repeated LP solve
    reference = app_schedule(inst, frame, seed=0)
    assert reference.schedule.slots == coverage_fix(
        inst,
        fractional,
        repair(inst, fractional, randomized_round(fractional, 0)),
        a_rand=pre_repair_average(fractional, randomized_round(fractional, 0)),
        rng_seed=0,
    ).schedule.slots

    worst_ratio = min(deltas) / fractional.objective
    checked = []
    for theta in (0.3, 0.5):
        bound = rounding_tail_bound(theta, worst_ratio, fractional.objective)
        freq = sum(a >= (1.0 - theta) * opt for a in achieved) / len(achieved)
        assert freq >= bound, (theta, freq, bound)
        checked.append(f"theta={theta}: {freq:.3f} >= {bound:.3f}")
    print(
        f"criterion 4 PASS: {'; '.join(checked)} "
        f"(worst delta ratio {worst_ratio:.3f}, 500 seeds)"
    )


def test_criterion_05_closed_forms_match_reference_values():
    rho = compute_rho(4.0, 10.0)
    assert rho == pytest.approx(4.0 * (30.0 * math.pi) ** 0.25, rel=1e-9)

    radio = RadioParams(
        alpha=4.0, beta=10.0, noise=1e-9, tx_power=default_tx_power(10.0, 1e-9)
    )
    inst = NetworkInstance(
        nodes=(
            Node(0, 0.0, 0.0),
            Node(1, 1.0, 0.0),
            Node(2, 5.0, 0.0),
            Node(3, 5.0, 0.2),
        ),
        links=(Link(0, 0, 1), Link(1, 2, 3)),
        radio=radio,
    )
    assert compute_diversity(inst) == 2  # length ratio 5 floors to exponent 2

    assert approximation_ratio_bound(2.0, 4.0, 10.0) == pytest.approx(
        2.0**4 * (rho + 2.0) ** 4 / 10.0, rel=1e-9
    )
    print("criterion 5 PASS: rho, diversity exponent, and ratio bound exact at 1e-9")


@pytest.fixture(scope="module")
def diversity_runs():
    """1000 protocol runs over instances with diversity exponent 0, 1, 2."""
    start = time.monotonic()
    runs = []
    for seed in range(1000):
        r = np.random.default_rng(seed)
        n = int(r.integers(2, 7))
        k = seed % 3
        inst = diversity_instance(1000 + seed, n, k)
        assert compute_diversity(inst) == k
        params = protocol_params(inst)
        cap = int(math.ceil(n * frame_length_ratio_bound(inst)))
        trace = run_distributed(inst, params, max_slots=cap, seed=seed)
        runs.append((inst, params, cap, trace))
    return runs, time.monotonic() - start


def test_criterion_06_completions_satisfy_sinr_and_separation(diversity_runs):
    """Every completed reception: SINR >= beta, senders pairwise beyond R_C."""
    runs, elapsed = diversity_runs
    completions = 0
    for inst, params, _, trace in runs:
        raw_range = params.raw_sensing_range
        position = {node.id: (node.x, node.y) for node in inst.nodes}
        sender_of = {link.id: link.sender for link in inst.links}
        for outcome in trace.outcomes:
            done = sorted(outcome.completed)
            for lid in done:
                assert outcome.sinr[lid] >= inst.radio.beta, (trace.seed, lid)
            for i in range(len(done)):
                for j in range(i + 1, len(done)):
                    a = position[sender_of[done[i]]]
                    b = position[sender_of[done[j]]]
                    assert math.dist(a, b) > raw_range, (trace.seed, done[i], done[j])
            completions += len(done)
    assert elapsed < 300.0, f"protocol sweep took {elapsed:.1f}s"
    print(
        f"criterion 6 PASS: 1000 runs, {completions} completions, "
        f"all above beta and separated, {elapsed:.1f}s"
    )


def test_criterion_07_distributed_coverage_within_ratio_bound(diversity_runs):
    """All runs finish inside |E| * ratio-bound slots; slack vs the optimum."""
    runs, _ = diversity_runs
    ratios = []
    for inst, params, cap, trace in runs:
        assert trace.complete, trace.seed
        assert trace.slots_used <= cap
        assert set(trace.first_scheduled) == set(inst.link_ids())
        opt_frame = minimum_frame_length(inst)
        bound = frame_length_ratio_bound(inst)
        assert trace.slots_used <= bound * opt_frame, (trace.seed, trace.slots_used)
        ratios.append(trace.slots_used / opt_frame)
    print(
        f"criterion 7 PASS: 1000 runs complete within bound; slots/optimal "
        f"mean {np.mean(ratios):.2f}, max {max(ratios):.2f}"
    )


def test_criterion_08_fixture_separates_aggregate_from_pairwise():
    """Shipped grid: pairwise schedulers emit SINR witnesses, app and pg none."""
    inst = read_instance(FIXTURE)
    n = len(inst.links)

    assert len(check_sinr(inst, pcg_schedule(inst, n))) >= 1
    assert len(check_sinr(inst, pm_schedule(inst, 2.5, n))) >= 1
    assert check_sinr(inst, pg_schedule(inst, n)) == []
    assert check_sinr(inst, app_schedule(inst, 4, seed=0).schedule) == []
    print("criterion 8 PASS: accumulation fixture fools pcg and pm only")


def test_criterion_09_mean_throughput_ordering_across_sizes():
    """app beats pg and pm on average at every size; <5% dips only reported."""
    shortfalls = []
    hard_failures = []
    lines = []
    for n in (10, 20, 30):
        config = ScenarioConfig(
            pair_count=n, frame_length=8, run_count=100, master_seed=2026
        )
        rows = run_experiment(config, ("app", "pm", "pg"))
        means = {alg: mean for alg, _, _, mean, _ in summarize(rows)}
        lines.append(
            f"n={n}: app={means['app']:.3f} pg={means['pg']:.3f} pm={means['pm']:.3f}"
        )
        for other in ("pg", "pm"):
            if means["app"] >= means[other]:
                continue
            entry = (n, other, means["app"], means[other])
            if means["app"] >= 0.95 * means[other]:
                shortfalls.append(entry)
            else:
                hard_failures.append(entry)
    assert not hard_failures, f"ordering violated by >= 5%: {hard_failures}"
    verdict = "PASS" if not shortfalls else f"PASS with reported dips: {shortfalls}"
    print(f"criterion 9 {verdict}: " + "; ".join(lines))


def test_criterion_10_repeated_runs_are_byte_identical(tmp_path):
    """Same config and master seed twice: identical files modulo wall time."""
    config = ScenarioConfig(pair_count=3, frame_length=4, run_count=3, master_seed=99)

    for run, seed in enumerate(run_seeds(config)):
        first = tmp_path / f"scenario-{run}-a.txt"
        second = tmp_path / f"scenario-{run}-b.txt"
        write_instance(generate_scenario(config, seed), str(first))
        write_instance(generate_scenario(config, seed), str(second))
        assert first.read_bytes() == second.read_bytes()

    outputs = []
    for tag in ("a", "b"):
        results = tmp_path / f"results-{tag}.csv"
        rows = run_experiment(config, ("app", "distributed", "pg"))
        summary = emit_results(rows, str(results))
        outputs.append((results, summary))

    def rows_sans_timing(path):
        lines = path.read_text().splitlines()
        return [line.rsplit(",", 1)[0] for line in lines]

    (res_a, sum_a), (res_b, sum_b) = outputs
    assert rows_sans_timing(res_a) == rows_sans_timing(res_b)
    with open(sum_a, "rb") as fa, open(sum_b, "rb") as fb:
        assert fa.read() == fb.read()
    print("criterion 10 PASS: scenario, result, and summary files reproduce")
