"""Rounding, repair, coverage-fix and tail-bound tests.

Frozen constants: 1 - exp(-2.5) computed with the math library at double
precision; the 99.9% two-sided normal quantile 3.290526731491894 from
standard tables.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from linksched.centralized import (
    RoundingOutcome,
    app_schedule,
    coverage_fix,
    pre_repair_average,
    randomized_round,
    repair,
    rounding_tail_bound,
)
from linksched.baselines import pg_schedule
from linksched.experiment import run_seeds
from linksched.feasibility import check_coverage, check_schedule, throughput
from linksched.lp import FractionalSolution, build_lp, solve_lp
from linksched.radio import Link, NetworkInstance, Node, RadioParams
from linksched.scenario import ScenarioConfig, generate_scenario

from util import random_instance

Z_999 = 3.290526731491894


def make_instance(nodes, links, alpha=4.0, beta=10.0, noise=0.0, tx_power=1.0):
    return NetworkInstance(
        nodes=tuple(Node(*n) for n in nodes),
        links=tuple(Link(*l) for l in links),
        radio=RadioParams(alpha=alpha, beta=beta, noise=noise, tx_power=tx_power),
    )


def crossfire(beta=10.0):
    return make_instance(
        nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0), (3, 3.0, 0.0)],
        links=[(0, 0, 1), (1, 3, 2)],
        beta=beta,
    )


def synthetic_fractional(instance, frame_length, yhat_by_link):
    """FractionalSolution with prescribed y-hat values (no solve)."""
    model = build_lp(instance, frame_length)
    values = np.array([yhat_by_link.get(lid, 0.0) for lid in model.link_ids])
    return FractionalSolution(
        model=model, values=values, objective=float(model.objective @ values)
    )


def draws(*rows):
    """A raw rounded assignment: one 0/1 row of slots per link."""
    return np.array(rows, dtype=np.uint8)


class TestRounding:
    def test_reproducible(self):
        sol = solve_lp(build_lp(crossfire(20.0), 2))
        a = randomized_round(sol, 7)
        b = randomized_round(sol, 7)
        assert a.shape == (2, 2)
        assert (a == b).all()

    def test_seed_changes_outcome(self):
        sol = solve_lp(build_lp(crossfire(20.0), 2))
        outcomes = {randomized_round(sol, s).tobytes() for s in range(64)}
        assert len(outcomes) > 1

    def test_negative_seed_rejected(self):
        sol = solve_lp(build_lp(crossfire(10.0), 1))
        with pytest.raises(ValueError):
            randomized_round(sol, -1)

    def test_degenerate_probabilities(self):
        inst = crossfire(10.0)
        sol = synthetic_fractional(inst, 5, {0: 1.0, 1: 0.0})
        for seed in range(50):
            raw = randomized_round(sol, seed)
            assert raw[0].tolist() == [1] * 5
            assert raw[1].tolist() == [0] * 5

    def test_marginals_match_xhat(self):
        # y-hat 0.7 and 0.2; each link's cell mean over 3000 seeds must sit
        # inside the 99.9% binomial band around its own y-hat
        inst = crossfire(10.0)
        sol = synthetic_fractional(inst, 3, {0: 0.7, 1: 0.2})
        n_seeds = 3000
        total = sum(randomized_round(sol, seed).astype(float) for seed in range(n_seeds))
        for i, p in enumerate((0.7, 0.2)):
            mean = total[i].sum() / (n_seeds * 3)
            assert abs(mean - p) <= Z_999 * math.sqrt(p * (1 - p) / (n_seeds * 3))

    def test_streams_independent_across_columns(self):
        # every pair of cells, within one link's stream and across links,
        # must look uncorrelated over the seeds
        inst = crossfire(10.0)
        sol = synthetic_fractional(inst, 3, {0: 0.5, 1: 0.5})
        n_seeds = 3000
        cells = np.array([randomized_round(sol, s).ravel() for s in range(n_seeds)])
        corr = np.corrcoef(cells, rowvar=False)
        off_diag = corr[~np.eye(corr.shape[0], dtype=bool)]
        assert np.abs(off_diag).max() < 4.0 / math.sqrt(n_seeds)

    def test_link_draws_independent_of_other_links(self):
        # a link's cells come from its own (seed, link) stream, so the other
        # links' y-hat never changes them
        inst = crossfire(10.0)
        a = randomized_round(synthetic_fractional(inst, 4, {0: 0.5, 1: 0.1}), 3)
        b = randomized_round(synthetic_fractional(inst, 4, {0: 0.5, 1: 0.9}), 3)
        assert (a[0] == b[0]).all()

    def test_pre_repair_average(self):
        inst = crossfire(10.0)
        sol = synthetic_fractional(inst, 2, {})
        # three transmissions at unit rate over two slots
        assert pre_repair_average(sol, draws([1, 0], [1, 1])) == pytest.approx(1.5, rel=1e-12)


def shared_receiver():
    # two senders into one receiver: never in the same slot
    return make_instance(
        nodes=[(0, 1.0, 0.0), (1, 0.0, 1.0), (2, 0.0, 0.0)],
        links=[(0, 0, 2), (1, 1, 2)],
    )


class TestRepair:
    def test_higher_xhat_wins_shared_receiver(self):
        # both links drew all three slots; pass 1 puts the 0.3 link in slot
        # 0 and the 0.7 link in slot 1, then the 0.7 link fills first and
        # takes the spare slot 2
        sol = synthetic_fractional(shared_receiver(), 3, {0: 0.3, 1: 0.7})
        raw = draws([1, 1, 1], [1, 1, 1])
        assert repair(shared_receiver(), sol, raw) == [{0}, {1}, {1}]

    def test_tie_prefers_smaller_id(self):
        sol = synthetic_fractional(shared_receiver(), 3, {0: 0.5, 1: 0.5})
        raw = draws([1, 1, 1], [1, 1, 1])
        assert repair(shared_receiver(), sol, raw) == [{0}, {1}, {0}]

    def test_sinr_sweep_higher_xhat_wins(self):
        # crossfire at beta=20: the two links cannot share a slot (SINR 16)
        inst = crossfire(20.0)
        sol = synthetic_fractional(inst, 3, {0: 0.8, 1: 0.9})
        raw = draws([1, 1, 1], [1, 1, 1])
        assert repair(inst, sol, raw) == [{0}, {1}, {1}]

    def test_sinr_sweep_equal_xhat_tie(self):
        inst = crossfire(20.0)
        sol = synthetic_fractional(inst, 3, {0: 0.5, 1: 0.5})
        raw = draws([1, 1, 1], [1, 1, 1])
        assert repair(inst, sol, raw) == [{0}, {1}, {0}]

    def test_conflicting_pair_resolves_across_slots(self):
        # both conflicting links drew only slot 0: the lower y-hat link
        # covers there, the other covers in the undrawn slot 1
        inst = crossfire(20.0)
        sol = synthetic_fractional(inst, 2, {0: 0.6, 1: 0.5})
        slots = repair(inst, sol, draws([1, 0], [1, 0]))
        assert slots == [{1}, {0}]
        assert coverage_fix(inst, sol, slots).uncovered == ()

    def test_feasible_slot_untouched(self):
        inst = crossfire(10.0)
        sol = synthetic_fractional(inst, 2, {0: 0.6, 1: 0.6})
        assert repair(inst, sol, draws([1, 0], [1, 0])) == [{0, 1}, set()]

    def test_empty_assignment(self):
        # a link that drew nothing is still covered once, first fit
        inst = crossfire(10.0)
        sol = synthetic_fractional(inst, 2, {})
        assert repair(inst, sol, draws([0, 0], [0, 0])) == [{0, 1}, set()]

    def test_drawn_slots_tried_first(self):
        inst = crossfire(10.0)
        sol = synthetic_fractional(inst, 3, {0: 0.4, 1: 0.4})
        assert repair(inst, sol, draws([0, 0, 1], [0, 1, 1])) == [set(), {1}, {0, 1}]

    def test_bad_shape_rejected(self):
        inst = crossfire(10.0)
        sol = synthetic_fractional(inst, 2, {})
        with pytest.raises(ValueError):
            repair(inst, sol, np.zeros(4, dtype=np.uint8))

    def test_repaired_slots_always_pass_checkers(self):
        for seed in range(25):
            inst = random_instance(seed, n_links=5, area=3.0)
            sol = solve_lp(build_lp(inst, 4))
            raw = randomized_round(sol, seed)
            slots = repair(inst, sol, raw)
            from linksched.feasibility import Schedule

            report = check_schedule(inst, Schedule.from_lists(4, slots))
            assert not report.rx_conflicts
            assert not report.tx_conflicts
            assert not report.half_duplex
            assert not report.sinr_violations


class TestCoverageFix:
    def test_place_into_empty_slot(self):
        # link 1 drew nothing and cannot join link 0: it covers in the empty
        # slot, and the outcome carries A_rand, delta and the seed
        inst = crossfire(20.0)
        sol = synthetic_fractional(inst, 2, {0: 0.2, 1: 0.9})
        slots = repair(inst, sol, draws([1, 0], [0, 0]))
        assert slots == [{0}, {1}]
        outcome = coverage_fix(inst, sol, slots, a_rand=0.5, rng_seed=3)
        assert outcome.schedule.slots == (frozenset({0}), frozenset({1}))
        assert outcome.uncovered == ()
        assert outcome.a_rand == 0.5
        assert outcome.delta_a == pytest.approx(1.0 - 0.5, rel=1e-12)
        assert outcome.rng_seed == 3

    def test_unplaceable_link_reported(self):
        # single slot, beta=20: the two links cannot coexist; the lower
        # y-hat link covers and the other is reported
        inst = crossfire(20.0)
        sol = synthetic_fractional(inst, 1, {0: 0.5, 1: 0.4})
        outcome = coverage_fix(inst, sol, repair(inst, sol, draws([1], [1])))
        assert outcome.schedule.slots == (frozenset({1}),)
        assert outcome.uncovered == (0,)

    def test_forced_links_never_evicted(self):
        # the 0.2 link covers slot 0, its only draw; the 0.9 link drew both
        # slots, covers slot 1 and cannot evict the 0.2 link for its second
        # copy
        inst = crossfire(20.0)
        sol = synthetic_fractional(inst, 2, {0: 0.9, 1: 0.2})
        slots = repair(inst, sol, draws([1, 1], [1, 0]))
        assert slots == [{1}, {0}]

    def test_weak_link_fails_everywhere(self):
        # second link too long to decode even alone (SNR 3.9 < 10)
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 10.0, 0.0), (3, 14.0, 0.0)],
            links=[(0, 0, 1), (1, 2, 3)],
            noise=1e-3,
        )
        sol = synthetic_fractional(inst, 2, {0: 1.0})
        outcome = coverage_fix(inst, sol, repair(inst, sol, draws([1, 1], [0, 0])))
        assert outcome.uncovered == (1,)
        assert outcome.schedule.slots == (frozenset({0}), frozenset({0}))

    def test_reports_slots_as_given(self):
        # no evictions: the outcome is the packed slots, gaps reported
        inst = shared_receiver()
        sol = synthetic_fractional(inst, 1, {0: 0.6, 1: 0.4})
        outcome = coverage_fix(inst, sol, [{1}], a_rand=2.0)
        assert outcome.schedule.slots == (frozenset({1}),)
        assert outcome.uncovered == (0,)
        assert outcome.delta_a == pytest.approx(1.0 - 2.0, rel=1e-12)

    def test_bad_slot_count_rejected(self):
        inst = crossfire(10.0)
        sol = synthetic_fractional(inst, 2, {})
        with pytest.raises(ValueError):
            coverage_fix(inst, sol, [set()])


class TestAppSchedule:
    def test_easy_instance_full_coverage(self):
        outcome = app_schedule(crossfire(10.0), 1, seed=0)
        assert isinstance(outcome, RoundingOutcome)
        assert outcome.uncovered == ()
        assert outcome.schedule.slots == (frozenset({0, 1}),)
        assert outcome.lp_objective == pytest.approx(2.0, rel=1e-9)
        assert outcome.a_rand + outcome.delta_a == pytest.approx(2.0, rel=1e-9)

    def test_invariants_on_random_instances(self):
        inst_count = 0
        for seed in range(30):
            inst = random_instance(seed, n_links=4, area=3.0)
            outcome = app_schedule(inst, 3, seed=seed)
            inst_count += 1
            report = check_schedule(inst, outcome.schedule)
            assert not report.rx_conflicts
            assert not report.tx_conflicts
            assert not report.half_duplex
            assert not report.sinr_violations
            assert tuple(report.uncovered) == outcome.uncovered
            assert outcome.a_rand + outcome.delta_a == pytest.approx(
                throughput(inst, outcome.schedule), rel=1e-9, abs=1e-12
            )
        assert inst_count == 30

    def test_covers_wherever_pg_covers(self):
        # the generator configs where app once left 1-2 links uncovered that
        # pg covers, then tiny random instances from sparse to crowded
        config = ScenarioConfig(pair_count=4, frame_length=3, area=4.0, run_count=1)
        cases = []
        for master in range(5):
            (seed,) = run_seeds(replace(config, master_seed=master))
            cases.append((generate_scenario(config, seed), 3, seed))
        for seed in range(600):
            r = np.random.default_rng(seed)
            n, T, area = int(r.integers(2, 9)), int(r.integers(1, 5)), r.uniform(1.5, 5.0)
            cases.append((random_instance(20000 + seed, n, area=float(area)), T, seed))
        checked = 0
        for inst, T, seed in cases:
            if check_coverage(inst, pg_schedule(inst, T)):
                continue
            assert app_schedule(inst, T, seed).uncovered == (), seed
            checked += 1
        assert checked >= 300

    def test_deterministic_given_seed(self):
        inst = random_instance(5, n_links=5, area=3.0)
        a = app_schedule(inst, 3, seed=11)
        b = app_schedule(inst, 3, seed=11)
        assert a == b


class TestRoundingTailBound:
    def test_frozen_value(self):
        # 1 - exp(-(0.5 + 0)^2 * 20 / 2) = 1 - exp(-2.5)
        assert rounding_tail_bound(0.5, 0.0, 20.0) == pytest.approx(
            0.9179150013761012, rel=1e-12
        )

    def test_monotone_in_a_hat(self):
        assert rounding_tail_bound(0.3, 0.0, 50.0) > rounding_tail_bound(0.3, 0.0, 5.0)

    def test_monotone_in_theta(self):
        assert rounding_tail_bound(0.6, 0.0, 10.0) > rounding_tail_bound(0.2, 0.0, 10.0)

    def test_bound_in_unit_interval(self):
        # upper end inclusive: 1 - exp(-x) rounds to 1.0 for large x
        for theta in (0.1, 0.5, 0.9):
            for ratio in (-theta / 2, 0.0, (1 - theta) / 2):
                for a_hat in (0.5, 5.0, 500.0):
                    assert 0.0 <= rounding_tail_bound(theta, ratio, a_hat) <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rounding_tail_bound(0.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            rounding_tail_bound(1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            rounding_tail_bound(0.5, -0.6, 10.0)
        with pytest.raises(ValueError):
            rounding_tail_bound(0.5, 0.5, 10.0)
        with pytest.raises(ValueError):
            rounding_tail_bound(0.5, 0.0, 0.0)
