"""Baseline schedulers: coloring rules, greedy admission, accumulation demo.

Oracles:
  * hand-built conflict graphs for the disk and pairwise rules (distances
    chosen around the 2.5 interference radius; pairwise SINR 16 geometry
    reused from the radio tests);
  * the accumulation grid in tests/util.py, verified numerically there:
    pairwise-safe, aggregate-unsafe.
"""

import pytest

from linksched.baselines import pcg_schedule, pg_schedule, pm_schedule
from linksched.centralized import app_schedule
from linksched.feasibility import (
    check_coverage,
    check_radio_constraints,
    check_schedule,
    check_sinr,
)
from linksched.radio import Link, NetworkInstance, Node, RadioParams, default_tx_power

from util import accumulation_grid, random_instance


def make_instance(nodes, links, alpha=4.0, beta=10.0, noise=0.0, tx_power=1.0):
    return NetworkInstance(
        nodes=tuple(Node(*n) for n in nodes),
        links=tuple(Link(*l) for l in links),
        radio=RadioParams(alpha=alpha, beta=beta, noise=noise, tx_power=tx_power),
    )


@pytest.fixture
def crossfire():
    # two parallel unit links, facing receivers, pairwise SINR 16 each
    return make_instance(
        nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0), (3, 3.0, 0.0)],
        links=[(0, 0, 1), (1, 3, 2)],
    )


class TestProtocolModel:
    def test_single_link_single_color(self):
        inst = make_instance(nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0)], links=[(0, 0, 1)])
        sched = pm_schedule(inst, 2.5, 3)
        assert sorted(sched.slots[0]) == [0]
        assert check_coverage(inst, sched) == []

    def test_shared_receiver_two_colors(self):
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)],
            links=[(0, 0, 1), (1, 2, 1)],
        )
        sched = pm_schedule(inst, 0.5, 2)
        assert sorted(sched.slots[0]) == [0]
        assert sorted(sched.slots[1]) == [1]

    def test_distant_links_share_color(self):
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 10.0, 0.0), (3, 11.0, 0.0)],
            links=[(0, 0, 1), (1, 2, 3)],
        )
        sched = pm_schedule(inst, 2.5, 2)
        assert sorted(sched.slots[0]) == [0, 1]

    def test_range_boundary_is_inclusive(self):
        # cross distance sender->receiver exactly 2.5 counts as conflict
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 3.5, 0.0), (3, 4.5, 0.0)],
            links=[(0, 0, 1), (1, 2, 3)],
        )
        assert len([s for s in pm_schedule(inst, 2.5, 2).slots if s]) == 2
        assert len([s for s in pm_schedule(inst, 2.4, 2).slots if s]) == 1

    def test_overflow_leaves_links_uncovered(self):
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)],
            links=[(0, 0, 1), (1, 2, 1)],
        )
        sched = pm_schedule(inst, 0.5, 1)
        assert check_coverage(inst, sched) == [1]

    def test_rejects_bad_range(self):
        inst = make_instance(nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0)], links=[(0, 0, 1)])
        with pytest.raises(ValueError):
            pm_schedule(inst, 0.0, 1)

    def test_radio_constraints_always_hold(self):
        for seed in range(15):
            inst = random_instance(seed, n_links=6)
            sched = pm_schedule(inst, 2.5, 6)
            assert check_radio_constraints(inst, sched).clean()
            assert check_coverage(inst, sched) == []


class TestPairwiseConflict:
    def test_crossfire_shares_slot(self, crossfire):
        # pairwise SINR 16 >= beta 10, so the pairwise rule sees no conflict
        sched = pcg_schedule(crossfire, 2)
        assert sorted(sched.slots[0]) == [0, 1]

    def test_crossfire_splits_at_higher_threshold(self):
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0), (3, 3.0, 0.0)],
            links=[(0, 0, 1), (1, 3, 2)],
            beta=20.0,
        )
        sched = pcg_schedule(inst, 2)
        assert sorted(sched.slots[0]) == [0]
        assert sorted(sched.slots[1]) == [1]

    def test_shared_node_conflicts(self):
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)],
            links=[(0, 0, 1), (1, 1, 2)],
        )
        sched = pcg_schedule(inst, 2)
        assert sorted(sched.slots[0]) == [0]
        assert sorted(sched.slots[1]) == [1]

    def test_radio_constraints_always_hold(self):
        for seed in range(15):
            inst = random_instance(seed, n_links=6)
            sched = pcg_schedule(inst, 6)
            assert check_radio_constraints(inst, sched).clean()
            assert check_coverage(inst, sched) == []


class TestPhysicalGreedy:
    def test_single_link_first_slot(self):
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0)],
            links=[(0, 0, 1)],
            noise=1e-9,
            tx_power=1e-6,
        )
        sched = pg_schedule(inst, 2)
        assert sorted(sched.slots[0]) == [0]

    def test_mutually_infeasible_rate_order(self):
        # beta 20 makes the crossfire pair mutually infeasible; the heavier
        # link claims slot 0
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0), (3, 3.0, 0.0)],
            links=[(0, 0, 1, 1.0), (1, 3, 2, 4.0)],
            beta=20.0,
        )
        sched = pg_schedule(inst, 2)
        assert sorted(sched.slots[0]) == [1]
        assert sorted(sched.slots[1]) == [0]

    def test_compatible_pair_shares_slot(self, crossfire):
        sched = pg_schedule(crossfire, 2)
        assert sorted(sched.slots[0]) == [0, 1]

    def test_overflow_drops_lighter_link(self):
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0), (3, 3.0, 0.0)],
            links=[(0, 0, 1, 1.0), (1, 3, 2, 4.0)],
            beta=20.0,
        )
        sched = pg_schedule(inst, 1)
        assert check_coverage(inst, sched) == [0]

    def test_always_fully_feasible(self):
        for seed in range(15):
            inst = random_instance(seed, n_links=6)
            sched = pg_schedule(inst, 6)
            report = check_schedule(inst, sched)
            assert report.feasible, report.describe()


class TestAccumulationDemo:
    """Pairwise-safe but aggregate-unsafe: the point of the physical model."""

    def test_pm_coschedules_and_fails_aggregate(self):
        inst = accumulation_grid()
        sched = pm_schedule(inst, 2.5, 9)
        assert sorted(sched.slots[0]) == list(range(9))
        assert check_radio_constraints(inst, sched).clean()
        assert len(check_sinr(inst, sched)) > 0

    def test_pcg_coschedules_and_fails_aggregate(self):
        inst = accumulation_grid()
        sched = pcg_schedule(inst, 9)
        assert sorted(sched.slots[0]) == list(range(9))
        assert check_radio_constraints(inst, sched).clean()
        witnesses = check_sinr(inst, sched)
        assert len(witnesses) == 7
        assert all(s < inst.radio.beta for _, _, s in witnesses)
        # the corner-adjacent edge links squeak through even in full chorus
        failing = {lid for _, lid, _ in witnesses}
        assert failing == {0, 1, 2, 3, 4, 5, 7}

    def test_pg_splits_and_stays_feasible(self):
        inst = accumulation_grid()
        sched = pg_schedule(inst, 9)
        report = check_schedule(inst, sched)
        assert report.feasible, report.describe()
        assert len([s for s in sched.slots if s]) == 2

    def test_app_produces_no_sinr_witnesses(self):
        inst = accumulation_grid()
        outcome = app_schedule(inst, 4, seed=0)
        assert check_sinr(inst, outcome.schedule) == []
        assert check_radio_constraints(inst, outcome.schedule).clean()
        # dense grid: the rounding pipeline may leave links uncovered, but
        # never an infeasible slot
        placed = outcome.schedule.scheduled_links()
        assert placed | set(outcome.uncovered) == set(range(9))


class TestShippedFixture:
    def test_file_matches_builder(self):
        import os

        from linksched.scenario import format_instance, read_instance

        path = os.path.join(os.path.dirname(__file__), "fixtures", "accumulation.txt")
        inst = read_instance(path)
        assert inst == accumulation_grid()
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read() == format_instance(inst)
