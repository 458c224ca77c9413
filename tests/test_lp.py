"""LP relaxation tests.

Fractional optima for the small cases were worked out by hand (vertex
algebra on two-variable systems) and are pinned as exact fractions.
"""

import numpy as np
import pytest

from linksched import simplex
from linksched.feasibility import Schedule, check_schedule, throughput
from linksched.lp import (
    EPS_FEAS,
    EPS_OBJ,
    FractionalSolution,
    LpInfeasibleError,
    build_lp,
    sinr_big_m,
    solve_lp,
)
from linksched.radio import Link, NetworkInstance, Node, RadioParams
from util import random_instance


def make_instance(nodes, links, alpha=4.0, beta=10.0, noise=0.0, tx_power=1.0):
    return NetworkInstance(
        nodes=tuple(Node(*n) for n in nodes),
        links=tuple(Link(*l) for l in links),
        radio=RadioParams(alpha=alpha, beta=beta, noise=noise, tx_power=tx_power),
    )


def crossfire(beta=10.0):
    # two parallel unit links, SINR 16 at each receiver when both fire
    return make_instance(
        nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0), (3, 3.0, 0.0)],
        links=[(0, 0, 1), (1, 3, 2)],
        beta=beta,
    )


class TestModelShape:
    def test_single_link_single_slot(self):
        inst = make_instance(nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0)], links=[(0, 0, 1)])
        model = build_lp(inst, 1)
        assert model.n_vars == 1
        labels = [row.label for row in model.rows]
        assert labels == [("coverage", 0), ("rx", 1), ("tx", 0), ("sinr", 0)]

    def test_duplex_row_only_for_dual_role_nodes(self):
        # chain a -> b -> c: node 1 sends and receives
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)],
            links=[(0, 0, 1), (1, 1, 2)],
        )
        model = build_lp(inst, 2)
        duplex = [row for row in model.rows if row.label[0] == "duplex"]
        assert [row.label for row in duplex] == [("duplex", 1)]
        # the row covers both of node 1's links
        assert list(duplex[0].coeffs) == [1.0, 1.0]

    def test_objective_is_rate_and_coverage_one_over_frame(self):
        # y_e is the share of the frame link e is on: objective rate_e, and
        # one slot out of T covers it
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 5.0, 0.0), (3, 6.0, 0.0)],
            links=[(0, 0, 1, 2.0), (1, 2, 3, 3.0)],
        )
        model = build_lp(inst, 4)
        assert list(model.objective) == [2.0, 3.0]
        coverage = [row for row in model.rows if row.label[0] == "coverage"]
        assert [row.rhs for row in coverage] == [0.25, 0.25]

    def test_size_does_not_grow_with_frame(self):
        inst = random_instance(3, 6, area=3.0)
        shapes = {
            (len(model.rows), model.n_vars)
            for model in (build_lp(inst, T) for T in (1, 8, 100))
        }
        assert shapes == {(24, 6)}  # coverage + rx + tx + sinr, one column per link

    def test_zero_frame_length_rejected(self):
        inst = make_instance(nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0)], links=[(0, 0, 1)])
        with pytest.raises(ValueError):
            build_lp(inst, 0)


class TestBigM:
    def test_crossfire_delta(self):
        # hand value: beta * (N + P * 2**-4) = 10 * (0 + 1/16) = 0.625
        inst = crossfire(beta=10.0)
        assert sinr_big_m(inst, 0) == pytest.approx(0.625, rel=1e-12)
        assert sinr_big_m(inst, 1) == pytest.approx(0.625, rel=1e-12)

    def test_delta_excludes_receiver_transmissions(self):
        # chain a -> b -> c: link (b, c) is excluded from link (a, b)'s
        # interference sum because b cannot receive while sending
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)],
            links=[(0, 0, 1), (1, 1, 2)],
            noise=1e-3,
        )
        assert sinr_big_m(inst, 0) == pytest.approx(10.0 * 1e-3, rel=1e-12)
        # link (b, c)'s receiver c hears a's transmissions at distance 2
        assert sinr_big_m(inst, 1) == pytest.approx(
            10.0 * (1e-3 + 2.0**-4), rel=1e-12
        )

    def test_sinr_row_algebra(self):
        inst = crossfire(beta=10.0)
        model = build_lp(inst, 1)
        row = next(r for r in model.rows if r.label == ("sinr", 0))
        # (P*g - D) y0 - beta * P * 2**-4 * y1 >= beta*N - D
        assert row.coeffs[0] == pytest.approx(1.0 - 0.625, rel=1e-12)
        assert row.coeffs[1] == pytest.approx(-0.625, rel=1e-12)
        assert row.rhs == pytest.approx(-0.625, rel=1e-12)


class TestSolve:
    def test_crossfire_both_links_one_slot(self):
        # SINR 16 >= beta 10: the integral all-on point is optimal
        sol = solve_lp(build_lp(crossfire(10.0), 1))
        assert isinstance(sol, FractionalSolution)
        assert sol.objective == pytest.approx(2.0, rel=1e-9)
        assert sol.value(0) == pytest.approx(1.0, abs=1e-9)
        assert sol.value(1) == pytest.approx(1.0, abs=1e-9)

    def test_crossfire_beta20_one_slot_infeasible(self):
        # coverage forces both links on in the lone slot; 16 < 20 kills it
        with pytest.raises(LpInfeasibleError):
            solve_lp(build_lp(crossfire(20.0), 1))

    def test_crossfire_beta20_two_slots_fractional_value(self):
        # hand solve: the two sinr rows give 0.25 y_e + 1.25 y_k <= 1.25 in
        # both orders, so y_e + y_k <= 5/3 with equality at y = 5/6, above
        # the coverage floor 1/2; objective 5/3
        sol = solve_lp(build_lp(crossfire(20.0), 2))
        assert sol.objective == pytest.approx(5.0 / 3.0, rel=1e-9)
        for lid in (0, 1):
            assert sol.value(lid) == pytest.approx(5.0 / 6.0, rel=1e-7)

    def test_isolated_weak_link_infeasible(self):
        # SNR = 4**-4 / 1e-3 = 3.90625 < 10 with no interferers at all
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 4.0, 0.0)],
            links=[(0, 0, 1)],
            noise=1e-3,
        )
        with pytest.raises(LpInfeasibleError):
            solve_lp(build_lp(inst, 3))

    def test_values_within_bounds(self):
        sol = solve_lp(build_lp(crossfire(20.0), 3))
        assert (sol.values >= 0.0).all() and (sol.values <= 1.0).all()

    def test_value_profiles_cover_each_link(self):
        sol = solve_lp(build_lp(crossfire(10.0), 2))
        assert sol.model.link_ids == (0, 1)
        assert sol.values.shape == (2,)
        for lid in (0, 1):
            assert sol.value(lid) >= 0.5 - 1e-9
        with pytest.raises(KeyError):
            sol.value(2)

    def test_deterministic(self):
        a = solve_lp(build_lp(crossfire(20.0), 2))
        b = solve_lp(build_lp(crossfire(20.0), 2))
        assert a.objective == b.objective
        assert (a.values == b.values).all()


class TestUpperBoundProperty:
    def test_bound_dominates_integral_schedules(self):
        # enumerate all integral schedules for the beta=20 crossfire at T=2
        # and check none beats the LP objective
        inst = crossfire(20.0)
        sol = solve_lp(build_lp(inst, 2))
        best = 0.0
        for s0 in ([], [0], [1], [0, 1]):
            for s1 in ([], [0], [1], [0, 1]):
                sched = Schedule.from_lists(2, [s0, s1])
                if check_schedule(inst, sched).feasible:
                    best = max(best, throughput(inst, sched))
        assert best == pytest.approx(1.0, rel=1e-12)  # one link per slot
        assert sol.objective >= best - 1e-9

    def test_realistic_scale_coefficients(self):
        # default power rule magnitudes: P = 1e-6 mW, noise 1e-9 mW
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 0.9, 0.0), (2, 2.1, 0.0), (3, 1.4, 1.1)],
            links=[(0, 0, 1), (1, 2, 3)],
            noise=1e-9,
            tx_power=1e-6,
        )
        sol = solve_lp(build_lp(inst, 2))
        assert sol.objective >= 1.0 - 1e-9
        assert sol.objective <= 2.0 + 1e-9


def chain():
    # a -> b -> c: node 1 sends and receives, so one slot cannot cover both
    return make_instance(
        nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)],
        links=[(0, 0, 1), (1, 1, 2)],
    )


def dense_cases(count):
    """(instance, frame length) pairs with n <= 10 links and T <= 6 on a
    3 x 3 area, so interference binds; a few are LP-infeasible."""
    for seed in range(count):
        r = np.random.default_rng(seed)
        n, T = int(r.integers(2, 11)), int(r.integers(1, 7))
        yield random_instance(5000 + seed, n, area=3.0), T


FIXTURE_CASES = [(crossfire(b), T) for b in (10.0, 20.0) for T in (1, 2, 3)] + [
    (chain(), T) for T in (1, 2, 3)
]


def agrees_with_unit_bound_rows(inst, T) -> bool:
    """Check solve_lp, which passes no x <= 1 rows, against maximize on the
    same rows plus one x <= 1 row per column.  Returns False when both find
    the relaxation infeasible."""
    model = build_lp(inst, T)
    rows = [(row.coeffs, row.sense, row.rhs) for row in model.rows]
    unit = [(e, simplex.LE, 1.0) for e in np.eye(model.n_vars)]
    try:
        sol = solve_lp(model)
    except LpInfeasibleError:
        with pytest.raises(simplex.InfeasibleError):
            simplex.maximize(model.objective, rows + unit)
        return False
    bounded = simplex.maximize(model.objective, rows + unit)
    assert abs(sol.objective - bounded.objective) <= EPS_OBJ * (1.0 + abs(sol.objective))
    # the raw optimum, before solve_lp clamps it, already respects x <= 1
    assert (simplex.maximize(model.objective, rows).x <= 1.0 + EPS_FEAS).all()
    return True


class TestImpliedUnitBound:
    """x <= 1 follows from the rx rows, so dropping the bound rows must not
    move the LP optimum."""

    def test_generated_dense_instances(self):
        assert sum(agrees_with_unit_bound_rows(inst, T) for inst, T in dense_cases(60)) >= 50

    @pytest.mark.parametrize("case", range(len(FIXTURE_CASES)))
    def test_fixtures(self, case):
        agrees_with_unit_bound_rows(*FIXTURE_CASES[case])


def unfolded_lp(model):
    """The per-slot LP the folded model stands for: one column per (link,
    slot), column i*T + t, each folded row repeated once per slot, coverage
    sum_t x[e,t] >= 1 and objective rate / T."""
    T, n = model.frame_length, model.n_vars
    rows = []
    for i in range(n):
        coeffs = np.zeros(n * T)
        coeffs[i * T : (i + 1) * T] = 1.0
        rows.append((coeffs, simplex.GE, 1.0))
    for row in model.rows:
        if row.label[0] == "coverage":
            continue
        for t in range(T):
            coeffs = np.zeros(n * T)
            coeffs[t::T] = row.coeffs
            rows.append((coeffs, row.sense, row.rhs))
    rates = [model.instance.link(lid).rate for lid in model.link_ids]
    return np.repeat(np.array(rates) / T, T), rows


def fold_cases(count):
    """(instance, frame length) pairs with n <= 8 links and T <= 5 on a
    3 x 3 area; a few are LP-infeasible."""
    for seed in range(count):
        r = np.random.default_rng(seed)
        n, T = int(r.integers(2, 9)), int(r.integers(1, 6))
        yield random_instance(7000 + seed, n, area=3.0), T


def agrees_with_unfolded(inst, T) -> bool:
    """Check the folded optimum against the per-slot LP's, and that lifting
    y-hat to every slot is feasible there.  Returns False when both are
    infeasible."""
    model = build_lp(inst, T)
    objective, rows = unfolded_lp(model)
    try:
        sol = solve_lp(model)
    except LpInfeasibleError:
        with pytest.raises(simplex.InfeasibleError):
            simplex.maximize(objective, rows)
        return False
    full = simplex.maximize(objective, rows)
    assert abs(sol.objective - full.objective) <= EPS_OBJ * (1.0 + abs(sol.objective))
    lifted = np.repeat(sol.values, T)
    for coeffs, sense, rhs in rows:
        lhs, scale = coeffs @ lifted, 1.0 + abs(rhs) + np.abs(coeffs) @ lifted
        if sense == simplex.GE:
            assert lhs >= rhs - EPS_FEAS * scale
        else:
            assert lhs <= rhs + EPS_FEAS * scale
    return True


class TestFold:
    """The folded LP has the per-slot LP's optimum (see the lp module)."""

    def test_generated_dense_instances(self):
        assert sum(agrees_with_unfolded(inst, T) for inst, T in fold_cases(60)) >= 50

    @pytest.mark.parametrize("case", range(len(FIXTURE_CASES)))
    def test_fixtures(self, case):
        agrees_with_unfolded(*FIXTURE_CASES[case])
