"""Simplex solver tests.

Optimal objectives for the frozen random cases were computed once with an
independent LP solver (HiGHS via scipy.optimize.linprog) and are pinned
here as constants; the tests regenerate the same instances from their
seeds and compare.  maximize takes no bounds of its own, so a variable's
upper bound is passed as an explicit LE row (bound_rows).
"""

import numpy as np
import pytest

from linksched.simplex import (
    GE,
    LE,
    InfeasibleError,
    SimplexError,
    UnboundedError,
    maximize,
)


def bound_rows(ub):
    """Rows x_j <= ub[j], one per variable."""
    return [(e, LE, float(u)) for e, u in zip(np.eye(len(ub)), ub)]


def check_feasible(x, rows, tol=1e-7):
    for a, sense, b in rows:
        lhs = float(np.dot(a, x))
        if sense == LE:
            assert lhs <= b + tol * (1 + abs(b))
        else:
            assert lhs >= b - tol * (1 + abs(b))
    assert (x >= -tol).all()


class TestHandSolved:
    def test_two_var_vertex(self):
        # max x+y s.t. x+2y <= 4, 3x+y <= 6; optimum at the row intersection
        # x = 8/5, y = 6/5 -> objective 14/5 (solved by hand)
        res = maximize(
            [1.0, 1.0],
            [([1.0, 2.0], LE, 4.0), ([3.0, 1.0], LE, 6.0)] + bound_rows([10.0, 10.0]),
        )
        assert res.objective == pytest.approx(2.8, rel=1e-9)
        assert res.x[0] == pytest.approx(1.6, rel=1e-9)
        assert res.x[1] == pytest.approx(1.2, rel=1e-9)

    def test_upper_bound_binds(self):
        res = maximize([1.0], bound_rows([0.7]))
        assert res.objective == pytest.approx(0.7, rel=1e-12)

    def test_ge_row_needs_phase_one(self):
        # minimize x subject to x >= 3 (as maximize -x)
        res = maximize([-1.0], [([1.0], GE, 3.0)] + bound_rows([10.0]))
        assert res.x[0] == pytest.approx(3.0, rel=1e-9)
        assert res.objective == pytest.approx(-3.0, rel=1e-9)

    def test_mixed_senses(self):
        # max y s.t. y <= x, x + y >= 1, x <= 1 -> y = 1 at x = 1? No:
        # y <= x <= 1 and x+y >= 1; max y = 1 with x = 1 (hand check)
        res = maximize(
            [0.0, 1.0],
            [([-1.0, 1.0], LE, 0.0), ([1.0, 1.0], GE, 1.0)] + bound_rows([1.0, 10.0]),
        )
        assert res.objective == pytest.approx(1.0, rel=1e-9)


class TestInfeasible:
    def test_bound_conflict(self):
        with pytest.raises(InfeasibleError):
            maximize([1.0], [([1.0], GE, 5.0)] + bound_rows([1.0]))

    def test_two_row_conflict(self):
        with pytest.raises(InfeasibleError):
            maximize([1.0, 1.0], [([1.0, 1.0], GE, 3.0)] + bound_rows([1.0, 1.0]))

    def test_zero_row_negative_rhs(self):
        with pytest.raises(InfeasibleError):
            maximize([1.0], [([0.0], LE, -1.0)] + bound_rows([1.0]))

    def test_negative_upper_bound(self):
        with pytest.raises(InfeasibleError):
            maximize([1.0], bound_rows([-0.5]))


class TestEdges:
    def test_unbounded_detected(self):
        with pytest.raises(UnboundedError):
            maximize([1.0, 0.0], [([0.0, 1.0], LE, 1.0)])

    def test_no_constraints_no_gain(self):
        res = maximize([-1.0, -2.0], [])
        assert res.objective == 0.0
        assert (res.x == 0.0).all()

    def test_vacuous_zero_row_dropped(self):
        res = maximize([1.0], [([0.0], LE, 2.0)] + bound_rows([0.5]))
        assert res.objective == pytest.approx(0.5, rel=1e-12)

    def test_bad_sense_rejected(self):
        with pytest.raises(ValueError):
            maximize([1.0], [([1.0], "==", 1.0)])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            maximize([1.0, 2.0], [([1.0], LE, 1.0)])

    def test_beale_degenerate_terminates(self):
        # Beale's classic cycling instance (min form negated); optimum 1/20,
        # reference value via HiGHS: 0.05
        c = [0.75, -150.0, 0.02, -6.0]
        rows = [
            ([0.25, -60.0, -1.0 / 25.0, 9.0], LE, 0.0),
            ([0.5, -90.0, -1.0 / 50.0, 3.0], LE, 0.0),
            ([0.0, 0.0, 1.0, 0.0], LE, 1.0),
        ]
        res = maximize(c, rows)
        assert res.objective == pytest.approx(0.05, rel=1e-9)


def random_case(seed):
    r = np.random.default_rng(seed)
    n, m = 5, 6
    c = np.round(r.uniform(-1, 2, size=n), 3)
    rows = []
    for _ in range(m):
        a = np.round(r.normal(size=n), 3)
        if r.random() < 0.7:
            rows.append((a, LE, round(float(r.uniform(0.5, 3.0)), 3)))
        else:
            rows.append((a, GE, round(float(r.uniform(-2.0, 0.2)), 3)))
    ub = np.round(r.uniform(0.5, 2.0, size=n), 3)
    return c, rows + bound_rows(ub)


class TestFrozenRandom:
    # (seed, optimal objective from HiGHS)
    CASES = [
        (3, 2.25),
        (11, 1.2412822178988328),
        (21, 4.1492176551312205),
        (58, 2.26593707250342),
    ]

    @pytest.mark.parametrize("seed,expected", CASES)
    def test_matches_reference(self, seed, expected):
        c, rows = random_case(seed)
        res = maximize(c, rows)
        assert res.objective == pytest.approx(expected, rel=1e-7)
        check_feasible(res.x, rows)
        assert float(np.dot(c, res.x)) == pytest.approx(res.objective, rel=1e-7)

    def test_deterministic_resolve(self):
        c, rows = random_case(21)
        a = maximize(c, rows)
        b = maximize(c, rows)
        assert a.objective == b.objective
        assert (a.x == b.x).all()
        assert a.iterations == b.iterations


class TestFeasibilityProperty:
    @pytest.mark.parametrize("seed", range(30))
    def test_solution_always_feasible(self, seed):
        c, rows = random_case(100 + seed)
        try:
            res = maximize(c, rows)
        except InfeasibleError:
            return
        check_feasible(res.x, rows)
