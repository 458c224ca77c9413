"""Dense two-phase simplex for small linear programs.

Solves  maximize c.x  subject to rows a.x <= b or a.x >= b and x >= 0.
Everything lives in one numpy tableau; problem sizes here are a few hundred
variables and rows, where a dense tableau is simple, fast enough, and
bit-for-bit deterministic.

Numerical notes:
  * each row is scaled by its largest |coefficient| before entering the
    tableau (the scheduling rows mix magnitudes from 1e-12 to 1e-3);
  * entering column is chosen by the most negative reduced cost (lowest
    index on ties); after 100 + 2*(rows + columns) consecutive
    non-improving pivots the rule switches to Bland's smallest-index rule,
    which cannot cycle;
  * the leaving row is the minimum-ratio row, ties broken by the smallest
    basis index.

Raises InfeasibleError when phase 1 cannot zero the artificials and
UnboundedError when a column has no blocking row (callers whose rows bound
every variable never see the latter), and SimplexError after
20000 + 40*(rows + columns) pivots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

LE = "<="
GE = ">="
TOL = 1e-9


class SimplexError(Exception):
    """Internal solver failure (iteration limit, malformed input)."""


class InfeasibleError(SimplexError):
    """The constraint system admits no feasible point."""


class UnboundedError(SimplexError):
    """The objective can grow without limit."""


@dataclass
class SimplexResult:
    x: np.ndarray
    objective: float
    iterations: int


def maximize(
    objective: Sequence[float],
    constraints: Iterable[tuple[Sequence[float], str, float]],
) -> SimplexResult:
    c = np.asarray(objective, dtype=float)
    if c.ndim != 1 or c.size == 0:
        raise ValueError("objective must be a non-empty 1-d array")
    n = c.size

    rows: list[np.ndarray] = []
    rhs: list[float] = []
    for coeffs, sense, b in constraints:
        a = np.asarray(coeffs, dtype=float)
        if a.shape != (n,):
            raise ValueError(f"constraint row has shape {a.shape}, expected ({n},)")
        b = float(b)
        if sense == GE:
            a, b = -a, -b
        elif sense != LE:
            raise ValueError(f"unknown sense {sense!r}")
        scale = float(np.max(np.abs(a)))
        if scale == 0.0:
            if b < -TOL:
                raise InfeasibleError("row with zero coefficients and negative bound")
            continue
        rows.append(a / scale)
        rhs.append(b / scale)

    m = len(rows)
    if m == 0:
        if bool((c > TOL).any()):
            raise UnboundedError("positive objective coefficient with no constraints")
        return SimplexResult(x=np.zeros(n), objective=0.0, iterations=0)

    stall_limit = 100 + 2 * (m + n)
    max_iterations = 20_000 + 40 * (m + n)

    b_arr = np.asarray(rhs, dtype=float)
    neg = b_arr < 0.0
    n_art = int(neg.sum())
    n_slack = m
    art0 = n + n_slack
    width = n + n_slack + n_art + 1

    # rows 0..m-1 constraints, row m real objective, row m+1 phase-1 objective
    T = np.zeros((m + 2, width))
    T[:m, :n] = np.vstack(rows)
    T[:m, -1] = b_arr
    basis = np.zeros(m, dtype=int)
    for i in range(m):
        T[i, n + i] = 1.0
        basis[i] = n + i
    k = 0
    for i in np.flatnonzero(neg):
        T[i, :] *= -1.0
        T[i, art0 + k] = 1.0
        basis[i] = art0 + k
        k += 1
    T[m, :n] = -c
    if n_art:
        T[m + 1, :] = -T[:m][neg].sum(axis=0)
        T[m + 1, art0 : art0 + n_art] += 1.0

    state = {"iterations": 0, "stall": 0, "bland": False}

    def pivot(r: int, j: int) -> None:
        nonlocal T
        prow = T[r] / T[r, j]
        colv = T[:, j].copy()
        colv[r] = 0.0
        T -= np.outer(colv, prow)
        T[r] = prow
        basis[r] = j

    def run_phase(obj_row: int, nrows: int) -> None:
        while True:
            if state["iterations"] > max_iterations:
                raise SimplexError("simplex iteration limit exceeded")
            red = T[obj_row, : n + n_slack]
            if state["bland"]:
                candidates = np.flatnonzero(red < -TOL)
                if candidates.size == 0:
                    return
                j = int(candidates[0])
            else:
                j = int(np.argmin(red))
                if red[j] >= -TOL:
                    return
            col = T[:nrows, j]
            blocking = col > TOL
            if not blocking.any():
                raise UnboundedError(f"no blocking row for column {j}")
            ratios = np.full(nrows, np.inf)
            ratios[blocking] = T[:nrows, -1][blocking] / col[blocking]
            best = float(ratios.min())
            window = TOL * (1.0 + abs(best))
            ties = np.flatnonzero(ratios <= best + window)
            r = int(min(ties, key=lambda i: basis[i]))
            before = T[obj_row, -1]
            pivot(r, j)
            state["iterations"] += 1
            if T[obj_row, -1] <= before + 1e-12 * (1.0 + abs(before)):
                state["stall"] += 1
                if state["stall"] >= stall_limit:
                    state["bland"] = True
            else:
                state["stall"] = 0

    if n_art:
        run_phase(m + 1, m)
        bmax = float(np.abs(b_arr).max()) if m else 0.0
        feas_eps = TOL * (1 + m) * max(1.0, bmax)
        if T[m + 1, -1] < -feas_eps:
            raise InfeasibleError(
                f"phase 1 left artificial mass {-T[m + 1, -1]:.3e}"
            )
        # pivot surviving artificials out of the basis; drop redundant rows
        drop: list[int] = []
        for i in range(m):
            if basis[i] >= art0:
                row = T[i, : n + n_slack]
                j = int(np.argmax(np.abs(row)))
                if abs(row[j]) > TOL:
                    pivot(i, j)
                else:
                    drop.append(i)
        if drop:
            T = np.delete(T, drop, axis=0)
            basis = np.delete(basis, drop)
            m -= len(drop)
        T = np.delete(T, np.s_[art0 : art0 + n_art], axis=1)
        state["bland"] = False
        state["stall"] = 0

    run_phase(m, m)

    x_full = np.zeros(n + n_slack)
    for i in range(m):
        if basis[i] < n + n_slack:
            x_full[basis[i]] = T[i, -1]
    return SimplexResult(
        x=x_full[:n].copy(),
        objective=float(T[m, -1]),
        iterations=state["iterations"],
    )
