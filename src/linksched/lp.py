"""LP relaxation of the slot-assignment scheduling problem, folded over slots.

The per-slot relaxation has one variable x[e,t] in [0,1] per (link, slot)
pair, the objective sum_{e,t} rate_e * x[e,t] / T (the rate-weighted number
of transmissions averaged over the frame) and these rows:

  coverage   sum_t x[e,t] >= 1                       per link e
  rx         sum_{e into node v} x[e,t] <= 1         per receiver v, slot t
  tx         sum_{e out of node v} x[e,t] <= 1       per sender v, slot t
  duplex     sum_{e at v, either role} x[e,t] <= 1   per dual-role v, slot t
  sinr       big-M linearized decoding condition     per link e, slot t

Every slot carries the same row block, so this module solves the folded LP
instead: one variable y_e per link (the share of the frame link e is on),
objective sum_e rate_e * y_e, coverage y_e >= 1/T, and the rx, tx, duplex
and sinr rows once, on y.  The fold is exact in both directions:

  * averaging: for a feasible x, y_e = (1/T) sum_t x[e,t] is feasible with
    the same objective.  Each per-slot row has the same coefficients and
    right side in every slot, so the mean of its T copies is the folded
    row on y; sum_t x[e,t] >= 1 becomes y_e >= 1/T.
  * lifting: for a feasible y, x[e,t] = y_e meets every slot's row (each
    is the folded row), sum_t x[e,t] = T * y_e >= 1, and the objective is
    unchanged.

So both LPs have the same optimum, and the tableau no longer grows with T.

The sinr row for link e = (i, j) is

  (P*g(i,j) - D) * y_e - beta * sum_k P*g(s_k, j) * y_k >= beta*N - D

with D = beta * (N + sum_k P*g(s_k, j)), the largest the right side of the
decoding condition can get, so the row is vacuous when y_e = 0 and is
exactly "SINR >= beta" when y_e = 1.  Links whose sender IS node j are
excluded from the interference sums: the duplex row already forbids that
concurrency outright, and a same-node path gain is undefined.

The bound y_e <= 1 needs no row of its own: y_e has coefficient 1 in its
receiver's rx row, whose other coefficients are 0 or 1, so with y >= 0 that
row already forces y_e <= 1; solve_lp still rejects any value above 1.

Integral feasible schedules, averaged over their slots, are feasible points
of this LP, so the LP optimum is an upper bound on every schedule's
throughput.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import simplex
from .radio import NetworkInstance, received_power

EPS_FEAS = 1e-9
EPS_OBJ = 1e-7


class LpInfeasibleError(Exception):
    """No fractional assignment satisfies the rows (so no schedule exists)."""


@dataclass(frozen=True)
class LpRow:
    coeffs: np.ndarray
    sense: str
    rhs: float
    label: tuple

    def evaluate(self, x: np.ndarray) -> float:
        return float(np.dot(self.coeffs, x))

    def satisfied(self, x: np.ndarray, tol: float = EPS_FEAS) -> bool:
        lhs = self.evaluate(x)
        scale = 1.0 + abs(self.rhs) + float(np.abs(self.coeffs) @ np.abs(x))
        if self.sense == simplex.GE:
            return lhs >= self.rhs - tol * scale
        return lhs <= self.rhs + tol * scale


@dataclass(frozen=True)
class LpModel:
    instance: NetworkInstance
    frame_length: int
    link_ids: tuple[int, ...]  # ascending; column i is link link_ids[i]
    position: dict[int, int]  # link id -> its column
    objective: np.ndarray
    rows: tuple[LpRow, ...]

    @property
    def n_vars(self) -> int:
        return len(self.link_ids)


def sinr_big_m(instance: NetworkInstance, link_id: int) -> float:
    """Largest possible value of beta * (noise + total interference) at the
    link's receiver, used to deactivate its sinr row when the link is off."""
    radio = instance.radio
    link = instance.link(link_id)
    total = radio.noise
    for other in instance.links:
        if other.id == link.id or other.sender == link.receiver:
            continue
        total += received_power(instance, other.sender, link.receiver)
    return radio.beta * total


def build_lp(instance: NetworkInstance, frame_length: int) -> LpModel:
    if frame_length < 1:
        raise ValueError(f"frame_length must be >= 1, got {frame_length}")
    radio = instance.radio
    links = sorted(instance.links, key=lambda l: l.id)
    n = len(links)

    def incidence(touches) -> np.ndarray:
        return np.array([1.0 if touches(link) else 0.0 for link in links])

    unit = np.eye(n)
    rows = [
        LpRow(unit[i], simplex.GE, 1.0 / frame_length, ("coverage", link.id))
        for i, link in enumerate(links)
    ]
    receivers = sorted({link.receiver for link in links})
    senders = sorted({link.sender for link in links})
    for v in receivers:
        rows.append(LpRow(incidence(lambda l: l.receiver == v), simplex.LE, 1.0, ("rx", v)))
    for v in senders:
        rows.append(LpRow(incidence(lambda l: l.sender == v), simplex.LE, 1.0, ("tx", v)))
    for v in sorted(set(receivers) & set(senders)):
        coeffs = incidence(lambda l: v in (l.sender, l.receiver))
        rows.append(LpRow(coeffs, simplex.LE, 1.0, ("duplex", v)))
    for i, link in enumerate(links):
        coeffs = np.zeros(n)
        delta = sinr_big_m(instance, link.id)
        coeffs[i] = received_power(instance, link.sender, link.receiver) - delta
        for k, other in enumerate(links):
            if other.id == link.id or other.sender == link.receiver:
                continue
            coeffs[k] = -radio.beta * received_power(instance, other.sender, link.receiver)
        rhs = radio.beta * radio.noise - delta
        rows.append(LpRow(coeffs, simplex.GE, rhs, ("sinr", link.id)))

    return LpModel(
        instance=instance,
        frame_length=frame_length,
        link_ids=tuple(link.id for link in links),
        position={link.id: i for i, link in enumerate(links)},
        objective=np.array([link.rate for link in links]),
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class FractionalSolution:
    model: LpModel
    values: np.ndarray  # one y-hat per column, clamped to [0, 1]
    objective: float

    def value(self, link_id: int) -> float:
        return float(self.values[self.model.position[link_id]])


def solve_lp(model: LpModel) -> FractionalSolution:
    """Solve the relaxation; the objective is the throughput upper bound."""
    try:
        result = simplex.maximize(
            model.objective, [(row.coeffs, row.sense, row.rhs) for row in model.rows]
        )
    except simplex.InfeasibleError as exc:
        raise LpInfeasibleError(
            f"no fractional schedule with frame length {model.frame_length}: {exc}"
        ) from exc
    x = result.x
    if (x < -EPS_FEAS).any() or (x > 1.0 + EPS_FEAS).any():
        raise RuntimeError("solver returned values outside [0, 1]")
    for row in model.rows:
        if not row.satisfied(x):
            raise RuntimeError(f"solver violated row {row.label}")
    clamped = np.clip(x, 0.0, 1.0)
    objective = float(np.dot(model.objective, clamped))
    if abs(objective - result.objective) > EPS_OBJ * (1.0 + abs(objective)):
        raise RuntimeError("objective drifted during clamping")
    return FractionalSolution(model=model, values=clamped, objective=objective)
