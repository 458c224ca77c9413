"""LP relaxation of the slot-assignment scheduling problem.

One variable x[e,t] in [0,1] per (link, slot) pair; column i*T + t is
link link_ids[i] in slot t.  Objective: the rate-weighted number of
transmissions averaged over the frame.  Rows:

  coverage   sum_t x[e,t] >= 1                       per link e
  rx         sum_{e into node v} x[e,t] <= 1         per receiver v, slot t
  tx         sum_{e out of node v} x[e,t] <= 1       per sender v, slot t
  duplex     sum_{e at v, either role} x[e,t] <= 1   per dual-role v, slot t
  sinr       big-M linearized decoding condition     per link e, slot t

The sinr row for link e = (i, j) in slot t is

  (P*g(i,j) - D) * x[e,t] - beta * sum_k P*g(s_k, j) * x[k,t] >= beta*N - D

with D = beta * (N + sum_k P*g(s_k, j)), the largest the right side of the
decoding condition can get, so the row is vacuous when x[e,t] = 0 and is
exactly "SINR >= beta" when x[e,t] = 1.  Links whose sender IS node j are
excluded from the interference sums: the duplex row already forbids that
concurrency outright, and a same-node path gain is undefined.

The bound x[e,t] <= 1 needs no row of its own: x[e,t] has coefficient 1
in its receiver's rx row, whose other coefficients are 0 or 1, so with
x >= 0 that row already forces x[e,t] <= 1.  Passing the bounds to the
simplex would add |E|*T redundant rows, about a quarter of its rows;
solve_lp still rejects any returned value above 1.

Integral feasible schedules are feasible points of this LP, so the LP
optimum is an upper bound on every schedule's throughput.
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
    link_ids: tuple[int, ...]  # ascending; column i*T + t is link_ids[i] in slot t
    position: dict[int, int]  # link id -> its index in link_ids
    objective: np.ndarray
    rows: tuple[LpRow, ...]

    @property
    def n_vars(self) -> int:
        return len(self.link_ids) * self.frame_length

    def column(self, link_id: int, slot: int) -> int:
        if not 0 <= slot < self.frame_length:
            raise KeyError((link_id, slot))
        return self.position[link_id] * self.frame_length + slot


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
    T = frame_length
    n = len(links) * T

    objective = np.repeat([link.rate / T for link in links], T)

    rows: list[LpRow] = []

    for i, link in enumerate(links):
        coeffs = np.zeros(n)
        coeffs[i * T : (i + 1) * T] = 1.0
        rows.append(LpRow(coeffs, simplex.GE, 1.0, ("coverage", link.id)))

    receivers = sorted({link.receiver for link in links})
    senders = sorted({link.sender for link in links})
    dual_role = sorted(set(receivers) & set(senders))
    deltas = {link.id: sinr_big_m(instance, link.id) for link in links}

    for t in range(T):
        for v in receivers:
            coeffs = np.zeros(n)
            for i, link in enumerate(links):
                if link.receiver == v:
                    coeffs[i * T + t] = 1.0
            rows.append(LpRow(coeffs, simplex.LE, 1.0, ("rx", t, v)))
        for v in senders:
            coeffs = np.zeros(n)
            for i, link in enumerate(links):
                if link.sender == v:
                    coeffs[i * T + t] = 1.0
            rows.append(LpRow(coeffs, simplex.LE, 1.0, ("tx", t, v)))
        for v in dual_role:
            coeffs = np.zeros(n)
            for i, link in enumerate(links):
                if link.sender == v or link.receiver == v:
                    coeffs[i * T + t] = 1.0
            rows.append(LpRow(coeffs, simplex.LE, 1.0, ("duplex", t, v)))
        for i, link in enumerate(links):
            coeffs = np.zeros(n)
            delta = deltas[link.id]
            signal = received_power(instance, link.sender, link.receiver)
            coeffs[i * T + t] = signal - delta
            for k, other in enumerate(links):
                if other.id == link.id or other.sender == link.receiver:
                    continue
                coeffs[k * T + t] = -radio.beta * received_power(
                    instance, other.sender, link.receiver
                )
            rhs = radio.beta * radio.noise - delta
            rows.append(LpRow(coeffs, simplex.GE, rhs, ("sinr", t, link.id)))

    return LpModel(
        instance=instance,
        frame_length=T,
        link_ids=tuple(link.id for link in links),
        position={link.id: i for i, link in enumerate(links)},
        objective=objective,
        rows=tuple(rows),
    )


@dataclass(frozen=True)
class FractionalSolution:
    model: LpModel
    values: np.ndarray  # clamped to [0, 1]
    objective: float

    def value(self, link_id: int, slot: int) -> float:
        return float(self.values[self.model.column(link_id, slot)])


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
