"""Centralized scheduler: LP relaxation + randomized rounding + repair.

Pipeline:

  1. solve the LP relaxation (lp.solve_lp), giving fractional x-hat values
     and the throughput upper bound;
  2. round each x[e,t] to 1 independently with probability x-hat[e,t]
     (its own PCG64 stream keyed by (seed, link, slot), so outcomes are
     reproducible and order-independent);
  3. repair each slot: enforce the per-node single-transmission rules,
     keeping higher x-hat links, then sweep the slot in the same priority
     order and zero any link whose own measured SINR against the current
     survivor set is below beta;
  4. force-place links the repair left uncovered, evicting strictly
     lower-priority links where needed; links that fit nowhere are
     reported as uncovered, never silently dropped.

The tail bound on the rounded-schedule throughput is exposed as
rounding_tail_bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .feasibility import Schedule, check_schedule, throughput
from .lp import FractionalSolution, build_lp, solve_lp
from .radio import NetworkInstance, links_share_node, sinr_at_receiver


@dataclass(frozen=True)
class RoundingOutcome:
    """Final schedule plus the bookkeeping the tail bound needs.

    a_rand is the rate-averaged value of the raw rounded assignment before
    any repair; delta_a is the net change applied by repair and coverage
    fixing, so a_rand + delta_a equals the schedule's throughput.
    """

    schedule: Schedule
    a_rand: float
    delta_a: float
    uncovered: tuple[int, ...]
    rng_seed: int
    lp_objective: float | None = None


def randomized_round(fractional: FractionalSolution, seed: int) -> np.ndarray:
    """Independent Bernoulli rounding of every (link, slot) variable.

    Each variable draws from its own generator seeded by (seed, link id,
    slot), so any subset of variables can be re-derived independently and
    adding links or slots never shifts other variables' outcomes.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    model = fractional.model
    raw = np.zeros(model.n_vars, dtype=np.uint8)
    for j, (lid, t) in enumerate(product(model.link_ids, range(model.frame_length))):
        stream = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([seed, lid, t]))
        )
        if stream.random() < fractional.values[j]:
            raw[j] = 1
    return raw


def pre_repair_average(fractional: FractionalSolution, raw: np.ndarray) -> float:
    """Rate-weighted frame average of a raw 0/1 assignment (A_rand)."""
    return float(np.dot(fractional.model.objective, raw))


def repair(
    instance: NetworkInstance, fractional: FractionalSolution, raw: np.ndarray
) -> list[set[int]]:
    """Make each slot feasible, dropping lower-priority links.

    Priority within a slot is non-increasing x-hat, ties to the smaller
    link id.  First the single-transmission rules: a link conflicting with
    an already-kept link is dropped.  Then the accumulation sweep: links
    are re-admitted in the same priority order, and a link is dropped when
    admitting it would push any admitted link (itself included) below
    beta, so the surviving set is feasible after every step.
    """
    model = fractional.model
    if raw.shape != (model.n_vars,):
        raise ValueError(f"raw assignment has shape {raw.shape}, expected ({model.n_vars},)")
    beta = instance.radio.beta
    on_by_slot: dict[int, list[int]] = {t: [] for t in range(model.frame_length)}
    for j, (lid, t) in enumerate(product(model.link_ids, range(model.frame_length))):
        if raw[j]:
            on_by_slot[t].append(lid)

    slots: list[set[int]] = []
    for t in range(model.frame_length):
        order = sorted(on_by_slot[t], key=lambda lid: (-fractional.value(lid, t), lid))
        kept: list[int] = []
        for lid in order:
            link = instance.link(lid)
            if any(links_share_node(link, instance.link(k)) for k in kept):
                continue
            kept.append(lid)
        survivors: set[int] = set()
        for lid in kept:
            candidate = survivors | {lid}
            if all(
                sinr_at_receiver(instance, m, candidate - {m}) >= beta
                for m in candidate
            ):
                survivors = candidate
        slots.append(survivors)
    return slots


def coverage_fix(
    instance: NetworkInstance,
    fractional: FractionalSolution,
    repaired: list[set[int]],
    *,
    a_rand: float = 0.0,
    rng_seed: int = 0,
) -> RoundingOutcome:
    """Force-place links the rounding left with no slot.

    Uncovered links are processed in ascending id; each tries its slots in
    non-increasing x-hat order.  Entering a slot may evict resident links,
    but only links that are not themselves force-placed and whose x-hat in
    that slot is strictly below the entering link's.  Evicted links that
    lose their last slot rejoin the uncovered pool on a later pass; links
    that fit nowhere are reported uncovered.
    """
    model = fractional.model
    T = model.frame_length
    if len(repaired) != T:
        raise ValueError(f"expected {T} slots, got {len(repaired)}")
    beta = instance.radio.beta
    slots = [set(s) for s in repaired]
    forced: set[int] = set()
    given_up: set[int] = set()
    xhat = fractional.value

    def covered(lid: int) -> bool:
        return any(lid in s for s in slots)

    for _ in range(len(instance.links) + 1):
        todo = [
            link.id
            for link in sorted(instance.links, key=lambda l: l.id)
            if link.id not in given_up and not covered(link.id)
        ]
        if not todo:
            break
        for lid in todo:
            link = instance.link(lid)
            slot_order = sorted(range(T), key=lambda t: (-xhat(lid, t), t))
            placed = False
            for t in slot_order:
                entering = xhat(lid, t)
                blocked = False
                for other_id in slots[t]:
                    if links_share_node(link, instance.link(other_id)):
                        if other_id in forced or not xhat(other_id, t) < entering:
                            blocked = True
                            break
                if blocked:
                    continue
                trial = {
                    o
                    for o in slots[t]
                    if not links_share_node(link, instance.link(o))
                }
                trial.add(lid)
                feasible = True
                while not all(
                    sinr_at_receiver(instance, m, trial - {m}) >= beta for m in trial
                ):
                    victims = [
                        m
                        for m in trial
                        if m != lid and m not in forced and xhat(m, t) < entering
                    ]
                    if not victims:
                        feasible = False
                        break
                    trial.remove(min(victims, key=lambda m: (xhat(m, t), m)))
                if feasible:
                    slots[t] = trial
                    forced.add(lid)
                    placed = True
                    break
            if not placed:
                given_up.add(lid)

    schedule = Schedule(T, tuple(frozenset(s) for s in slots))
    uncovered = tuple(
        link.id
        for link in sorted(instance.links, key=lambda l: l.id)
        if not covered(link.id)
    )
    total = throughput(instance, schedule)
    return RoundingOutcome(
        schedule=schedule,
        a_rand=a_rand,
        delta_a=total - a_rand,
        uncovered=uncovered,
        rng_seed=rng_seed,
    )


def app_schedule(
    instance: NetworkInstance, frame_length: int, seed: int
) -> RoundingOutcome:
    """Full pipeline: LP, rounding, repair, coverage fix.

    Raises lp.LpInfeasibleError when even the relaxation has no solution
    at this frame length.  The returned schedule always passes the radio
    and SINR checkers; missing coverage shows up in `uncovered`.
    """
    fractional = solve_lp(build_lp(instance, frame_length))
    raw = randomized_round(fractional, seed)
    slots = repair(instance, fractional, raw)
    outcome = coverage_fix(
        instance,
        fractional,
        slots,
        a_rand=pre_repair_average(fractional, raw),
        rng_seed=seed,
    )
    outcome = replace(outcome, lp_objective=fractional.objective)
    report = check_schedule(instance, outcome.schedule)
    if (
        report.rx_conflicts
        or report.tx_conflicts
        or report.half_duplex
        or report.sinr_violations
    ):
        raise RuntimeError(f"scheduler produced an infeasible slot: {report.describe()}")
    if tuple(report.uncovered) != outcome.uncovered:
        raise RuntimeError("uncovered-link report out of sync with the schedule")
    return outcome


def rounding_tail_bound(theta: float, delta_ratio: float, a_hat: float) -> float:
    """Lower bound on Pr[final throughput >= (1 - theta) * LP bound].

    theta in (0, 1) is the allowed relative shortfall; delta_ratio is the
    repair adjustment divided by the LP bound and must lie in
    (-theta, 1 - theta); a_hat is the LP bound itself.
    """
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    if not -theta < delta_ratio < 1.0 - theta:
        raise ValueError(
            f"delta_ratio must lie in (-theta, 1 - theta), got {delta_ratio}"
        )
    if not a_hat > 0.0:
        raise ValueError(f"a_hat must be positive, got {a_hat}")
    return 1.0 - math.exp(-((theta + delta_ratio) ** 2) * a_hat / 2.0)
