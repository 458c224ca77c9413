"""Centralized scheduler: LP relaxation + randomized rounding + cover-first packing.

Pipeline:

  1. solve the folded LP relaxation (lp.solve_lp), giving one fractional
     y-hat per link (its share of the frame) and the throughput upper
     bound;
  2. round every (link, slot) cell to 1 independently with probability
     y-hat of its link, as in the paper; each link draws its T cells from
     its own PCG64 stream keyed by (seed, link), so outcomes are
     reproducible and one link's draws never depend on another's.  Link e
     draws c_e cells, its copies, and the rounded rate-weighted frame
     average is A_rand;
  3. pack the draws into slots (repair), with radio.fits as the only
     admission test, so every slot is feasible after every step:
       pass 1 covers: links in ascending y-hat (ties to the smaller id)
         each go into the first slot they fit, trying their drawn slots
         first, then the rest, in slot order; if pg's schedule (the same
         first fit in rate order) covers more links, it replaces pass 1;
       pass 2 fills: links in descending y-hat (ties to the smaller id) add
         copies in the same slot order, until each holds c_e copies;
  4. report the outcome (coverage_fix): links that fit no slot are listed
     as uncovered, never silently dropped, and delta_a is the final
     throughput minus A_rand.

Covering first is what lets the weakest links find room: a link the LP
gives a small y-hat draws few cells, and its rivals with larger y-hat
would otherwise fill every slot it drew.  A_rand and delta_a keep the
paper's meaning, so rounding_tail_bound applies to the packed schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .baselines import pg_schedule
from .feasibility import Schedule, check_schedule, throughput
from .lp import FractionalSolution, build_lp, solve_lp
from .radio import NetworkInstance, fits
# bench/tracing.py wraps this binding to count SINR calls; --trace 1 needs it
from .radio import sinr_at_receiver  # noqa: F401


@dataclass(frozen=True)
class RoundingOutcome:
    """Final schedule plus the bookkeeping the tail bound needs.

    a_rand is the rate-averaged value of the raw rounded assignment before
    packing; delta_a is the net change packing applied, so a_rand + delta_a
    equals the schedule's throughput.
    """

    schedule: Schedule
    a_rand: float
    delta_a: float
    uncovered: tuple[int, ...]
    rng_seed: int
    lp_objective: float | None = None


def randomized_round(fractional: FractionalSolution, seed: int) -> np.ndarray:
    """Independent Bernoulli(y-hat) rounding of every (link, slot) cell.

    Returns a (links, T) 0/1 array whose row i is link link_ids[i].  Each
    link draws its T uniforms at once from its own generator seeded by
    (seed, link id), so adding links never shifts another link's cells.
    """
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    model = fractional.model
    raw = np.empty((model.n_vars, model.frame_length), dtype=np.uint8)
    for i, lid in enumerate(model.link_ids):
        stream = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, lid])))
        raw[i] = stream.random(model.frame_length) < fractional.values[i]
    return raw


def pre_repair_average(fractional: FractionalSolution, raw: np.ndarray) -> float:
    """Rate-weighted frame average of a raw 0/1 assignment (A_rand)."""
    model = fractional.model
    return float(model.objective @ raw.sum(axis=1)) / model.frame_length


def repair(
    instance: NetworkInstance, fractional: FractionalSolution, raw: np.ndarray
) -> list[set[int]]:
    """Pack the rounded draws into feasible slots, covering every link first.

    Pass 1 places one copy of each link, ascending y-hat; pass 2 adds
    copies, descending y-hat, up to the link's drawn count.  Both try the
    link's drawn slots first, then the others, in slot order, and take the
    first slot where radio.fits admits the link.  Pass 2 starts from pg's
    schedule instead when that covers more links than pass 1, so app never
    covers fewer links than pg.  Nothing is ever evicted.
    """
    model = fractional.model
    T = model.frame_length
    if raw.shape != (model.n_vars, T):
        raise ValueError(
            f"raw assignment has shape {raw.shape}, expected ({model.n_vars}, {T})"
        )
    drawn = raw.astype(bool)
    # drawn slots first, each group in slot order
    slot_order = [np.argsort(~row, kind="stable").tolist() for row in drawn]
    yhat = fractional.values
    slots: list[set[int]] = [set() for _ in range(T)]

    def place(i: int, copies: int) -> None:
        lid = model.link_ids[i]
        held = sum(lid in slot for slot in slots)
        for t in slot_order[i]:
            if held >= copies:
                return
            if lid not in slots[t] and fits(instance, lid, slots[t]):
                slots[t].add(lid)
                held += 1

    for i in sorted(range(model.n_vars), key=lambda i: (yhat[i], model.link_ids[i])):
        place(i, 1)
    # First fit in y-hat order can pair links worse than rate order does.
    covered = len(set().union(*slots))
    if covered < model.n_vars:
        fallback = [set(slot) for slot in pg_schedule(instance, T).slots]
        if len(set().union(*fallback)) > covered:
            slots[:] = fallback
    for i in sorted(range(model.n_vars), key=lambda i: (-yhat[i], model.link_ids[i])):
        place(i, int(drawn[i].sum()))
    return slots


def coverage_fix(
    instance: NetworkInstance,
    fractional: FractionalSolution,
    repaired: list[set[int]],
    *,
    a_rand: float = 0.0,
    rng_seed: int = 0,
) -> RoundingOutcome:
    """Assemble the outcome of packed slots: uncovered links and delta_a.

    Links in no slot are reported uncovered, in ascending id.  The slots
    are taken as they are; repair already gave every link its chance.
    """
    T = fractional.model.frame_length
    if len(repaired) != T:
        raise ValueError(f"expected {T} slots, got {len(repaired)}")
    schedule = Schedule(T, tuple(frozenset(s) for s in repaired))
    placed = schedule.scheduled_links()
    uncovered = tuple(sorted(set(instance.link_ids()) - placed))
    return RoundingOutcome(
        schedule=schedule,
        a_rand=a_rand,
        delta_a=throughput(instance, schedule) - a_rand,
        uncovered=uncovered,
        rng_seed=rng_seed,
    )


def app_schedule(
    instance: NetworkInstance, frame_length: int, seed: int
) -> RoundingOutcome:
    """Full pipeline: LP, rounding, packing, outcome.

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
