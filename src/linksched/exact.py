"""Brute-force reference optimum for small instances.

Enumerates every subset of links, keeps those the independent feasibility
checkers accept as a single slot, and dynamic-programs over coverage
bitmasks to find the best full schedule.  Exponential in the link count by
design: this is the ground truth the polynomial schedulers are compared
against, so it must share no logic with them.  Size guards reject
instances where enumeration would stop being instant.
"""

from __future__ import annotations

from dataclasses import dataclass

from .feasibility import Schedule, check_radio_constraints, check_sinr
from .radio import NetworkInstance

MAX_EXACT_LINKS = 8
MAX_EXACT_SLOTS = 4


class NoFeasibleScheduleError(Exception):
    """No assignment covers every link within the given frame."""


def _guard_links(instance: NetworkInstance) -> list[int]:
    ids = sorted(instance.link_ids())
    if len(ids) > MAX_EXACT_LINKS:
        raise ValueError(
            f"exhaustive search limited to {MAX_EXACT_LINKS} links, got {len(ids)}"
        )
    return ids


def feasible_link_sets(instance: NetworkInstance) -> list[frozenset[int]]:
    """Every subset of links that is valid as one slot (checker-verified)."""
    ids = _guard_links(instance)
    sets: list[frozenset[int]] = []
    for mask in range(1 << len(ids)):
        subset = frozenset(ids[i] for i in range(len(ids)) if mask >> i & 1)
        slot = Schedule(1, (subset,))
        if not check_radio_constraints(instance, slot).clean():
            continue
        if check_sinr(instance, slot):
            continue
        sets.append(subset)
    return sets


@dataclass(frozen=True)
class ExactResult:
    schedule: Schedule
    throughput: float


def exhaustive_opt(instance: NetworkInstance, frame_length: int) -> ExactResult:
    """Maximum-throughput schedule covering every link, by enumeration."""
    ids = _guard_links(instance)
    if frame_length < 1:
        raise ValueError(f"frame_length must be >= 1, got {frame_length}")
    if frame_length > MAX_EXACT_SLOTS:
        raise ValueError(
            f"exhaustive search limited to {MAX_EXACT_SLOTS} slots, got {frame_length}"
        )
    bit_of = {lid: i for i, lid in enumerate(ids)}
    sets = feasible_link_sets(instance)
    set_masks = []
    set_values = []
    for subset in sets:
        mask = 0
        for lid in subset:
            mask |= 1 << bit_of[lid]
        set_masks.append(mask)
        set_values.append(sum(instance.link(lid).rate for lid in subset))

    full = (1 << len(ids)) - 1
    NEG = float("-inf")
    dp = [NEG] * (full + 1)
    dp[0] = 0.0
    parent: list[dict[int, tuple[int, int]]] = [dict() for _ in range(frame_length)]
    for t in range(frame_length):
        nxt = [NEG] * (full + 1)
        for mask in range(full + 1):
            base = dp[mask]
            if base == NEG:
                continue
            for si in range(len(sets)):
                new_mask = mask | set_masks[si]
                value = base + set_values[si]
                if value > nxt[new_mask]:
                    nxt[new_mask] = value
                    parent[t][new_mask] = (mask, si)
        dp = nxt
    if dp[full] == NEG:
        raise NoFeasibleScheduleError(
            f"no schedule covers all {len(ids)} links in {frame_length} slots"
        )

    slots: list[frozenset[int]] = []
    mask = full
    for t in range(frame_length - 1, -1, -1):
        prev_mask, si = parent[t][mask]
        slots.append(sets[si])
        mask = prev_mask
    slots.reverse()
    schedule = Schedule(frame_length, tuple(slots))
    return ExactResult(schedule=schedule, throughput=dp[full] / frame_length)


def minimum_frame_length(instance: NetworkInstance) -> int:
    """Fewest slots that can cover every link (set cover by enumeration)."""
    ids = _guard_links(instance)
    bit_of = {lid: i for i, lid in enumerate(ids)}
    masks = []
    for subset in feasible_link_sets(instance):
        if subset:
            mask = 0
            for lid in subset:
                mask |= 1 << bit_of[lid]
            masks.append(mask)
    full = (1 << len(ids)) - 1
    INF = float("inf")
    dp = [INF] * (full + 1)
    dp[0] = 0
    for mask in range(1, full + 1):
        for smask in masks:
            if smask & mask:
                prev = dp[mask & ~smask]
                if prev + 1 < dp[mask]:
                    dp[mask] = prev + 1
    if dp[full] == INF:
        raise NoFeasibleScheduleError("some link is infeasible even alone")
    return int(dp[full])
