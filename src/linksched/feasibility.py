"""Schedules and independent feasibility checking.

A schedule assigns each link to one or more of T slots (slots are indexed
0..T-1).  Feasibility means five things hold:

  coverage      every link appears in at least one slot
  rx conflicts  no node receives more than one link per slot
  tx conflicts  no node sends more than one link per slot
  half duplex   no node both sends and receives in the same slot
  sinr          every scheduled link decodes against the slot's full
                concurrent-sender interference sum

The checkers here are deliberately plain brute-force loops over the slot
contents.  Schedulers must not share logic with them, so a checker pass is
independent evidence and not a tautology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .radio import NetworkInstance, sinr_at_receiver


@dataclass(frozen=True)
class Schedule:
    """frame_length slots, each a frozenset of link ids."""

    frame_length: int
    slots: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if self.frame_length < 1:
            raise ValueError(f"frame_length must be >= 1, got {self.frame_length}")
        if len(self.slots) != self.frame_length:
            raise ValueError(
                f"expected {self.frame_length} slots, got {len(self.slots)}"
            )

    @classmethod
    def from_lists(cls, frame_length: int, slots: Iterable[Iterable[int]]) -> "Schedule":
        return cls(frame_length, tuple(frozenset(s) for s in slots))

    @classmethod
    def empty(cls, frame_length: int) -> "Schedule":
        return cls(frame_length, tuple(frozenset() for _ in range(frame_length)))

    def validate_link_ids(self, instance: NetworkInstance) -> None:
        known = set(instance.link_ids())
        for t, slot in enumerate(self.slots):
            stray = slot - known
            if stray:
                raise ValueError(f"slot {t} schedules unknown links {sorted(stray)}")

    def scheduled_links(self) -> set[int]:
        out: set[int] = set()
        for slot in self.slots:
            out |= slot
        return out


@dataclass
class RadioWitnesses:
    """Violation witnesses for the per-slot single-transmission constraints.

    Each entry is (slot, node_id). rx: node receives >1 link; tx: node sends
    >1 link; half_duplex: node both sends and receives.
    """

    rx_conflicts: list[tuple[int, int]]
    tx_conflicts: list[tuple[int, int]]
    half_duplex: list[tuple[int, int]]

    def clean(self) -> bool:
        return not (self.rx_conflicts or self.tx_conflicts or self.half_duplex)


@dataclass
class ConstraintReport:
    uncovered: list[int]
    rx_conflicts: list[tuple[int, int]]
    tx_conflicts: list[tuple[int, int]]
    half_duplex: list[tuple[int, int]]
    sinr_violations: list[tuple[int, int, float]]

    @property
    def feasible(self) -> bool:
        return not (
            self.uncovered
            or self.rx_conflicts
            or self.tx_conflicts
            or self.half_duplex
            or self.sinr_violations
        )

    def describe(self) -> str:
        if self.feasible:
            return "feasible"
        parts = []
        if self.uncovered:
            parts.append(f"uncovered links: {self.uncovered}")
        if self.rx_conflicts:
            parts.append(f"receiver conflicts (slot, node): {self.rx_conflicts}")
        if self.tx_conflicts:
            parts.append(f"sender conflicts (slot, node): {self.tx_conflicts}")
        if self.half_duplex:
            parts.append(f"half-duplex violations (slot, node): {self.half_duplex}")
        if self.sinr_violations:
            parts.append(
                "sinr violations (slot, link, sinr): "
                + ", ".join(f"({t}, {l}, {v:.6g})" for t, l, v in self.sinr_violations)
            )
        return "; ".join(parts)


def check_coverage(instance: NetworkInstance, schedule: Schedule) -> list[int]:
    """Link ids never scheduled in any slot, ascending."""
    scheduled = schedule.scheduled_links()
    return [lid for lid in sorted(instance.link_ids()) if lid not in scheduled]


def check_radio_constraints(
    instance: NetworkInstance, schedule: Schedule
) -> RadioWitnesses:
    """Per-slot receiver/sender multiplicity and half-duplex witnesses."""
    witnesses = RadioWitnesses([], [], [])
    for t, slot in enumerate(schedule.slots):
        senders: dict[int, int] = {}
        receivers: dict[int, int] = {}
        for lid in sorted(slot):
            link = instance.link(lid)
            senders[link.sender] = senders.get(link.sender, 0) + 1
            receivers[link.receiver] = receivers.get(link.receiver, 0) + 1
        for node_id in sorted(receivers):
            if receivers[node_id] > 1:
                witnesses.rx_conflicts.append((t, node_id))
        for node_id in sorted(senders):
            if senders[node_id] > 1:
                witnesses.tx_conflicts.append((t, node_id))
        for node_id in sorted(set(senders) & set(receivers)):
            witnesses.half_duplex.append((t, node_id))
    return witnesses


def check_sinr(
    instance: NetworkInstance, schedule: Schedule
) -> list[tuple[int, int, float]]:
    """(slot, link, measured sinr) for every scheduled link below threshold."""
    beta = instance.radio.beta
    violations = []
    for t, slot in enumerate(schedule.slots):
        for lid in sorted(slot):
            others = [o for o in slot if o != lid]
            sinr = sinr_at_receiver(instance, lid, others)
            if sinr < beta:
                violations.append((t, lid, sinr))
    return violations


def throughput(instance: NetworkInstance, schedule: Schedule) -> float:
    """Rate-weighted transmission count averaged over the frame."""
    total = 0.0
    for slot in schedule.slots:
        for lid in slot:
            total += instance.link(lid).rate
    return total / schedule.frame_length


def check_schedule(instance: NetworkInstance, schedule: Schedule) -> ConstraintReport:
    """Run all five checkers and combine their witnesses."""
    schedule.validate_link_ids(instance)
    radio = check_radio_constraints(instance, schedule)
    return ConstraintReport(
        uncovered=check_coverage(instance, schedule),
        rx_conflicts=radio.rx_conflicts,
        tx_conflicts=radio.tx_conflicts,
        half_duplex=radio.half_duplex,
        sinr_violations=check_sinr(instance, schedule),
    )
