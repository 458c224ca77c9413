"""Comparator schedulers that trade SINR fidelity for simplicity.

Three deliberately simplified strategies to measure the LP pipeline
against:

  pm  - protocol-model coloring: two links conflict when they share a node
        or either receiver sits within a fixed interference range of the
        other's sender.  Interference is a disk, accumulation is ignored.
  pcg - pairwise-SINR coloring: two links conflict when they share a node
        or co-scheduling just the two of them would drop either below the
        reception threshold.  Accumulation across three or more
        transmitters is still ignored.
  pg  - physical greedy: links in rate order, first slot whose full
        aggregate SINR (every concurrent transmitter summed) stays
        feasible.  The only baseline whose output always passes the
        complete checker suite.

All three return a Schedule over the requested frame; links that need more
slots than the frame offers are simply left out and surface through
check_coverage.  None of these is a faithful reimplementation of any
published algorithm; they are stand-ins with just enough structure to show
where disk and pairwise interference models break.
"""

from __future__ import annotations

from .feasibility import Schedule
from .radio import NetworkInstance, fits, links_share_node, sinr_at_receiver


def _color_conflict_graph(
    instance: NetworkInstance, conflict, frame_length: int
) -> Schedule:
    """Greedy sequential coloring in link-id order; colors are slots."""
    if frame_length < 1:
        raise ValueError(f"frame_length must be >= 1, got {frame_length}")
    slots: list[set[int]] = [set() for _ in range(frame_length)]
    for lid in sorted(instance.link_ids()):
        link = instance.link(lid)
        for slot in slots:
            if all(not conflict(link, instance.link(other)) for other in slot):
                slot.add(lid)
                break
        # no slot left: the link stays unscheduled
    return Schedule.from_lists(frame_length, slots)


def pm_schedule(
    instance: NetworkInstance, interference_range: float, frame_length: int
) -> Schedule:
    """Disk-model coloring.

    Conflict rule: shared node, or either receiver within
    interference_range of the other link's sender.  Output always passes
    the radio checkers (conflicting links never share a slot) but can fail
    check_sinr: a disk around each sender says nothing about what many
    just-outside-the-disk transmitters add up to.
    """
    if not interference_range > 0.0:
        raise ValueError(
            f"interference_range must be positive, got {interference_range}"
        )

    def conflict(a, b) -> bool:
        return (
            links_share_node(a, b)
            or instance.distance(a.sender, b.receiver) <= interference_range
            or instance.distance(b.sender, a.receiver) <= interference_range
        )

    return _color_conflict_graph(instance, conflict, frame_length)


def pcg_schedule(instance: NetworkInstance, frame_length: int) -> Schedule:
    """Pairwise-SINR coloring.

    Conflict rule: shared node, or either link's SINR dropping below the
    threshold with only the other link transmitting.  Ignores that
    interference from several pairwise-compatible links accumulates, so
    check_sinr can still find witnesses.
    """
    beta = instance.radio.beta

    def conflict(a, b) -> bool:
        if links_share_node(a, b):
            return True
        return (
            sinr_at_receiver(instance, a.id, [b.id]) < beta
            or sinr_at_receiver(instance, b.id, [a.id]) < beta
        )

    return _color_conflict_graph(instance, conflict, frame_length)


def pg_schedule(instance: NetworkInstance, frame_length: int) -> Schedule:
    """Rate-ordered greedy with the true aggregate admission test.

    Links are placed heaviest rate first (ties: lower id) into the first
    slot where the whole slot, newcomer included, still clears the SINR
    threshold and the radio constraints.  Output is feasible by
    construction wherever it covers.
    """
    if frame_length < 1:
        raise ValueError(f"frame_length must be >= 1, got {frame_length}")
    slots: list[set[int]] = [set() for _ in range(frame_length)]
    order = sorted(instance.link_ids(), key=lambda lid: (-instance.link(lid).rate, lid))
    for lid in order:
        for slot in slots:
            if fits(instance, lid, slot):
                slot.add(lid)
                break
    return Schedule.from_lists(frame_length, slots)
