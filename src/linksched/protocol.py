"""Slot-synchronous simulation of the distributed carrier-sensing scheduler.

Senders schedule their own links without a central solver by playing a
three-phase handshake in every slot:

  phase 1 (sensing):  each contending sender draws a random mini-slot and
      transmits a short SENSING burst at that time; a sender survives iff no
      burst from another sender within the sensing range started strictly
      earlier (same mini-slot inside mutual range: lower node id wins).
  phase 2 (RTS/CTS):  survivors send RTS to their receiver; a receiver that
      is not itself a surviving sender grants exactly one CTS, to the RTS
      with the earliest sensing time (ties: lower sender id).  Denied
      senders back off for a uniform 1..8 slots.
  phase 3 (data/ack): granted links transmit concurrently; a transmission
      succeeds iff the SINR measured against every other concurrent
      transmitter (noise included) clears the reception threshold.

The sensing range R_C = rho * 2**k (in units of the shortest link length)
is large enough that the interference accumulated from all other survivors
provably cannot push any granted link below the threshold, so with the
derived range phase 3 is not expected to fail.  The check is still a
filter, not an assertion: a link below the threshold is recorded as failed
and stays pending (a shrunken sensing range does produce such failures).
The matching worst-case guarantee on schedule length is exposed by
frame_length_ratio_bound: the protocol needs at most that factor more slots
than an optimal frame.

A sender whose outgoing links are all scheduled withdraws for the rest of
the run.  Keeping it transmitting would be closer to a perpetually running
network, but a withdrawn-sender world is what the deferral rule ("stay
silent while any nearby sender still has a pending link") converges to
within one frame, and it is the only reading under which shared-receiver
topologies always finish: a receiver never grants CTS while it is itself a
surviving sender, so a finished sender that kept contending could starve an
incoming link forever.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .feasibility import Schedule, check_radio_constraints
from .radio import Link, NetworkInstance, sinr_at_receiver

DEFAULT_MINI_SLOTS = 64
# CTS-denied senders retry after a uniform draw from [1, BACKOFF_MAX] slots.
BACKOFF_MAX = 8


def compute_rho(alpha: float, beta: float) -> float:
    """Sensing-range coefficient: 4 * (2*pi*beta*(alpha-1)/(alpha-2))**(1/alpha).

    This is the smallest multiple of the (normalized) link length at which
    a disk packing argument bounds the total interference from all other
    surviving senders by received_power / beta.  Always > 4 for alpha > 2,
    beta >= 1; diverges as alpha -> 2 because far interferers stop being
    summable.
    """
    if alpha <= 2.0:
        raise ValueError(f"path loss exponent must exceed 2, got {alpha}")
    if beta < 1.0:
        raise ValueError(f"SINR threshold must be >= 1, got {beta}")
    return 4.0 * (2.0 * math.pi * beta * (alpha - 1.0) / (alpha - 2.0)) ** (1.0 / alpha)


def compute_diversity(instance: NetworkInstance) -> int:
    """Length diversity k = floor(log2(longest link / shortest link))."""
    lengths = [instance.link_length(lid) for lid in instance.link_ids()]
    return int(math.floor(math.log2(max(lengths) / min(lengths))))


@dataclass(frozen=True)
class ProtocolParams:
    """Knobs of one protocol run, all derived from the instance geometry.

    Distances inside the simulator are kept in raw plane units; the sensing
    range is stated in units of the shortest link length (d_min == 1), so
    the raw sensing distance is sensing_range * d_min_normalization.
    """

    rho: float
    diversity_k: int
    sensing_range: float
    mini_slot_count: int = DEFAULT_MINI_SLOTS
    d_min_normalization: float = 1.0

    def __post_init__(self) -> None:
        if self.rho <= 4.0:
            raise ValueError(f"rho must exceed 4, got {self.rho}")
        if self.diversity_k < 0:
            raise ValueError(f"diversity must be >= 0, got {self.diversity_k}")
        if self.sensing_range != self.rho * 2.0 ** self.diversity_k:
            raise ValueError(
                "sensing_range must equal rho * 2**diversity_k exactly "
                f"({self.sensing_range} != {self.rho * 2.0 ** self.diversity_k})"
            )
        if self.mini_slot_count < 2:
            raise ValueError(
                f"need at least 2 mini-slots, got {self.mini_slot_count}"
            )
        if not self.d_min_normalization > 0.0:
            raise ValueError(
                f"d_min_normalization must be positive, got {self.d_min_normalization}"
            )

    @property
    def raw_sensing_range(self) -> float:
        return self.sensing_range * self.d_min_normalization


def protocol_params(
    instance: NetworkInstance, mini_slot_count: int = DEFAULT_MINI_SLOTS
) -> ProtocolParams:
    """Derive the sensing range and diversity from the instance."""
    lengths = [instance.link_length(lid) for lid in instance.link_ids()]
    k = compute_diversity(instance)
    rho = compute_rho(instance.radio.alpha, instance.radio.beta)
    return ProtocolParams(
        rho=rho,
        diversity_k=k,
        sensing_range=rho * 2.0 ** k,
        mini_slot_count=mini_slot_count,
        d_min_normalization=min(lengths),
    )


def approximation_ratio_bound(d_max: float, alpha: float, beta: float) -> float:
    """Worst-case slots-per-optimal-slot ratio, (d_max * (rho + 2))**alpha / beta.

    d_max is measured in units of the shortest link length (so d_max >= 1).
    The ratio bounds how many links an optimal slot can pack inside one
    sensing disk, which is exactly the factor by which serializing those
    links can stretch the frame.
    """
    if d_max < 1.0:
        raise ValueError(f"normalized d_max must be >= 1, got {d_max}")
    rho = compute_rho(alpha, beta)
    return (d_max * (rho + 2.0)) ** alpha / beta


def frame_length_ratio_bound(instance: NetworkInstance) -> float:
    """approximation_ratio_bound evaluated at this instance's length spread."""
    lengths = [instance.link_length(lid) for lid in instance.link_ids()]
    radio = instance.radio
    return approximation_ratio_bound(max(lengths) / min(lengths), radio.alpha, radio.beta)


@dataclass(frozen=True)
class SlotOutcome:
    """Everything observable in one slot.

    sensing_times maps every contending sender node to its mini-slot draw;
    deferred lists the contenders that sensed an earlier burst and dropped
    out; rts maps surviving senders to the link they requested; cts maps
    receivers to the one link they granted; completed/failed partition the
    granted links by the measured-SINR check, and sinr records the
    measurement for every granted link.
    """

    slot: int
    sensing_times: dict[int, int] = field(default_factory=dict)
    deferred: frozenset[int] = frozenset()
    rts: dict[int, int] = field(default_factory=dict)
    cts: dict[int, int] = field(default_factory=dict)
    completed: frozenset[int] = frozenset()
    failed: frozenset[int] = frozenset()
    sinr: dict[int, float] = field(default_factory=dict)


@dataclass(frozen=True)
class SimTrace:
    """Full record of one run.

    first_scheduled maps link id -> slot index of its first completed
    transmission; slots_used is the number of slots elapsed when the last
    link completed (None when the run hit max_slots first, in which case
    complete is False and the trace is a prefix).
    """

    instance: NetworkInstance
    params: ProtocolParams
    seed: int
    outcomes: tuple[SlotOutcome, ...]
    first_scheduled: dict[int, int]
    complete: bool
    slots_used: int | None

    def schedule(self) -> Schedule:
        """Completed links per slot, as a checkable schedule."""
        slots = [sorted(o.completed) for o in self.outcomes]
        return Schedule.from_lists(len(slots), slots)


def _assert_slot_invariants(
    instance: NetworkInstance,
    granted: list[Link],
    raw_range: float,
    slot: int,
) -> None:
    """Internal sanity net; violations mean a simulator bug, not bad input."""
    for i, a in enumerate(granted):
        for b in granted[i + 1 :]:
            if instance.distance(a.sender, b.sender) <= raw_range:
                raise RuntimeError(
                    f"slot {slot}: granted senders {a.sender} and {b.sender} "
                    "inside the sensing range"
                )
    report = check_radio_constraints(
        instance, Schedule.from_lists(1, [[link.id for link in granted]])
    )
    if not report.clean():
        raise RuntimeError(f"slot {slot}: granted links violate radio constraints")


def run_distributed(
    instance: NetworkInstance,
    params: ProtocolParams | None = None,
    *,
    max_slots: int | None = None,
    seed: int = 0,
) -> SimTrace:
    """Run the three-phase protocol until every link completes once.

    Each sender contends with one pending outgoing link per slot (lowest id
    first, rotating across its attempts, except that a link which reached
    phase 3 and failed is retried unrotated).  max_slots defaults to
    |links| * frame_length_ratio_bound, the horizon within which a complete
    run is guaranteed; a run that exhausts it is returned with
    complete=False.  Deterministic for a given (instance, params, seed).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if params is None:
        params = protocol_params(instance)
    if max_slots is None:
        max_slots = int(math.ceil(len(instance.links) * frame_length_ratio_bound(instance)))
    if max_slots < 1:
        raise ValueError(f"max_slots must be >= 1, got {max_slots}")

    rng = np.random.Generator(np.random.PCG64(seed))
    raw_range = params.raw_sensing_range
    beta = instance.radio.beta

    pending: dict[int, list[int]] = {}
    for link in instance.links:
        pending.setdefault(link.sender, []).append(link.id)
    for ids in pending.values():
        ids.sort()
    rotation = {v: 0 for v in pending}
    backoff_until = {v: 0 for v in pending}

    first_scheduled: dict[int, int] = {}
    outcomes: list[SlotOutcome] = []
    complete = False
    slots_used: int | None = None

    for slot in range(max_slots):
        contenders = sorted(
            v for v, ids in pending.items() if ids and slot >= backoff_until[v]
        )
        # Rotation advances only on a deferral or a CTS denial, so a sender
        # whose data transmission failed re-proposes the same link, and a
        # sender whose link completed moves on naturally (the id left the
        # pending list).
        proposal = {v: pending[v][rotation[v] % len(pending[v])] for v in contenders}

        sensing_times = {
            v: int(rng.integers(0, params.mini_slot_count)) for v in contenders
        }

        # Phase 1: a contender survives iff nobody audible to it actually
        # transmitted at a strictly earlier mini-slot (same slot: lower node
        # id).  Deferred senders never emit, so processing in (t_s, id)
        # order against the survivors found so far reproduces the physics.
        survivors: list[int] = []
        deferred: set[int] = set()
        for v in sorted(contenders, key=lambda v: (sensing_times[v], v)):
            if any(instance.distance(v, w) <= raw_range for w in survivors):
                deferred.add(v)
            else:
                survivors.append(v)

        # Phase 2: one CTS per receiver, none from a surviving sender.
        surviving_set = set(survivors)
        rts = {v: proposal[v] for v in survivors}
        by_receiver: dict[int, list[int]] = {}
        for v in survivors:
            by_receiver.setdefault(instance.link(rts[v]).receiver, []).append(v)
        cts: dict[int, int] = {}
        denied: list[int] = []
        for r, senders in sorted(by_receiver.items()):
            if r in surviving_set:
                denied.extend(senders)
                continue
            winner = min(senders, key=lambda v: (sensing_times[v], v))
            cts[r] = rts[winner]
            denied.extend(v for v in senders if v != winner)

        # Phase 3: granted links transmit together; success is measured,
        # not assumed.
        granted = sorted(cts.values())
        granted_links = [instance.link(lid) for lid in granted]
        sinr: dict[int, float] = {}
        completed: set[int] = set()
        failed: set[int] = set()
        for lid in granted:
            others = [k for k in granted if k != lid]
            sinr[lid] = sinr_at_receiver(instance, lid, others)
            (completed if sinr[lid] >= beta else failed).add(lid)
        _assert_slot_invariants(instance, granted_links, raw_range, slot)

        for v in sorted(deferred):
            rotation[v] += 1
        for v in sorted(denied):
            rotation[v] += 1
            backoff_until[v] = slot + int(rng.integers(1, BACKOFF_MAX + 1))
        for lid in sorted(completed):
            link = instance.link(lid)
            first_scheduled.setdefault(lid, slot)
            pending[link.sender].remove(lid)

        outcomes.append(
            SlotOutcome(
                slot=slot,
                sensing_times=sensing_times,
                deferred=frozenset(deferred),
                rts=rts,
                cts=cts,
                completed=frozenset(completed),
                failed=frozenset(failed),
                sinr=sinr,
            )
        )
        if not any(pending.values()):
            complete = True
            slots_used = slot + 1
            break

    return SimTrace(
        instance=instance,
        params=params,
        seed=seed,
        outcomes=tuple(outcomes),
        first_scheduled=first_scheduled,
        complete=complete,
        slots_used=slots_used,
    )


def format_trace(trace: SimTrace) -> str:
    """Render a trace as delimited text, one line per slot.

    Line format (fields separated by '|', list items by ',', pairs by ':'):

        <slot>|ts=<node:mini,...>|defer=<node,...>|rts=<sender:link,...>
              |cts=<receiver:link,...>|done=<link,...>|fail=<link,...>
              |sinr=<link:value,...>

    preceded by '#' comment lines and one 'meta' line with run-level fields.
    """

    def pairs(d: dict[int, object]) -> str:
        return ",".join(f"{k}:{d[k]!r}" if isinstance(d[k], float) else f"{k}:{d[k]}" for k in sorted(d))

    def ids(s: frozenset[int]) -> str:
        return ",".join(str(i) for i in sorted(s))

    lines = [
        "# distributed scheduler trace",
        "# slot|ts=node:mini,...|defer=node,...|rts=sender:link,...|"
        "cts=receiver:link,...|done=link,...|fail=link,...|sinr=link:value,...",
        f"meta seed={trace.seed} links={len(trace.instance.links)} "
        f"complete={int(trace.complete)} slots_used={trace.slots_used} "
        f"sensing_range={trace.params.sensing_range!r} "
        f"diversity_k={trace.params.diversity_k}",
    ]
    for o in trace.outcomes:
        lines.append(
            f"{o.slot}|ts={pairs(o.sensing_times)}|defer={ids(o.deferred)}"
            f"|rts={pairs(o.rts)}|cts={pairs(o.cts)}|done={ids(o.completed)}"
            f"|fail={ids(o.failed)}|sinr={pairs(o.sinr)}"
        )
    return "\n".join(lines) + "\n"


def export_trace(trace: SimTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_trace(trace))
