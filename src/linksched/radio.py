"""Radio layer primitives: nodes, links, path-loss gains and SINR.

All power quantities are linear (milliwatts).  Conversions from dB/dBm
happen at the edges (config parsing), never inside the math.

Propagation is plain power-law path loss: a signal sent at power P is
received at distance d with power P * d**(-alpha).  A transmission on a
link succeeds when the SINR at its receiver, with every other concurrent
sender counted as an interferer, is at least the threshold beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

# Distances below this are rejected when an instance is validated; it keeps
# d**(-alpha) finite without silently clamping real geometry.
D_FLOOR = 1e-6


def db_to_linear(db: float) -> float:
    """Convert a dB value to its linear ratio (also dBm -> mW)."""
    return 10.0 ** (db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a linear ratio to dB. Raises ValueError for value <= 0."""
    if value <= 0.0:
        raise ValueError(f"cannot express non-positive value {value!r} in dB")
    return 10.0 * math.log10(value)


def default_tx_power(beta: float, noise: float) -> float:
    """Transmit power giving an isolated unit-distance link a 20 dB SINR margin.

    With P = 100 * beta * noise, a lone link of length d has SINR
    P * d**(-alpha) / noise = 100 * beta * d**(-alpha), so every link no
    longer than one distance unit clears beta with two orders of magnitude
    to spare.
    """
    if beta <= 0.0 or noise <= 0.0:
        raise ValueError("beta and noise must be positive")
    return 100.0 * beta * noise


@dataclass(frozen=True)
class Node:
    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Link:
    """Directed sender -> receiver transmission request with a traffic rate."""

    id: int
    sender: int
    receiver: int
    rate: float = 1.0


@dataclass(frozen=True)
class RadioParams:
    """Physical-layer parameters, all linear.

    alpha: path-loss exponent, must exceed 2 so far interference sums converge.
    beta: SINR threshold (linear ratio, >= 1).
    noise: ambient noise power (mW, >= 0).
    tx_power: common transmit power (mW, > 0).
    """

    alpha: float
    beta: float
    noise: float
    tx_power: float

    def __post_init__(self) -> None:
        if not self.alpha > 2.0:
            raise ValueError(f"alpha must exceed 2, got {self.alpha}")
        if not self.beta >= 1.0:
            raise ValueError(f"beta must be >= 1, got {self.beta}")
        if not self.noise >= 0.0:
            raise ValueError(f"noise must be >= 0, got {self.noise}")
        if not self.tx_power > 0.0:
            raise ValueError(f"tx_power must be positive, got {self.tx_power}")


@dataclass(frozen=True)
class NetworkInstance:
    """Validated immutable snapshot of nodes, links and radio parameters."""

    nodes: tuple[Node, ...]
    links: tuple[Link, ...]
    radio: RadioParams
    _node_by_id: dict = field(init=False, repr=False, compare=False)
    _link_by_id: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        node_by_id: dict[int, Node] = {}
        for node in self.nodes:
            if node.id in node_by_id:
                raise ValueError(f"duplicate node id {node.id}")
            if not (math.isfinite(node.x) and math.isfinite(node.y)):
                raise ValueError(f"node {node.id} has non-finite coordinates")
            node_by_id[node.id] = node
        positions = {}
        for node in self.nodes:
            key = (node.x, node.y)
            if key in positions:
                raise ValueError(
                    f"nodes {positions[key]} and {node.id} share position {key}"
                )
            positions[key] = node.id
        if not self.links:
            raise ValueError("instance must contain at least one link")
        link_by_id: dict[int, Link] = {}
        for link in self.links:
            if link.id in link_by_id:
                raise ValueError(f"duplicate link id {link.id}")
            if link.sender == link.receiver:
                raise ValueError(f"link {link.id} has sender == receiver")
            for endpoint in (link.sender, link.receiver):
                if endpoint not in node_by_id:
                    raise ValueError(f"link {link.id} references unknown node {endpoint}")
            if not link.rate > 0.0:
                raise ValueError(f"link {link.id} has non-positive rate {link.rate}")
            s, r = node_by_id[link.sender], node_by_id[link.receiver]
            d = math.hypot(s.x - r.x, s.y - r.y)
            if d < D_FLOOR:
                raise ValueError(
                    f"link {link.id} is shorter than the distance floor ({d} < {D_FLOOR})"
                )
            link_by_id[link.id] = link
        object.__setattr__(self, "_node_by_id", node_by_id)
        object.__setattr__(self, "_link_by_id", link_by_id)

    def node(self, node_id: int) -> Node:
        try:
            return self._node_by_id[node_id]
        except KeyError:
            raise ValueError(f"unknown node id {node_id}") from None

    def link(self, link_id: int) -> Link:
        try:
            return self._link_by_id[link_id]
        except KeyError:
            raise ValueError(f"unknown link id {link_id}") from None

    def link_ids(self) -> list[int]:
        return [link.id for link in self.links]

    def distance(self, node_a: int, node_b: int) -> float:
        a, b = self.node(node_a), self.node(node_b)
        return math.hypot(a.x - b.x, a.y - b.y)

    def link_length(self, link_id: int) -> float:
        link = self.link(link_id)
        return self.distance(link.sender, link.receiver)


def links_share_node(a: Link, b: Link) -> bool:
    """True when two links touch a common node.

    Distinct links sharing a node can never run in the same slot: a shared
    sender or receiver breaks the one-transmission-per-node rules, and a
    sender-receiver overlap breaks half duplex.
    """
    return bool({a.sender, a.receiver} & {b.sender, b.receiver})


def fits(instance: NetworkInstance, link_id: int, slot: set[int]) -> bool:
    """True when the link may join the slot's residents.

    It must share no node with a resident (a link already in the slot
    shares its own nodes), and every member of the enlarged slot, the link
    included, must keep SINR >= beta.  The scheduler admission test; the
    checker in feasibility.py keeps its own.
    """
    link = instance.link(link_id)
    if any(links_share_node(link, instance.link(other)) for other in slot):
        return False
    trial = slot | {link_id}
    beta = instance.radio.beta
    return all(sinr_at_receiver(instance, m, trial - {m}) >= beta for m in trial)


def link_gain(instance: NetworkInstance, from_node: int, to_node: int) -> float:
    """Path gain d**(-alpha) between two distinct nodes."""
    d = instance.distance(from_node, to_node)
    if d < D_FLOOR:
        raise ValueError(
            f"distance {d} between nodes {from_node} and {to_node} below floor {D_FLOOR}"
        )
    return d ** (-instance.radio.alpha)


def received_power(instance: NetworkInstance, from_node: int, to_node: int) -> float:
    return instance.radio.tx_power * link_gain(instance, from_node, to_node)


def sinr_at_receiver(
    instance: NetworkInstance, link_id: int, concurrent: Iterable[int]
) -> float:
    """SINR at a link's receiver given the other links active in the same slot.

    `concurrent` holds link ids; each contributes interference from its
    sender's position at this link's receiver.  The link itself must not
    appear in the set.
    """
    link = instance.link(link_id)
    signal = received_power(instance, link.sender, link.receiver)
    interference = 0.0
    self_jammed = False
    seen = set()
    for other_id in concurrent:
        if other_id == link_id:
            raise ValueError(f"link {link_id} listed among its own interferers")
        if other_id in seen:
            raise ValueError(f"link {other_id} repeated in concurrent set")
        seen.add(other_id)
        other = instance.link(other_id)
        if other.sender == link.receiver:
            # the receiver itself is transmitting: unbounded self interference
            self_jammed = True
            continue
        interference += received_power(instance, other.sender, link.receiver)
    if self_jammed:
        return 0.0
    denominator = instance.radio.noise + interference
    if denominator == 0.0:
        return math.inf
    return signal / denominator
