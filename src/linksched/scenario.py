"""Scenario configuration, random instance generation, and text formats.

A scenario is n sender-receiver pairs dropped on a square: senders uniform
over the area, each receiver uniform over the disk of the transmission
range around its sender (re-drawn until it lands inside the square), so
every link is decodable alone under the default power rule.  Nodes beyond
the 2n pair endpoints are placed uniformly and carry no links.

Instances serialize to a line-oriented text format built from repr() of
the floats, so write -> read -> write is byte-identical and fixtures can
be diffed:

    # linksched instance
    radio alpha=4.0 beta=10.0 noise=1e-09 tx_power=1e-06
    node 0 x=12.5 y=3.25
    link 0 sender=0 receiver=1 rate=1.0

Schedules have a matching format (one line per slot, link ids comma
separated, blank after the colon for an idle slot):

    # linksched schedule
    frame_length=3
    slot 0: 0,2
    slot 1:
    slot 2: 1
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .feasibility import Schedule
from .radio import (
    D_FLOOR,
    Link,
    NetworkInstance,
    Node,
    RadioParams,
    db_to_linear,
    default_tx_power,
)

PLACEMENT_ATTEMPTS = 1000


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs of the standard comparison setup.

    Defaults: unit transmission range on a 100 x 100 area, interference
    range 2.5, noise -90 dBm, threshold 10 dB, path loss exponent 4, frame
    of 100 slots, 100 runs, unit rates.  node_count = None means exactly
    the 2 * pair_count endpoints.  Powers are milliwatts.
    """

    pair_count: int
    node_count: int | None = None
    area: float = 100.0
    transmission_range: float = 1.0
    interference_range: float = 2.5
    noise_dbm: float = -90.0
    beta_db: float = 10.0
    alpha: float = 4.0
    frame_length: int = 100
    run_count: int = 100
    rate: float = 1.0
    master_seed: int = 0

    def __post_init__(self) -> None:
        if self.pair_count < 1:
            raise ValueError(f"pair_count must be >= 1, got {self.pair_count}")
        if self.resolved_node_count() < 2 * self.pair_count:
            raise ValueError(
                f"node_count {self.node_count} cannot host "
                f"{self.pair_count} disjoint pairs"
            )
        for name in ("area", "transmission_range", "interference_range", "rate"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.transmission_range > self.area:
            raise ValueError("transmission_range cannot exceed the area side")
        if self.alpha <= 2.0:
            raise ValueError(f"alpha must exceed 2, got {self.alpha}")
        if self.frame_length < 1 or self.run_count < 1:
            raise ValueError("frame_length and run_count must be >= 1")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")

    def resolved_node_count(self) -> int:
        return 2 * self.pair_count if self.node_count is None else self.node_count

    def radio(self) -> RadioParams:
        beta = db_to_linear(self.beta_db)
        noise = db_to_linear(self.noise_dbm)  # dBm -> milliwatts
        return RadioParams(
            alpha=self.alpha,
            beta=beta,
            noise=noise,
            tx_power=default_tx_power(beta, noise),
        )

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)

    @classmethod
    def json_fields(cls, text: str) -> dict:
        """The fields a JSON object sets; ValueError for anything else."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        return data

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        return cls(**cls.json_fields(text))


def generate_scenario(config: ScenarioConfig, seed: int) -> NetworkInstance:
    """Draw one instance; deterministic in (config, seed).

    Pair i occupies nodes 2i (sender) and 2i+1 (receiver); idle nodes, if
    node_count asks for them, get the remaining ids.  Raises RuntimeError
    if a placement cannot be found in a bounded number of attempts (only
    plausible with degenerate configs).
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    area = config.area
    r_t = config.transmission_range

    nodes: list[Node] = []
    links: list[Link] = []
    used: set[tuple[float, float]] = set()

    def place(position_of) -> tuple[float, float]:
        for _ in range(PLACEMENT_ATTEMPTS):
            pos = position_of()
            if pos not in used:
                used.add(pos)
                return pos
        raise RuntimeError(
            f"could not place a node after {PLACEMENT_ATTEMPTS} attempts"
        )

    def uniform_point():
        return (float(rng.uniform(0.0, area)), float(rng.uniform(0.0, area)))

    for i in range(config.pair_count):
        sx, sy = place(uniform_point)

        def receiver_point():
            for _ in range(PLACEMENT_ATTEMPTS):
                radius = r_t * math.sqrt(float(rng.uniform(0.0, 1.0)))
                angle = float(rng.uniform(0.0, 2.0 * math.pi))
                rx = sx + radius * math.cos(angle)
                ry = sy + radius * math.sin(angle)
                if radius >= D_FLOOR and 0.0 <= rx <= area and 0.0 <= ry <= area:
                    return (rx, ry)
            raise RuntimeError(
                f"could not place a receiver after {PLACEMENT_ATTEMPTS} attempts"
            )

        rx, ry = place(receiver_point)
        nodes.append(Node(2 * i, sx, sy))
        nodes.append(Node(2 * i + 1, rx, ry))
        links.append(Link(i, 2 * i, 2 * i + 1, config.rate))

    for extra in range(2 * config.pair_count, config.resolved_node_count()):
        x, y = place(uniform_point)
        nodes.append(Node(extra, x, y))

    return NetworkInstance(
        nodes=tuple(nodes), links=tuple(links), radio=config.radio()
    )


def format_instance(instance: NetworkInstance) -> str:
    r = instance.radio
    lines = [
        "# linksched instance",
        f"radio alpha={r.alpha!r} beta={r.beta!r} noise={r.noise!r} "
        f"tx_power={r.tx_power!r}",
    ]
    for node in instance.nodes:
        lines.append(f"node {node.id} x={node.x!r} y={node.y!r}")
    for link in instance.links:
        lines.append(
            f"link {link.id} sender={link.sender} receiver={link.receiver} "
            f"rate={link.rate!r}"
        )
    return "\n".join(lines) + "\n"


def _fields(parts: list[str], line_no: int) -> dict[str, str]:
    out = {}
    for part in parts:
        if "=" not in part:
            raise ValueError(f"line {line_no}: malformed field {part!r}")
        key, value = part.split("=", 1)
        out[key] = value
    return out


def parse_instance(text: str) -> NetworkInstance:
    radio: RadioParams | None = None
    nodes: list[Node] = []
    links: list[Link] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *parts = line.split()
        if kind == "radio":
            f = _fields(parts, line_no)
            radio = RadioParams(
                alpha=float(f["alpha"]),
                beta=float(f["beta"]),
                noise=float(f["noise"]),
                tx_power=float(f["tx_power"]),
            )
        elif kind == "node":
            f = _fields(parts[1:], line_no)
            nodes.append(Node(int(parts[0]), float(f["x"]), float(f["y"])))
        elif kind == "link":
            f = _fields(parts[1:], line_no)
            links.append(
                Link(
                    int(parts[0]),
                    int(f["sender"]),
                    int(f["receiver"]),
                    float(f.get("rate", "1.0")),
                )
            )
        else:
            raise ValueError(f"line {line_no}: unknown record {kind!r}")
    if radio is None:
        raise ValueError("instance file has no radio line")
    return NetworkInstance(nodes=tuple(nodes), links=tuple(links), radio=radio)


def write_instance(instance: NetworkInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_instance(instance))


def read_instance(path: str) -> NetworkInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def format_schedule(schedule: Schedule) -> str:
    lines = ["# linksched schedule", f"frame_length={schedule.frame_length}"]
    for t, slot in enumerate(schedule.slots):
        ids = ",".join(str(lid) for lid in sorted(slot))
        lines.append(f"slot {t}: {ids}".rstrip())
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> Schedule:
    frame_length: int | None = None
    slots: dict[int, list[int]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("frame_length="):
            frame_length = int(line.split("=", 1)[1])
        elif line.startswith("slot "):
            head, _, ids = line.partition(":")
            t = int(head.split()[1])
            if t in slots:
                raise ValueError(f"line {line_no}: duplicate slot {t}")
            slots[t] = [int(tok) for tok in ids.split(",") if tok.strip()]
        else:
            raise ValueError(f"line {line_no}: unknown record {line!r}")
    if frame_length is None:
        raise ValueError("schedule file has no frame_length line")
    if sorted(slots) != list(range(frame_length)):
        raise ValueError(
            f"schedule file must list slots 0..{frame_length - 1} exactly once"
        )
    return Schedule.from_lists(frame_length, [slots[t] for t in range(frame_length)])


def write_schedule(schedule: Schedule, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_schedule(schedule))


def read_schedule(path: str) -> Schedule:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_schedule(fh.read())
