"""Distributed scheduler: sensing range math and the slotted three-phase sim.

Oracles:
  * rho(4, 10) = 4*(30*pi)**(1/4) and rho(4, 1) = 4*(3*pi)**(1/4) evaluated
    at 40 decimal digits: 12.46314859914844874442... and
    7.008543499289381413307...
  * ratio bound (d_max*(rho+2))**alpha / beta at the same precision:
    4375.7388341018195 for (1, 4, 10) and 70011.82134562911 for (2, 4, 10).
  * slot-by-slot hand traces of the protocol for one link, two mutually
    audible senders, a relay chain, and a shared receiver.
"""

import math

import pytest

from linksched.exact import minimum_frame_length
from linksched.feasibility import check_schedule
from linksched.protocol import (
    ProtocolParams,
    approximation_ratio_bound,
    compute_diversity,
    compute_rho,
    export_trace,
    format_trace,
    frame_length_ratio_bound,
    protocol_params,
    run_distributed,
)
from linksched.radio import (
    Link,
    NetworkInstance,
    Node,
    RadioParams,
    default_tx_power,
)

from util import random_instance

RHO_4_10 = 12.46314859914844874442389870117774491710
RHO_4_1 = 7.008543499289381413307451057336791704064
RATIO_1_4_10 = 4375.7388341018195
RATIO_2_4_10 = 70011.82134562911


def radio_10db(alpha: float = 4.0) -> RadioParams:
    return RadioParams(
        alpha=alpha, beta=10.0, noise=1e-9, tx_power=default_tx_power(10.0, 1e-9)
    )


def parallel_pair() -> NetworkInstance:
    """Two unit links whose senders sit 1 apart, well inside the sensing range."""
    return NetworkInstance(
        nodes=(
            Node(0, 0.0, 0.0),
            Node(1, 0.0, 1.0),
            Node(2, 1.0, 0.0),
            Node(3, 1.0, 1.0),
        ),
        links=(Link(0, 0, 1), Link(1, 2, 3)),
        radio=radio_10db(),
    )


def loose_params(normalization: float = 0.1) -> ProtocolParams:
    """A sensing range far below the derived one, to expose the RTS/CTS paths.

    With the derived range the geometry makes phase-2 denials unreachable
    (see TestDerivedRangeGeometry), so these tests shrink it on purpose.
    """
    return ProtocolParams(
        rho=4.5,
        diversity_k=0,
        sensing_range=4.5,
        mini_slot_count=64,
        d_min_normalization=normalization,
    )


class TestRho:
    def test_alpha4_beta10(self):
        assert math.isclose(compute_rho(4.0, 10.0), RHO_4_10, rel_tol=1e-12)

    def test_alpha4_beta1(self):
        assert math.isclose(compute_rho(4.0, 1.0), RHO_4_1, rel_tol=1e-12)

    def test_closed_form(self):
        assert compute_rho(4.0, 10.0) == pytest.approx(
            4.0 * (30.0 * math.pi) ** 0.25, rel=1e-15
        )

    def test_monotone_in_beta(self):
        values = [compute_rho(4.0, b) for b in (1.0, 2.0, 10.0, 100.0, 1e6)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_always_above_four(self):
        for alpha in (2.1, 3.0, 4.0, 6.0, 10.0):
            for beta in (1.0, 5.0, 50.0):
                assert compute_rho(alpha, beta) > 4.0

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            compute_rho(2.0, 10.0)
        with pytest.raises(ValueError):
            compute_rho(1.5, 10.0)

    def test_beta_domain(self):
        with pytest.raises(ValueError):
            compute_rho(4.0, 0.5)


class TestDiversity:
    def make(self, lengths):
        nodes = []
        links = []
        for i, length in enumerate(lengths):
            nodes.append(Node(2 * i, 0.0, 10.0 * i))
            nodes.append(Node(2 * i + 1, length, 10.0 * i))
            links.append(Link(i, 2 * i, 2 * i + 1))
        return NetworkInstance(
            nodes=tuple(nodes), links=tuple(links), radio=radio_10db()
        )

    def test_equal_lengths(self):
        assert compute_diversity(self.make([1.0, 1.0, 1.0])) == 0

    def test_ratio_two(self):
        assert compute_diversity(self.make([1.0, 2.0])) == 1

    def test_ratio_five(self):
        assert compute_diversity(self.make([1.0, 3.0, 5.0])) == 2

    def test_ratio_eight(self):
        assert compute_diversity(self.make([0.5, 4.0])) == 3


class TestProtocolParams:
    def test_factory_ties_fields_together(self):
        inst = random_instance(3, n_links=5)
        params = protocol_params(inst)
        assert params.rho == compute_rho(inst.radio.alpha, inst.radio.beta)
        assert params.diversity_k == compute_diversity(inst)
        assert params.sensing_range == params.rho * 2.0 ** params.diversity_k
        lengths = [inst.link_length(lid) for lid in inst.link_ids()]
        assert params.d_min_normalization == min(lengths)
        assert params.mini_slot_count == 64

    def test_raw_range_rescales(self):
        params = ProtocolParams(
            rho=5.0, diversity_k=1, sensing_range=10.0, d_min_normalization=0.25
        )
        assert params.raw_sensing_range == 2.5

    def test_rejects_inconsistent_range(self):
        with pytest.raises(ValueError):
            ProtocolParams(rho=5.0, diversity_k=1, sensing_range=9.9)

    def test_rejects_small_rho(self):
        with pytest.raises(ValueError):
            ProtocolParams(rho=4.0, diversity_k=0, sensing_range=4.0)

    def test_rejects_single_mini_slot(self):
        with pytest.raises(ValueError):
            ProtocolParams(
                rho=5.0, diversity_k=0, sensing_range=5.0, mini_slot_count=1
            )

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError):
            ProtocolParams(
                rho=5.0, diversity_k=0, sensing_range=5.0, d_min_normalization=0.0
            )


class TestRatioBound:
    def test_unit_spread(self):
        assert math.isclose(
            approximation_ratio_bound(1.0, 4.0, 10.0), RATIO_1_4_10, rel_tol=1e-12
        )

    def test_double_spread(self):
        assert math.isclose(
            approximation_ratio_bound(2.0, 4.0, 10.0), RATIO_2_4_10, rel_tol=1e-12
        )

    def test_double_spread_is_sixteen_times_unit(self):
        assert approximation_ratio_bound(2.0, 4.0, 10.0) == pytest.approx(
            16.0 * approximation_ratio_bound(1.0, 4.0, 10.0), rel=1e-12
        )

    def test_monotone_in_spread(self):
        values = [
            approximation_ratio_bound(d, 4.0, 10.0) for d in (1.0, 1.5, 2.0, 4.0)
        ]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_sub_unit_spread(self):
        with pytest.raises(ValueError):
            approximation_ratio_bound(0.9, 4.0, 10.0)

    def test_instance_level_matches_formula(self):
        inst = NetworkInstance(
            nodes=(
                Node(0, 0.0, 0.0),
                Node(1, 1.0, 0.0),
                Node(2, 0.0, 5.0),
                Node(3, 2.0, 5.0),
            ),
            links=(Link(0, 0, 1), Link(1, 2, 3)),
            radio=radio_10db(),
        )
        assert frame_length_ratio_bound(inst) == pytest.approx(
            approximation_ratio_bound(2.0, 4.0, 10.0), rel=1e-12
        )


class TestDerivedRangeGeometry:
    def test_sensing_range_exceeds_twice_longest_link(self):
        # rho > 4 and 2**k > (d_max/d_min)/2 force R_C > 2*d_max, so two
        # senders sharing a receiver are always mutually audible under the
        # derived parameters.
        for seed in range(20):
            inst = random_instance(seed, n_links=5)
            params = protocol_params(inst)
            d_max = max(inst.link_length(lid) for lid in inst.link_ids())
            assert params.raw_sensing_range > 2.0 * d_max


class TestSingleLink:
    def test_completes_in_first_slot(self):
        inst = NetworkInstance(
            nodes=(Node(0, 0.0, 0.0), Node(1, 1.0, 0.0)),
            links=(Link(0, 0, 1),),
            radio=radio_10db(),
        )
        trace = run_distributed(inst, seed=7)
        assert trace.complete
        assert trace.slots_used == 1
        assert trace.first_scheduled == {0: 0}
        out = trace.outcomes[0]
        assert out.rts == {0: 0}
        assert out.cts == {1: 0}
        assert out.completed == frozenset({0})
        assert out.failed == frozenset()
        # lone transmitter at unit distance: SINR is the plain SNR,
        # 1e-6 / 1e-9
        assert out.sinr[0] == pytest.approx(1000.0, rel=1e-12)


class TestMutuallyAudiblePair:
    def test_deferral_serializes_exactly(self):
        inst = parallel_pair()
        for seed in range(25):
            trace = run_distributed(inst, seed=seed)
            assert trace.complete
            assert trace.slots_used == 2
            assert sorted(trace.first_scheduled.values()) == [0, 1]
            first, second = trace.outcomes
            assert len(first.completed) == 1
            assert len(first.deferred) == 1
            assert len(second.completed) == 1
            assert second.deferred == frozenset()

    def test_sensing_tie_breaks_to_lower_node_id(self):
        inst = parallel_pair()
        # Two mini-slots make draws collide often; whenever they do, node 0
        # must win slot 0.
        params = protocol_params(inst, mini_slot_count=2)
        tie_seen = False
        for seed in range(40):
            trace = run_distributed(inst, params, seed=seed)
            out = trace.outcomes[0]
            if out.sensing_times[0] == out.sensing_times[2]:
                tie_seen = True
                assert out.completed == frozenset({0})
            elif out.sensing_times[0] < out.sensing_times[2]:
                assert out.completed == frozenset({0})
            else:
                assert out.completed == frozenset({1})
        assert tie_seen

    def test_truncated_run_is_flagged(self):
        inst = parallel_pair()
        trace = run_distributed(inst, max_slots=1, seed=3)
        assert not trace.complete
        assert trace.slots_used is None
        assert len(trace.first_scheduled) == 1
        assert len(trace.outcomes) == 1


class TestRelayChain:
    def test_two_slots_either_order(self):
        inst = NetworkInstance(
            nodes=(Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 2.0, 0.0)),
            links=(Link(0, 0, 1), Link(1, 1, 2)),
            radio=radio_10db(),
        )
        orders = set()
        for seed in range(30):
            trace = run_distributed(inst, seed=seed)
            assert trace.complete
            assert trace.slots_used == 2
            orders.add(min(trace.first_scheduled, key=trace.first_scheduled.get))
        assert orders == {0, 1}


class TestSharedReceiver:
    def make(self):
        # A -> C and B -> C with the senders 2 apart, beyond the loosened
        # sensing range of 0.45.
        return NetworkInstance(
            nodes=(Node(0, 0.0, 0.0), Node(1, 1.0, 0.0), Node(2, 2.0, 0.0)),
            links=(Link(0, 0, 1), Link(1, 2, 1)),
            radio=radio_10db(),
        )

    def test_one_cts_per_slot_and_backoff(self):
        inst = self.make()
        denial_slots = set()
        for seed in range(40):
            trace = run_distributed(inst, loose_params(), seed=seed)
            assert trace.complete
            slots = trace.first_scheduled
            assert len(slots) == 2
            assert slots[0] != slots[1]
            first = trace.outcomes[0]
            # Both senders always survive phase 1, the receiver grants one.
            assert set(first.rts) == {0, 2}
            assert len(first.cts) == 1
            assert len(first.completed) == 1
            loser_slot = max(slots.values())
            assert 1 <= loser_slot <= 8
            denial_slots.add(loser_slot)
        assert len(denial_slots) >= 3  # backoff really is randomized

    def test_grant_goes_to_earlier_sensing_time(self):
        inst = self.make()
        for seed in range(40):
            trace = run_distributed(inst, loose_params(), seed=seed)
            out = trace.outcomes[0]
            ts_a, ts_b = out.sensing_times[0], out.sensing_times[2]
            granted = next(iter(out.cts.values()))
            if ts_a < ts_b or (ts_a == ts_b):
                assert granted == 0
            else:
                assert granted == 1


class TestReceiverThatIsAlsoSender:
    def test_denial_rotates_to_next_link_and_backs_off(self):
        # S has two links; its first target R is itself sending, so S is
        # denied, backs off, and contends again with the other link.
        inst = NetworkInstance(
            nodes=(
                Node(0, 0.0, 0.0),  # S
                Node(1, 1.0, 0.0),  # R, also a sender
                Node(2, 0.0, 1.0),
                Node(3, 1.0, 1.0),
            ),
            links=(Link(0, 0, 1), Link(1, 0, 2), Link(2, 1, 3)),
            radio=radio_10db(),
        )
        for seed in range(30):
            trace = run_distributed(inst, loose_params(), seed=seed)
            assert trace.complete
            slots = trace.first_scheduled
            assert slots[2] == 0  # R transmits immediately
            assert 1 <= slots[1] <= 8  # S returns after backoff, rotated
            assert slots[0] == slots[1] + 1  # then finishes its first link
            assert trace.outcomes[0].cts == {3: 2}


class TestPersistentCollision:
    def test_mutual_interference_never_completes(self):
        # Receivers sit closer to the opposite sender than the loosened
        # sensing range keeps apart, so both measured SINRs stay below
        # threshold forever.
        inst = NetworkInstance(
            nodes=(
                Node(0, 0.0, 0.0),
                Node(1, 1.0, 0.0),
                Node(2, 2.2, 0.0),
                Node(3, 1.2, 0.0),
            ),
            links=(Link(0, 0, 1), Link(1, 2, 3)),
            radio=radio_10db(),
        )
        trace = run_distributed(inst, loose_params(), max_slots=25, seed=11)
        assert not trace.complete
        assert trace.slots_used is None
        assert trace.first_scheduled == {}
        for out in trace.outcomes:
            assert out.failed == frozenset({0, 1})
            assert all(value < 10.0 for value in out.sinr.values())


class TestRandomInstances:
    def test_complete_feasible_and_separated(self):
        for seed in range(25):
            inst = random_instance(seed, n_links=int(2 + seed % 5))
            params = protocol_params(inst)
            trace = run_distributed(inst, params, seed=seed)
            assert trace.complete
            assert set(trace.first_scheduled) == set(inst.link_ids())
            assert trace.slots_used == max(trace.first_scheduled.values()) + 1
            report = check_schedule(inst, trace.schedule())
            assert report.feasible, report.describe()
            for out in trace.outcomes:
                senders = sorted(inst.link(lid).sender for lid in out.completed)
                for i, a in enumerate(senders):
                    for b in senders[i + 1 :]:
                        assert inst.distance(a, b) > params.raw_sensing_range
                for lid in out.completed:
                    assert out.sinr[lid] >= inst.radio.beta

    def test_within_ratio_bound_of_exact_minimum(self):
        for seed in (0, 4, 9, 14):
            inst = random_instance(seed, n_links=5)
            params = protocol_params(inst)
            trace = run_distributed(inst, params, seed=seed)
            assert trace.complete
            optimum = minimum_frame_length(inst)
            assert trace.slots_used <= frame_length_ratio_bound(inst) * optimum

    def test_deterministic_per_seed(self):
        inst = random_instance(6, n_links=6)
        a = run_distributed(inst, seed=123)
        b = run_distributed(inst, seed=123)
        assert format_trace(a) == format_trace(b)
        assert a.first_scheduled == b.first_scheduled

    def test_rejects_bad_arguments(self):
        inst = random_instance(0, n_links=2)
        with pytest.raises(ValueError):
            run_distributed(inst, seed=-1)
        with pytest.raises(ValueError):
            run_distributed(inst, max_slots=0)


class TestTraceExport:
    def test_one_line_per_slot_plus_header(self, tmp_path):
        inst = parallel_pair()
        trace = run_distributed(inst, seed=5)
        text = format_trace(trace)
        lines = text.strip().split("\n")
        assert lines[0].startswith("#")
        assert lines[2].startswith("meta ")
        assert "slots_used=2" in lines[2]
        body = lines[3:]
        assert len(body) == len(trace.outcomes)
        assert body[0].startswith("0|ts=")
        assert "|done=" in body[0]
        path = tmp_path / "trace.txt"
        export_trace(trace, str(path))
        assert path.read_text(encoding="utf-8") == text
