"""Radio layer tests: conversions, gains, SINR, instance validation.

Expected numbers are frozen from independent hand/Fraction arithmetic,
not from the code under test.
"""

from fractions import Fraction

import math
import pytest
from hypothesis import given, strategies as st

from linksched.radio import (
    D_FLOOR,
    Link,
    NetworkInstance,
    Node,
    RadioParams,
    db_to_linear,
    default_tx_power,
    fits,
    linear_to_db,
    link_gain,
    received_power,
    sinr_at_receiver,
)


def make_instance(nodes, links, alpha=4.0, beta=10.0, noise=1e-9, tx_power=1e-6):
    return NetworkInstance(
        nodes=tuple(Node(*n) for n in nodes),
        links=tuple(Link(*l) for l in links),
        radio=RadioParams(alpha=alpha, beta=beta, noise=noise, tx_power=tx_power),
    )


class TestConversions:
    def test_ten_db_is_factor_ten(self):
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)

    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == pytest.approx(1.0, rel=1e-12)

    def test_minus_ninety_dbm(self):
        # oracle: 10**(-90/10) = 10**-9 exactly
        assert db_to_linear(-90.0) == pytest.approx(1e-9, rel=1e-12)

    @given(st.floats(min_value=-120.0, max_value=120.0))
    def test_round_trip(self, db):
        assert linear_to_db(db_to_linear(db)) == pytest.approx(db, rel=1e-12, abs=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -1e-30])
    def test_linear_to_db_rejects_non_positive(self, bad):
        with pytest.raises(ValueError):
            linear_to_db(bad)

    def test_default_tx_power_margin(self):
        # 100 * beta * noise: 20 dB above the bare decoding threshold
        assert default_tx_power(10.0, 1e-9) == pytest.approx(1e-6, rel=1e-12)
        with pytest.raises(ValueError):
            default_tx_power(0.0, 1e-9)
        with pytest.raises(ValueError):
            default_tx_power(10.0, 0.0)


class TestGain:
    def test_power_law_value(self):
        # oracle: 2.5**-4 = (5/2)**-4 = 16/625 = 0.0256 exactly
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 2.5, 0.0)],
            links=[(0, 0, 1)],
        )
        expected = float(Fraction(16, 625))
        assert link_gain(inst, 0, 1) == pytest.approx(expected, rel=1e-12)

    def test_unit_distance_gain_is_one(self):
        inst = make_instance(nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0)], links=[(0, 0, 1)])
        assert link_gain(inst, 0, 1) == pytest.approx(1.0, rel=1e-12)

    @given(
        st.floats(min_value=0.01, max_value=50.0),
        st.floats(min_value=0.01, max_value=50.0),
    )
    def test_gain_decreases_with_distance(self, d1, d2):
        lo, hi = sorted((d1, d2))
        if hi - lo < 1e-6:
            return
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, lo, 0.0), (2, hi, 0.0)],
            links=[(0, 0, 1)],
        )
        assert link_gain(inst, 0, 1) > link_gain(inst, 0, 2)

    def test_received_power_scales_gain(self):
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 2.0, 0.0)], links=[(0, 0, 1)], tx_power=5.0
        )
        assert received_power(inst, 0, 1) == pytest.approx(5.0 * 2.0**-4, rel=1e-12)


class TestSinr:
    def two_link_instance(self, noise=0.0):
        # links (0,0)->(1,0) and (3,0)->(2,0); interferer sits 2 away from
        # each foreign receiver, signal distance 1
        return make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0), (3, 3.0, 0.0)],
            links=[(0, 0, 1), (1, 3, 2)],
            alpha=4.0,
            beta=10.0,
            noise=noise,
            tx_power=1.0,
        )

    def test_two_link_crossfire(self):
        # oracle by hand: signal 1 * 1**-4 = 1, interference 1 * 2**-4 = 1/16,
        # zero noise -> SINR = 16 at both receivers
        inst = self.two_link_instance()
        assert sinr_at_receiver(inst, 0, [1]) == pytest.approx(16.0, rel=1e-12)
        assert sinr_at_receiver(inst, 1, [0]) == pytest.approx(16.0, rel=1e-12)

    def test_isolated_link_zero_noise_is_infinite(self):
        inst = self.two_link_instance(noise=0.0)
        assert sinr_at_receiver(inst, 0, []) == math.inf

    def test_isolated_link_snr(self):
        inst = self.two_link_instance(noise=0.25)
        assert sinr_at_receiver(inst, 0, []) == pytest.approx(4.0, rel=1e-12)

    def test_interference_only_lowers_sinr(self):
        inst = make_instance(
            nodes=[
                (0, 0.0, 0.0),
                (1, 1.0, 0.0),
                (2, 5.0, 0.0),
                (3, 4.0, 0.0),
                (4, 10.0, 3.0),
                (5, 9.0, 3.0),
            ],
            links=[(0, 0, 1), (1, 2, 3), (2, 4, 5)],
        )
        alone = sinr_at_receiver(inst, 0, [])
        one = sinr_at_receiver(inst, 0, [1])
        two = sinr_at_receiver(inst, 0, [1, 2])
        assert alone > one > two

    def test_rejects_self_interference(self):
        inst = self.two_link_instance()
        with pytest.raises(ValueError):
            sinr_at_receiver(inst, 0, [0])

    def test_rejects_duplicate_interferer(self):
        inst = self.two_link_instance()
        with pytest.raises(ValueError):
            sinr_at_receiver(inst, 0, [1, 1])

    def test_transmitting_receiver_gets_zero_sinr(self):
        # node 1 receives link 0 while sending link 1: self interference wins
        inst = make_instance(
            nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)],
            links=[(0, 0, 1), (1, 1, 2)],
        )
        assert sinr_at_receiver(inst, 0, [1]) == 0.0

    def test_sum_over_all_senders(self):
        # three parallel unit links spaced 3 apart; interference at middle
        # receiver accumulates from both outer senders
        inst = make_instance(
            nodes=[
                (0, 0.0, 0.0),
                (1, 1.0, 0.0),
                (2, 3.0, 0.0),
                (3, 4.0, 0.0),
                (4, 6.0, 0.0),
                (5, 7.0, 0.0),
            ],
            links=[(0, 0, 1), (1, 2, 3), (2, 4, 5)],
            noise=0.0,
            tx_power=1.0,
        )
        # middle receiver is node 3 at x=4: senders at x=0 (d=4) and x=6 (d=2)
        expected = 1.0 / (4.0**-4 + 2.0**-4)
        assert sinr_at_receiver(inst, 1, [0, 2]) == pytest.approx(expected, rel=1e-12)


class TestFits:
    # resident link 0 is (0,0) -> (1,0); beta 10, noise 0, unit power
    def instance(self):
        return make_instance(
            nodes=[
                (0, 0.0, 0.0),
                (1, 1.0, 0.0),
                (2, 2.5, 0.0),
                (3, 2.5, 0.1),
                (4, 9.0, 0.0),
                (5, 9.0, 1.0),
            ],
            links=[(0, 0, 1), (1, 2, 3), (2, 4, 5), (3, 1, 4)],
            noise=0.0,
            tx_power=1.0,
        )

    def test_far_link_fits(self):
        assert fits(self.instance(), 2, {0})

    def test_empty_slot_admits_any_decodable_link(self):
        assert fits(self.instance(), 1, set())

    def test_resident_broken_by_newcomer(self):
        # the newcomer decodes easily (SINR ~4e5) but drops the resident to
        # 1 / 1.5**-4 = 5.06 < 10
        inst = self.instance()
        assert sinr_at_receiver(inst, 1, [0]) >= 10.0
        assert not fits(inst, 1, {0})

    def test_shared_node_refused(self):
        # link 3 sends from node 1, link 0's receiver
        assert not fits(self.instance(), 3, {0, 2})

    def test_link_already_in_slot_refused(self):
        assert not fits(self.instance(), 0, {0})


class TestValidation:
    def test_duplicate_node_id(self):
        with pytest.raises(ValueError, match="duplicate node id"):
            make_instance(nodes=[(0, 0.0, 0.0), (0, 1.0, 0.0)], links=[(0, 0, 0)])

    def test_shared_position(self):
        with pytest.raises(ValueError, match="share position"):
            make_instance(
                nodes=[(0, 0.0, 0.0), (1, 0.0, 0.0)], links=[(0, 0, 1)]
            )

    def test_self_loop_link(self):
        with pytest.raises(ValueError, match="sender == receiver"):
            make_instance(nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0)], links=[(0, 0, 0)])

    def test_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown node"):
            make_instance(nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0)], links=[(0, 0, 7)])

    def test_non_positive_rate(self):
        with pytest.raises(ValueError, match="non-positive rate"):
            make_instance(
                nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0)], links=[(0, 0, 1, -2.0)]
            )

    def test_duplicate_link_id(self):
        with pytest.raises(ValueError, match="duplicate link id"):
            make_instance(
                nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 2.0, 0.0)],
                links=[(0, 0, 1), (0, 1, 2)],
            )

    def test_link_below_distance_floor(self):
        with pytest.raises(ValueError, match="distance floor"):
            make_instance(
                nodes=[(0, 0.0, 0.0), (1, D_FLOOR / 4.0, 0.0)], links=[(0, 0, 1)]
            )

    def test_empty_links(self):
        with pytest.raises(ValueError, match="at least one link"):
            make_instance(nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0)], links=[])

    def test_alpha_must_exceed_two(self):
        with pytest.raises(ValueError, match="alpha"):
            RadioParams(alpha=2.0, beta=10.0, noise=1e-9, tx_power=1e-6)

    def test_beta_at_least_one(self):
        with pytest.raises(ValueError, match="beta"):
            RadioParams(alpha=4.0, beta=0.5, noise=1e-9, tx_power=1e-6)

    def test_unknown_ids_raise(self):
        inst = make_instance(nodes=[(0, 0.0, 0.0), (1, 1.0, 0.0)], links=[(0, 0, 1)])
        with pytest.raises(ValueError):
            inst.node(99)
        with pytest.raises(ValueError):
            inst.link(99)
