import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from uavirs.channel import (
    REFERENCE_DISTANCE,
    LinkRuleSet,
    LinkState,
    LinkStateRule,
    PathLossModel,
    Position3D,
    RadioParams,
    leg_amplitude,
    link_rate,
    path_gain,
    resolve_link_state,
)
from uavirs.errors import ConfigurationError

RADIO = RadioParams(tx_power=0.1, noise_power=1e-11, ref_path_gain_db=-30.0)
UNIT_SNR = RadioParams(tx_power=1.0, noise_power=1.0)  # SNR = A**2


class TestPathGain:
    def test_reference_distance_identity(self):
        assert path_gain(1.0, PathLossModel(2.6), RADIO) == pytest.approx(1e-3, rel=1e-12)

    def test_exact_decade_scaling(self):
        assert path_gain(10.0, PathLossModel(2.0), RADIO) == pytest.approx(1e-5, rel=1e-12)

    def test_fractional_exponent(self):
        # 1e-3 * 100**(-2.2), frozen from a 40-digit mpmath evaluation
        expected = 3.9810717055349725e-08
        assert path_gain(100.0, PathLossModel(2.2), RADIO) == pytest.approx(
            expected, rel=1e-12
        )

    def test_clamps_below_reference_distance(self):
        model = PathLossModel(2.6)
        assert path_gain(0.2, model, RADIO) == path_gain(1.0, model, RADIO)
        assert path_gain(0.0, model, RADIO) == path_gain(1.0, model, RADIO)

    @pytest.mark.parametrize(
        "bad",
        [
            -1.0,
            float("nan"),
            float("inf"),
            pytest.param(-math.inf, id="-inf"),
            pytest.param(np.array(-1.0), id="array-0d-negative"),
            pytest.param(np.array([1.0, -1.0]), id="array-negative"),
            pytest.param(np.array([5.0, np.nan]), id="array-nan"),
            pytest.param(np.array([[5.0], [np.inf]]), id="array-inf"),
            pytest.param(np.array([-np.inf, 5.0]), id="array-minus-inf"),
            pytest.param(np.array([-1.0, np.nan]), id="array-negative-and-nan"),
        ],
    )
    def test_rejects_bad_distances(self, bad):
        # non-finite input is named as such, even where it is also negative
        message = "finite" if not np.all(np.isfinite(bad)) else ">= 0"
        with pytest.raises(ValueError, match=f"^distance must be {message}$"):
            path_gain(bad, PathLossModel(2.0), RADIO)

    def test_empty_array_is_valid(self):
        g = path_gain(np.empty((0, 3)), PathLossModel(2.0), RADIO)
        assert g.shape == (0, 3)

    def test_vectorized(self):
        d = np.array([1.0, 10.0, 100.0])
        g = path_gain(d, PathLossModel(2.0), RADIO)
        np.testing.assert_allclose(g, [1e-3, 1e-5, 1e-7], rtol=1e-12)

    @given(d=st.floats(0.0, 5000.0), exponent=st.floats(1.0, 6.0))
    def test_scalar_matches_numpy_scalar_bit_for_bit(self, d, exponent):
        # A scalar distance takes plain float math; it must round exactly as
        # the numpy expression every earlier result was computed with.
        g0 = RADIO.ref_path_gain
        expected = float(g0 * np.maximum(np.asarray(d), REFERENCE_DISTANCE) ** -exponent)
        got = path_gain(d, PathLossModel(exponent), RADIO)
        assert type(got) is float
        assert got == expected

    @given(
        d1=st.floats(1.0, 1e4),
        d2=st.floats(1.0, 1e4),
        exponent=st.floats(1.0, 4.0),
    )
    def test_monotone_decreasing_in_distance(self, d1, d2, exponent):
        model = PathLossModel(exponent)
        g1 = path_gain(d1, model, RADIO)
        g2 = path_gain(d2, model, RADIO)
        if d1 < d2:
            assert g1 > g2
        elif d1 > d2:
            assert g1 < g2

    @given(
        d=st.floats(1.0 + 1e-6, 1e4),
        a1=st.floats(1.0, 4.0),
        a2=st.floats(1.0, 4.0),
    )
    def test_smaller_exponent_wins_beyond_reference(self, d, a1, a2):
        g1 = path_gain(d, PathLossModel(a1), RADIO)
        g2 = path_gain(d, PathLossModel(a2), RADIO)
        if a1 < a2:
            assert g1 >= g2

    def test_los_beats_nlos_at_equal_distance(self):
        los, nlos = PathLossModel(2.2), PathLossModel(3.5)
        for d in (1.5, 10.0, 250.0, 5000.0):
            assert path_gain(d, los, RADIO) > path_gain(d, nlos, RADIO)


def one_rule(*args):
    return LinkRuleSet([LinkStateRule(*args)])


class TestResolveLinkState:
    def test_at_threshold_is_los(self):
        rules = one_rule(("uirs", "user2"), 50.0, LinkState.NLOS)
        assert resolve_link_state(rules, "uirs", "user2", 50.0) is LinkState.LOS

    def test_below_threshold_falls_back(self):
        rules = one_rule(("uirs", "user2"), 50.0, LinkState.NLOS)
        assert resolve_link_state(rules, "uirs", "user2", 30.0) is LinkState.NLOS

    def test_zero_threshold_always_los(self):
        rules = one_rule(("a", "b"))
        assert resolve_link_state(rules, "a", "b", 0.0) is LinkState.LOS
        # a pair without a rule takes the default zero threshold
        assert resolve_link_state(rules, "a", "c", 0.0) is LinkState.LOS

    def test_blocked_fallback(self):
        rules = one_rule(("bs", "user1"), math.inf, LinkState.BLOCKED)
        assert resolve_link_state(rules, "bs", "user1", 1e6) is LinkState.BLOCKED

    def test_pair_order_does_not_matter(self):
        rules = one_rule(("b", "a"), 20.0)
        assert resolve_link_state(rules, "a", "b", 25.0) is LinkState.LOS
        assert resolve_link_state(rules, "a", "b", 15.0) is LinkState.NLOS

    def test_nan_threshold_rejected(self):
        with pytest.raises(ValueError, match="min_altitude_for_los"):
            LinkStateRule(("a", "b"), math.nan)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError, match="min_altitude_for_los"):
            LinkStateRule(("a", "b"), -1.0)

    @given(altitude=st.floats(0.0, 200.0))
    def test_single_transition_at_threshold(self, altitude):
        rules = one_rule(("x", "y"), 75.0, LinkState.NLOS)
        state = resolve_link_state(rules, "x", "y", altitude)
        assert state is (LinkState.LOS if altitude >= 75.0 else LinkState.NLOS)


class TestLinkRuleSet:
    def test_lookup_and_default(self):
        rules = LinkRuleSet([LinkStateRule(("a", "b"), 40.0)])
        assert rules.rule_for("b", "a").min_altitude_for_los == 40.0
        default = rules.rule_for("a", "c")
        assert default.min_altitude_for_los == 0.0

    def test_duplicate_rules_rejected(self):
        with pytest.raises(ConfigurationError):
            LinkRuleSet([LinkStateRule(("a", "b")), LinkStateRule(("b", "a"))])

    def test_iterates_in_the_given_order(self):
        given = [LinkStateRule(("c", "d")), LinkStateRule(("b", "a")), LinkStateRule(("a", "c"))]
        assert list(LinkRuleSet(given)) == given


class TestRate:
    def test_zero_snr(self):
        assert link_rate(0.0, RADIO) == 0.0

    def test_unit_snr(self):
        assert link_rate(1.0, UNIT_SNR) == 1.0

    @given(a1=st.floats(0.0, 1e3), a2=st.floats(0.0, 1e3))
    def test_strictly_increasing_in_snr(self, a1, a2):
        r1, r2 = link_rate(a1, UNIT_SNR), link_rate(a2, UNIT_SNR)
        if a1 <= a2:
            assert r1 <= r2
        if 1.0 + a1**2 < (1.0 + a2**2) * (1.0 - 1e-12):  # apart by more than rounding
            assert r1 < r2

    @given(s=st.floats(1e-6, 1e5), lam=st.floats(0.01, 0.99))
    def test_concave_in_snr(self, lam, s):
        # midpoint test of concavity on [s, 2s]; with UNIT_SNR, SNR = A**2
        def rate(snr):
            return link_rate(math.sqrt(snr), UNIT_SNR)

        left, right = rate(s), rate(2 * s)
        mid = rate(lam * s + (1 - lam) * 2 * s)
        assert mid >= lam * left + (1 - lam) * right - 1e-12


class TestKernel:
    @given(d=st.floats(0.0, 5000.0), exponent=st.floats(1.0, 6.0))
    def test_leg_amplitude_is_the_root_of_path_gain(self, d, exponent):
        got = leg_amplitude(d, PathLossModel(exponent), RADIO)
        assert type(got) is float
        assert got == math.sqrt(path_gain(d, PathLossModel(exponent), RADIO))

    @given(a=st.floats(0.0, 1.0))
    def test_link_rate_is_shannon_of_the_snr(self, a):
        got = link_rate(a, RADIO)
        assert type(got) is float
        assert got == math.log2(1.0 + RADIO.tx_power * a**2 / RADIO.noise_power)

    def test_arrays_match_scalars(self):
        # numpy's array sqrt, ** and log2 need not round as the scalar ones
        # do, so arrays agree to a few ulps, not bit for bit
        model = PathLossModel(2.4)
        d = np.array([[0.0, 0.5, 1.0, 7.3], [30.0, 101.5, 999.0, 4321.0]])
        amp = leg_amplitude(d, model, RADIO)
        assert amp.shape == d.shape
        scalar_amp = [[leg_amplitude(float(x), model, RADIO) for x in row] for row in d]
        np.testing.assert_allclose(amp, scalar_amp, rtol=1e-15, atol=0.0)
        rate = link_rate(300 * amp, RADIO)
        scalar_rate = [[link_rate(300 * a, RADIO) for a in row] for row in scalar_amp]
        np.testing.assert_allclose(rate, scalar_rate, rtol=1e-14, atol=0.0)


class TestPosition:
    def test_negative_altitude_rejected(self):
        with pytest.raises(ValueError):
            Position3D(0.0, 0.0, -1.0)

    def test_distance(self):
        a = Position3D(0.0, 0.0, 0.0)
        b = Position3D(3.0, 4.0, 12.0)
        assert a.distance_to(b) == pytest.approx(13.0, rel=1e-12)


class TestRadioParams:
    def test_ref_gain_linear(self):
        assert RADIO.ref_path_gain == pytest.approx(1e-3, rel=1e-12)

    def test_positive_attenuation_rejected(self):
        with pytest.raises(ValueError):
            RadioParams(ref_path_gain_db=3.0)

    def test_nonpositive_powers_rejected(self):
        with pytest.raises(ValueError):
            RadioParams(tx_power=0.0)
        with pytest.raises(ValueError):
            RadioParams(noise_power=-1e-12)

    @pytest.mark.parametrize(
        "field, bad",
        [
            ("tx_power", math.nan),
            ("tx_power", math.inf),
            ("noise_power", math.nan),
            ("noise_power", math.inf),
            ("ref_path_gain_db", math.nan),
            ("ref_path_gain_db", -math.inf),
        ],
    )
    def test_non_finite_or_out_of_range_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            RadioParams(**{field: bad})
