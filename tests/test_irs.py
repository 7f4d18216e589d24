import math

import pytest
from hypothesis import given, strategies as st

from uavirs.channel import (
    LinkState,
    PathLossModel,
    Position3D,
    RadioParams,
    leg_amplitude,
    link_rate,
)
from uavirs.errors import ConfigurationError, FieldError
from uavirs.irs import IrsSurface, SurfaceKind, covers

RADIO = RadioParams(tx_power=0.1, noise_power=1e-11, ref_path_gain_db=-30.0)


def terrestrial(**kw):
    defaults = dict(
        id="irs",
        kind=SurfaceKind.TERRESTRIAL,
        position=Position3D(100.0, 30.0, 10.0),
        num_elements=300,
        facing_normal=(0.0, -1.0, 0.0),
    )
    defaults.update(kw)
    return IrsSurface(**defaults)


def aerial(**kw):
    defaults = dict(
        id="uirs",
        kind=SurfaceKind.AERIAL_MOUNTED,
        position=Position3D(10.0, 0.0, 50.0),
        num_elements=300,
    )
    defaults.update(kw)
    return IrsSurface(**defaults)


class TestCovers:
    def test_front_half_space(self):
        assert covers(terrestrial(), Position3D(100.0, 10.0, 0.0))

    def test_behind_the_surface(self):
        assert not covers(terrestrial(), Position3D(100.0, 50.0, 0.0))

    def test_on_the_surface_plane_not_covered(self):
        assert not covers(terrestrial(), Position3D(140.0, 30.0, 0.0))

    def test_radius_limits_coverage(self):
        surf = terrestrial(coverage_radius=25.0)
        assert covers(surf, Position3D(100.0, 10.0, 0.0))  # 22.4 m away
        assert not covers(surf, Position3D(100.0, -30.0, 0.0))  # 60.8 m away

    def test_node_at_exactly_the_radius_is_covered(self):
        # offset (0, -24, -10) from the surface at (100, 30, 10): 26 m exactly
        surf = terrestrial(coverage_radius=26.0)
        assert covers(surf, Position3D(100.0, 6.0, 0.0))
        assert not covers(terrestrial(coverage_radius=25.999), Position3D(100.0, 6.0, 0.0))

    def test_half_space_invariant_to_inplane_offset(self):
        # distance along directions orthogonal to the normal is irrelevant
        surf = terrestrial(coverage_radius=None)
        for dx in (-500.0, -5.0, 0.0, 5.0, 500.0):
            assert covers(surf, Position3D(100.0 + dx, 29.0, 0.0))

    def test_aerial_requires_los(self):
        assert covers(aerial(), Position3D(50.0, 0.0, 0.0), link_state=LinkState.LOS)
        assert not covers(aerial(), Position3D(50.0, 0.0, 0.0), link_state=LinkState.NLOS)
        assert not covers(aerial(), Position3D(50.0, 0.0, 0.0), link_state=None)

    def test_explicit_covered_set_overrides_geometry(self):
        surf = terrestrial(covered_node_ids=frozenset({"sn3", "sn4"}))
        behind = Position3D(100.0, 50.0, 0.0)
        assert covers(surf, behind, node_id="sn3")
        assert not covers(surf, behind, node_id="sn9")

    def test_explicit_set_requires_node_id(self):
        surf = terrestrial(covered_node_ids=frozenset({"sn3"}))
        with pytest.raises(ConfigurationError):
            covers(surf, Position3D(0.0, 0.0, 0.0))

    def test_zero_normal_is_an_error(self):
        with pytest.raises(FieldError, match="facing_normal must be a finite, non-zero") as info:
            terrestrial(facing_normal=(0.0, 0.0, 0.0))
        assert info.value.field == "facing_normal"


def reflected_snr(direct_gain, d_up, d_down, exponent, elements):
    """SNR of the direct amplitude plus N coherent per-element amplitudes."""
    model = PathLossModel(exponent)
    amplitude = math.sqrt(direct_gain)
    amplitude += elements * leg_amplitude(d_up, model, RADIO) * leg_amplitude(d_down, model, RADIO)
    return RADIO.tx_power * amplitude**2 / RADIO.noise_power


class TestEffectiveSnr:
    """The reflection model of the module docstring, priced through the channel kernel."""

    def test_no_elements_reduces_to_direct_link(self):
        g = 2.5e-7
        expected = RADIO.tx_power * g / RADIO.noise_power
        assert reflected_snr(g, 10.0, 10.0, 2.0, 0) == pytest.approx(expected, rel=1e-12)

    def test_blocked_direct_coherent_sum_squares(self):
        # per-element amplitude 1e-5 (two 10 m legs at exponent 2), N elements
        snr = reflected_snr(0.0, 10.0, 10.0, 2.0, 250)
        expected = RADIO.tx_power * (250 * 1e-5) ** 2 / RADIO.noise_power
        assert snr == pytest.approx(expected, rel=1e-9)

    def test_coherent_combination_example(self):
        # direct amplitude 1e-3, per-element amplitude 1e-5, 300 elements:
        # A = 4e-3 exactly, A**2 = 1.6e-5 exactly
        snr = reflected_snr(1e-6, 10.0, 10.0, 2.0, 300)
        assert snr == pytest.approx(RADIO.tx_power * 1.6e-5 / RADIO.noise_power, rel=1e-9)

    def test_rejects_negative_direct_gain(self):
        # a leg's gain comes from its length, and a negative length is an error
        with pytest.raises(ValueError):
            leg_amplitude(-1e-9, PathLossModel(2.0), RADIO)

    def test_product_distance_law(self):
        # with both legs at exponent 2, doubling either leg quarters the SNR
        s0 = reflected_snr(0.0, 10.0, 20.0, 2.0, 100)
        assert reflected_snr(0.0, 20.0, 20.0, 2.0, 100) == pytest.approx(s0 / 4, rel=1e-9)
        assert reflected_snr(0.0, 10.0, 40.0, 2.0, 100) == pytest.approx(s0 / 4, rel=1e-9)

    @given(n=st.integers(0, 500), extra=st.integers(0, 500))
    def test_monotone_in_elements(self, n, extra):
        def snr(count):
            return reflected_snr(4e-7, 10.0, 15.0, 2.2, count)

        assert snr(n + extra) >= snr(n)

    @pytest.mark.parametrize("n", [50, 150, 300])
    def test_doubling_elements_quadruples_blocked_snr(self, n):
        def snr(count):
            return reflected_snr(0.0, 10.0, 15.0, 2.2, count)

        assert snr(2 * n) / snr(n) == pytest.approx(4.0, rel=1e-12)

    @pytest.mark.parametrize("n", [150, 300])
    def test_high_snr_rate_gap_is_two_bits(self, n):
        # with the direct link blocked, doubling N adds 2 bps/Hz in high SNR
        model = PathLossModel(2.2)
        per_element = leg_amplitude(5.0, model, RADIO) * leg_amplitude(8.0, model, RADIO)
        assert reflected_snr(0.0, 5.0, 8.0, 2.2, n) > 1e3
        gap = link_rate(2 * n * per_element, RADIO) - link_rate(n * per_element, RADIO)
        assert abs(gap - 2.0) < 0.01


class TestSurface:
    def test_negative_elements_rejected(self):
        with pytest.raises(ValueError):
            aerial(num_elements=-1)

    @pytest.mark.parametrize("count", [2.5, 3.0, math.nan, "300", True])
    def test_non_integer_elements_rejected(self, count):
        with pytest.raises(ValueError, match="num_elements"):
            aerial(num_elements=count)

    @pytest.mark.parametrize(
        "normal", [(math.nan, -1.0, 0.0), (0.0, -math.inf, 0.0), (0.0, -1.0)]
    )
    def test_bad_normal_rejected_at_construction(self, normal):
        # a NaN normal used to pass, and then covered every node
        with pytest.raises(FieldError, match="facing_normal") as info:
            terrestrial(facing_normal=normal)
        assert info.value.field == "facing_normal"

    @pytest.mark.parametrize("radius", [math.nan, 0.0, -5.0])
    def test_bad_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="coverage_radius"):
            terrestrial(coverage_radius=radius)

    def test_terrestrial_needs_normal(self):
        with pytest.raises(FieldError, match="facing_normal is required on a terrestrial surface"):
            IrsSurface(
                id="x",
                kind=SurfaceKind.TERRESTRIAL,
                position=Position3D(0.0, 0.0, 5.0),
            )

    def test_with_elements(self):
        assert aerial().with_elements(42).num_elements == 42

    @pytest.mark.parametrize("count", [2**53 + 1, 10**400])
    def test_more_elements_than_floats_count_exactly_rejected(self, count):
        # 10**400 elements used to reach int * float in the rate kernel
        with pytest.raises(ValueError, match=r"num_elements must be <= 2\*\*53"):
            aerial(num_elements=count)
        with pytest.raises(ValueError, match=r"num_elements must be <= 2\*\*53"):
            aerial().with_elements(count)

    def test_largest_element_count_accepted(self):
        assert aerial(num_elements=2**53).num_elements == 2**53

    def test_with_fractional_elements_rejected(self):
        # the count is checked as given, not truncated to 2 first
        with pytest.raises(ValueError, match="num_elements"):
            aerial().with_elements(2.5)
