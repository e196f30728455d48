import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tipp import (
    T_MAX,
    T_MIN,
    TippState,
    level_availability_prob,
    level_energies,
    level_fill_count,
    mse_loss,
    spot_occupancy_prob,
)

from oracles import level_fill_count_reference, q_reference

# High-precision evaluations of the closed form, frozen for regression.
Q_E1_T05 = 0.23840584404423512
Q_E025_T05 = 0.7550813375962909
Q_E001_T05 = 0.9900003333200006
AVAIL_Q099_S30 = 0.26029962661171957


class TestSpotOccupancyProb:
    def test_zero_energy_is_certainly_occupied(self):
        for t in (T_MIN, 0.1, 0.5, 1.0, T_MAX):
            assert spot_occupancy_prob(0.0, t) == 1.0

    def test_known_values(self):
        assert spot_occupancy_prob(1.0, 0.5) == pytest.approx(Q_E1_T05, abs=1e-13)
        assert spot_occupancy_prob(0.25, 0.5) == pytest.approx(Q_E025_T05, abs=1e-13)
        assert spot_occupancy_prob(0.01, 0.5) == pytest.approx(Q_E001_T05, abs=1e-13)

    def test_hotter_lot_is_fuller(self):
        assert spot_occupancy_prob(1.0, T_MAX) > spot_occupancy_prob(1.0, 0.5)

    def test_matches_reference_expression(self):
        rng = np.random.default_rng(3)
        energies = rng.uniform(0, 3, 200)
        for t in (0.01, 0.3, 2.0, 9.5):
            got = spot_occupancy_prob(energies, t)
            np.testing.assert_allclose(got, q_reference(energies, t), rtol=1e-12)

    def test_array_input_returns_array(self):
        q = spot_occupancy_prob(np.array([0.0, 1.0]), 0.5)
        assert isinstance(q, np.ndarray)
        assert q[0] == 1.0

    def test_scalar_input_returns_float(self):
        assert isinstance(spot_occupancy_prob(0.5, 0.5), float)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_rejects_bad_energy(self, bad):
        with pytest.raises(ValueError):
            spot_occupancy_prob(bad, 0.5)

    def test_rejects_bad_energy_in_array(self):
        with pytest.raises(ValueError):
            spot_occupancy_prob(np.array([0.5, -0.1]), 0.5)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", [0, 2])
    def test_rejects_non_finite_energy_in_array(self, bad, where):
        energy = np.array([0.5, 0.0, 1.0])
        energy[where] = bad
        with pytest.raises(ValueError, match="energy must be finite"):
            spot_occupancy_prob(energy, 0.5)

    def test_negative_energy_message(self):
        with pytest.raises(ValueError, match="energy must be non-negative"):
            spot_occupancy_prob(np.array([0.5, -0.1, 1.0]), 0.5)

    def test_non_finite_is_reported_before_negative(self):
        with pytest.raises(ValueError, match="energy must be finite"):
            spot_occupancy_prob(np.array([-0.1, float("nan")]), 0.5)

    def test_empty_array_gives_empty_array(self):
        q = spot_occupancy_prob(np.array([]), 0.5)
        assert isinstance(q, np.ndarray) and q.shape == (0,)

    def test_cold_edge_is_finite_without_overflow(self):
        # E/T reaches 1e3 at the coldest temperature, where exp(E/T)
        # would overflow a float64 without the kernel's cap
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            q = spot_occupancy_prob(1.0, T_MIN)
            assert isinstance(q, float) and np.isfinite(q) and 0.0 <= q <= 1.0
            qs = spot_occupancy_prob(np.linspace(0.0, 1.0, 101), T_MIN)
        assert np.all(np.isfinite(qs))
        assert np.all((qs >= 0.0) & (qs <= 1.0))
        assert qs[0] == 1.0

    @pytest.mark.parametrize("temperature", [T_MIN, 1.0, T_MAX])
    def test_huge_energy_gives_the_capped_q_without_overflow(self, temperature):
        # E/T would overflow to inf; energies above 700 T_MAX are clipped
        # first, and q there is the kernel's cap q(x=700) at any T
        capped = 2.0 / (1.0 + np.exp(700.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert spot_occupancy_prob(1.7e308, temperature) == capped
            qs = spot_occupancy_prob(np.array([0.5, 7000.0, 1e300, 1.7e308]), temperature)
        assert qs[0] == spot_occupancy_prob(0.5, temperature)
        assert np.all(qs[1:] == capped)

    @given(st.floats(min_value=0.0, max_value=50.0),
           st.floats(min_value=T_MIN, max_value=T_MAX))
    @settings(max_examples=300)
    def test_bounds(self, energy, temperature):
        q = spot_occupancy_prob(energy, temperature)
        assert 0.0 <= q <= 1.0
        # strictness below 1 needs the exponent to be representable
        if energy / temperature > 1e-12:
            assert q < 1.0

    @given(st.floats(min_value=0.0, max_value=4.0),
           st.floats(min_value=1e-4, max_value=2.0),
           st.floats(min_value=0.2, max_value=T_MAX))
    @settings(max_examples=300)
    def test_strictly_decreasing_in_energy(self, e1, gap, temperature):
        # domain keeps both exponents <= 30 so q stays a normal float
        lo = spot_occupancy_prob(e1 + gap, temperature)
        hi = spot_occupancy_prob(e1, temperature)
        assert hi > lo

    @given(st.floats(min_value=0.01, max_value=5.0),
           st.floats(min_value=T_MIN, max_value=T_MAX - 0.01),
           st.floats(min_value=0.01, max_value=2.0))
    @settings(max_examples=300)
    def test_strictly_increasing_in_temperature(self, energy, t1, gap):
        t2 = min(t1 + gap, T_MAX)
        assert spot_occupancy_prob(energy, t2) > spot_occupancy_prob(energy, t1)


class TestEntropyParams:
    # the temperature is a plain float; each reader checks the one domain

    @pytest.mark.parametrize("t", [T_MIN / 2, T_MAX + 1, 0.0, -1.0, float("nan")])
    def test_rejects_out_of_domain_temperature(self, t):
        domain = re.escape(f" {t} outside domain [{T_MIN}, {T_MAX}]")
        with pytest.raises(ValueError, match="^temperature" + domain):
            spot_occupancy_prob(0.5, t)
        with pytest.raises(ValueError, match="^temperature" + domain):
            mse_loss(t, [0.5], [0.5])
        with pytest.raises(ValueError, match="^temperature_estimate" + domain):
            TippState(temperature_estimate=t)

    def test_domain_bounds_are_allowed(self):
        for t in (T_MIN, T_MAX):
            assert spot_occupancy_prob(0.5, t) > 0.0
            assert mse_loss(t, [0.5], [0.5]) >= 0.0
            assert TippState(temperature_estimate=t).temperature_estimate == t


class TestLevelEnergy:
    def test_farthest_floor_has_unit_energy(self):
        for n in (1, 10, 41):
            assert level_energies(n)[-1] == 1.0

    def test_direct_substitutions(self):
        energies = level_energies(10)
        assert energies[0] == pytest.approx(0.01)
        assert energies[4] == 0.25

    def test_level_energies_matches_scalar(self):
        # the product (i/N) * (i/N), not libm's pow: the two round 1 ulp
        # apart for some floors, first at floor 33 of 41
        for n in (7, 41):
            arr = level_energies(n)
            assert arr.shape == (n,)
            for i in range(1, n + 1):
                assert arr[i - 1] == (i / n) * (i / n)


class TestLevelFillCount:
    def test_model_value_rounds_to_seven(self):
        q = spot_occupancy_prob(1.0, 0.5)
        assert level_fill_count(q, 30) == 7

    def test_extremes(self):
        assert level_fill_count(0.0, 30) == 0
        assert level_fill_count(1.0, 30) == 30

    def test_half_up_tie(self):
        # 0.25 * 6 = 1.5 exactly; half-up rounds to 2
        assert level_fill_count(0.25, 6) == 2
        assert level_fill_count(0.125, 4) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            level_fill_count(1.1, 30)
        with pytest.raises(ValueError):
            level_fill_count(0.5, 0)

    @given(st.floats(min_value=0.0, max_value=1.0), st.integers(min_value=1, max_value=5000))
    @settings(max_examples=400)
    def test_nearest_count_bound_exact(self, q, capacity):
        count = level_fill_count(q, capacity)
        assert 0 <= count <= capacity
        # exact rational check of |count/S - q| <= 1/(2S)
        assert abs(Fraction(count, capacity) - Fraction(q)) <= Fraction(1, 2 * capacity)

    @given(st.one_of(st.floats(min_value=0.0, max_value=1.0),
                     st.sampled_from([0.0, 1.0, 0.5, 0.25, 0.375, 2.0**-30, 5e-324, 1 - 2.0**-53])),
           st.one_of(st.integers(min_value=1, max_value=5000), st.sampled_from([1, 3, 7, 2**40 + 1])),
           st.booleans())
    # exact halves: 0.5 of an odd floor, 0.25 of one of 2 mod 4 spots
    @example(0.5, 1, False)
    @example(0.5, 29, True)
    @example(0.5, 2**40 + 1, True)
    @example(0.25, 30, False)
    @example(0.0, 30, False)
    @example(1.0, 30, True)
    @settings(max_examples=400)
    def test_matches_the_fraction_reference(self, q, capacity, numpy_capacity):
        count = level_fill_count(q, np.int64(capacity) if numpy_capacity else capacity)
        assert type(count) is int
        assert count == level_fill_count_reference(q, capacity)


class TestLevelAvailabilityProb:
    def test_certain_full_floor(self):
        assert level_availability_prob(1.0, 30) == 0.0

    def test_certain_empty_floor(self):
        assert level_availability_prob(0.0, 30) == 1.0

    def test_known_value(self):
        assert level_availability_prob(0.99, 30) == pytest.approx(AVAIL_Q099_S30, abs=1e-13)

    def test_array_input(self):
        p = level_availability_prob(np.array([0.0, 1.0, 0.99]), 30)
        assert p[0] == 1.0 and p[1] == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            level_availability_prob(-0.1, 30)
        with pytest.raises(ValueError):
            level_availability_prob(float("nan"), 30)
        with pytest.raises(ValueError):
            level_availability_prob(0.5, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", [0, 2])
    def test_rejects_non_finite_q_in_array(self, bad, where):
        q = np.array([0.5, 0.0, 1.0])
        q[where] = bad
        with pytest.raises(ValueError, match=r"q must lie in \[0, 1\]"):
            level_availability_prob(q, 30)

    def test_empty_array_gives_empty_array(self):
        p = level_availability_prob(np.array([]), 30)
        assert isinstance(p, np.ndarray) and p.shape == (0,)

    @given(st.floats(min_value=0.001, max_value=0.999),
           st.floats(min_value=1e-3, max_value=0.5),
           st.integers(min_value=1, max_value=200))
    @settings(max_examples=300)
    def test_monotone_decreasing_in_q(self, q, gap, capacity):
        q2 = min(q + gap, 1.0)
        assert level_availability_prob(q, capacity) >= level_availability_prob(q2, capacity)

    @given(st.floats(min_value=0.01, max_value=0.99), st.integers(min_value=1, max_value=200))
    @settings(max_examples=300)
    def test_monotone_nondecreasing_in_capacity(self, q, capacity):
        assert level_availability_prob(q, capacity + 1) >= level_availability_prob(q, capacity)

    @given(st.floats(min_value=0.5, max_value=0.99), st.integers(min_value=1, max_value=40))
    @settings(max_examples=300)
    def test_strictly_increasing_in_capacity_when_representable(self, q, capacity):
        # q**(S+1) stays well above 1 ulp of 1.0 on this domain
        assert level_availability_prob(q, capacity + 1) > level_availability_prob(q, capacity)


class TestEnergySpec:
    def test_per_level_matches_level_energies(self):
        exact = [float(Fraction(i, 10) ** 2) for i in range(1, 11)]
        np.testing.assert_allclose(level_energies(10), exact, rtol=2**-52, atol=0)

    def test_per_level_validation(self):
        with pytest.raises(ValueError):
            level_energies(0)
