
import hashlib
import math
import os
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tipp import (
    T_MAX,
    T_MIN,
    LotSurvey,
    fit_temperature,
    level_energies,
    load_survey,
    mse_loss,
    sample_efficiency_curve,
    save_survey,
    spot_occupancy_prob,
    survey_to_observations,
    synthetic_survey,
)
from tipp import fitting
from tipp.fitting import _evaluate, _loss_derivatives, _sorted_observations
from tipp.model import _ENERGY_CAP

from oracles import (
    central_difference,
    descent_fit_reference,
    fit_restarted_reference,
    fit_two_kernel_reference,
    grid_search_temperature,
    grid_survey,
    load_survey_reference,
    mse_reference,
    save_survey_reference,
    second_difference,
    sorted_observations_reference,
    survey_to_observations_reference,
    synthetic_survey_reference,
    two_kernel_derivatives,
    two_kernel_loss,
)

# (1 - q(1, 0.5))**2 at high precision
MSE_E1_FILL1_T05 = 0.580025658385974

# a small pool makes ties common: -0.0 ties 0.0, and the energies above
# the cap are clipped to it after the sort
ENERGY_POOL = [0.0, -0.0, 0.25, 0.5, 1.0, 2 * _ENERGY_CAP, 1e300]
FILL_POOL = [0.0, -0.0, 0.5, 1.0]
POOLED_OBSERVATIONS = st.lists(
    st.tuples(st.one_of(st.sampled_from(ENERGY_POOL), st.floats(min_value=0.0, max_value=4.0)),
              st.one_of(st.sampled_from(FILL_POOL), st.floats(min_value=0.0, max_value=1.0))),
    min_size=1, max_size=30)
STARTS = st.one_of(st.sampled_from([T_MIN, T_MAX]), st.floats(min_value=T_MIN, max_value=T_MAX))

#: Fits of at most this many observations reduce on Python floats.
SCALAR_MAX = fitting._SCALAR_MAX
#: Observation pools for each side of that cut, each led by the point
#: that a one-observation set keeps: energies above 700 T at T_MIN (and
#: above the clip), points whose q rounds to 1 (the first two are the
#: fit that crept to the iteration cap before such points left L''),
#: and tied energies.
CUT_POOLS = {
    "capped": [(8000.0, 0.5), (1e300, 0.0), (0.9, 1.0), (0.3, 0.2), (2 * _ENERGY_CAP, 1.0)],
    "q_is_one": [(2.967577744255688e-82, 1.0), (0.25, 0.0), (0.0, 0.5), (5e-324, 0.0),
                 (1e-19, 1.0), (0.7, 0.3)],
    "tied": [(0.25, 0.0), (0.25, 1.0), (0.25, 0.5), (1.0, 0.3), (1.0, -0.0)],
}


def cut_observations(pool, n):
    """``n`` observations from ``pool``: each pass over it after the first
    scales its energies by the pass number, so a tie stays a tie and a
    q that rounds to 1 still does."""
    k = len(pool)
    return np.array([(pool[i % k][0] * (1 + i // k), pool[i % k][1]) for i in range(n)]).T


def noiseless_observations(t_star, energies=None):
    if energies is None:
        energies = np.arange(1, 11) / 10.0
    energies = np.asarray(energies, dtype=float)
    return energies, spot_occupancy_prob(energies, t_star)


def derivatives_at(t, energies, fills):
    """L' and L'' at ``t`` from the buffers of one evaluation there."""
    return _loss_derivatives(*_evaluate(t, *_sorted_observations(energies, fills))[1])


def traced_peak(call):
    """``call()``'s result and the most memory it held at once, as traced."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


# the smallest survey (two spots), one short of a block, a block, one
# over, and two blocks and one over
SAVE_BLOCK = fitting._SAVE_BLOCK
BLOCK_SIZES = [2, SAVE_BLOCK - 1, SAVE_BLOCK, SAVE_BLOCK + 1, 2 * SAVE_BLOCK + 1]
SURVEY_DRAWS = [(0, 0.1), (1, 0.5), (7, 2.0)]  # (seed, temperature)


def reference_surveys():
    """Synthetic surveys at every block size and draw, each also moved so
    that its point of interest is nonzero and negative."""
    for n in BLOCK_SIZES:
        for seed, t in SURVEY_DRAWS:
            survey = synthetic_survey(n, t, seed)
            yield survey
            poi = (-3.25, -1e3 / 7)
            yield LotSurvey(x=survey.x + poi[0], y=survey.y + poi[1],
                            occupied=survey.occupied, poi=poi)


def square_survey(occupied):
    """3-spot survey on a line: distances 1, 2 (max), plus one at the POI."""
    return LotSurvey(x=np.array([0.0, 1.0, 2.0]), y=np.zeros(3),
                     occupied=np.array(occupied), poi=(0.0, 0.0))


class TestSurveyToObservations:
    def test_normalization_and_fills(self):
        energies, fills = survey_to_observations(square_survey([False, True, True]))
        assert energies.tolist() == [0.0, 0.25, 1.0]
        assert fills.tolist() == [0.0, 1.0, 1.0]

    def test_output_length_matches_spot_count(self):
        survey = synthetic_survey(40, 0.5, seed=1)
        energies, fills = survey_to_observations(survey)
        assert energies.shape == fills.shape == (40,)

    def test_degenerate_geometry(self):
        survey = LotSurvey(x=np.zeros(3), y=np.zeros(3),
                           occupied=np.array([True, False, True]), poi=(0.0, 0.0))
        with pytest.raises(ValueError, match="degenerate geometry"):
            survey_to_observations(survey)

    @given(st.integers(min_value=-20, max_value=20))
    @settings(max_examples=50)
    def test_scale_invariance_exact_for_power_of_two(self, exponent):
        survey = synthetic_survey(25, 0.5, seed=9)
        c = 2.0 ** exponent
        scaled = LotSurvey(x=survey.x * c, y=survey.y * c, occupied=survey.occupied,
                           poi=(survey.poi[0] * c, survey.poi[1] * c))
        for a, b in zip(survey_to_observations(survey), survey_to_observations(scaled)):
            np.testing.assert_array_equal(a, b)

    def test_scale_invariance_close_for_arbitrary_factor(self):
        survey = synthetic_survey(25, 0.5, seed=9)
        c = 3.7
        scaled = LotSurvey(x=survey.x * c, y=survey.y * c, occupied=survey.occupied,
                           poi=(survey.poi[0] * c, survey.poi[1] * c))
        (e_a, f_a), (e_b, f_b) = survey_to_observations(survey), survey_to_observations(scaled)
        np.testing.assert_allclose(e_a, e_b, rtol=1e-12, atol=0)
        np.testing.assert_array_equal(f_a, f_b)

    def test_matches_the_reference_byte_for_byte(self):
        for survey in reference_surveys():
            got = survey_to_observations(survey)
            for a, b in zip(got, survey_to_observations_reference(survey)):
                assert a.tobytes() == b.tobytes()

    def test_peak_memory_is_the_two_returned_arrays(self):
        survey = synthetic_survey(100_000, 0.5, seed=0)
        (energies, _), peak = traced_peak(lambda: survey_to_observations(survey))
        assert peak <= 2 * 8 * energies.size + 64 * 1024


class TestMseLoss:
    def test_zero_energy_full_fill_is_exact(self):
        for t in (0.1, 0.5, 2.0):
            assert mse_loss(t, np.zeros(3), np.ones(3)) == 0.0

    def test_self_consistent_observation(self):
        q = spot_occupancy_prob(1.0, 0.5)
        assert mse_loss(0.5, [1.0], [q]) == 0.0

    def test_known_value(self):
        assert mse_loss(0.5, [1.0], [1.0]) == pytest.approx(MSE_E1_FILL1_T05, abs=1e-12)

    def test_empty_observations(self):
        with pytest.raises(ValueError):
            mse_loss(0.5, [], [])

    @given(POOLED_OBSERVATIONS, STARTS)
    @example([(1.0, 1.0), (0.25, 0.0), (1.0, 0.0), (0.0, 0.5), (0.25, 1.0), (-0.0, 0.0)], 0.5)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_direct_formula_on_unsorted_pairs(self, pairs, temperature):
        # the oracle takes the pairs in their given order, ties and all, and
        # averages q's direct expression with np.mean; only the order of
        # the sum differs, so the two agree to a few ulps of n terms
        energies, fills = zip(*pairs)
        want = mse_reference(temperature, pairs)
        assert mse_loss(temperature, energies, fills) == pytest.approx(want, rel=1e-12, abs=0.0)


class TestSum:
    """``_sum`` is ``np.add.reduce`` on a list, bit for bit: a numpy whose
    summation order changes fails here first."""

    @staticmethod
    def vectors(n, rng):
        mags = 10.0 ** rng.uniform(-8, 8, n) * rng.choice([-1.0, 1.0], n)
        yield mags
        yield rng.permutation(np.concatenate([mags, -mags]))[:n]  # cancelling pairs
        yield rng.choice([5e-324, -5e-324, -2.5e-310, 2.2250738585072014e-308, 1e-300, -1.0], n)
        yield np.full(n, -0.0)
        yield rng.choice([0.0, -0.0], n)

    @pytest.mark.parametrize("n", range(1, 2 * SCALAR_MAX + 2))
    def test_matches_numpy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        for _ in range(40):
            for v in self.vectors(n, rng):
                want = float(np.add.reduce(v))
                got = fitting._sum(v.tolist())
                assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), v


class TestGradient:
    def test_analytic_gradient_matches_central_differences(self):
        # L' and L'' are taken in u = log T
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = int(rng.integers(1, 12))
            energies = rng.uniform(0.0, 1.5, m)
            fills = rng.uniform(0.0, 1.0, m)
            t = float(rng.uniform(0.05, 8.0))
            d1, d2 = derivatives_at(t, energies, fills)

            def loss(u):
                return mse_loss(np.exp(u), energies, fills)

            u = np.log(t)
            assert d1 == pytest.approx(central_difference(loss, u, 1e-6), rel=1e-5, abs=1e-10)
            assert d2 == pytest.approx(second_difference(loss, u, 1e-4), rel=1e-4, abs=1e-7)

    @pytest.mark.parametrize("tiny", [0.0, 5e-324, 2.967577744255688e-82, 1e-19])
    def test_a_point_whose_q_rounds_to_one_adds_nothing(self, tiny):
        # its loss term stays 0 at every T, so it may not weigh in L''
        assert spot_occupancy_prob(tiny, T_MIN) == 1.0
        for t in (T_MIN, 0.0013, 0.5, T_MAX):
            alone = derivatives_at(t, [0.25, 1.0], [0.0, 0.5])
            with_it = derivatives_at(t, [0.25, tiny, 1.0], [0.0, 1.0, 0.5])
            assert with_it == (alone[0] * 2 / 3, alone[1] * 2 / 3)


class TestFitTemperature:
    def test_noiseless_recovery(self):
        res = fit_temperature(*noiseless_observations(0.5), 1.5)
        assert abs(res.temperature - 0.5) < 1e-4
        assert res.final_loss < 1e-12
        assert res.stop_reason == "converged"

    def test_already_at_optimum_converges_immediately(self):
        q = spot_occupancy_prob(1.0, 0.5)
        res = fit_temperature([1.0], [q])
        assert res.iterations == 0
        assert res.final_loss == 0.0
        assert res.temperature == 0.5

    def test_all_occupied_saturates_high(self):
        res = fit_temperature(0.1 * np.arange(1, 11), np.ones(10))
        assert res.temperature == T_MAX
        assert res.clamped
        assert res.stop_reason == "pinned"

    def test_all_vacant_saturates_low(self):
        # energies small enough that the loss keeps falling, in floats,
        # all the way down to the clamp
        res = fit_temperature(0.01 * np.arange(1, 11), np.zeros(10))
        assert res.temperature == T_MIN
        assert res.clamped
        assert res.stop_reason == "pinned"

    def test_all_vacant_with_larger_energies_goes_effectively_cold(self):
        # with E >= 0.1 the loss is float-tiny long before the clamp; the
        # fit lands within float-zero loss of the infimum
        res = fit_temperature(0.1 * np.arange(1, 11), np.zeros(10))
        assert res.temperature < 0.01
        assert res.final_loss < 1e-11

    def test_empty_observations(self):
        with pytest.raises(ValueError):
            fit_temperature([], [])

    def test_order_invariance_is_exact(self):
        rng = np.random.default_rng(5)
        distinct = rng.uniform(0, 1, 30), rng.integers(0, 2, 30).astype(float)
        tied = survey_to_observations(grid_survey(41, 0.5, 0))
        assert np.unique(tied[0]).size < tied[0].size
        for energies, fills in (distinct, tied):
            res_a = fit_temperature(energies, fills)
            order = rng.permutation(energies.size)
            res_b = fit_temperature(energies[order], fills[order])
            assert res_a.temperature == res_b.temperature
            assert res_a.final_loss == res_b.final_loss

    def test_matches_grid_oracle_on_random_sets(self):
        rng = np.random.default_rng(17)
        for _ in range(12):
            t_star = float(rng.uniform(0.05, 2.0))
            energies = rng.uniform(0.02, 1.0, 25)
            fills = np.clip(
                spot_occupancy_prob(energies, t_star)
                + rng.normal(0, 0.05, 25),
                0.0, 1.0,
            )
            fitted = fit_temperature(energies, fills).temperature
            oracle, _ = grid_search_temperature(energies, fills, resolution=1e-4)
            assert abs(fitted - oracle) <= 1e-3

    @given(st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=2.0),
                  st.floats(min_value=0.0, max_value=1.0)),
        min_size=1, max_size=20),
        st.floats(min_value=T_MIN, max_value=T_MAX))
    @settings(max_examples=60, deadline=None)
    def test_never_worse_than_start(self, pairs, start):
        energies, fills = np.array(pairs).T
        res = fit_temperature(energies, fills, start)
        assert res.final_loss <= mse_loss(start, energies, fills) + 1e-15

    @given(POOLED_OBSERVATIONS, STARTS)
    @example([(0.04000000000000001, 0.3)], 0.5)  # a sub-resolution step, then one more
    @example([(0.25, 0.0), (2.967577744255688e-82, 1.0)], 10.0)  # the second q rounds to 1
    @settings(max_examples=200, deadline=None)
    def test_every_stop_but_the_cap_restarts_to_itself(self, pairs, start):
        # plan_parking answers the replan from any fit but a capped one out
        # of its memo, which is sound only if that refit returns the same bits
        energies, fills = np.array(pairs).T
        res = fit_temperature(energies, fills, start)
        assert res.stop_reason != "max_iterations"
        again = fit_temperature(energies, fills, res.temperature)
        assert again.temperature.hex() == res.temperature.hex()
        assert again.final_loss.hex() == res.final_loss.hex()
        assert (again.stop_reason, again.iterations) == (res.stop_reason, 0)
        ref = fit_restarted_reference(energies, fills, start, fitting._MAX_ITERATIONS)
        assert repr(res) == repr(ref)

    def test_a_sub_resolution_step_goes_on_to_where_a_restart_ends(self):
        # floor 2 of 10 filled to 0.3: the last Newton step is below the
        # resolution and lowers the loss; a fit that stopped there moved
        # T by an ulp on its restart, and now takes that step in one call
        energies, fills = level_energies(10)[[1]], [0.3]
        first = fit_two_kernel_reference(energies, fills, 0.5, fitting._MAX_ITERATIONS)
        restart = fit_two_kernel_reference(energies, fills, first.temperature,
                                           fitting._MAX_ITERATIONS)
        assert (first.stop_reason, restart.stop_reason) == ("converged", "converged")
        assert restart.iterations == 1 and restart.final_loss < first.final_loss
        assert restart.temperature == np.nextafter(first.temperature, 0.0)
        res = fit_temperature(energies, fills, 0.5)
        assert repr(res) == repr(replace(restart, iterations=first.iterations + 1))

    @pytest.mark.parametrize("cap", [0, 1, 2])
    def test_the_iteration_cap_stops_a_fit_that_keeps_improving(self, monkeypatch, cap):
        energies, fills = noiseless_observations(0.5)
        assert fit_temperature(energies, fills, 1.5).iterations > 2
        monkeypatch.setattr(fitting, "_MAX_ITERATIONS", cap)
        res = fit_temperature(energies, fills, 1.5)
        assert res.stop_reason == "max_iterations"
        assert res.iterations == cap
        assert res.final_loss == mse_loss(res.temperature, energies, fills)
        monkeypatch.undo()  # a capped fit is no end: its restart accepts a step
        assert fit_temperature(energies, fills, res.temperature).iterations > 0

    def test_final_loss_is_the_loss_at_the_returned_temperature(self):
        rng = np.random.default_rng(29)
        for _ in range(40):
            m = int(rng.integers(1, 30))
            energies, fills = rng.uniform(0, 1.5, m), rng.uniform(0, 1, m)
            res = fit_temperature(energies, fills, float(rng.uniform(T_MIN, T_MAX)))
            assert res.final_loss == mse_loss(res.temperature, energies, fills)

    @given(st.integers(min_value=2, max_value=50).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(min_value=1, max_value=n), min_size=1, max_size=n, unique=True),
        st.floats(min_value=T_MIN, max_value=T_MAX),
        st.floats(min_value=T_MIN, max_value=T_MAX),
        st.integers(min_value=0, max_value=2**32 - 1))))
    @settings(max_examples=200, deadline=None)
    def test_no_worse_than_the_descent_reference(self, case):
        # planner-sized fits: some floors of an n-floor garage at T*, their
        # fills counted on 30-spot floors drawn from the model, and a warm
        # start anywhere in the domain.  Fills unrelated to any temperature
        # can make the loss multimodal; there either local method may end
        # in the worse basin, so this compares only fills a garage can show.
        n, floors, t_star, start, seed = case
        energies = level_energies(n)[np.array(floors) - 1]
        q = spot_occupancy_prob(energies, t_star)
        fills = np.random.default_rng(seed).binomial(30, q) / 30.0
        _, reference_loss = descent_fit_reference(energies, fills, start)
        res = fit_temperature(energies, fills, start)
        assert res.final_loss <= reference_loss * (1 + 1e-12)

    def test_result_always_in_domain(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            res = fit_temperature(rng.uniform(0, 1, 8), rng.integers(0, 2, 8))
            assert T_MIN <= res.temperature <= T_MAX

    @pytest.mark.parametrize("energies", [[0.0], [1.0], [1e300], [1.7e308],
                                          [0.0, 1.0, 1e300, 1.7e308]])
    @pytest.mark.parametrize("fill", [0.0, 1.0])
    @pytest.mark.parametrize("start", [T_MIN, 1.0, T_MAX])
    def test_loss_and_gradient_stay_finite(self, energies, fill, start):
        # the fit has no divergence check: q <= 1 bounds the loss, and E/T
        # capped at 700 keeps every derivative term finite for any finite energy.
        # Energies above 700 T_MAX are clipped, so E/T never overflows and
        # no overflow warning is raised (pytest turns warnings into errors).
        fills = np.full(len(energies), fill)
        res = fit_temperature(energies, fills, start)
        start_loss = mse_loss(start, energies, fills)
        for t in (start, res.temperature):
            d1, d2 = derivatives_at(t, energies, fills)
            assert np.isfinite(d1) and np.isfinite(d2)
        assert np.isfinite(res.final_loss)
        assert res.final_loss <= start_loss
        assert T_MIN <= res.temperature <= T_MAX


class TestFitConfig:
    """The fit's one setting is where it starts: ``initial_temperature``."""

    def test_defaults(self):
        energies, fills = noiseless_observations(0.8)
        assert fit_temperature(energies, fills) == fit_temperature(energies, fills, 0.5)
        for start in (T_MIN, T_MAX):  # the domain bounds are valid starts
            assert T_MIN <= fit_temperature(energies, fills, start).temperature <= T_MAX

    @pytest.mark.parametrize("kw", [
        {"initial_temperature": 0.0},
        {"initial_temperature": -1.0},
        {"initial_temperature": T_MIN / 2},
        {"initial_temperature": T_MIN * (1 - 1e-12)},
        {"initial_temperature": T_MAX + 1},
        {"initial_temperature": T_MAX * (1 + 1e-12)},
        {"initial_temperature": float("nan")},
        {"initial_temperature": float("inf")},
        {"initial_temperature": float("-inf")},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError, match="initial_temperature"):
            fit_temperature([0.5], [0.5], **kw)


class TestObservation:
    """Observations are (energies, fills) arrays; both entry points reject bad ones."""

    @pytest.mark.parametrize("kw", [
        {"energies": [-0.1], "fills": [0.5]},
        {"energies": [float("nan")], "fills": [0.5]},
        {"energies": [0.5], "fills": [-0.01]},
        {"energies": [0.5], "fills": [1.01]},
        {"energies": [0.5, 0.7], "fills": [0.5]},
        {"energies": [[0.5, 0.7]], "fills": [[0.5, 0.5]]},
        {"energies": [0.5], "fills": [float("nan")]},
        {"energies": [float("inf")], "fills": [0.5]},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            fit_temperature(**kw)
        with pytest.raises(ValueError):
            mse_loss(0.5, **kw)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), -0.1])
    @pytest.mark.parametrize("where", [0, 2])
    def test_rejects_bad_energy_in_array(self, bad, where):
        energies = np.array([0.5, 0.0, 1.0])
        energies[where] = bad
        fills = [0.5, 1.0, 0.0]
        with pytest.raises(ValueError, match="energies must be finite and non-negative"):
            fit_temperature(energies, fills)
        with pytest.raises(ValueError, match="energies must be finite and non-negative"):
            mse_loss(0.5, energies, fills)
        fills[2 - where] = bad  # bad in both: the energies are named
        with pytest.raises(ValueError, match="energies must be finite and non-negative"):
            fit_temperature(energies, fills)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1.01])
    @pytest.mark.parametrize("where", [0, 2])
    def test_rejects_bad_fill_in_array(self, bad, where):
        fills = np.array([0.5, 1.0, 0.0])
        fills[where] = bad
        with pytest.raises(ValueError, match=r"fills must lie in \[0, 1\]"):
            fit_temperature([0.5, 0.0, 1.0], fills)
        with pytest.raises(ValueError, match=r"fills must lie in \[0, 1\]"):
            mse_loss(0.5, [0.5, 0.0, 1.0], fills)


class TestSortedObservations:
    @given(st.lists(
        st.tuples(st.one_of(st.sampled_from(ENERGY_POOL), st.floats(min_value=0.0, max_value=4.0)),
                  st.sampled_from(FILL_POOL)),
        min_size=1, max_size=40),
        st.floats(min_value=T_MIN, max_value=T_MAX))
    @example([(2 * _ENERGY_CAP, -0.0)], 0.5)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_lexsort_reference(self, pairs, t):
        energies, fills = np.array(pairs).T
        got = _sorted_observations(energies, fills)
        ref = sorted_observations_reference(energies, fills, _ENERGY_CAP)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        if not (np.signbit(energies).any() or np.signbit(fills).any()):
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, ref))
        # where a signed zero moves, the loss and its derivatives do not
        assert repr(_evaluate(t, *got)[0]) == repr(_evaluate(t, *ref)[0])
        assert repr(_loss_derivatives(*_evaluate(t, *got)[1])) == \
            repr(_loss_derivatives(*_evaluate(t, *ref)[1]))


class TestOneEvaluationPerTemperature:
    """The fit evaluates each temperature it visits once: the loss and the
    next Newton step's derivatives read the same q.  It returns, bit for
    bit, what the two-kernel fit returns, which computes q once for the
    loss and again for the derivatives, once that fit is restarted from
    its own result until a restart accepts no step."""

    @staticmethod
    def assert_matches_reference(energies, fills, start, cap):
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setattr(fitting, "_MAX_ITERATIONS", cap)
            got = fit_temperature(energies, fills, start)
            ref = fit_restarted_reference(energies, fills, start, fitting._MAX_ITERATIONS)
        assert repr(got) == repr(ref)
        if cap is not None and got.stop_reason == "max_iterations":
            assert got.iterations == cap
        return got

    @given(POOLED_OBSERVATIONS, STARTS, st.sampled_from([None, 0, 1, 2, 3]))
    @example([(0.1, 1.0), (0.5, 1.0), (1.0, 1.0)], 0.5, None)  # pinned at T_MAX
    @example([(0.01, 0.0), (0.05, 0.0), (0.1, 0.0)], 0.5, None)  # pinned at T_MIN
    @example([(0.5, 1.0)], T_MAX, None)  # pinned at the start
    @example([(1e300, 0.0), (2 * _ENERGY_CAP, 1.0), (0.5, 0.5)], 0.5, None)
    @example([(0.0, 0.0), (-0.0, -0.0), (0.0, 1.0), (0.25, 0.5), (0.25, -0.0)], 0.5, None)
    @example([(0.64, 0.4)], 0.5, None)  # n = 1
    @example([(0.04000000000000001, 0.3)], 0.5, None)  # the first fit stops after a step
    @settings(max_examples=300, deadline=None)
    def test_matches_the_two_kernel_reference(self, pairs, start, cap):
        energies, fills = np.array(pairs).T
        self.assert_matches_reference(energies, fills, start, cap)

    @pytest.mark.parametrize("n", [1, SCALAR_MAX, SCALAR_MAX + 1])
    @pytest.mark.parametrize("pool", sorted(CUT_POOLS))
    @pytest.mark.parametrize("start", [T_MIN, 0.5, T_MAX])
    def test_both_sides_of_the_float_cut_match_the_references(self, n, pool, start):
        energies, fills = cut_observations(CUT_POOLS[pool], n)
        ordered = _sorted_observations(energies, fills)
        assert isinstance(_evaluate(start, *ordered)[1][0], list) == (n <= SCALAR_MAX)
        self.assert_matches_reference(energies, fills, start, None)
        for t in (T_MIN, start, 0.0013, T_MAX):
            assert repr(mse_loss(t, energies, fills)) == repr(two_kernel_loss(t, *ordered))
            assert repr(derivatives_at(t, energies, fills)) == \
                repr(two_kernel_derivatives(t, *ordered))

    def test_every_stop_matches_the_two_kernel_reference(self):
        rng = np.random.default_rng(31)
        stops = set()
        for _ in range(400):
            m = int(rng.integers(1, 12))
            energies = rng.choice(ENERGY_POOL + list(rng.uniform(0, 2, 4)), m)
            fills = rng.choice(FILL_POOL + list(rng.uniform(0, 1, 4)), m)
            start = float(rng.choice([T_MIN, T_MAX, rng.uniform(T_MIN, T_MAX)]))
            cap = rng.choice([None, 0, 1, 2, 3])
            stops.add(self.assert_matches_reference(energies, fills, start, cap).stop_reason)
        assert stops == {"converged", "pinned", "no_improving_step", "max_iterations"}

    def test_peak_memory_is_six_observation_buffers(self):
        # the sorted energies and fills, then four n-sized buffers at once:
        # a candidate is evaluated only after the spent buffers are dropped
        energies, fills = survey_to_observations(synthetic_survey(100_000, 0.5, seed=0))
        res, peak = traced_peak(lambda: fit_temperature(energies, fills, 0.1))
        assert res.iterations > 0  # candidates were evaluated after derivatives
        assert peak <= 6 * 8 * energies.size + 64 * 1024


class TestSampleEfficiencyCurve:
    def test_full_lot_sample_has_zero_spread(self):
        survey = synthetic_survey(40, 0.5, seed=3)
        energies, fills = survey_to_observations(survey)
        full_fit = fit_temperature(energies, fills)
        (point,) = sample_efficiency_curve(survey, [40], trials_per_size=5, seed=0)
        assert point.std_mse == 0.0
        assert point.mean_mse == pytest.approx(mse_loss(full_fit.temperature, energies, fills),
                                               abs=1e-15)

    def test_single_observation_fits_are_worse_than_ten(self):
        survey = synthetic_survey(105, 0.5, seed=42)
        one, ten = sample_efficiency_curve(survey, [1, 10], trials_per_size=50, seed=7)
        assert one.mean_mse >= ten.mean_mse

    def test_deterministic_given_seed(self):
        survey = synthetic_survey(40, 0.5, seed=3)
        a = sample_efficiency_curve(survey, [5, 10], trials_per_size=4, seed=11)
        b = sample_efficiency_curve(survey, [5, 10], trials_per_size=4, seed=11)
        assert a == b

    def test_oversized_sample_rejected(self):
        survey = synthetic_survey(40, 0.5, seed=3)
        with pytest.raises(ValueError):
            sample_efficiency_curve(survey, [41], trials_per_size=2, seed=0)

    def test_requires_positive_trials(self):
        survey = synthetic_survey(40, 0.5, seed=3)
        with pytest.raises(ValueError):
            sample_efficiency_curve(survey, [5], trials_per_size=0, seed=0)

    @pytest.mark.parametrize("trials", [2.5, True])
    def test_requires_an_integer_trial_count(self, trials):
        survey = synthetic_survey(40, 0.5, seed=3)
        with pytest.raises(ValueError, match="trials_per_size must be >= 1 and an integer"):
            sample_efficiency_curve(survey, [5], trials_per_size=trials, seed=0)

    @pytest.mark.parametrize("sizes", [[2.7], [True], [5, 2.0], [np.float64(3)], [0], [-1]])
    def test_requires_integer_sample_sizes(self, sizes):
        survey = synthetic_survey(40, 0.5, seed=3)
        with pytest.raises(ValueError, match="sample size must be >= 1 and an integer"):
            sample_efficiency_curve(survey, sizes, trials_per_size=2, seed=0)

    def test_numpy_integer_sizes_are_reported_as_int(self):
        survey = synthetic_survey(40, 0.5, seed=3)
        (point,) = sample_efficiency_curve(survey, [np.int64(5)], trials_per_size=2, seed=0)
        assert type(point.sample_size) is int
        assert [point] == sample_efficiency_curve(survey, [5], trials_per_size=2, seed=0)

    def test_requires_a_sample_size(self):
        survey = synthetic_survey(40, 0.5, seed=3)
        with pytest.raises(ValueError, match="at least one sample size is required"):
            sample_efficiency_curve(survey, [], trials_per_size=2, seed=0)


ODD_NUMBERS = ["\u00a03", "1_0", "\uff11", "4\u00a0", "nan", "1e400", "inf", "-0", " 1", "\t2 "]
ODD_FLAGS = ["1\x00", "10", "1\u00a0", "1.0", "+1", "01", "-0", " 1 ", "1 ", "\x000"]
ASIDES = ["# a lot, \u00fc", "#1,2,1", "", "   ", "\t"]
LINE_ENDS = ["\n", "\r\n", "\r"]


@st.composite
def survey_texts(draw):
    """A plain survey CSV (a POI, 0-3 spots, repr or %.3e numbers, 0/1
    flags, one line ending), then 0-3 odd edits: an unusual or padded
    number, an unusual flag, another line ending, a comment or blank
    line, a dropped POI record; and at times no final line end."""
    number = st.floats(allow_nan=False, allow_infinity=False).flatmap(
        lambda v: st.sampled_from([repr(v), f"{v:.3e}"]))
    rows = [["poi", draw(number), draw(number)]]
    for _ in range(draw(st.integers(0, 3))):
        rows.append([draw(number), draw(number), draw(st.sampled_from(["0", "1"]))])
    ends = [draw(st.sampled_from(LINE_ENDS))] * len(rows)
    before = [""] * (len(rows) + 1)  # comment and blank lines before each row, and at the end
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(rows) - 1))
        kind = draw(st.sampled_from(["number", "flag", "end", "aside", "no poi"]))
        if kind == "number" and rows[i]:
            rows[i][draw(st.integers(0, 1)) + (i == 0)] = draw(st.sampled_from(ODD_NUMBERS))
        elif kind == "flag" and i > 0:
            rows[i][2] = draw(st.sampled_from(ODD_FLAGS))
        elif kind == "end":
            ends[i] = draw(st.sampled_from(LINE_ENDS))
        elif kind == "aside":
            before[draw(st.integers(0, len(rows)))] += draw(st.sampled_from(ASIDES)) + ends[0]
        elif kind == "no poi":
            rows[0] = None
    text = "".join(b + ",".join(row) + end for b, row, end in zip(before, rows, ends) if row)
    text += before[-1]
    return text.rstrip("\r\n") if draw(st.booleans()) else text  # no final line end


class TestSurveyIO:
    def test_roundtrip(self, tmp_path):
        survey = synthetic_survey(30, 0.5, seed=4)
        path = tmp_path / "lot.csv"
        save_survey(survey, path)
        loaded = load_survey(path)
        np.testing.assert_array_equal(loaded.x, survey.x)
        np.testing.assert_array_equal(loaded.y, survey.y)
        np.testing.assert_array_equal(loaded.occupied, survey.occupied)
        assert loaded.poi == survey.poi

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "lot.csv"
        path.write_text("# a survey\n\npoi,0,0\n# spots\n1,0,1\n2,0,0\n")
        survey = load_survey(path)
        assert survey.x.size == 2
        assert survey.poi == (0.0, 0.0)

    def test_missing_poi(self, tmp_path):
        path = tmp_path / "lot.csv"
        path.write_text("1,0,1\n2,0,0\n")
        with pytest.raises(ValueError, match="poi"):
            load_survey(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "lot.csv"
        path.write_text("poi,0,0\n1,0,1\n2,zero,0\n")
        with pytest.raises(ValueError, match=":3"):
            load_survey(path)
        path.write_text("# lot\npoi,a,b\n1,0,1\n2,0,0\n")
        with pytest.raises(ValueError, match="lot.csv:2: malformed POI coordinates"):
            load_survey(path)

    def test_bad_occupancy_flag_reports_line_number(self, tmp_path):
        path = tmp_path / "lot.csv"
        path.write_text("poi,0,0\n1,0,1\n2,0,maybe\n")
        with pytest.raises(ValueError, match=":3"):
            load_survey(path)

    def test_too_few_spots(self, tmp_path):
        path = tmp_path / "lot.csv"
        path.write_text("poi,0,0\n1,0,1\n")
        with pytest.raises(ValueError, match="at least 2"):
            load_survey(path)
        with pytest.raises(ValueError, match="survey needs at least 2 spots"):
            LotSurvey(x=[1.0], y=[0.0], occupied=[True], poi=(0.0, 0.0))
        with pytest.raises(ValueError, match="num_spots must be >= 2"):
            synthetic_survey(1, 0.5, 0)
        with pytest.raises(ValueError, match="1-D arrays of equal length"):
            LotSurvey(x=[1.0, 2.0], y=[0.0], occupied=[True, False], poi=(0.0, 0.0))

    @pytest.mark.parametrize("flags", [[0.5, 0], [2, 1], [float("nan"), 0], [-1, 0],
                                       ["1", "0"], [None, 1], [1 + 0j, 0]])
    def test_occupancy_flags_are_bools_zeros_or_ones(self, flags):
        with pytest.raises(ValueError, match="occupancy flags must be bools, 0 or 1"):
            LotSurvey(x=[1.0, 2.0], y=[0.0, 0.0], occupied=flags, poi=(0.0, 0.0))

    @pytest.mark.parametrize("flags", [[True, False], [1, 0], [1.0, -0.0],
                                       np.array([1, 0], np.uint8)])
    def test_zero_one_flags_read_as_bools(self, flags):
        survey = LotSurvey(x=[1.0, 2.0], y=[0.0, 0.0], occupied=flags, poi=(0.0, 0.0))
        assert survey.occupied.dtype == bool
        assert survey.occupied.tolist() == [True, False]

    @pytest.mark.parametrize("text, line", [
        ("poi,0,0\n1,0,1\nnan,0,0\n", 3),
        ("poi,0,0\n-inf,0,1\n2,0,0\n", 2),
        ("# lot\npoi,0,0\n\n1,0,1\n# row 2\n2,3,0\n\n1,inf,0\n3,3,1\n", 8),
        # the first bad record is the one reported, not a later malformed
        # line or the spot count
        ("poi,0,0\nnan,0,1\n1,x,0\n", 2),
        ("poi,0,0\ninf,0,1\n", 2),
    ])
    def test_non_finite_spot_reports_line_number(self, tmp_path, text, line):
        path = tmp_path / "lot.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"lot.csv:{line}: spot coordinates must be finite"):
            load_survey(path)

    def test_whitespace_around_fields_is_ignored(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("poi,1,2\n1.5,2,1\n3,-4,0\n")
        padded = tmp_path / "padded.csv"
        padded.write_text("  poi , 1 , 2 \n 1.5 , 2 , 1 \n\t3,\t-4 ,\t0\t\n")
        a, b = load_survey(plain), load_survey(padded)
        for name in ("x", "y", "occupied"):
            np.testing.assert_array_equal(getattr(b, name), getattr(a, name))
        assert b.poi == a.poi == (1.0, 2.0)

    def test_non_finite_poi_record_reports_line_number(self, tmp_path):
        path = tmp_path / "lot.csv"
        path.write_text("# lot\npoi,0,nan\n1,0,1\n2,0,0\n")
        with pytest.raises(ValueError, match="lot.csv:2: point of interest must be finite"):
            load_survey(path)

    @pytest.mark.parametrize("text, line", [
        ("poi,0,0\n1_0,0,1\n2,0,0\n", 2),
        ("poi,0,0\n2,0,0\n\uff11,0,0\n", 3),
        ("# lot\npoi,1_0,0\n1,0,1\n2,0,0\n", 2),
        ("poi,0,0\n1,0,1\n2,0,\u00a01\n", 3),
    ])
    def test_digit_separator_or_non_ascii_names_the_line(self, tmp_path, text, line):
        # float() reads '1_0' as 10 and a fullwidth '1' as 1
        path = tmp_path / "lot.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=f"lot.csv:{line}: a data line must be ASCII with no '_'"):
            load_survey(path)

    def test_comments_may_hold_any_text(self, tmp_path):
        path = tmp_path / "lot.csv"
        path.write_text("# lot_1, \uff11\u00a0\npoi,0,0\n# row_2 \u00e9\n1,0,1\n2,0,0\n",
                        encoding="utf-8")
        np.testing.assert_array_equal(load_survey(path).x, [1.0, 2.0])

    def test_saved_surveys_take_the_one_pass_parse(self, tmp_path, monkeypatch):
        # the line loop would return the same arrays, only slower, so a
        # silent fallback shows only in this count
        accepted = []
        bulk = fitting._bulk_spots

        def counted(fh, start):
            spots = bulk(fh, start)
            accepted.append(spots is not None)
            return spots

        monkeypatch.setattr(fitting, "_bulk_spots", counted)
        path = tmp_path / "lot.csv"
        for survey in (synthetic_survey(500, 0.5, seed=3), grid_survey(9, 0.5, 0),
                       synthetic_survey(2 * SAVE_BLOCK + 1, 0.5, seed=4)):
            save_survey(survey, path)
            for text in (path.read_bytes(), path.read_bytes().replace(b"\n", b"\r\n")):
                path.write_bytes(text)
                loaded = load_survey(path)
                for name in ("x", "y", "occupied"):
                    array = getattr(loaded, name)
                    assert array.flags.c_contiguous
                    assert array.tobytes() == getattr(survey, name).tobytes()
        assert accepted == [True] * 6

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_read_by_the_line_loop(self, tmp_path, monkeypatch):
        path = tmp_path / "lot.csv"
        save_survey(synthetic_survey(50, 0.5, seed=3), path)
        expected = load_survey(path)
        # a pipe cannot seek back to the records after a failed bulk parse
        monkeypatch.setattr(fitting, "_bulk_spots",
                            lambda fh, start: pytest.fail("bulk parse of a pipe"))
        pipe = tmp_path / "lot.pipe"
        os.mkfifo(pipe)
        writer = threading.Thread(target=pipe.write_bytes, args=(path.read_bytes(),),
                                  daemon=True)  # open() blocks until a reader opens
        writer.start()
        piped = load_survey(pipe)
        writer.join(timeout=10)
        assert not writer.is_alive()
        for name in ("x", "y", "occupied"):
            assert getattr(piped, name).tobytes() == getattr(expected, name).tobytes()
        assert piped.poi == expected.poi

    def test_save_survey_pins_its_bytes(self, tmp_path):
        # signed zeros, subnormals and the largest float, as first written
        survey = LotSurvey(x=[-0.0, 5e-324, 0.1, 1 / 3, 1e16, -1.7976931348623157e308],
                           y=[2.5e-310, -7.0, 123456789.125, 1e-7, 0.0, 3.0],
                           occupied=[True, False, True, True, False, False], poi=(-0.0, 1e22))
        path = tmp_path / "lot.csv"
        save_survey(survey, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2d0aa54d2f518597459cc07f0153ffbda3cfcb765cc8052c77162c7d5473a604")
        loaded = load_survey(path)
        for name in ("x", "y", "occupied"):
            assert getattr(loaded, name).tobytes() == getattr(survey, name).tobytes()

    def test_block_writer_matches_the_row_writer(self, tmp_path):
        path, reference = tmp_path / "lot.csv", tmp_path / "reference.csv"
        for survey in reference_surveys():
            save_survey(survey, path)
            save_survey_reference(survey, reference)
            assert (hashlib.sha256(path.read_bytes()).digest()
                    == hashlib.sha256(reference.read_bytes()).digest())

    @pytest.mark.parametrize("num_spots", [20_000, 200_000])
    def test_writer_memory_does_not_grow_with_the_survey(self, tmp_path, num_spots):
        survey = synthetic_survey(num_spots, 0.5, seed=5)
        _, peak = traced_peak(lambda: save_survey(survey, tmp_path / "lot.csv"))
        assert peak < 1024 * 1024

    @given(survey_texts())
    @example("poi,0,0\n\n")  # no record after the POI line
    @example("poi,0,0\n1,2,1\x00\n3,4,0\n")  # loadtxt drops a flag's trailing NUL
    @example("poi,0,0\n\u00a03,1,0\n2,0,1\n")  # and skips non-ASCII blanks
    @example("poi,0,0\r1,2,10\r3,4,0")  # a flag that one character would cut to 1
    @settings(max_examples=400, deadline=None)
    def test_matches_the_line_loop_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("survey") / "lot.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            expected = load_survey_reference(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                load_survey(path)
            assert str(got.value) == str(exc)
            return
        loaded = load_survey(path)
        for name in ("x", "y", "occupied"):
            assert getattr(loaded, name).tobytes() == getattr(expected, name).tobytes()
        assert np.array(loaded.poi).tobytes() == np.array(expected.poi).tobytes()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_point_of_interest(self, bad):
        with pytest.raises(ValueError, match="point of interest must be finite"):
            LotSurvey(x=[1.0, 2.0], y=[0.0, 0.0], occupied=[True, False], poi=(bad, 0.0))
        with pytest.raises(ValueError, match="spot coordinates must be finite"):
            LotSurvey(x=[1.0, 2.0], y=[0.0, bad], occupied=[True, False], poi=(0.0, 0.0))


class TestSyntheticSurvey:
    def test_deterministic(self):
        a = synthetic_survey(50, 0.5, seed=8)
        b = synthetic_survey(50, 0.5, seed=8)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.occupied, b.occupied)

    def test_occupancy_rate_tracks_temperature(self):
        cold = synthetic_survey(400, 0.1, seed=2)
        hot = synthetic_survey(400, 2.0, seed=2)
        assert hot.occupied.mean() > cold.occupied.mean()

    def test_matches_the_reference_byte_for_byte(self):
        for n in BLOCK_SIZES:
            for seed, t in SURVEY_DRAWS:
                got, want = synthetic_survey(n, t, seed), synthetic_survey_reference(n, t, seed)
                for name in ("x", "y", "occupied"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                assert got.poi == want.poi

    def test_peak_memory_is_at_most_seven_spot_arrays(self):
        n = 100_000
        _, peak = traced_peak(lambda: synthetic_survey(n, 0.5, seed=0))
        assert peak <= 7 * 8 * n + 64 * 1024

    @pytest.mark.parametrize("num_spots", [5.0, True, "5", np.float64(3)])
    def test_num_spots_must_be_an_integer(self, num_spots):
        with pytest.raises(ValueError, match="num_spots must be >= 2 and an integer"):
            synthetic_survey(num_spots, 0.5, 0)

    @pytest.mark.parametrize("seed", [1.5, True, -1])
    def test_seed_goes_through_the_integer_rule(self, seed):
        # unchecked, numpy rejects 1.5 and -1 in its own words and runs True as seed 1
        survey = synthetic_survey(40, 0.5, np.int64(3))
        assert survey.occupied.tobytes() == synthetic_survey(40, 0.5, 3).occupied.tobytes()
        for call in (lambda: synthetic_survey(40, 0.5, seed),
                     lambda: sample_efficiency_curve(survey, [5], 2, seed)):
            with pytest.raises(ValueError) as error:
                call()
            assert str(error.value) == f"seed must be >= 0 and an integer, got {seed!r}"

    def test_energies_cover_unit_interval(self):
        energies, _ = survey_to_observations(synthetic_survey(100, 0.5, seed=6))
        assert energies.max() == 1.0
        assert energies.min() >= 0.0
