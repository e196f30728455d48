
import numpy as np
import pytest
from hypothesis import given, settings
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
from tipp.fitting import _loss_derivatives, _sorted_observations

from oracles import (
    central_difference,
    descent_fit_reference,
    grid_search_temperature,
    second_difference,
)

# (1 - q(1, 0.5))**2 at high precision
MSE_E1_FILL1_T05 = 0.580025658385974


def noiseless_observations(t_star, energies=None):
    if energies is None:
        energies = np.arange(1, 11) / 10.0
    energies = np.asarray(energies, dtype=float)
    return energies, spot_occupancy_prob(energies, t_star)


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


class TestGradient:
    def test_analytic_gradient_matches_central_differences(self):
        # L' and L'' are taken in u = log T
        rng = np.random.default_rng(11)
        for _ in range(60):
            m = int(rng.integers(1, 12))
            energies = rng.uniform(0.0, 1.5, m)
            fills = rng.uniform(0.0, 1.0, m)
            t = float(rng.uniform(0.05, 8.0))
            d1, d2 = _loss_derivatives(t, *_sorted_observations(energies, fills))

            def loss(u):
                return mse_loss(np.exp(u), energies, fills)

            u = np.log(t)
            assert d1 == pytest.approx(central_difference(loss, u, 1e-6), rel=1e-5, abs=1e-10)
            assert d2 == pytest.approx(second_difference(loss, u, 1e-4), rel=1e-4, abs=1e-7)


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
        energies, fills = rng.uniform(0, 1, 30), rng.integers(0, 2, 30).astype(float)
        res_a = fit_temperature(energies, fills)
        order = rng.permutation(30)
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
        # E/T itself may overflow to inf before the cap, hence errstate.
        fills = np.full(len(energies), fill)
        with np.errstate(over="ignore"):
            res = fit_temperature(energies, fills, start)
            start_loss = mse_loss(start, energies, fills)
            for t in (start, res.temperature):
                d1, d2 = _loss_derivatives(t, *_sorted_observations(energies, fills))
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

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 1.01])
    @pytest.mark.parametrize("where", [0, 2])
    def test_rejects_bad_fill_in_array(self, bad, where):
        fills = np.array([0.5, 1.0, 0.0])
        fills[where] = bad
        with pytest.raises(ValueError, match=r"fills must lie in \[0, 1\]"):
            fit_temperature([0.5, 0.0, 1.0], fills)
        with pytest.raises(ValueError, match=r"fills must lie in \[0, 1\]"):
            mse_loss(0.5, [0.5, 0.0, 1.0], fills)


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

    def test_requires_a_sample_size(self):
        survey = synthetic_survey(40, 0.5, seed=3)
        with pytest.raises(ValueError, match="at least one sample size is required"):
            sample_efficiency_curve(survey, [], trials_per_size=2, seed=0)


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
        assert survey.num_spots == 2
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

    @pytest.mark.parametrize("text, line", [
        ("poi,0,0\n1,0,1\nnan,0,0\n", 3),
        ("poi,0,0\n-inf,0,1\n2,0,0\n", 2),
        ("# lot\npoi,0,0\n\n1,0,1\n# row 2\n2,3,0\n\n1,inf,0\n3,3,1\n", 8),
    ])
    def test_non_finite_spot_reports_line_number(self, tmp_path, text, line):
        path = tmp_path / "lot.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"lot.csv:{line}: spot coordinates must be finite"):
            load_survey(path)

    def test_non_finite_poi_record_reports_line_number(self, tmp_path):
        path = tmp_path / "lot.csv"
        path.write_text("# lot\npoi,0,nan\n1,0,1\n2,0,0\n")
        with pytest.raises(ValueError, match="lot.csv:2: point of interest must be finite"):
            load_survey(path)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_a_non_finite_point_of_interest(self, bad):
        with pytest.raises(ValueError, match="point of interest must be finite"):
            LotSurvey(x=[1.0, 2.0], y=[0.0, 0.0], occupied=[True, False], poi=(bad, 0.0))


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

    def test_energies_cover_unit_interval(self):
        energies, _ = survey_to_observations(synthetic_survey(100, 0.5, seed=6))
        assert energies.max() == 1.0
        assert energies.min() >= 0.0
