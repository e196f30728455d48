import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tipp import (
    T_MAX,
    TimeConstants,
    TippState,
    fit_temperature,
    level_availability_prob,
    level_energies,
    plan_parking,
    solve_dp,
    spot_occupancy_prob,
    total_time,
)

import tipp.fitting
import tipp.planner
from oracles import (
    descent_path,
    descent_stop_times,
    enumerate_best_itinerary,
    sampled_free_floors,
    segment_accounting,
    solve_dp_reference,
)

TIMES = TimeConstants(t1=30.0, t2=10.0, t3=5.0)

#: Time sets for the full-scan comparison: the defaults, an exact tie
#: (see test_ties_break_toward_the_nearest_floor), unit times, and
#: non-integer times whose products (j - i) * t3 round.
DP_TIMES = (
    TIMES,
    TimeConstants(t1=30.0, t2=10.0, t3=20.0),
    TimeConstants(t1=1.0, t2=1.0, t3=1.0),
    TimeConstants(t1=20.0, t2=7.0, t3=36.0),
    TimeConstants(t1=0.1, t2=0.3, t3=0.7),
    TimeConstants(t1=6.457410151540426, t2=3.7707889759985385, t3=3.6092800531039817),
)


def draw_availability(kind, n, seed):
    rng = np.random.default_rng(seed)
    pools = {
        "uniform": rng.uniform(0.0, 1.0, n),
        "ties": rng.choice([0.0, 0.5, 1.0], n),
        "near_one": 1.0 - rng.uniform(0.0, 1e-6, n),
    }
    if kind == "mixed":
        return np.choose(rng.integers(0, 3, n), list(pools.values()))
    return pools[kind]


class TestTimeConstants:
    def test_defaults_keep_descent_cheap_relative_to_scanning(self):
        times = TimeConstants()
        assert times.t3 < times.t1

    @pytest.mark.parametrize("kw", [{"t1": 0.0}, {"t2": -1.0}, {"t3": float("nan")}])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TimeConstants(**kw)


class TestSolveDp:
    def test_single_floor_is_pure_boundary(self):
        sol = solve_dp([0.123], TIMES)
        assert sol.values.tolist() == [40.0]
        assert sol.action(0) == 1

    def test_two_floor_worked_example_low_availability(self):
        sol = solve_dp([0.5, 0.7], TIMES)
        assert sol.value(2) == 50.0
        assert sol.value(1) == 62.5
        assert sol.action(0) == 2
        assert sol.entrance_value == 60.0
        for floor in (0, 3, True, 1.0):  # True and 1.0 are no floor 1
            with pytest.raises(ValueError, match=rf"floor {floor} outside \[1, 2\]"):
                sol.value(floor)

    def test_two_floor_worked_example_high_availability(self):
        sol = solve_dp([0.9, 0.7], TIMES)
        assert sol.value(1) == 44.5
        assert sol.action(0) == 1
        assert sol.entrance_value == 49.5

    def test_boundary_is_bit_exact(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            t1, t2, t3 = rng.uniform(0.1, 80, 3)
            times = TimeConstants(t1=t1, t2=t2, t3=t3)
            sol = solve_dp(rng.uniform(0, 1, n), times)
            assert sol.value(n) == t1 + n * t2

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(80):
            n = int(rng.integers(1, 7))
            p = rng.uniform(0, 1, n)
            t1, t2, t3 = rng.uniform(0.5, 50, 3)
            sol = solve_dp(p, TimeConstants(t1=t1, t2=t2, t3=t3))
            oracle, _ = enumerate_best_itinerary(p, t1, t2, t3)
            assert sol.entrance_value == pytest.approx(oracle, abs=1e-9)

    def test_actions_always_descend_and_reach_bottom(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            n = int(rng.integers(1, 15))
            sol = solve_dp(rng.uniform(0, 1, n), TIMES)
            for i in range(n):
                assert i + 1 <= sol.action(i) <= n
            floor, steps = 0, 0
            while floor < n:
                floor = sol.action(floor)
                steps += 1
            assert steps <= n

    def test_all_floors_available_parks_on_first(self):
        sol = solve_dp(np.ones(10), TIMES)
        assert sol.action(0) == 1
        assert sol.value(1) == TIMES.t1 + TIMES.t2

    def test_hopeless_upper_floors_are_skipped(self):
        p = np.zeros(8)
        p[-1] = 0.4  # ignored by the boundary anyway
        sol = solve_dp(p, TIMES)
        assert sol.action(0) == 8

    def test_ties_break_toward_the_nearest_floor(self):
        # with t1=30, t2=10, t3=20 and p1=0.5 the entrance costs of
        # floors 1 and 2 are exactly equal (90.0)
        times = TimeConstants(t1=30.0, t2=10.0, t3=20.0)
        sol = solve_dp([0.5, 0.9], times)
        assert times.t3 + sol.value(1) == 2 * times.t3 + sol.value(2)
        assert sol.action(0) == 1

    def test_values_are_finite_and_at_least_one_scan(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            sol = solve_dp(rng.uniform(0, 1, n), TIMES)
            assert np.all(np.isfinite(sol.values))
            assert np.all(sol.values >= TIMES.t1)

    @pytest.mark.parametrize("bad", [[], [1.2], [-0.1], [float("nan")]])
    def test_rejects_bad_availability(self, bad):
        with pytest.raises(ValueError):
            solve_dp(bad, TIMES)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("where", [0, 2])
    def test_rejects_non_finite_availability_in_array(self, bad, where):
        p = np.array([0.5, 0.0, 1.0])
        p[where] = bad
        with pytest.raises(ValueError, match=r"availability entries must lie in \[0, 1\]"):
            solve_dp(p, TIMES)

    def test_rejects_times_whose_costs_overflow(self):
        # 3N(t1 + t2 + t3) bounds every cost; past float range the values
        # were [nan, inf] and the near-tie bound meant nothing
        with pytest.raises(ValueError, match="overflow"):
            solve_dp([1.0, 0.5], TimeConstants(1e308, 1e308, 1.0))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=300),
           st.sampled_from(["uniform", "ties", "near_one", "mixed"]),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from(DP_TIMES))
    def test_equals_the_full_scan_bit_for_bit(self, n, kind, seed, times):
        p = draw_availability(kind, n, seed)
        sol = solve_dp(p, times)
        values, actions, entrance_value = solve_dp_reference(p, times)
        assert sol.values.dtype == values.dtype
        assert sol.actions.dtype == actions.dtype
        assert sol.values.tobytes() == values.tobytes()
        assert sol.actions.tobytes() == actions.tobytes()
        assert sol.entrance_value == entrance_value

    def test_near_tie_is_decided_like_the_full_scan(self):
        # from floor 2, floor 4 beats floor 3 by one ulp (120.0 against
        # 120.00000000000001); from floor 1 and the entrance the two costs
        # round to the same value and the tie goes to floor 3.  A pass that
        # carried only the best j from floor 2 would keep floor 4.
        times = TimeConstants(t1=20.0, t2=7.0, t3=36.0)
        p = [0.0341518314783128, 0.046146706503778945, 0.31746031746031733, 0.348147831461306]
        sol = solve_dp(p, times)
        values, actions, entrance_value = solve_dp_reference(p, times)
        assert actions.tolist() == [3, 3, 4, 4]
        assert sol.actions.tolist() == [3, 3, 4, 4]
        assert sol.values.tobytes() == values.tobytes()
        assert sol.entrance_value == entrance_value


class TestSampledDescent:
    """f(i) and the entrance value against cars that follow u through
    seeded spot-level grids, each spot occupied with probability q."""

    DRAWS = 20_000

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n, s, temperature, times", [
        *((n, s, temperature, TIMES) for n, s, temperature in [
            (10, 30, 0.5), (10, 30, 1.0), (20, 3, 0.3), (5, 4, 2.0), (1, 1, 1.0), (3, 2, 0.05),
            (30, 10, 1.0)]),
        (10, 30, 0.5, DP_TIMES[3]),  # driving dearer than scanning
    ])
    def test_values_are_the_mean_time_of_following_u(self, n, s, temperature, times, seed):
        q = spot_occupancy_prob(level_energies(n), temperature)
        solution = solve_dp(level_availability_prob(q, s), times)
        p = 1.0 - q**s  # a floor is free unless all s spots are taken
        free = sampled_free_floors(q, s, self.DRAWS, np.random.default_rng(seed))
        for start in range(n + 1):
            path = descent_path(solution.actions, start)
            stops = descent_stop_times(path, start, times)
            # the path is fixed, so a car parks on its first free floor:
            # each earlier floor full, this one free (floor N always is)
            p_path = np.append(p[np.array(path[:-1], dtype=int) - 1], 1.0)
            chance = p_path * np.cumprod(np.append(1.0, 1.0 - p_path[:-1]))
            mean = float(chance @ stops)
            value = solution.entrance_value if start == 0 else solution.values[start - 1]
            assert mean == pytest.approx(value, rel=1e-9), start
            # the sample's own spread misses a floor that is rarely full
            # (q^S ~ 3e-4 on floor 7 of 10 x 30 at T = 1), so the exact one
            # sets the standard error
            error = math.sqrt(chance @ (stops - mean) ** 2 / self.DRAWS)
            sample = stops[free[:, np.array(path) - 1].argmax(axis=1)]
            assert abs(sample.mean() - value) <= 4 * error + 1e-9 * value, start


class TestTotalTime:
    def test_single_scan_best_case(self):
        assert total_time([1], TIMES) == 45.0

    def test_direct_substitution(self):
        assert total_time([2, 5, 7], TIMES) == 195.0

    def test_validation(self):
        with pytest.raises(ValueError):
            total_time([], TIMES)
        with pytest.raises(ValueError):
            total_time([0], TIMES)

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=12, unique=True),
           st.integers(min_value=1, max_value=120),
           st.integers(min_value=1, max_value=120),
           st.integers(min_value=1, max_value=120))
    @settings(max_examples=300)
    def test_equals_segment_accounting_exactly(self, floors, t1, t2, t3):
        itinerary = sorted(floors)
        times = TimeConstants(t1=float(t1), t2=float(t2), t3=float(t3))
        direct = total_time(itinerary, times)
        assert direct == segment_accounting(itinerary, float(t1), float(t2), float(t3))


class TestTippState:
    def test_defaults(self):
        state = TippState()
        assert state.temperature_estimate == 0.5
        assert state.floor_observations == {}

    @pytest.mark.parametrize("kw", [
        {"temperature_estimate": 0.0},
        {"temperature_estimate": T_MAX * 2},
        {"floor_observations": {0: 0.5}},
        {"floor_observations": {3: 1.5}},
        {"floor_observations": {2: -0.1}},
        {"floor_observations": {"a": 0.5}},
        {"floor_observations": {None: 0.5}},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            TippState(**kw)


class TestObserveFloor:
    def test_validation(self):
        # the memory is a plain dict, so a bad entry added after
        # construction is caught when the planner reads it
        for floor, fill in ((0, 0.5), (1, 1.5)):
            state = TippState()
            state.floor_observations[floor] = fill
            with pytest.raises(ValueError):
                plan_parking(state, 0, 10, 30, TIMES)

    @pytest.mark.parametrize("floor", [-3, 0, 11])
    def test_rejects_a_floor_outside_the_garage(self, floor):
        # an index into the floor energies would read floor 0 as the
        # deepest floor, energies[-1], and fit on it without a word
        state = TippState(floor_observations={2: 1.0})
        state.floor_observations[floor] = 0.5
        with pytest.raises(ValueError, match=r"observed floors must lie in \[1, 10\]"):
            plan_parking(state, 0, 10, 30, TIMES)

    @pytest.mark.parametrize("floor", [1.5, 2.0, True])
    def test_rejects_a_floor_that_is_not_an_integer(self, floor):
        # a float, even 2.0, is no index into the floor energies, nor is
        # True, whatever the other floors are
        with pytest.raises(ValueError, match="observed floors must be integers"):
            plan_parking(TippState(floor_observations={floor: 0.5}), 0, 10, 30, TIMES)
        state = TippState(floor_observations={3: 1.0})
        plan_parking(state, 0, 10, 30, TIMES)
        state.floor_observations[floor] = 0.5
        with pytest.raises(ValueError, match="observed floors must be integers"):
            plan_parking(state, 0, 10, 30, TIMES)


@pytest.mark.parametrize("at_build, floor, fill, message", [
    (True, 0, 0.5, "observed floors must be >= 1, got 0"),
    (True, 3, 1.5, "observed fills must lie in [0, 1], got 1.5 on floor 3"),
    (True, 2, float("nan"), "observed fills must lie in [0, 1], got nan on floor 2"),
    (True, 2.5, 0.5, "observed floors must be integers, got 2.5"),
    (True, "a", 0.5, "observed floors must be integers, got 'a'"),
    (False, 11, 0.5, "observed floors must lie in [1, 10], got 11"),
    (False, -3, 0.5, "observed floors must lie in [1, 10], got -3"),
    (False, True, 0.5, "observed floors must be integers, got True"),
])
def test_errors_name_the_offending_floor_or_fill(at_build, floor, fill, message):
    # TippState checks its entries when built; plan_parking checks the
    # floors against the garage's N (10 here), those added later too
    with pytest.raises(ValueError) as error:
        if at_build:
            TippState(floor_observations={floor: fill})
        else:
            state = TippState()
            state.floor_observations[floor] = fill
            plan_parking(state, 0, 10, 30, TIMES)
    assert str(error.value) == message


class TestTippDecide:
    @pytest.mark.parametrize("num_levels, capacity", [(0, 30), (10, 0), (10, 2.5)])
    def test_rejects_an_empty_garage_dimension(self, num_levels, capacity):
        with pytest.raises(ValueError, match="must be >= 1"):
            plan_parking(TippState(), 0, num_levels, capacity, TIMES)

    def test_empty_garage_is_the_first_error_with_observations_too(self):
        # observed floor 3 lies outside a 0-floor garage, but the size is checked first
        state = TippState(floor_observations={3: 1.0})
        plan_parking(state, 0, 10, 30, TIMES)  # both memos now hold entries
        with pytest.raises(ValueError, match="num_levels must be >= 1"):
            plan_parking(state, 0, 0, 30, TIMES)

    @pytest.mark.parametrize("capacity", [2.0, np.float64(2.0), True, 0],
                             ids=["2.0", "float64", "True", "0"])
    def test_a_plan_memo_hit_checks_the_capacity_as_a_miss_does(self, capacity):
        # with and without observations, a replan that the memos would answer
        # rejects the capacity that a fresh state rejects
        for observations in ({}, {3: 1.0}):
            with pytest.raises(ValueError, match="capacity must be >= 1 and an integer") as fresh:
                plan_parking(TippState(floor_observations=dict(observations)), 0, 10, capacity,
                             TIMES)
            state = TippState(floor_observations=dict(observations))
            plan_parking(state, 0, 10, 2, TIMES)  # the memos now hold a plan for S = 2
            memos = (state._fit_memo, state._plan_memo)
            with pytest.raises(ValueError) as hit:
                plan_parking(state, 0, 10, capacity, TIMES)
            assert str(hit.value) == str(fresh.value)
            assert state._fit_memo is memos[0] and state._plan_memo is memos[1]
        state = TippState()
        plan_parking(state, 0, 10, 2, TIMES)
        assert plan_parking(state, 0, 10, np.int64(2), TIMES) == plan_parking(
            TippState(), 0, 10, 2, TIMES)

    def _availability(self, temperature):
        q = spot_occupancy_prob(level_energies(10), temperature)
        return level_availability_prob(q, 30)

    def test_no_observations_keeps_prior_and_follows_dp(self):
        state = TippState(temperature_estimate=0.5)
        p = self._availability(0.5)
        _, oracle_itinerary = enumerate_best_itinerary(p, TIMES.t1, TIMES.t2, TIMES.t3)
        assert plan_parking(state, 0, 10, 30, TIMES) == oracle_itinerary[0]
        assert state.temperature_estimate == 0.5

    def test_no_observations_plans_at_the_estimate(self):
        state = TippState(temperature_estimate=0.7)
        for floor in range(10):
            expected = solve_dp(self._availability(0.7), TIMES).action(floor)
            assert plan_parking(state, floor, 10, 30, TIMES) == expected
            assert state.temperature_estimate == 0.7

    def test_the_estimate_becomes_the_fit(self):
        state = TippState(temperature_estimate=0.5, floor_observations={3: 1.0, 7: 0.9})
        energies = level_energies(10)[[2, 6]]
        start = 0.5
        for _ in range(3):  # a fit from 0.5, then memo hits
            expected = fit_temperature(energies, [1.0, 0.9], start).temperature
            plan_parking(state, 0, 10, 30, TIMES)
            assert state.temperature_estimate == expected
            start = expected

    def test_a_failed_plan_leaves_the_estimate(self):
        state = TippState(temperature_estimate=0.5, floor_observations={3: 1.0})
        with pytest.raises(ValueError, match="no action from floor 10"):
            plan_parking(state, 10, 10, 30, TIMES)
        assert state.temperature_estimate == 0.5

    def test_vacant_bottom_floor_pulls_the_estimate_cold(self):
        state = TippState(temperature_estimate=0.5, floor_observations={10: 0.0})
        # the refit lands in the cold regime (fit loss is float-zero there),
        # every floor then looks available, and the nearest floor wins
        assert plan_parking(state, 0, 10, 30, TIMES) == 1
        assert state.temperature_estimate < 0.1
        assert self._availability(state.temperature_estimate).min() > 0.8

    def test_full_from_floor_still_descends(self):
        for floor in (1, 4, 9):
            state = TippState(temperature_estimate=0.5, floor_observations={floor: 1.0})
            assert plan_parking(state, floor, 10, 30, TIMES) > floor

    def test_exhausted_at_bottom(self):
        # no floor lies below the deepest one, so there is no plan from it
        for from_floor in (10, 11, True, 1.0):  # and no floor that is not an integer
            with pytest.raises(ValueError, match=f"no action from floor {from_floor}"):
                plan_parking(TippState(temperature_estimate=0.5), from_floor, 10, 30, TIMES)

    def test_rejects_a_floor_above_the_entrance(self):
        with pytest.raises(ValueError):
            plan_parking(TippState(), -1, 10, 30, TIMES)

    def test_deterministic(self):
        state = TippState(temperature_estimate=0.5,
                          floor_observations={2: 1.0, 6: 0.5})
        a = plan_parking(state, 0, 10, 30, TIMES)
        b = plan_parking(state, 0, 10, 30, TIMES)
        assert a == b

    def test_refit_warm_starts_from_the_estimate(self):
        # a single fractional observation has an exact-fit temperature;
        # the refit must land there regardless of the prior
        state = TippState(temperature_estimate=2.0, floor_observations={5: 0.5})
        plan_parking(state, 0, 10, 30, TIMES)
        energy = level_energies(10)[4]
        expected = energy / np.log(2.0 / 0.5 - 1.0)
        assert state.temperature_estimate == pytest.approx(expected, rel=1e-4)

    @pytest.mark.parametrize("observations, fits", [({}, 0), ({3: 0.5, 7: 1.0}, 1)])
    def test_each_layer_is_called_through_the_planner_module(self, monkeypatch,
                                                            observations, fits):
        # bench/spans.py times these layers by replacing tipp.planner's
        # attributes, so plan_parking must call them through the module
        calls = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in ("fit_temperature", "solve_dp", "spot_occupancy_prob",
                     "level_availability_prob"):
            monkeypatch.setattr(tipp.planner, name, counting(name, getattr(tipp.planner, name)))
        state = TippState(temperature_estimate=0.5, floor_observations=observations)
        plan_parking(state, 0, 10, 30, TIMES)
        assert calls == Counter({"fit_temperature": fits, "solve_dp": 1,
                                 "spot_occupancy_prob": 1, "level_availability_prob": 1})

    def test_fit_and_q_see_the_same_energies(self, monkeypatch):
        # one energy route: the fit reads level_energies(N) at the observed
        # floors, the same array q reads; at N = 41, floor 33's energy is
        # where libm's (f/N)**2 and the numpy square differ by 1 ulp
        seen = {}

        def recording(name, fn):
            def wrapper(energies, *args):
                seen[name] = np.asarray(energies, dtype=float).copy()
                return fn(energies, *args)
            return wrapper

        for name in ("fit_temperature", "spot_occupancy_prob"):
            monkeypatch.setattr(tipp.planner, name, recording(name, getattr(tipp.planner, name)))
        state = TippState(temperature_estimate=0.5, floor_observations={33: 0.6, 5: 0.9})
        plan_parking(state, 0, 41, 30, TIMES)
        q_energies = seen["spot_occupancy_prob"]
        assert q_energies.tobytes() == level_energies(41).tobytes()
        assert seen["fit_temperature"].tobytes() == q_energies[[32, 4]].tobytes()


def fresh(state):
    """A copy of the memory with no memo entries."""
    return TippState(temperature_estimate=state.temperature_estimate,
                     floor_observations=dict(state.floor_observations))


def assert_same_plan(state, other, *args):
    """Plan on both states with the same arguments: the floors, the
    estimates and the memoised solutions must agree to the bit."""
    assert plan_parking(state, *args) == plan_parking(other, *args)
    assert state.temperature_estimate == other.temperature_estimate
    a, b = state._plan_memo[1], other._plan_memo[1]
    assert a.values.tobytes() == b.values.tobytes()
    assert a.actions.tobytes() == b.actions.tobytes()
    assert a.entrance_value == b.entrance_value


class TestPlanMemo:
    """plan_parking's one-entry fit and plan memos on the TippState."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = Counter()
        for name in ("fit_temperature", "solve_dp"):
            def counting(*args, _name=name, _fn=getattr(tipp.planner, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(tipp.planner, name, counting)
        return calls

    def test_unchanged_replan_reuses_the_fit_and_the_solution(self, calls):
        state = TippState(temperature_estimate=0.5, floor_observations={3: 1.0, 7: 0.9})
        plan_parking(state, 0, 10, 30, TIMES)
        solution = state._plan_memo[1]
        # the second plan starts from the fitted T; the fit ended on a fixed
        # point, so its memo answers that start too, and the solution is reused
        plan_parking(state, 0, 10, 30, TIMES)
        assert calls == Counter({"fit_temperature": 1, "solve_dp": 1})
        for floor in (0, 2, 5):
            assert_same_plan(state, fresh(state), floor, 10, 30, TIMES)
        assert state._plan_memo[1] is solution
        # the state hits both memos: one fit and one solve for each fresh copy
        assert calls == Counter({"fit_temperature": 4, "solve_dp": 4})

    @pytest.mark.parametrize("cap", [None, 1])
    @pytest.mark.parametrize("observations, stop_reason", [
        ({3: 1.0, 7: 0.9}, "converged"),
        ({4: 1.0}, "pinned"),
        ({8: 0.4}, "converged"),
        ({2: 0.3}, "converged"),  # its last step was below the resolution
    ])
    def test_only_a_fixed_point_answers_the_replan_from_its_result(
            self, calls, monkeypatch, cap, observations, stop_reason):
        # a fit ends on a fixed point, where a restart from its result
        # would end, unless the cap stopped it
        if cap is not None:
            monkeypatch.setattr(tipp.fitting, "_MAX_ITERATIONS", cap)
            stop_reason = "max_iterations"
        floors = list(observations)
        fit = fit_temperature(level_energies(10)[np.array(floors) - 1],
                              list(observations.values()), 0.5)
        assert fit.stop_reason == stop_reason
        state = TippState(temperature_estimate=0.5, floor_observations=observations)
        plan_parking(state, 0, 10, 30, TIMES)
        assert state.temperature_estimate == fit.temperature
        assert_same_plan(state, fresh(state), 0, 10, 30, TIMES)
        # the state refits only after a fit the cap stopped; the fresh
        # copy always fits
        assert calls["fit_temperature"] == (3 if cap else 2)

    def test_reordered_observations_still_hit_the_fixed_point(self, calls):
        state = TippState(temperature_estimate=0.5, floor_observations={3: 1.0, 7: 0.9})
        plan_parking(state, 0, 10, 30, TIMES)  # a fit that ends on a fixed point
        items = list(state.floor_observations.items())
        state.floor_observations.clear()  # the same dict, filled in reverse order
        state.floor_observations.update(reversed(items))
        # the fit sorts its points, so the order cannot change its result:
        # one fit and one solve for the fresh copy alone
        assert_same_plan(state, fresh(state), 0, 10, 30, TIMES)
        assert calls == Counter({"fit_temperature": 2, "solve_dp": 2})

    def test_direct_edit_of_observations_forces_a_refit(self, calls):
        state = TippState(temperature_estimate=0.5, floor_observations={3: 1.0})
        plan_parking(state, 0, 10, 30, TIMES)
        for edit in ({3: 0.2}, {8: 0.4}):
            state.floor_observations.update(edit)  # in place: the same dict object
            assert_same_plan(state, fresh(state), 0, 10, 30, TIMES)
        assert calls["fit_temperature"] == 5
        # a bad entry added after a good plan is still rejected, never served
        state.floor_observations[11] = 0.5
        with pytest.raises(ValueError, match="observed floors"):
            plan_parking(state, 0, 10, 30, TIMES)

    @pytest.mark.parametrize("start, shape, times, fits, solves", [
        # a new start refits; both fits end pinned at T_MAX, so the
        # solution is reused
        (2.0, (10, 30), TIMES, 3, 2),
        (0.5, (12, 30), TIMES, 3, 3),  # a new N refits: the energies change
        # the first plan's result hits the fixed-point fit; a new S or new
        # times still miss the solution
        (T_MAX, (10, 8), TIMES, 2, 3),
        (T_MAX, (10, 30), TimeConstants(t1=60.0), 2, 3),
    ])
    def test_a_new_start_shape_or_times_misses(self, calls, start, shape, times, fits,
                                               solves):
        state = TippState(temperature_estimate=0.5, floor_observations={4: 1.0})
        plan_parking(state, 0, 10, 30, TIMES)
        assert state.temperature_estimate == T_MAX
        state.temperature_estimate = start
        assert_same_plan(state, fresh(state), 0, *shape, times)
        assert calls == Counter({"fit_temperature": fits, "solve_dp": solves})

    def test_interleaved_states_share_no_entries(self, calls):
        a = TippState(temperature_estimate=0.5, floor_observations={2: 1.0, 5: 0.95})
        b = TippState(temperature_estimate=0.5, floor_observations={2: 0.3})
        for _ in range(2):
            for state in (a, b):
                assert_same_plan(state, fresh(state), 0, 10, 30, TIMES)
        # each state fits and solves once, from 0.5, and keeps its entries
        # across the other's plans, so its second plan hits both memos.
        # Every fresh copy fits and solves once.
        assert calls == Counter({"fit_temperature": 6, "solve_dp": 6})
        memos = (a._fit_memo, a._plan_memo)
        plan_parking(b, 3, 10, 30, TIMES)
        assert a._fit_memo is memos[0] and a._plan_memo is memos[1]
        assert a._plan_memo[1] is not b._plan_memo[1]

    def test_energies_are_built_only_on_a_miss(self, monkeypatch):
        built = []

        def counting(n, _fn=tipp.planner.level_energies):
            built.append(n)
            return _fn(n)
        monkeypatch.setattr(tipp.planner, "level_energies", counting)
        state = TippState(temperature_estimate=0.5, floor_observations={3: 1.0, 7: 0.9})
        plan_parking(state, 0, 10, 30, TIMES)  # a fit and a solve
        assert built == [10, 10]
        plan_parking(state, 0, 10, 30, TIMES)  # a fixed-point fit hit, a solve hit
        assert built == [10, 10]
        for floor in (0, 2, 5):
            assert_same_plan(state, fresh(state), floor, 10, 30, TIMES)
        assert built == [10] * 8  # two for each fresh copy, none for a hit

    def test_memos_stay_out_of_init_repr_and_equality(self):
        used = TippState(floor_observations={2: 1.0})
        plan_parking(used, 0, 10, 30, TIMES)
        unused = fresh(used)
        assert used._fit_memo is not None and unused._fit_memo is None
        assert used == unused
        assert repr(used) == repr(unused) and "memo" not in repr(used)
        with pytest.raises(TypeError):
            TippState(_fit_memo=None)
