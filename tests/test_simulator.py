import copy
import hashlib
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tipp import (
    T_MAX,
    T_MIN,
    Garage,
    PolicyKind,
    TimeConstants,
    TippState,
    level_energies,
    level_fill_count,
    render_ppm,
    render_text,
    run_arrival,
    run_policy_sequence,
    spot_occupancy_prob,
    total_time,
    write_outcomes_csv,
)

import tipp.planner
from tipp.cli import ScenarioConfig, _run_policies
from tipp.simulator import _run_lockstep
from oracles import (
    GridGarage,
    segment_accounting,
    sweep_arrival_reference,
    tipp_sequence_replanned_fresh,
)

TIMES = TimeConstants()

# per-level occupied counts implied by the model, frozen after checking
# against level_fill_count on high-precision q values
COUNTS_T05 = (30, 29, 27, 25, 23, 20, 16, 13, 10, 7)
COUNTS_T01 = (29, 24, 17, 10, 5, 2, 0, 0, 0, 0)
COUNTS_T10 = (30, 29, 29, 28, 26, 25, 23, 21, 18, 16)


def level_counts(garage):
    """Occupied spots per level, floor 1 first."""
    return tuple(int(n) for n in garage.occupancy.sum(axis=1))


def single_free_spot_garage(floor, spot=0, n=10, s=30):
    occ = np.ones((n, s), dtype=bool)
    occ[floor - 1, spot] = False
    return Garage.from_occupancy(occ)


class TestInitFromTemperature:
    @pytest.mark.parametrize("temp,counts", [
        (0.5, COUNTS_T05), (0.1, COUNTS_T01), (1.0, COUNTS_T10),
    ])
    def test_per_level_counts(self, temp, counts):
        garage = Garage.from_temperature(10, 30, temp, seed=0)
        assert level_counts(garage) == counts

    def test_counts_come_from_the_model(self):
        garage = Garage.from_temperature(10, 30, 0.5, seed=5)
        q = spot_occupancy_prob(level_energies(10), 0.5)
        expected = tuple(level_fill_count(float(qi), 30) for qi in q)
        assert level_counts(garage) == expected

    def test_near_minimum_temperature_is_nearly_empty(self):
        garage = Garage.from_temperature(10, 30, 1e-3, seed=0)
        counts = level_counts(garage)
        assert sum(counts[1:]) == 0  # every floor with E above the first

    def test_deterministic_given_seed(self):
        a = Garage.from_temperature(10, 30, 0.5, seed=9)
        b = Garage.from_temperature(10, 30, 0.5, seed=9)
        np.testing.assert_array_equal(a.occupancy, b.occupancy)

    def test_different_seeds_place_spots_differently(self):
        a = Garage.from_temperature(10, 30, 0.5, seed=1)
        b = Garage.from_temperature(10, 30, 0.5, seed=2)
        assert not np.array_equal(a.occupancy, b.occupancy)
        assert level_counts(a) == level_counts(b)

    def test_validation(self):
        with pytest.raises(ValueError):
            Garage.from_temperature(0, 30, 0.5)
        with pytest.raises(ValueError):
            Garage.from_temperature(10, 30, 0.0)
        with pytest.raises(ValueError, match="occupancy must be a 2-D grid"):
            Garage.from_occupancy([True, False])
        with pytest.raises(ValueError, match="capacity_per_level must be >= 1 and an integer"):
            Garage(2, 2.5)
        with pytest.raises(ValueError, match="num_levels must be >= 1 and an integer"):
            Garage.from_temperature(2.0, 30, 0.5)


class TestScanAndPark:
    def test_full_floor_returns_none_and_leaves_grid_alone(self):
        garage = single_free_spot_garage(floor=2)
        before = garage.occupancy.copy()
        assert garage.scan_and_park(1) is None
        np.testing.assert_array_equal(garage.occupancy, before)

    def test_takes_the_lowest_free_index_and_fills_the_floor(self):
        garage = single_free_spot_garage(floor=3, spot=17)
        assert garage.scan_and_park(3) == 17
        assert garage.scan_and_park(3) is None

    def test_successive_cars_get_distinct_spots(self):
        occ = np.ones((2, 4), dtype=bool)
        occ[0, 1] = occ[0, 3] = False
        garage = Garage.from_occupancy(occ)
        first = garage.scan_and_park(1)
        second = garage.scan_and_park(1)
        assert first == 1 and second == 3

    def test_floor_range_checked(self):
        garage = Garage.from_occupancy(np.zeros((2, 2), dtype=bool))
        with pytest.raises(ValueError):
            garage.scan_and_park(0)
        with pytest.raises(ValueError):
            garage.scan_and_park(3)

    @pytest.mark.parametrize("call,floor", [
        ("scan_and_park", True), ("scan_and_park", 1.0), ("level_fill_fraction", 1.5),
        ("level_fill_fraction", np.float64(2.0)),
    ])
    def test_a_floor_that_is_no_integer_is_rejected(self, call, floor):
        garage = Garage.from_temperature(3, 4, 0.5)
        with pytest.raises(ValueError, match=re.escape(f"floor {floor!r} is not an integer "
                                                       "in [1, 3]")):
            getattr(garage, call)(floor)
        assert garage.level_fill_fraction(np.int64(3)) == garage.level_fill_fraction(3)


class TestRenewal:
    def test_no_departures_at_zero_probability(self):
        garage = Garage.from_temperature(10, 30, 0.5, seed=0)
        before = garage.occupancy.copy()
        assert garage.renewal_step(0.0) == 0
        np.testing.assert_array_equal(garage.occupancy, before)

    def test_everyone_leaves_at_probability_one(self):
        garage = Garage.from_temperature(10, 30, 0.5, seed=0)
        occupied = sum(level_counts(garage))
        assert garage.renewal_step(1.0) == occupied
        assert sum(level_counts(garage)) == 0

    def test_mean_departures_match_expectation(self):
        # 200 occupied spots, 250 independent runs, 3-sigma band
        runs = 250
        departures = []
        for seed in range(runs):
            garage = Garage.from_temperature(10, 30, 0.5, seed=seed)
            departures.append(garage.renewal_step(0.3))
        expected = 0.3 * 200
        sigma = np.sqrt(200 * 0.3 * 0.7 / runs)
        assert abs(np.mean(departures) - expected) <= 3 * sigma

    def test_validation(self):
        garage = Garage.from_temperature(2, 2, 0.5, seed=0)
        with pytest.raises(ValueError):
            garage.renewal_step(1.5)

    def test_an_empty_draw_leaves_every_garage_alone(self):
        grid = np.array([[1, 0, 1, 1], [0, 1, 1, 0], [1, 1, 1, 1]], dtype=bool)
        garage = Garage.from_occupancy(grid, seed=5)
        copies = [Garage.from_occupancy(grid, seed=5), Garage.from_occupancy(~grid, seed=6)]
        before = [(g.occupancy.copy(), g.free.copy(), g.rng.bit_generator.state)
                  for g in (garage, *copies)]
        assert garage.renewal_step(1e-12, copies) == 0
        for g, (occupancy, free, state) in zip((garage, *copies), before):
            assert g.occupancy.tobytes() == occupancy.tobytes()
            np.testing.assert_array_equal(g.free, free)
            if g is not garage:
                assert g.rng.bit_generator.state == state
        # the drawer still made its one full draw, so later steps keep the stream
        fresh = np.random.default_rng(5)
        fresh.random(grid.size)
        assert garage.rng.bit_generator.state == fresh.bit_generator.state


class TestSnapshot:
    def test_counts_sum_to_total(self):
        garage = Garage.from_temperature(10, 30, 0.5, seed=0)
        assert sum(level_counts(garage)) == garage.occupancy.sum() == 200


class TestRunArrival:
    def test_benchmark_first_floor_best_case(self):
        garage = single_free_spot_garage(floor=1)
        outcome, state = run_arrival(garage, PolicyKind.BENCHMARK, TIMES)
        assert outcome.elapsed_time == 45.0
        assert outcome.floors_scanned == (1,)
        assert state is None
        assert outcome.temperature_estimate_after is None

    def test_benchmark_full_sweep(self):
        garage = single_free_spot_garage(floor=10)
        outcome, _ = run_arrival(garage, PolicyKind.BENCHMARK, TIMES)
        assert outcome.elapsed_time == 450.0
        assert outcome.floors_scanned == tuple(range(1, 11))

    def test_optimal_single_scan(self):
        garage = single_free_spot_garage(floor=10)
        outcome, _ = run_arrival(garage, PolicyKind.OPTIMAL, TIMES)
        assert outcome.elapsed_time == 180.0
        assert outcome.floors_scanned == (10,)

    def test_inverse_parks_at_bottom_without_backtracking(self):
        garage = single_free_spot_garage(floor=10)
        outcome, _ = run_arrival(garage, PolicyKind.INVERSE, TIMES)
        # one scan, ten floors driven down, ten walked back up
        assert outcome.elapsed_time == 30.0 + 10 * 5.0 + 10 * 10.0

    def test_inverse_climbs_back_up(self):
        garage = single_free_spot_garage(floor=5)
        outcome, _ = run_arrival(garage, PolicyKind.INVERSE, TIMES)
        # scans 10..5 (six scans), drives 10 down + 5 up, walks 5 up
        assert outcome.floors_scanned == (10, 9, 8, 7, 6, 5)
        assert outcome.elapsed_time == 6 * 30.0 + 15 * 5.0 + 5 * 10.0

    def test_tipp_itinerary_is_monotone_and_obeys_the_time_law(self):
        garage = Garage.from_temperature(10, 30, 0.5, seed=0)
        outcome, state = run_arrival(garage, PolicyKind.TIPP, TIMES)
        floors = outcome.floors_scanned
        assert all(a < b for a, b in zip(floors, floors[1:]))
        assert outcome.elapsed_time == total_time(floors, TIMES)
        assert outcome.temperature_estimate_after is not None
        assert state.floor_observations  # the visited floor was recorded

    def test_tipp_observes_fill_before_parking(self):
        # a cold prior makes every floor look available, so the policy
        # goes to floor 1 first and parks there; the car stops planning
        # once it parks, so the park triggers no refit, and the fill it
        # left behind is recorded only for the next car
        garage = single_free_spot_garage(floor=1)
        outcome, state = run_arrival(garage, PolicyKind.TIPP, TIMES,
                                     tipp_state=TippState(temperature_estimate=0.001))
        assert outcome.parked_floor == 1
        assert outcome.temperature_estimate_after == 0.001
        assert state.temperature_estimate == 0.001
        assert state.floor_observations[1] == 30 / 30

    def test_tipp_memory_is_updated_in_place(self):
        # the one free spot is on the bottom floor, so the car scans
        # several full floors and refits after each
        garage = single_free_spot_garage(floor=10)
        memory = TippState(temperature_estimate=0.5)
        outcome, state = run_arrival(garage, PolicyKind.TIPP, TIMES, tipp_state=memory)
        assert state is memory
        assert len(outcome.floors_scanned) > 1
        assert memory.floor_observations == {f: 1.0 for f in outcome.floors_scanned}
        assert memory.temperature_estimate == outcome.temperature_estimate_after
        assert memory.temperature_estimate != 0.5

    @pytest.mark.parametrize("temperature", [0.1, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_tipp_memory_matches_garage_after_every_car(self, temperature, seed):
        # with no departures a floor's fill changes only when a car parks
        # on it, so every remembered fill must equal the garage's own
        garage = Garage.from_temperature(10, 30, temperature, seed=seed)
        state = TippState(temperature_estimate=temperature)
        for car in range(30):
            _, state = run_arrival(garage, PolicyKind.TIPP, TIMES,
                                   tipp_state=state, car_index=car)
            for floor, fill in state.floor_observations.items():
                assert fill == garage.level_fill_fraction(floor), (car, floor)

    @pytest.mark.parametrize("policy", list(PolicyKind))
    def test_exhausted_garage_raises(self, policy):
        # a car that finds no spot is an outcome: no floor, no spot, and
        # t1 per scan plus t3 per floor driven, with no walk
        garage = Garage.from_occupancy(np.ones((3, 4), dtype=bool))
        outcome, _ = run_arrival(garage, policy, TIMES,
                                 tipp_state=TippState(temperature_estimate=0.5), car_index=7)
        floors = {PolicyKind.BENCHMARK: (1, 2, 3), PolicyKind.INVERSE: (3, 2, 1),
                  PolicyKind.OPTIMAL: ()}.get(policy, outcome.floors_scanned)
        assert outcome.floors_scanned == floors
        assert (outcome.car_index, outcome.parked_floor, outcome.spot_index) == (7, None, None)
        driven = sum(abs(b - a) for a, b in zip((0, *floors), floors))
        assert outcome.elapsed_time == len(floors) * TIMES.t1 + driven * TIMES.t3
        if policy is PolicyKind.TIPP:
            assert floors[-1] == 3 and list(floors) == sorted(set(floors))
        assert garage.occupancy.all()

    def test_descending_policies_report_strictly_increasing_floors(self):
        for policy in (PolicyKind.BENCHMARK, PolicyKind.OPTIMAL, PolicyKind.TIPP):
            garage = Garage.from_temperature(10, 30, 0.5, seed=3)
            outcome, _ = run_arrival(garage, policy, TIMES)
            floors = outcome.floors_scanned
            assert all(a < b for a, b in zip(floors, floors[1:]))


class TestRunPolicySequence:
    def test_conservation_one_spot_per_car(self):
        garage = Garage.from_temperature(10, 30, 0.5, seed=0)
        start = sum(level_counts(garage))
        outcomes = run_policy_sequence(garage, PolicyKind.BENCHMARK, 12, TIMES)
        assert sum(level_counts(garage)) == start + len(outcomes) == start + 12

    def test_stops_early_when_exhausted(self):
        # the second car finds the garage full: it and the rest are turned away
        for policy in PolicyKind:
            occ = np.ones((2, 2), dtype=bool)
            occ[1, 0] = False
            garage = Garage.from_occupancy(occ)
            outcomes = run_policy_sequence(garage, policy, 5, TIMES)
            assert [(o.parked_floor, o.spot_index) for o in outcomes] == [(2, 0)], policy

    def test_stranded_car_does_not_end_the_run(self):
        # 10x30 at T=1.0 has 55 free spots; tipp, which only descends,
        # drives past the one on floor 2 and strands car 54 and the rest
        garage = Garage.from_temperature(10, 30, 1.0, seed=0)
        outcomes = run_policy_sequence(garage, PolicyKind.TIPP, 60, TIMES)
        assert [o.car_index for o in outcomes] == list(range(60))
        assert all(o.parked_floor is not None for o in outcomes[:54])
        for o in outcomes[54:]:
            assert (o.parked_floor, o.spot_index) == (None, None)
            assert o.floors_scanned[-1] == 10
            assert o.elapsed_time == len(o.floors_scanned) * TIMES.t1 + 10 * TIMES.t3
        assert garage.lowest_free_floor() == 2

    def test_full_garage_turns_cars_away_and_departures_go_on(self):
        # car 0 meets a full garage and is turned away; the renewal step
        # after it still runs, so the later cars find free spots
        garage = Garage.from_occupancy(np.ones((3, 4), dtype=bool), seed=1)
        outcomes = run_policy_sequence(garage, PolicyKind.BENCHMARK, 10, TIMES,
                                       departure_prob=0.5)
        assert [o.car_index for o in outcomes] == list(range(1, 10))
        assert all(o.parked_floor == 1 for o in outcomes)

    def test_replay_determinism(self):
        for policy in PolicyKind:
            runs = []
            for _ in range(2):
                garage = Garage.from_temperature(10, 30, 0.5, seed=4)
                runs.append(run_policy_sequence(garage, policy, 10, TIMES))
            assert runs[0] == runs[1]

    @pytest.mark.parametrize("policy", list(PolicyKind))
    def test_default_times_are_built_once_per_run(self, monkeypatch, policy):
        built = []
        check = TimeConstants.__post_init__
        monkeypatch.setattr(TimeConstants, "__post_init__",
                            lambda self: (built.append(self), check(self))[1])
        garage = Garage.from_temperature(4, 3, 0.5, seed=0)
        run_policy_sequence(garage, policy, 20, times=None, departure_prob=0.1)
        assert len(built) == 1

    def test_car_indices_sequential(self):
        garage = Garage.from_temperature(10, 30, 0.5, seed=0)
        outcomes = run_policy_sequence(garage, PolicyKind.OPTIMAL, 5, TIMES)
        assert [o.car_index for o in outcomes] == list(range(5))

    def test_renewal_keeps_sequence_running(self):
        occ = np.ones((2, 2), dtype=bool)
        occ[1, 0] = False
        garage = Garage.from_occupancy(occ, seed=11)
        outcomes = run_policy_sequence(garage, PolicyKind.BENCHMARK, 6, TIMES,
                                       departure_prob=1.0)
        assert len(outcomes) == 6  # everyone leaves after each arrival

    @pytest.mark.parametrize("departure_prob", [-0.5, float("nan"), 1.5])
    def test_rejects_departure_prob_before_the_first_car(self, departure_prob):
        garage = Garage.from_temperature(10, 30, 0.5, seed=0)
        before = garage.occupancy.copy()
        with pytest.raises(ValueError, match="departure_prob"):
            run_policy_sequence(garage, PolicyKind.BENCHMARK, 3, TIMES,
                                departure_prob=departure_prob)
        with pytest.raises(ValueError, match="num_cars must be >= 1"):
            run_policy_sequence(garage, PolicyKind.BENCHMARK, 0, TIMES)
        np.testing.assert_array_equal(garage.occupancy, before)

    @pytest.mark.parametrize("temperature, totals", [
        (0.1, {"benchmark": 4140, "inverse": 5400, "optimal": 2280, "tipp": 3480}),
        (0.5, {"benchmark": 6930, "inverse": 5575, "optimal": 3210, "tipp": 4980}),
        (1.0, {"benchmark": 8685, "inverse": 5900, "optimal": 3795, "tipp": 5850}),
    ])
    def test_reference_totals(self, temperature, totals):
        # 10x30, seed 0, 30 cars, default times: cumulative seconds per policy
        for policy in PolicyKind:
            garage = Garage.from_temperature(10, 30, temperature, seed=0)
            outcomes = run_policy_sequence(garage, policy, 30, TIMES)
            assert sum(o.elapsed_time for o in outcomes) == totals[policy.value], policy

    def test_tipp_pin_on_a_deep_garage(self, tmp_path):
        # 50x200, T=1.0, seed 0, 62 cars, default times: the N=50 descent
        # program is re-solved at every full floor.  The total and the
        # rows without temperatures were taken from the full-scan O(N^2)
        # solve_dp and the first-order fit, before the suffix-minimum pass
        # and the Newton fit replaced them; the estimate and the file hash
        # are the Newton fit's.
        garage = Garage.from_temperature(50, 200, 1.0, seed=0)
        outcomes = run_policy_sequence(garage, PolicyKind.TIPP, 62, TIMES)
        assert sum(o.elapsed_time for o in outcomes) == 22755.0
        assert outcomes[-1].temperature_estimate_after == 4.118052306142915
        path = tmp_path / "tipp_percar.csv"
        write_outcomes_csv(path, PolicyKind.TIPP, outcomes)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "3c4f60e3ec66b7df6fababad683d42f7dda0ea6a8135c5fd44db278471e6dda6")
        # every column but temperature_estimate (the last): the itineraries,
        # spots and times, which a change in the fitted temperatures alone must not move
        rows = "".join(line.rsplit(",", 1)[0] + "\n"
                       for line in path.read_text().splitlines())
        assert hashlib.sha256(rows.encode()).hexdigest() == (
            "26bc100600ab43dc2090f04a4e3f03a21faef2d427afadd310adec9ac0f74387")

    @pytest.mark.parametrize("policy, digest", [
        ("benchmark", "c5fcdf8ee3a0104dc911868cc9dc113c5b0cd00e5d36474740c0158280c760d9"),
        ("inverse", "9a4bfcae76ec7db55840063cac0363f7740cc065eb538cf0d274e50f32fa6f5d"),
        ("optimal", "f03e9b9ae3edf2c1c3816eed7a0860f31e8767536650c875feaaf6b7a3dd7f8d"),
        ("tipp", "4548b6600e61122c95e9f87bc19b2131d5001ec883497aa19d1ac62b2a6457cd"),
    ])
    def test_pin_with_departures(self, tmp_path, policy, digest):
        # 20x20, T=0.5, seed 3, 600 cars, one departure per arrival on
        # average: pins renewal's random stream as the mask renewal on the
        # grid alone drew it, before the garage kept per-floor counts
        garage = Garage.from_temperature(20, 20, 0.5, seed=3)
        departure_prob = 1.0 / sum(level_counts(garage))
        assert departure_prob == 1.0 / 277
        outcomes = run_policy_sequence(garage, policy, 600, TIMES,
                                       departure_prob=departure_prob)
        path = tmp_path / "percar.csv"
        write_outcomes_csv(path, policy, outcomes)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_tipp_estimate_evolves_across_cars(self):
        garage = Garage.from_temperature(10, 30, 0.5, seed=0)
        outcomes = run_policy_sequence(garage, PolicyKind.TIPP, 5, TIMES)
        estimates = [o.temperature_estimate_after for o in outcomes]
        assert all(e is not None for e in estimates)
        assert len(set(estimates)) > 1


class TestTippMemo:
    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=1, max_value=40),
           st.floats(min_value=T_MIN, max_value=T_MAX),
           st.integers(min_value=0, max_value=2**32 - 1),
           st.sampled_from([0.0, 0.05]),
           st.integers(min_value=1, max_value=60))
    @settings(max_examples=60, deadline=None)
    # the reference garage at T=1.0 until cars strand: the run where the
    # fixed-point fit memo answers most replans
    @example(10, 30, 1.0, 0, 0.0, 300)
    def test_outcomes_equal_replanning_from_fresh_copies(self, n, s, temperature, seed,
                                                         departure_prob, num_cars):
        # the fit and plan memos on the TippState may only skip work,
        # never change a decision, an estimate or a spot
        garage = Garage.from_temperature(n, s, temperature, seed=seed)
        outcomes = run_policy_sequence(garage, PolicyKind.TIPP, num_cars, TIMES,
                                       departure_prob=departure_prob)
        fresh = Garage.from_temperature(n, s, temperature, seed=seed)
        expected = tipp_sequence_replanned_fresh(fresh, num_cars, TIMES, departure_prob)
        got = [(o.floors_scanned, o.parked_floor, o.spot_index, o.elapsed_time,
                o.temperature_estimate_after) for o in outcomes]
        assert got == expected
        indices = [o.car_index for o in outcomes]  # a gap marks a turned-away car
        assert all(a < b for a, b in zip(indices, indices[1:]))
        assert garage.occupancy.tobytes() == fresh.occupancy.tobytes()

    @pytest.mark.parametrize("n, s, temperatures, num_cars, fits, solves", [
        (10, 30, tuple(k / 10 for k in range(1, 11)), 30, 290, 294),
        (50, 200, (1.0,), 200, 199, 126),
    ], ids=["ref_sweep", "large_closed_loop"])
    def test_memo_traffic_of_the_bench_runs(self, monkeypatch, n, s, temperatures,
                                            num_cars, fits, solves):
        # the tipp runs of the ref_sweep and large_closed_loop bench
        # workloads at seed 0: a lost memo hit shows here as one more call
        calls = Counter()
        for name in ("fit_temperature", "solve_dp"):
            def counting(*args, _name=name, _fn=getattr(tipp.planner, name)):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(tipp.planner, name, counting)
        for temperature in temperatures:
            garage = Garage.from_temperature(n, s, temperature, seed=0)
            run_policy_sequence(garage, PolicyKind.TIPP, num_cars, TIMES)
        assert calls == Counter({"fit_temperature": fits, "solve_dp": solves})


GARAGES = (st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=8),
           st.floats(min_value=T_MIN, max_value=T_MAX),
           st.integers(min_value=0, max_value=2**32 - 1))


class TestUnplacedCars:
    """A car that finds no spot is stranded, or turned away once the garage is full."""

    @given(*GARAGES, st.sampled_from([0.0, 0.05]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_every_car_is_parked_stranded_or_turned_away(self, n, s, temperature, seed,
                                                         departure_prob, data):
        num_cars = data.draw(st.integers(min_value=1, max_value=3 * n * s))
        for policy in (PolicyKind.BENCHMARK, PolicyKind.OPTIMAL, PolicyKind.TIPP):
            garage = Garage.from_temperature(n, s, temperature, seed=seed)
            outcomes = run_policy_sequence(garage, policy, num_cars, TIMES,
                                           departure_prob=departure_prob)
            parked = [o for o in outcomes if o.parked_floor is not None]
            stranded = [o for o in outcomes if o.parked_floor is None]
            turned_away = num_cars - len(outcomes)
            assert len(parked) + len(stranded) + turned_away == num_cars
            indices = [o.car_index for o in outcomes]
            assert all(a < b for a, b in zip(indices, indices[1:]))
            # replay car by car: a car is missing exactly when it met a full grid
            replay = Garage.from_temperature(n, s, temperature, seed=seed)
            recorded, state = dict(zip(indices, outcomes)), None
            for car in range(num_cars):
                if car in recorded:
                    assert not replay.occupancy.all(), (policy, car)
                    outcome, state = run_arrival(replay, policy, TIMES, tipp_state=state,
                                                 car_index=car)
                    assert outcome == recorded[car], (policy, car)
                else:
                    assert replay.occupancy.all(), (policy, car)
                if departure_prob > 0.0:
                    replay.renewal_step(departure_prob)
            assert replay.occupancy.tobytes() == garage.occupancy.tobytes()
            for o in outcomes:
                floors = o.floors_scanned
                assert all(a < b for a, b in zip(floors, floors[1:])), (policy, o)
            for o in parked:
                assert o.parked_floor == o.floors_scanned[-1]
                assert o.elapsed_time == segment_accounting(o.floors_scanned, TIMES.t1,
                                                            TIMES.t2, TIMES.t3)
            for o in stranded:
                # only the descent-only closed loop can pass a free spot by
                assert policy is PolicyKind.TIPP and o.floors_scanned[-1] == n
                assert o.elapsed_time == len(o.floors_scanned) * TIMES.t1 + n * TIMES.t3
        fresh = Garage.from_temperature(n, s, temperature, seed=seed)
        expected = tipp_sequence_replanned_fresh(fresh, num_cars, TIMES, departure_prob)
        assert [(o.floors_scanned, o.parked_floor, o.spot_index, o.elapsed_time,
                 o.temperature_estimate_after) for o in outcomes] == expected
        assert garage.occupancy.tobytes() == fresh.occupancy.tobytes()

    @given(*GARAGES, st.data())
    @settings(max_examples=40, deadline=None)
    def test_tipp_memory_equals_the_grid_fills(self, n, s, temperature, seed, data):
        # without departures a fill changes only when a car parks on the
        # floor, and stranded cars keep recording what they scan
        num_cars = data.draw(st.integers(min_value=1, max_value=3 * n * s))
        garage = Garage.from_temperature(n, s, temperature, seed=seed)
        state = None
        for car in range(num_cars):
            _, state = run_arrival(garage, PolicyKind.TIPP, TIMES, tipp_state=state,
                                   car_index=car)
            for floor, fill in state.floor_observations.items():
                assert fill == garage.level_fill_fraction(floor), (car, floor)


class TestLockstep:
    """Policies run in lockstep against each run alone on its own copy."""

    @given(*GARAGES, st.sampled_from([0.0, 0.05, 0.5, 1.0]), st.integers(1, 3 * 12 * 8),
           st.lists(st.sampled_from([PolicyKind.BENCHMARK, PolicyKind.INVERSE,
                                     PolicyKind.OPTIMAL]), unique=True),
           st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2))
    # a full garage turns cars away between departures
    @example(3, 4, 10.0, 0, 0.5, 36, [PolicyKind.OPTIMAL, PolicyKind.BENCHMARK], 1, 0)
    # dense departures on a large grid: every deep copy vacates through its own grid
    @example(30, 30, 1.0, 0, 0.5, 120, [PolicyKind.BENCHMARK, PolicyKind.INVERSE], 2, 0)
    @settings(max_examples=60, deadline=None)
    def test_lockstep_equals_separate_runs(self, n, s, temperature, seed, departure_prob,
                                           num_cars, others, tipp_at, steps):
        policies = [*others]
        policies.insert(tipp_at, PolicyKind.TIPP)
        # renewal steps before the run move the grid and the generator
        # away from the built state, as a library caller's garage may be
        template = Garage.from_temperature(n, s, temperature, seed=seed)
        for _ in range(steps):
            template.renewal_step(0.3)
        # the oracle: each policy alone on a deep copy, generator included
        alone = [copy.deepcopy(template) for _ in policies]
        expected = [run_policy_sequence(garage, policy, num_cars, TIMES, departure_prob)
                    for garage, policy in zip(alone, policies)]
        garage = copy.deepcopy(template)
        assert _run_lockstep(garage, policies, num_cars, TIMES, departure_prob) == expected
        # the first policy runs on the drawing garage itself; the other
        # policies' garages are the lockstep's own copies
        assert garage.occupancy.tobytes() == alone[0].occupancy.tobytes()
        np.testing.assert_array_equal(garage.free, alone[0].free)
        for lot in (garage, *alone):  # the free counts follow each grid's own vacates
            np.testing.assert_array_equal(lot.free, s - lot.occupancy.sum(axis=1))
        if not steps:  # the CLI runs on a garage as built
            config = ScenarioConfig(num_levels=n, capacity_per_level=s, temperature=temperature,
                                    num_cars=num_cars, times=TIMES, policies=tuple(policies),
                                    seed=seed, departure_prob=departure_prob)
            assert [run[1] for run in _run_policies(config)] == expected

    def test_copies_vacate_what_the_drawing_garage_draws(self):
        full = np.ones((3, 4), dtype=bool)
        garage, copies = Garage.from_occupancy(full, seed=2), [Garage.from_occupancy(full)]
        copies.append(Garage.from_occupancy(np.zeros((3, 4), dtype=bool)))
        alone = Garage.from_occupancy(full, seed=2)
        assert garage.renewal_step(0.5, copies) == alone.renewal_step(0.5) > 0
        assert copies[0].occupancy.tobytes() == alone.occupancy.tobytes()
        np.testing.assert_array_equal(copies[0].free, alone.free)
        assert not copies[1].occupancy.any() and list(copies[1].free) == [4, 4, 4]

    @pytest.mark.parametrize("shape", [(3, 1), (1, 4), (6, 4), (2, 6)])
    def test_a_copy_of_another_shape_is_rejected_before_the_draw(self, shape):
        full = np.ones((3, 4), dtype=bool)
        garage = Garage.from_occupancy(full, seed=2)
        copies = [Garage.from_occupancy(full), Garage.from_occupancy(np.ones(shape, dtype=bool))]
        with pytest.raises(ValueError, match=re.escape(f"{shape} cannot share the draw of "
                                                       "one of shape (3, 4)")):
            garage.renewal_step(1.0, copies)
        # no garage vacated, and the drawer's generator not advanced
        for g in (garage, *copies):
            assert g.occupancy.all() and not g.free.any()
        fresh = Garage.from_occupancy(full, seed=2)
        assert garage.renewal_step(0.5) == fresh.renewal_step(0.5)
        assert garage.occupancy.tobytes() == fresh.occupancy.tobytes()


@st.composite
def garage_specs(draw):
    """(N, S, grid or None, temperature, seed) for a small garage."""
    n = draw(st.integers(min_value=1, max_value=12))
    s = draw(st.integers(min_value=1, max_value=8))
    cells = st.lists(st.booleans(), min_size=s, max_size=s)
    grid = draw(st.none() | st.lists(cells, min_size=n, max_size=n))
    return (n, s, grid, draw(st.floats(min_value=T_MIN, max_value=T_MAX)),
            draw(st.integers(min_value=0, max_value=2**32 - 1)))


class TestFreeCounts:
    """The per-floor free counts against a garage kept on its grid alone."""

    @given(garage_specs(), st.sampled_from([0.0, 0.05, 1.0]),
           st.lists(st.integers(min_value=0, max_value=12), max_size=60))
    @example((1, 1, None, 0.5, 0), 0.05, [1, 1, 0, 1, 0, 0, 1])
    @example((1, 1, [[True]], 0.5, 0), 1.0, [1, 0, 1, 1, 0])
    @settings(max_examples=200, deadline=None)
    def test_counts_follow_the_grid(self, spec, departure_prob, ops):
        # op 0 is a renewal step, op k > 0 parks a car on floor (k - 1) % N + 1
        n, s, grid, temperature, seed = spec
        if grid is None:
            garage = Garage.from_temperature(n, s, temperature, seed=seed)
            reference = GridGarage.from_temperature(n, s, temperature, seed)
        else:
            garage = Garage.from_occupancy(grid, seed=seed)
            reference = GridGarage(grid, seed)
        for op in [None, *ops]:
            if op == 0:
                assert garage.renewal_step(departure_prob) == reference.renewal_step(
                    departure_prob)
            elif op is not None:
                floor = (op - 1) % n + 1
                assert garage.scan_and_park(floor) == reference.scan_and_park(floor)
            assert garage.occupancy.tobytes() == reference.occupancy.tobytes()
            np.testing.assert_array_equal(garage.free, s - garage.occupancy.sum(axis=1))
            assert garage.lowest_free_floor() == reference.lowest_free_floor()
            for floor in range(1, n + 1):
                assert garage.level_fill_fraction(floor) == (
                    reference.level_occupied_count(floor) / s)


@st.composite
def sweep_grids(draw):
    """An N x S grid, N <= 10 and S <= 6, whose floors are each full,
    empty or random."""
    n = draw(st.integers(min_value=1, max_value=10))
    s = draw(st.integers(min_value=1, max_value=6))
    kind = st.sampled_from(["full", "empty", "random"])
    rows = []
    for kind_of_row in draw(st.lists(kind, min_size=n, max_size=n)):
        if kind_of_row == "random":
            rows.append(draw(st.lists(st.booleans(), min_size=s, max_size=s)))
        else:
            rows.append([kind_of_row == "full"] * s)
    return rows


class TestSweepItinerary:
    """A sweep's floors, read off the free counts, against a scan of each floor."""

    @given(sweep_grids(), st.sampled_from([PolicyKind.BENCHMARK, PolicyKind.INVERSE,
                                           PolicyKind.OPTIMAL]),
           st.integers(min_value=1, max_value=12), st.floats(0.5, 60.0), st.floats(0.5, 60.0),
           st.floats(0.5, 60.0))
    @example([[True]], PolicyKind.BENCHMARK, 2, 30.0, 10.0, 5.0)
    @example([[False]], PolicyKind.INVERSE, 2, 30.0, 10.0, 5.0)
    @example([[True, True]] * 3, PolicyKind.INVERSE, 1, 30.0, 10.0, 5.0)
    @example([[True, True]] * 3, PolicyKind.OPTIMAL, 1, 30.0, 10.0, 5.0)
    @example([[True], [False], [True], [False]], PolicyKind.BENCHMARK, 3, 30.0, 10.0, 5.0)
    # long itineraries: 60 full floors passed, and 100-floor strandings
    @example([[True, True]] * 60 + [[False, True]] * 40, PolicyKind.BENCHMARK, 3, 30.0, 10.0, 5.0)
    @example([[True, False]] * 39 + [[True, True]] * 61, PolicyKind.INVERSE, 2, 30.0, 10.0, 5.0)
    @example([[True]] * 100, PolicyKind.BENCHMARK, 2, 30.0, 10.0, 5.0)
    @example([[True]] * 100, PolicyKind.INVERSE, 2, 30.0, 10.0, 5.0)
    @settings(max_examples=200, deadline=None)
    def test_equals_a_scan_of_every_floor(self, grid, policy, num_cars, t1, t2, t3):
        # cars one after another, on past a full garage, where each is stranded
        times = TimeConstants(t1, t2, t3)
        garage, reference = Garage.from_occupancy(grid), GridGarage(grid, 0)
        for car in range(num_cars):
            outcome, state = run_arrival(garage, policy, times, car_index=car)
            expected = sweep_arrival_reference(reference, policy.value, times)
            assert state is None and outcome.car_index == car
            assert (outcome.floors_scanned, outcome.parked_floor, outcome.spot_index,
                    outcome.elapsed_time) == expected
            assert all(type(f) is int for f in outcome.floors_scanned)
            assert outcome.temperature_estimate_after is None
            assert garage.occupancy.tobytes() == reference.occupancy.tobytes()
            np.testing.assert_array_equal(garage.free, len(grid[0]) - reference.occupancy.sum(1))


class TestSingleCarDominance:
    def test_optimal_never_loses_from_any_state(self):
        rng = np.random.default_rng(6)
        for trial in range(25):
            density = rng.uniform(0.2, 0.98)
            grid = rng.random((10, 30)) < density
            if grid.all():
                grid[rng.integers(10), rng.integers(30)] = False
            prior = float(rng.uniform(0.05, 2.0))
            results = {}
            for policy in PolicyKind:
                garage = Garage.from_occupancy(grid)
                outcome, _ = run_arrival(garage, policy, TIMES,
                                         tipp_state=TippState(temperature_estimate=prior))
                results[policy] = outcome.elapsed_time
            assert results[PolicyKind.OPTIMAL] == min(results.values())


class TestRendering:
    def test_text_grid_shape_and_glyphs(self):
        garage = Garage.from_temperature(10, 30, 0.5, seed=0)
        rows = render_text(garage).splitlines()
        assert len(rows) == 10
        assert all(len(r) == 30 for r in rows)
        assert rows[0] == "#" * 30          # level 1 is full at T=0.5
        assert rows[9].count("#") == 7      # level 10 holds 7 cars

    def test_text_matches_occupancy(self):
        garage = Garage.from_occupancy(np.array([[True, False], [False, True]]))
        assert render_text(garage) == "#.\n.#\n"

    def test_ppm_header_and_palette(self):
        garage = Garage.from_occupancy(np.array([[True, False]]))
        data = render_ppm(garage).decode("ascii")
        lines = data.splitlines()
        assert lines[0] == "P3 16 8 255"  # 8 pixels a spot
        assert lines[1:] == [" ".join(["255 0 0"] * 8 + ["255 255 255"] * 8)] * 8

    def test_ppm_deterministic(self):
        a = render_ppm(Garage.from_temperature(10, 30, 0.5, seed=0))
        b = render_ppm(Garage.from_temperature(10, 30, 0.5, seed=0))
        assert a == b


class TestOutcomeCsv:
    HEADER = ("car_index,policy,floors_scanned,parked_floor,spot_index,"
              "elapsed_seconds,cumulative_seconds,temperature_estimate")

    def test_schema_and_cumulative_column(self, tmp_path):
        garage = Garage.from_temperature(10, 30, 0.5, seed=0)
        outcomes = run_policy_sequence(garage, PolicyKind.BENCHMARK, 4, TIMES)
        path = tmp_path / "bench.csv"
        write_outcomes_csv(path, PolicyKind.BENCHMARK, outcomes)
        lines = path.read_text().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 5
        running = 0.0
        for line, outcome in zip(lines[1:], outcomes):
            fields = line.split(",")
            running += outcome.elapsed_time
            assert fields[1] == "benchmark"
            assert float(fields[6]) == running
            assert fields[7] == ""  # no temperature column for benchmark

    def test_multi_floor_itineraries_use_pipes(self, tmp_path):
        garage = single_free_spot_garage(floor=3)
        outcome, _ = run_arrival(garage, PolicyKind.BENCHMARK, TIMES)
        path = tmp_path / "one.csv"
        write_outcomes_csv(path, PolicyKind.BENCHMARK, [outcome])
        assert path.read_text().splitlines()[1].split(",")[2] == "1|2|3"

    def test_tipp_rows_carry_the_estimate(self, tmp_path):
        garage = Garage.from_temperature(10, 30, 0.5, seed=0)
        outcomes = run_policy_sequence(garage, PolicyKind.TIPP, 2, TIMES)
        path = tmp_path / "tipp.csv"
        write_outcomes_csv(path, PolicyKind.TIPP, outcomes)
        for line in path.read_text().splitlines()[1:]:
            assert line.split(",")[7] != ""
