"""Self-tests of the bench's own logic: checks, span accounting, tail choice.

    python3 -m pytest bench -q
"""

import json

import pytest

import calib
import checks
import env
import measure
import spans

tipp = env.import_tipp()
TIMES = (30.0, 10.0, 5.0)


@pytest.fixture
def simulated(tmp_path):
    out = tmp_path / "run"
    argv = ["simulate", "--num-cars", "8", "--seed", "3", "--out", str(out),
            "--t1", "30", "--t2", "10", "--t3", "5"]
    assert tipp.cli.main(argv) == 0
    return out


POLICIES = ("benchmark", "inverse", "optimal", "tipp")


def _edit_row(path, row_index, column, value):
    lines = path.read_text().splitlines()
    cells = lines[row_index].split(",")
    cells[column] = value
    lines[row_index] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_untampered_simulate_passes(simulated):
    summary = checks.check_simulate(simulated, POLICIES, TIMES)
    assert summary["optimal"]["total_time"] <= summary["tipp"]["total_time"]


@pytest.mark.parametrize("policy", POLICIES)
def test_checker_rejects_tampered_elapsed(simulated, policy):
    path = simulated / f"{policy}_percar.csv"
    elapsed = float(path.read_text().splitlines()[3].split(",")[5])
    _edit_row(path, 3, 5, f"{elapsed + 5:.6f}")
    with pytest.raises(checks.CheckError, match="segment accounting"):
        checks.check_simulate(simulated, POLICIES, TIMES)


def test_checker_rejects_tampered_itinerary(simulated):
    path = simulated / "inverse_percar.csv"
    floors = path.read_text().splitlines()[1].split(",")[2]
    _edit_row(path, 1, 2, "1|" + floors)
    with pytest.raises(checks.CheckError, match="segment accounting"):
        checks.check_simulate(simulated, POLICIES, TIMES)


def test_checker_rejects_summary_not_matching_rows(simulated):
    path = simulated / "summary.json"
    summary = json.loads(path.read_text())
    summary[0]["total_time"] += 30.0
    path.write_text(json.dumps(summary))
    with pytest.raises(checks.CheckError, match="sum of per-car rows"):
        checks.check_simulate(simulated, POLICIES, TIMES)


def test_checker_rejects_optimal_slower_than_a_sweep():
    with pytest.raises(checks.CheckError, match="optimal"):
        checks.check_optimal_first({"optimal": 500.0, "benchmark": 400.0}, "sweep.csv")


def test_segment_time_of_an_inverse_sweep():
    # down 10 floors, scan 10, 9, 8, park on 8: 3 scans, 12 floors driven, 8 walked
    assert checks.segment_time([10, 9, 8], *TIMES) == 3 * 30 + 12 * 5 + 8 * 10


def test_self_time_of_a_hand_built_tree():
    #   a [0, 10]
    #   +- b [1, 4]
    #   |  +- c [2, 3]
    #   +- b [5, 9]
    tree = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 9.0, 0)]
    times = spans.self_times(tree)
    assert times["a"] == (1, 10.0, 3.0)
    assert times["b"] == (2, 7.0, 6.0)
    assert times["c"] == (1, 1.0, 1.0)
    assert sum(own for _, _, own in times.values()) == 10.0


def test_recorder_nests_spans_and_gives_cars_their_children():
    recorder = spans.SpanRecorder()
    leaf = recorder.wrap("leaf", lambda: None)
    car = recorder.wrap("car", lambda: leaf(), new_car=True)
    root = recorder.wrap("root", lambda: [car(), car(), leaf()])
    root()
    rows = list(recorder.spans())
    assert [(name, parent, car_id) for name, _, _, parent, car_id in rows] == [
        ("root", -1, -1), ("car", 0, 0), ("leaf", 1, 0), ("car", 0, 1), ("leaf", 3, 1),
        ("leaf", 0, -1)]
    times = recorder.self_times()
    root_span = rows[0]
    assert sum(own for _, _, own in times.values()) == pytest.approx(root_span[2] - root_span[1])


def test_traced_run_leaves_outputs_and_call_sites_unchanged(tmp_path):
    argv = ["simulate", "--num-cars", "5", "--seed", "1", "--temperature", "1.0"]
    assert tipp.cli.main([*argv, "--out", str(tmp_path / "plain")]) == 0
    original = tipp.planner.fit_temperature
    arrivals = []
    with spans.traced(tipp, arrivals) as recorder:
        assert tipp.cli.main([*argv, "--out", str(tmp_path / "traced")]) == 0
    assert tipp.planner.fit_temperature is original
    assert checks.hash_tree(tmp_path / "plain") == checks.hash_tree(tmp_path / "traced")
    assert len(arrivals) == 5 * 4
    times = recorder.self_times()
    assert times["planner.plan"][0] == times["planner.dp"][0] > 0
    assert recorder.counters["simulator.arrival.tipp"] == 5


@pytest.mark.parametrize("samples, percentile", [
    (10, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (199, 90.0),
    (200, 95.0), (300, 95.0), (1000, 99.0), (9999, 99.0), (10_000, 99.9),
    (15_000, 99.9), (100_000, 99.99),
])
def test_tail_percentile_follows_the_sample_count(samples, percentile):
    assert measure.tail_percentile(samples) == percentile


def test_reference_seconds_scale_with_the_loop_beside_them():
    assert calib.reference_s(1.5, calib.REFERENCE_S) == pytest.approx(1.5)
    # the machine ran at half speed: the loop and the work both took twice as long
    assert calib.reference_s(3.0, 2 * calib.REFERENCE_S) == pytest.approx(1.5)
    assert calib.loop_s() > 0


def test_benchmark_json_names_metrics_the_bench_reports():
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    for metric in spec["end_to_end"]:
        assert (metric["unit"], metric["better"]) == measure.END_TO_END[metric["name"]]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.LAYER_UNITS
