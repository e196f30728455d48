import ast
import importlib.util
import types
from collections import Counter
from pathlib import Path

import tipp
import tipp.cli


def test_public_exports_are_pinned():
    # every export is design cost: adding or removing one must show up here
    names = {name for name, value in vars(tipp).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert names == {
        "T_MAX", "T_MIN", "level_availability_prob", "level_energies", "level_fill_count",
        "spot_occupancy_prob",
        "FitResult", "LotSurvey", "SampleEfficiencyPoint", "fit_temperature", "load_survey",
        "mse_loss", "sample_efficiency_curve", "save_survey", "survey_to_observations",
        "synthetic_survey",
        "DpSolution", "TimeConstants", "TippState",
        "plan_parking", "solve_dp", "total_time",
        "ArrivalOutcome", "Garage", "PolicyKind", "render_ppm", "render_text", "run_arrival",
        "run_policy_sequence", "write_outcomes_csv",
    }


def own_integer_tests(source: str) -> list[int]:
    """Lines of ``source`` that test ``np.integer`` or ``type(x) is int`` themselves."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "integer"
                or isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops)
                and any(isinstance(side, ast.Name) and side.id == "int"
                        for side in (node.left, *node.comparators))):
            lines.append(node.lineno)
    return lines


def test_the_integer_rule_lives_only_in_model():
    # every floor, count and seed check goes through model._is_int_in, so a
    # module that tests integer types itself has grown a second rule
    assert own_integer_tests("ok = np.integer\nkind is int") == [1, 2]
    found = {path.name: own_integer_tests(path.read_text())
             for path in Path(tipp.__file__).parent.glob("*.py") if path.name != "model.py"}
    assert found and not any(found.values()), found


def test_every_bench_patch_point_resolves():
    # the traced bench replaces these attributes by name; a call site that
    # moves would otherwise surface only as a KeyError in a traced run
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, attr, _ in spans.PATCHES:
        assert attr in importlib.import_module(module).__dict__, (module, attr)
    for method, _ in spans.GARAGE_PATCHES:
        assert method in tipp.simulator.Garage.__dict__, method


def test_every_closed_loop_fit_goes_through_the_patched_name(monkeypatch):
    # the bench counts closed-loop fits by wrapping tipp.planner.fit_temperature;
    # every fit sorts its observations once, so a fit made any other way
    # shows up as a sort the wrapper did not see
    calls = Counter()

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(tipp.planner, "fit_temperature")
    counting(tipp.fitting, "_sorted_observations")
    garage = tipp.Garage.from_temperature(10, 30, 1.0, seed=0)
    tipp.run_policy_sequence(garage, tipp.PolicyKind.TIPP, 60)
    assert calls["fit_temperature"] == calls["_sorted_observations"] > 0


#: 6 x 5 at T=1.0 fills up within 40 cars: the sweeps turn cars away and
#: tipp strands some, which the exit status reports.
STRANDING_RUN = ["simulate", "--num-levels", "6", "--capacity-per-level", "5",
                 "--temperature", "1.0", "--num-cars", "40", "--departure-prob", "0.02",
                 "--policies", "benchmark,inverse,optimal,tipp", "--seed", "1"]


def test_every_replan_goes_through_the_patched_name(monkeypatch, tmp_path):
    # the bench counts replans by wrapping tipp.simulator.plan_parking; the
    # closed loop plans once before each floor it scans, so a plan made any
    # other way shows up as a scanned floor the wrapper did not see
    calls = Counter()
    plan_parking = tipp.simulator.plan_parking

    def counting(*args, **kwargs):
        calls["plan_parking"] += 1
        return plan_parking(*args, **kwargs)

    monkeypatch.setattr(tipp.simulator, "plan_parking", counting)
    garage = tipp.Garage.from_temperature(10, 30, 1.0, seed=0)
    outcomes = tipp.run_policy_sequence(garage, tipp.PolicyKind.TIPP, 60)
    # some cars replan from a full floor, and some strand after floor N
    assert calls["plan_parking"] == sum(len(o.floors_scanned) for o in outcomes) > len(outcomes)
    calls.clear()
    assert tipp.cli.main([*STRANDING_RUN, "--out", str(tmp_path)]) == tipp.cli.EXIT_SIMULATION
    rows = (tmp_path / "tipp_percar.csv").read_text().splitlines()[1:]
    scanned = sum(len(row.split(",")[2].split("|")) for row in rows)
    assert calls["plan_parking"] == scanned > 0


def test_every_simulated_car_goes_through_the_patched_name(monkeypatch, tmp_path):
    # the untraced bench counts placed and stranded cars by wrapping
    # tipp.simulator.run_arrival; a car placed any other way would show up
    # there only as a failure, so here it is a row the wrapper did not see
    calls = Counter()
    run_arrival = tipp.simulator.run_arrival

    def counting(garage, policy, *args, **kwargs):
        calls[tipp.PolicyKind(policy).value] += 1
        return run_arrival(garage, policy, *args, **kwargs)

    monkeypatch.setattr(tipp.simulator, "run_arrival", counting)
    assert tipp.cli.main([*STRANDING_RUN, "--out", str(tmp_path)]) == tipp.cli.EXIT_SIMULATION
    rows = {path.name.removesuffix("_percar.csv"): len(path.read_text().splitlines()) - 1
            for path in tmp_path.glob("*_percar.csv")}
    assert rows == dict(calls) and set(rows) == {"benchmark", "inverse", "optimal", "tipp"}
    assert sum(rows.values()) < 4 * 40


def test_every_sweep_car_scans_once_through_the_patched_name(monkeypatch, tmp_path):
    # the bench counts scans by wrapping Garage.scan_and_park; a sweep car
    # reads its floors off the free counts and scans only where it parks,
    # so a churn run makes exactly one call per car of each sweep
    calls = Counter()
    scan_and_park = tipp.simulator.Garage.scan_and_park

    def counting(self, floor):
        calls["scan_and_park"] += 1
        return scan_and_park(self, floor)

    monkeypatch.setattr(tipp.simulator.Garage, "scan_and_park", counting)
    argv = ["simulate", "--num-levels", "10", "--capacity-per-level", "10", "--temperature",
            "0.5", "--num-cars", "200", "--departure-prob", "0.02",
            "--policies", "benchmark,inverse,optimal", "--seed", "3", "--out", str(tmp_path)]
    assert tipp.cli.main(argv) == 0
    rows = [len(path.read_text().splitlines()) - 1 for path in tmp_path.glob("*_percar.csv")]
    assert len(rows) == 3 and calls["scan_and_park"] == sum(rows) == 3 * 200
