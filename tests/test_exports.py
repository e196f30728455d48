import importlib.util
import types
from pathlib import Path

import tipp


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
