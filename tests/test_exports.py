import types

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
        "DpSolution", "TimeConstants", "TippPlan", "TippState",
        "plan_parking", "solve_dp", "total_time",
        "ArrivalOutcome", "Garage", "PolicyKind", "render_ppm", "render_text", "run_arrival",
        "run_policy_sequence", "write_outcomes_csv",
    }
