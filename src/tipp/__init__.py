"""Temperature-informed parking: occupancy model, descent planner, simulator."""

from .fitting import (
    FitResult,
    LotSurvey,
    SampleEfficiencyPoint,
    fit_temperature,
    load_survey,
    mse_loss,
    sample_efficiency_curve,
    save_survey,
    survey_to_observations,
    synthetic_survey,
)
from .model import (
    T_MAX,
    T_MIN,
    level_availability_prob,
    level_energies,
    level_fill_count,
    spot_occupancy_prob,
)
from .planner import (
    DpSolution,
    TimeConstants,
    TippPlan,
    TippState,
    plan_parking,
    solve_dp,
    total_time,
)
from .simulator import (
    ArrivalOutcome,
    Garage,
    PolicyKind,
    render_ppm,
    render_text,
    run_arrival,
    run_policy_sequence,
    write_outcomes_csv,
)

__version__ = "0.1.0"
