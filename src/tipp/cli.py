"""Command-line experiment runner.

Verbs: ``simulate`` (four-policy comparison on one garage), ``sweep``
(simulate across temperatures), ``fit`` (estimate a lot's temperature
from a survey CSV), ``sample-curve`` (subset-fit sample-efficiency
curve), ``render`` (text + PPM pictures of the initialized garage).

Every command is a pure function of (config, input files): re-running
with the same configuration and seed reproduces outputs byte for byte.
The scenario schema is the fields of ``ScenarioConfig`` (``times`` those
of ``TimeConstants``): a JSON file (--config) may set any field, typed
by its annotation.  A verb's flags are derived from the fields it reads:
``--`` and the name with '-' for '_', of the field's type if int or float.
Defaults, then file, then flags make one config, and a verb is
one function of ``(config, args)``.  Exit codes: 0 success, 2
config/usage error, 3 a car was stranded or turned away (stderr names
each policy's first such car).
"""

import argparse
import json
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

from .fitting import (
    _plain_number,
    fit_temperature,
    load_survey,
    sample_efficiency_curve,
    survey_to_observations,
)
from .model import _check_temperature, _is_int_in
from .planner import TimeConstants
from .simulator import (
    Garage,
    PolicyKind,
    _run_lockstep,
    render_ppm,
    render_text,
    write_outcomes_csv,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SIMULATION = 3

ALL_POLICIES = tuple(PolicyKind)


@dataclass(frozen=True)
class ScenarioConfig:
    """One scenario, which parses its own policies and times; defaults match
    the reference experiment (10 levels x 30 spots, temperature 0.5, 30 cars)."""

    num_levels: int = 10
    capacity_per_level: int = 30
    temperature: float = 0.5
    num_cars: int = 30
    times: TimeConstants = field(default_factory=TimeConstants)
    initial_temperature: float = 0.5  # the temperature the fit verbs start from
    policies: tuple = ALL_POLICIES
    seed: int = 0
    departure_prob: float = 0.0
    output_dir: str = "results"

    def __post_init__(self):
        object.__setattr__(self, "policies", _parse_policies(self.policies))
        if isinstance(self.times, dict):
            for key in self.times:
                if key not in TimeConstants.__dataclass_fields__:
                    raise ValueError(f"times has no field {key!r}")
            object.__setattr__(self, "times", TimeConstants(**self.times))
        for name, value, lo in (("garage dimensions", self.num_levels, 1),
                                ("garage dimensions", self.capacity_per_level, 1),
                                ("num_cars", self.num_cars, 1), ("seed", self.seed, 0)):
            if not _is_int_in(value, lo):  # an integer out of range reads as the flag's error
                detail = "" if _is_int_in(value) else f" and an integer, got {value!r}"
                raise ValueError(f"{name} must be >= {lo}{detail}")
        try:  # a str or None is no probability; a bool is refused as one
            valid = type(self.departure_prob) is not bool and 0.0 <= self.departure_prob <= 1.0
        except TypeError:
            valid = False
        if not valid:
            raise ValueError("departure_prob must lie in [0, 1]")
        _check_temperature(self.temperature, "temperature")
        _check_temperature(self.initial_temperature, "initial_temperature")
        t = self.times  # a car takes at most N (t1 + t2 + 2 t3): N floors each way
        if self.num_cars * self.num_levels >= sys.float_info.max / (t.t1 + t.t2 + 2 * t.t3):
            raise ValueError(f"times too large: {self.num_cars} cars on {self.num_levels} "
                             "floors could take longer than a float holds")


#: The JSON types a config value of each annotation may have, where they differ.
_JSON_TYPES = {float: (int, float), tuple: (str, list), TimeConstants: dict}


def _parse_policies(value) -> tuple:
    if isinstance(value, str):
        value = [p for p in value.split(",") if p]
    policies = tuple(PolicyKind(p) for p in value)
    if not policies:
        raise ValueError("at least one policy is required")
    for policy in policies:
        if policies.count(policy) > 1:
            raise ValueError(f"policy {policy.value!r} is listed more than once")
    return policies


def _load_config_file(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return _read_fields(path, data, ScenarioConfig)


def _read_fields(path, data: dict, schema, prefix: str = "") -> dict:
    """Read ``data`` key by key in file order: check each name and JSON type
    against ``schema``'s fields, read the value as its flag would, then
    check its domain with ``schema``'s own checks, the other fields at
    their defaults."""
    types = {f.name: f.type for f in fields(schema)}
    for key, value in data.items():
        name = prefix + key
        if key not in types:
            raise ValueError(f"{path}: unknown config field {name!r}")
        kind = types[key]
        _check_type(path, name, value, _JSON_TYPES.get(kind, kind))
        if is_dataclass(kind):
            _read_fields(path, value, kind, name + ".")
            continue
        if kind is float:
            try:
                data[key] = float(value)
            except OverflowError:
                raise ValueError(f"{path}: config field {name!r} is too large for a float") from None
        elif kind is tuple:  # policies
            for item in value if isinstance(value, list) else ():
                _check_type(path, name, item, str)
        try:
            schema(**{key: data[key]})
        except ValueError as exc:
            raise ValueError(f"{path}: config field {name!r}: {exc}") from None
    return data


def _check_type(path, name: str, value, expected) -> None:
    # JSON true/false load as bool, which Python counts as an int
    if isinstance(value, bool) or not isinstance(value, expected):
        raise ValueError(f"{path}: config field {name!r} has the wrong type "
                         f"({type(value).__name__})")


def build_config(args) -> ScenarioConfig:
    """Merge defaults, the optional config file, and command-line flags
    (flags win; --t1/--t2/--t3 go into ``times``)."""
    data = _load_config_file(args.config) if args.config else {}
    given = {k: v for k, v in vars(args).items() if v is not None}
    flags = {f.name: given[f.name] for f in fields(ScenarioConfig) if f.name in given}
    time_flags = {f.name: given[f.name] for f in fields(TimeConstants) if f.name in given}
    times = {**data.pop("times", {}), **time_flags}
    return ScenarioConfig(**{**data, **flags, "times": times})


def _run_policies(config: ScenarioConfig):
    """Run every requested policy on its own copy of one initialized garage.

    The garage is built once from (temperature, seed) and handed to the
    lockstep, which copies it for each policy after the first.  The
    policies run car by car, and after each car one renewal draw from the
    built garage's generator vacates the same spots in every copy, so all
    policies face the same starting state and the same departures.  Each
    run is (policy, outcomes, total, stranded, unplaced), as :func:`_tally`
    counts them.
    """
    garage = Garage.from_temperature(config.num_levels, config.capacity_per_level,
                                     config.temperature, config.seed)
    runs = _run_lockstep(garage, config.policies, config.num_cars, config.times,
                         config.departure_prob)
    return [(policy, outcomes, *_tally(outcomes, config.num_cars))
            for policy, outcomes in zip(config.policies, runs)]


def _tally(outcomes, num_cars: int) -> tuple[float, int, str | None]:
    """(total seconds, stranded cars, the first unplaced car and where it
    stopped, or None) in one walk.  The total is the running sum that the
    per-car CSV's ``cumulative_seconds`` ends on."""
    total, stranded, unplaced = 0.0, 0, None
    for car, outcome in enumerate(outcomes):
        total += outcome.elapsed_time
        stranded += outcome.parked_floor is None
        if unplaced is None:
            if outcome.car_index != car:  # car_index skips a turned-away car
                unplaced = f"car {car} turned away, garage full"
            elif outcome.parked_floor is None:
                unplaced = f"car {car} stranded after scanning floor {outcome.floors_scanned[-1]}"
    if unplaced is None and len(outcomes) < num_cars:
        unplaced = f"car {len(outcomes)} turned away, garage full"
    return total, stranded, unplaced


def cmd_simulate(config: ScenarioConfig, args) -> int:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = []
    code = EXIT_OK
    for policy, outcomes, total, stranded, unplaced in _run_policies(config):
        write_outcomes_csv(out / f"{policy.value}_percar.csv", policy, outcomes)
        summary.append({
            "policy": policy.value,
            "total_time": total,
            "mean_time": total / len(outcomes) if outcomes else 0.0,
            "stranded": stranded,
            "turned_away": config.num_cars - len(outcomes),
        })
        if unplaced:
            print(f"policy {policy.value}: {unplaced}", file=sys.stderr)
            code = EXIT_SIMULATION
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return code


def cmd_sweep(config: ScenarioConfig, args) -> int:
    if not args.temperatures:
        raise ValueError("at least one temperature is required")
    for t in args.temperatures:
        if args.temperatures.count(t) > 1:
            raise ValueError(f"temperature {t!r} is listed more than once")
    # every scenario is built, and so checked, before any output exists
    scenarios = [replace(config, temperature=t) for t in args.temperatures]
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["temperature,policy,cumulative_seconds"]
    code = EXIT_OK
    for scenario in scenarios:
        for policy, _, total, _, unplaced in _run_policies(scenario):
            lines.append(f"{scenario.temperature!r},{policy.value},{total:.6f}")
            if unplaced:
                print(f"temperature {scenario.temperature!r}, policy {policy.value}: "
                      f"{unplaced}", file=sys.stderr)
                code = EXIT_SIMULATION
    (out / "sweep.csv").write_text("\n".join(lines) + "\n")
    return code


def cmd_fit(config: ScenarioConfig, args) -> int:
    # the survey is dropped here: the fit holds only the observations
    energies, fills = survey_to_observations(load_survey(args.survey))
    result = fit_temperature(energies, fills, config.initial_temperature)
    report = {
        "temperature": result.temperature,
        "final_loss": result.final_loss,
        "iterations": result.iterations,
        "n_observations": len(energies),
        "clamped": result.clamped,
        "stop_reason": result.stop_reason,
    }
    text = json.dumps(report, indent=2, sort_keys=True)
    print(text)
    if args.output_dir is not None:  # only --out: fit ignores a config file's output_dir
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "fit_report.json").write_text(text + "\n")
    return EXIT_OK


def cmd_sample_curve(config: ScenarioConfig, args) -> int:
    survey = load_survey(args.survey)
    points = sample_efficiency_curve(survey, args.sizes, args.trials, config.seed,
                                     config.initial_temperature)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["sample_size,mean_mse,std_mse"]
    lines.extend(f"{p.sample_size},{p.mean_mse!r},{p.std_mse!r}" for p in points)
    path = out / "sample_curve.csv"
    path.write_text("\n".join(lines) + "\n")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_render(config: ScenarioConfig, args) -> int:
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    garage = Garage.from_temperature(config.num_levels, config.capacity_per_level,
                                     config.temperature, config.seed)
    (out / "garage.txt").write_text(render_text(garage))
    (out / "garage.ppm").write_bytes(render_ppm(garage))
    return EXIT_OK


def _plain(kind):
    """``kind`` (int or float) as an argparse type that first requires the
    text to be ASCII with no '_'."""
    def parse(text: str):
        if not _plain_number(text):
            raise ValueError(text)
        return kind(text)
    return parse


_int, _float = _plain(int), _plain(float)


def _comma_list(kind):
    """A comma-separated list of ``kind`` as an argparse type; a bad list
    reads "invalid int list value" as a bad scalar reads "invalid int value"."""
    parse = _plain(kind)

    def parse_list(text: str) -> list:
        return [parse(v) for v in text.split(",") if v]
    parse_list.__name__ = f"{kind.__name__} list"
    return parse_list


#: The help texts of the scenario flags that have one.
_HELP = {
    "policies": "comma-separated subset of " + ",".join(p.value for p in ALL_POLICIES),
    "t1": "floor scan time, seconds",
    "t2": "walk-up time per floor, seconds",
    "t3": "drive-down time per floor, seconds",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tipp",
        description="Temperature-informed parking experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    types = {f.name: f.type for schema in (ScenarioConfig, TimeConstants) for f in fields(schema)}

    def verb(name, help_text, run, scenario_fields):
        # no abbreviations, so that --temperature never stands for --temperatures
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        # every type=int and type=float flag reads through the number check;
        # an error still says "invalid int value" and names the flag
        p.register("type", int, _int)
        p.register("type", float, _float)
        p.set_defaults(run=run)
        p.add_argument("--config", help="JSON config file mirroring the scenario fields")
        p.add_argument("--seed", type=int, help="random seed")
        p.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")
        for key in scenario_fields.split():  # the flag's name, dest and type are its field's
            kind = types[key]
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP.get(key),
                           type=kind if kind in (int, float) else None)
        return p

    garage, run = "num_levels capacity_per_level", "num_cars departure_prob policies t1 t2 t3"
    verb("simulate", "compare policies on one garage", cmd_simulate,
         f"{garage} temperature {run}")
    p = verb("sweep", "simulate across temperatures", cmd_sweep, f"{garage} {run}")
    p.add_argument("--temperatures", type=_comma_list(float), required=True,
                   help="comma-separated temperatures, e.g. 0.1,0.5,1.0")

    p = verb("fit", "fit a lot temperature from a survey CSV", cmd_fit, "initial_temperature")
    p.add_argument("survey", help="survey CSV path")

    p = verb("sample-curve", "sample-efficiency curve for a survey", cmd_sample_curve,
             "initial_temperature")
    p.add_argument("survey", help="survey CSV path")
    p.add_argument("--sizes", type=_comma_list(int), required=True,
                   help="comma-separated sample sizes, e.g. 5,10,20,50,105")
    p.add_argument("--trials", type=int, default=50)

    verb("render", "render the initialized garage", cmd_render, f"{garage} temperature")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(build_config(args), args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
