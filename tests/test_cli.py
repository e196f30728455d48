import argparse
import hashlib
import json
import subprocess
import sys
import weakref
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import tipp
from tipp import LotSurvey, save_survey, synthetic_survey
from tipp.cli import ScenarioConfig, build_parser, main

from oracles import grid_survey

HEADER = ("car_index,policy,floors_scanned,parked_floor,spot_index,"
          "elapsed_seconds,cumulative_seconds,temperature_estimate")


def read_summary(out_dir):
    return json.loads((out_dir / "summary.json").read_text())


def csv_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == HEADER
    return [line.split(",") for line in lines[1:]]


class TestSimulate:
    def test_writes_all_outputs_and_succeeds(self, tmp_path):
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), "--num-cars", "6"]) == 0
        for policy in ("benchmark", "inverse", "optimal", "tipp"):
            assert (out / f"{policy}_percar.csv").exists()
        assert (out / "summary.json").exists()

    def test_summary_totals_match_percar_columns(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--out", str(out), "--num-cars", "8"])
        for entry in read_summary(out):
            rows = csv_rows(out / f"{entry['policy']}_percar.csv")
            assert sum(float(r[5]) for r in rows) == pytest.approx(entry["total_time"])
            assert float(rows[-1][6]) == pytest.approx(entry["total_time"])
            assert (entry["stranded"], entry["turned_away"]) == (0, 0)
            assert entry["mean_time"] == pytest.approx(entry["total_time"] / len(rows))

    def test_policy_subset_flag(self, tmp_path):
        out = tmp_path / "run"
        main(["simulate", "--out", str(out), "--num-cars", "3",
              "--policies", "benchmark,optimal"])
        assert (out / "benchmark_percar.csv").exists()
        assert not (out / "tipp_percar.csv").exists()
        assert [e["policy"] for e in read_summary(out)] == ["benchmark", "optimal"]

    def test_exhaustion_reports_failures_and_exit_code_3(self, tmp_path):
        out = tmp_path / "run"
        code = main(["simulate", "--out", str(out), "--num-levels", "1",
                     "--capacity-per-level", "1", "--num-cars", "3",
                     "--policies", "benchmark"])
        assert code == 3
        (entry,) = read_summary(out)
        assert (entry["stranded"], entry["turned_away"]) == (0, 2)
        assert len(csv_rows(out / "benchmark_percar.csv")) == 1

    def test_stranded_cars_keep_their_rows_and_exit_code_3(self, tmp_path):
        # 10x30 at T=1.0 has 55 free spots; tipp drives past the one on
        # floor 2, so car 54 and every later car are stranded, not turned away
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), "--temperature", "1.0",
                     "--num-cars", "400"]) == 3
        summary = {e["policy"]: e for e in read_summary(out)}
        assert summary["tipp"]["stranded"] > 0 and summary["tipp"]["turned_away"] == 0
        for policy in ("benchmark", "inverse", "optimal"):
            assert (summary[policy]["stranded"], summary[policy]["turned_away"]) == (0, 345)
        rows = csv_rows(out / "tipp_percar.csv")
        assert len(rows) == 400
        assert [r[3] == "" for r in rows] == [car >= 54 for car in range(400)]
        assert summary["tipp"]["stranded"] == 346

    def test_exit_3_names_the_first_unplaced_car_of_each_policy(self, tmp_path, capsys):
        # the run above: three policies fill the 55 free spots and turn
        # car 55 away; tipp strands car 54 at the deepest floor
        out = tmp_path / "run"
        assert main(["simulate", "--out", str(out), "--temperature", "1.0",
                     "--num-cars", "400"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "policy benchmark: car 55 turned away, garage full",
            "policy inverse: car 55 turned away, garage full",
            "policy optimal: car 55 turned away, garage full",
            "policy tipp: car 54 stranded after scanning floor 10",
        ]
        assert main(["sweep", "--out", str(tmp_path / "sweep"), "--temperatures", "0.5,1.0",
                     "--num-cars", "56", "--policies", "optimal,tipp"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "temperature 1.0, policy optimal: car 55 turned away, garage full",
            "temperature 1.0, policy tipp: car 54 stranded after scanning floor 10",
        ]
        assert main(["simulate", "--out", str(tmp_path / "ok"), "--num-cars", "6"]) == 0
        assert capsys.readouterr().err == ""
        # a car turned away before later cars park: the gap in car_index names it
        assert main(["simulate", "--out", str(tmp_path / "gap"), "--num-levels", "2",
                     "--capacity-per-level", "3", "--temperature", "10", "--num-cars", "12",
                     "--departure-prob", "0.2", "--policies", "optimal", "--seed", "0"]) == 3
        assert capsys.readouterr().err == "policy optimal: car 0 turned away, garage full\n"

    def test_each_policy_runs_as_if_alone(self, tmp_path):
        # with departures the policies run in lockstep on copies of one
        # garage and share its renewal draws; each must meet the departures
        # it meets when run alone
        flags = ["--num-levels", "20", "--capacity-per-level", "20", "--temperature", "0.5",
                 "--seed", "3", "--num-cars", "600", "--departure-prob", repr(1 / 277)]
        main(["simulate", "--out", str(tmp_path / "all"), *flags])
        for policy in ("benchmark", "inverse", "optimal", "tipp"):
            alone = tmp_path / policy
            main(["simulate", "--out", str(alone), "--policies", policy, *flags])
            name = f"{policy}_percar.csv"
            assert (tmp_path / "all" / name).read_bytes() == (alone / name).read_bytes()

    @pytest.mark.parametrize("departure_prob,steps", [(None, 0), ("0.1", 12)])
    def test_one_renewal_draw_per_car_for_all_policies(self, tmp_path, monkeypatch,
                                                       departure_prob, steps):
        calls = []
        renewal_step = tipp.Garage.renewal_step

        def counting(garage, *args):
            calls.append(garage)
            return renewal_step(garage, *args)
        monkeypatch.setattr(tipp.Garage, "renewal_step", counting)
        argv = ["simulate", "--out", str(tmp_path / "run"), "--num-cars", "12",
                "--policies", "benchmark,optimal,tipp"]
        if departure_prob is not None:
            argv += ["--departure-prob", departure_prob]
        assert main(argv) == 0
        assert len(calls) == steps and len({id(g) for g in calls}) <= 1

    def test_unknown_policy_is_usage_error(self, tmp_path, capsys):
        code = main(["simulate", "--out", str(tmp_path / "x"), "--policies", "psychic"])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert main(["simulate", "--out", str(tmp_path / "x"), "--policies", ","]) == 2
        assert capsys.readouterr().err == "error: at least one policy is required\n"

    def test_invalid_temperature_is_usage_error(self, tmp_path, capsys):
        assert main(["simulate", "--out", str(tmp_path / "x"),
                     "--temperature", "99"]) == 2
        # so are the scenario's other out-of-domain values
        for flags, message in ((["--num-levels", "0"], "garage dimensions must be >= 1"),
                               (["--num-cars", "0"], "num_cars must be >= 1")):
            capsys.readouterr()
            assert main(["simulate", "--out", str(tmp_path / "x"), *flags]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_repeated_policy_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["simulate", "--out", str(out), "--policies", "tipp,optimal,tipp"]) == 2
        assert "'tipp'" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"policies": ["benchmark", "benchmark"]}))
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "'benchmark'" in err and str(cfg) in err
        assert not out.exists()


class TestConfigFile:
    def test_file_values_used_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "num_cars": 4,
            "temperature": 0.1,
            "policies": ["optimal"],
            "times": {"t1": 30, "t2": 10, "t3": 5},
        }))
        out_file = tmp_path / "from_file"
        main(["simulate", "--config", str(cfg), "--out", str(out_file)])
        out_flag = tmp_path / "with_flag"
        main(["simulate", "--config", str(cfg), "--out", str(out_flag),
              "--temperature", "0.5"])
        out_direct = tmp_path / "direct"
        main(["simulate", "--out", str(out_direct), "--num-cars", "4",
              "--policies", "optimal"])  # temperature defaults to 0.5
        assert read_summary(out_flag) == read_summary(out_direct)
        assert read_summary(out_file) != read_summary(out_flag)

    def test_readme_example_is_the_defaults(self, tmp_path):
        # the README's example sets every field, each to its default
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("### Config file", 1)[1]
        example = section.split("```json\n", 1)[1].split("```", 1)[0]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(example)
        assert set(json.loads(example)) == {f.name for f in fields(ScenarioConfig)}
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert main(["simulate", "--out", str(tmp_path / "b")]) == 0
        names = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"num_car": 4}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert "unknown config field" in capsys.readouterr().err
        cfg.write_text(json.dumps({"fit": {"initial_temperature": 0.7}}))
        assert main(["fit", "lot.csv", "--config", str(cfg)]) == 2
        assert "unknown config field 'fit'" in capsys.readouterr().err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()
        cfg.write_text("[]")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: config must be a JSON object\n"

    @pytest.mark.parametrize("data, field", [
        ({"times": 5}, "times"),
        ({"fit": [1]}, "fit"),
        ({"policies": 5}, "policies"),
        ({"num_levels": "ten"}, "num_levels"),
        ({"seed": "x"}, "seed"),
        ({"times": {"t1": True}}, "times.t1"),
        ({"initial_temperature": "x"}, "initial_temperature"),
        ({"policies": [5]}, "policies"),
        ({"policies": ["psychic"]}, "policies"),
    ])
    def test_mistyped_field_is_usage_error(self, tmp_path, capsys, data, field):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert repr(field) in err
        assert str(cfg) in err
        assert "Traceback" not in err

    def test_non_string_policy_is_a_type_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"policies": ["tipp", 5]}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        assert (f"{cfg}: config field 'policies' has the wrong type (int)"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("data, field", [
        ({"policies": ["bogus"], "num_cars": "x"}, "policies"),
        ({"num_cars": "x", "policies": ["bogus"]}, "num_cars"),
        ({"times": {"t9": 1}, "seed": "x"}, "times.t9"),
    ])
    def test_the_first_bad_field_is_reported(self, tmp_path, capsys, data, field):
        # fields are checked in file order, each where it is read
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: " in err and repr(field) in err
        assert all(repr(other) not in err for other in data if other != field)

    def test_fit_reads_fit_fields_and_writes_nothing_without_out(self, tmp_path, capsys,
                                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        save_survey(synthetic_survey(105, 0.5, seed=42), "lot.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"initial_temperature": 0.7}))
        assert main(["fit", "lot.csv", "--config", str(cfg)]) == 0
        from_file = json.loads(capsys.readouterr().out)
        assert main(["fit", "lot.csv", "--initial-temperature", "0.7"]) == 0
        assert json.loads(capsys.readouterr().out) == from_file
        assert main(["fit", "lot.csv"]) == 0
        assert json.loads(capsys.readouterr().out) != from_file
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "lot.csv"]

    def test_out_of_domain_initial_temperature_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"initial_temperature": 11}))
        for verb in (["simulate"], ["sweep", "--temperatures", "0.5"], ["render"]):
            assert main([*verb, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
            assert "initial_temperature" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_out_of_domain_temperature_is_usage_error(self, tmp_path, capsys):
        # rejected before the output directory is made, like initial_temperature
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"temperature": 20}))
        for argv in (["simulate", "--temperature", "20"], ["render", "--temperature", "20"],
                     ["sweep", "--temperatures", "0.5,20"], ["simulate", "--config", str(cfg)],
                     ["render", "--config", str(cfg)]):
            assert main([*argv, "--out", str(tmp_path / "o")]) == 2
            assert "temperature 20" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("data, flags", [
        ({"temperature": 20}, ["--temperature", "20"]),
        ({"departure_prob": 2}, ["--departure-prob", "2"]),
        ({"times": {"t1": 0}}, ["--t1", "0"]),
    ])
    def test_json_integer_reads_as_the_flag_does(self, tmp_path, capsys, data, flags):
        # a float field's JSON integer becomes a float, so the file and the
        # flag give the same message (temperature 20.0, not 20), the file's
        # prefixed with the file and the field
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(data))
        out = ["--out", str(tmp_path / "o")]
        assert main(["simulate", "--config", str(cfg), *out]) == 2
        from_file = capsys.readouterr().err
        assert main(["simulate", *flags, *out]) == 2
        ((key, value),) = data.items()
        name = f"{key}.{next(iter(value))}" if isinstance(value, dict) else key
        where = f"error: {cfg}: config field {name!r}: "
        assert from_file == capsys.readouterr().err.replace("error: ", where, 1)
        if "temperature" in data:
            assert "temperature 20.0 outside" in from_file

    @pytest.mark.parametrize("text, field, flags, flag_error", [
        ('{"temperature": NaN}', "temperature", ["--temperature", "nan"],
         "temperature nan outside domain [0.001, 10.0]"),
        ('{"temperature": 20}', "temperature", ["--temperature", "20"],
         "temperature 20.0 outside domain [0.001, 10.0]"),
        ('{"departure_prob": Infinity}', "departure_prob", ["--departure-prob", "inf"],
         "departure_prob must lie in [0, 1]"),
        ('{"times": {"t1": NaN}}', "times.t1", ["--t1", "nan"],
         "t1 must be a positive finite number"),
    ], ids=["temperature-nan", "temperature-20", "departure_prob-inf", "times.t1-nan"])
    def test_out_of_domain_file_value_names_the_file(self, tmp_path, capsys, text, field,
                                                     flags, flag_error):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = ["--out", str(tmp_path / "o")]
        assert main(["simulate", "--config", str(cfg), *out]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: config field {field!r}: {flag_error}\n"
        # a good flag does not excuse a bad file value, as with a mistyped one
        good = ["--config", str(cfg), flags[0], "0.5"]
        assert main(["simulate", *good, *out]) == 2
        assert f"{cfg}: config field {field!r}" in capsys.readouterr().err
        assert main(["simulate", *flags, *out]) == 2
        assert capsys.readouterr().err == f"error: {flag_error}\n"
        assert not (tmp_path / "o").exists()

    def test_json_integer_too_large_for_a_float_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"times": {"t1": 1' + "0" * 400 + "}}")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert f"{cfg}: config field 'times.t1' is too large for a float" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("verb", [["simulate"], ["sweep", "--temperatures", "0.5"]])
    def test_times_whose_total_can_overflow_are_usage_error(self, tmp_path, capsys, verb):
        # a car takes at most N (t1 + t2 + 2 t3); 30 such cars on 10 floors
        # overflow a float, even on policies that solve no DP
        out = tmp_path / "o"
        argv = [*verb, "--policies", "benchmark,optimal", "--out", str(out)]
        assert main([*argv, "--t1", "1e308"]) == 2
        assert capsys.readouterr().err == ("error: times too large: 30 cars on 10 floors "
                                           "could take longer than a float holds\n")
        assert not out.exists()
        # times within the bound run, and every total they write is finite
        assert main([*argv, "--t1", "1e305"]) == 0
        for path in out.iterdir():
            assert "inf" not in path.read_text().lower()

    def test_json_integer_config_gives_float_fields(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"temperature": 1, "departure_prob": 0,
                                   "times": {"t1": 30, "t2": 10, "t3": 5}}))
        args = build_parser().parse_args(["simulate", "--config", str(cfg)])
        config = tipp.cli.build_config(args)
        for value in (config.temperature, config.departure_prob, *vars(config.times).values()):
            assert type(value) is float


class TestSweep:
    def test_single_temperature_matches_simulate(self, tmp_path):
        sim_out = tmp_path / "sim"
        main(["simulate", "--out", str(sim_out), "--num-cars", "10"])
        sweep_out = tmp_path / "sweep"
        main(["sweep", "--out", str(sweep_out), "--num-cars", "10",
              "--temperatures", "0.5"])
        totals = {e["policy"]: e["total_time"] for e in read_summary(sim_out)}
        lines = (sweep_out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "temperature,policy,cumulative_seconds"
        for line in lines[1:]:
            temp, policy, cum = line.split(",")
            assert temp == "0.5"
            assert float(cum) == pytest.approx(totals[policy])

    def test_row_count_is_temperatures_times_policies(self, tmp_path):
        out = tmp_path / "sweep"
        main(["sweep", "--out", str(out), "--num-cars", "3",
              "--temperatures", "0.1,0.5,1.0", "--policies", "benchmark,optimal"])
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 3 * 2

    def test_empty_temperature_list_is_usage_error(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path / "x"), "--temperatures", ""]) == 2
        assert "temperature" in capsys.readouterr().err

    def test_repeated_temperature_is_usage_error(self, tmp_path, capsys):
        # 0.50 reads as 0.5: the scenario would run twice and write two equal rows
        out = tmp_path / "x"
        assert main(["sweep", "--out", str(out), "--temperatures", "0.5,1.0,0.50",
                     "--policies", "optimal", "--num-cars", "3"]) == 2
        assert "temperature 0.5 is listed more than once" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("verb", [["simulate"], ["sweep", "--temperatures", "0.5"], ["render"]])
def test_negative_seed_is_usage_error_before_any_output(tmp_path, capsys, verb):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -1}))
    for source, where in ((["--seed", "-1"], ""),
                          (["--config", str(cfg)], f"{cfg}: config field 'seed': ")):
        assert main([*verb, *source, "--out", str(tmp_path / "o")]) == 2
        assert f"error: {where}seed must be >= 0" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


RUN_ONLY_FLAGS = ["--num-cars", "--departure-prob", "--policies", "--t1", "--t2", "--t3"]


@pytest.mark.parametrize("argv", [
    *(["render", flag, "1"] for flag in RUN_ONLY_FLAGS),
    ["render", "--initial-temperature", "1"],
    ["sweep", "--temperatures", "0.5", "--temperature", "0.9"],
    ["sweep", "--temperatures", "0.5", "--initial-temperature", "9"],
    ["simulate", "--initial-temperature", "9"],
    ["simulate", "--learning-rate", "1"],
    ["sweep", "--temperatures", "0.5", "--max-iterations", "5"],
    ["fit", "lot.csv", "--gradient-tolerance", "1"],
])
def test_flag_the_verb_does_not_read_is_usage_error(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, flag", [
    (["simulate", "--num-cars", "1_0", "--seed", "\uff11"], "--num-cars"),
    (["simulate", "--seed", "\uff11"], "--seed"),
    (["simulate", "--temperature", "\uff10.5"], "--temperature"),
    (["sweep", "--temperatures", "0_5"], "--temperatures"),
    (["sample-curve", "lot.csv", "--sizes", "1_0"], "--sizes"),
    (["fit", "lot.csv", "--initial-temperature", "0_5"], "--initial-temperature"),
])
def test_digit_separator_or_non_ascii_digit_is_usage_error(tmp_path, capsys, argv, flag):
    # int() and float() read '1_0' as 10 and a fullwidth '1' as 1
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert f"argument {flag}: invalid" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--temperatures", "0.1,0_5"],
     "argument --temperatures: invalid float list value: '0.1,0_5'"),
    (["sample-curve", "lot.csv", "--sizes", "5,1_0"],
     "argument --sizes: invalid int list value: '5,1_0'"),
])
def test_a_bad_list_flag_names_its_list_type(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path / "o")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: {message}\n")


COMMON_FLAGS = {"-h", "--help", "--config", "--seed", "--out"}
GARAGE_FLAGS = {"--num-levels", "--capacity-per-level"}
RUN_FLAGS = set(RUN_ONLY_FLAGS)


def test_each_verb_takes_exactly_its_flags():
    # every option is design cost: adding one must show up here
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    flags = {verb: {s for a in p._actions for s in a.option_strings}
             for verb, p in subparsers.choices.items()}
    assert flags == {
        "simulate": COMMON_FLAGS | GARAGE_FLAGS | RUN_FLAGS | {"--temperature"},
        "sweep": COMMON_FLAGS | GARAGE_FLAGS | RUN_FLAGS | {"--temperatures"},
        "fit": COMMON_FLAGS | {"--initial-temperature"},
        "sample-curve": COMMON_FLAGS | {"--initial-temperature", "--sizes", "--trials"},
        "render": COMMON_FLAGS | GARAGE_FLAGS | {"--temperature"},
    }


class TestFit:
    def test_reports_fit_on_synthetic_survey(self, tmp_path, capsys):
        path = tmp_path / "lot.csv"
        save_survey(synthetic_survey(105, 0.5, seed=42), path)
        assert main(["fit", str(path), "--out", str(tmp_path / "out")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == {"temperature", "final_loss", "iterations",
                               "n_observations", "clamped", "stop_reason"}
        assert report["stop_reason"] == "converged"
        assert report["n_observations"] == 105
        assert abs(report["temperature"] - 0.5) < 0.2
        on_disk = json.loads((tmp_path / "out" / "fit_report.json").read_text())
        assert on_disk == report

    def test_the_survey_is_dropped_before_the_fit(self, tmp_path, monkeypatch, capsys):
        # the fit reads only the observations, so the survey's arrays are
        # not held beside the fit's buffers
        path = tmp_path / "lot.csv"
        save_survey(synthetic_survey(105, 0.5, seed=42), path)
        surveys, held = [], []
        load_survey, fit_temperature = tipp.cli.load_survey, tipp.cli.fit_temperature

        def load(path):
            survey = load_survey(path)
            surveys.append(weakref.ref(survey))
            return survey

        def fit(*args):
            held.extend(ref() is not None for ref in surveys)
            return fit_temperature(*args)

        monkeypatch.setattr(tipp.cli, "load_survey", load)
        monkeypatch.setattr(tipp.cli, "fit_temperature", fit)
        assert main(["fit", str(path)]) == 0
        assert held == [False]

    def test_fully_occupied_survey_clamps_hot(self, tmp_path, capsys):
        survey = synthetic_survey(40, 0.5, seed=1)
        full = LotSurvey(x=survey.x, y=survey.y,
                         occupied=np.ones(40, dtype=bool), poi=survey.poi)
        path = tmp_path / "full.csv"
        save_survey(full, path)
        assert main(["fit", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["temperature"] == 10.0
        assert report["clamped"] is True

    def test_malformed_line_names_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("poi,0,0\n1,0,1\noops\n")
        assert main(["fit", str(path)]) == 2
        assert ":3" in capsys.readouterr().err

    def test_missing_file_is_usage_error(self, tmp_path):
        assert main(["fit", str(tmp_path / "nope.csv")]) == 2

    @pytest.mark.parametrize("spot", ["1_0,0,1", "\uff11,0,0"])
    def test_digit_separator_or_non_ascii_digit_names_the_line(self, tmp_path, capsys, spot):
        path = tmp_path / "lot.csv"
        path.write_text(f"poi,0,0\n2,0,0\n{spot}\n3,0,1\n")
        assert main(["fit", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}:3: a data line must be ASCII with no '_'\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_point_of_interest_is_usage_error(self, tmp_path, capsys, value):
        path = tmp_path / "lot.csv"
        path.write_text(f"poi,{value},0\n1,0,1\n2,0,0\n")
        assert main(["fit", str(path)]) == 2
        assert "point of interest" in capsys.readouterr().err

    def test_non_finite_spot_names_the_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "lot.csv"
        path.write_text("poi,0,0\n2,0,0\n1,nan,0\n")
        assert main(["fit", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:3: spot coordinates must be finite\n"

    def test_non_finite_point_of_interest_names_the_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "lot.csv"
        path.write_text("poi,inf,0\n1,0,1\n2,0,0\n")
        assert main(["fit", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}:1: point of interest must be finite\n"

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_fit_setting_is_usage_error(self, tmp_path, capsys, value):
        path = tmp_path / "lot.csv"
        save_survey(synthetic_survey(105, 0.5, seed=42), path)
        assert main(["fit", str(path), "--initial-temperature", value]) == 2
        assert "initial_temperature" in capsys.readouterr().err


class TestSampleCurve:
    def test_writes_curve_with_zero_spread_at_full_size(self, tmp_path):
        path = tmp_path / "lot.csv"
        save_survey(synthetic_survey(30, 0.5, seed=2), path)
        out = tmp_path / "curve"
        assert main(["sample-curve", str(path), "--sizes", "5,30",
                     "--trials", "4", "--out", str(out)]) == 0
        lines = (out / "sample_curve.csv").read_text().splitlines()
        assert lines[0] == "sample_size,mean_mse,std_mse"
        assert len(lines) == 3
        size, _, std = lines[2].split(",")
        assert size == "30" and float(std) == 0.0

    def test_oversized_request_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "lot.csv"
        save_survey(synthetic_survey(30, 0.5, seed=2), path)
        assert main(["sample-curve", str(path), "--sizes", "31",
                     "--out", str(tmp_path / "c")]) == 2
        assert "sample size" in capsys.readouterr().err

    def test_empty_size_list_is_usage_error(self, tmp_path, capsys):
        # like sweep --temperatures '', not a header-only curve
        path = tmp_path / "lot.csv"
        save_survey(synthetic_survey(30, 0.5, seed=2), path)
        assert main(["sample-curve", str(path), "--sizes", "",
                     "--out", str(tmp_path / "c")]) == 2
        assert "at least one sample size is required" in capsys.readouterr().err
        assert not (tmp_path / "c").exists()


def test_fit_verbs_pin_their_outputs(tmp_path):
    # the saved survey, fit --out and sample-curve, as first written: a
    # change to the survey reader or writer, the fit or the curve shows here
    path = tmp_path / "lot.csv"
    save_survey(synthetic_survey(2000, 0.5, 0), path)
    assert main(["fit", str(path), "--out", str(tmp_path / "fit")]) == 0
    assert main(["sample-curve", str(path), "--sizes", "5,20,100", "--trials", "10",
                 "--seed", "0", "--out", str(tmp_path / "curve")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("lot.csv", "fit/fit_report.json", "curve/sample_curve.csv")}
    assert digests == {
        "lot.csv": "656451e78301a6d1c4278cc8994a795272bcc4158dab95553698947b12aa173c",
        "fit/fit_report.json":
            "363c5afc05eb0faa213b6431bca164a2e919fe07126b57a69a37250b4db6038f",
        "curve/sample_curve.csv":
            "2c3f478cb696fcbd9b05f506abf2481e8a8880b10e256c832b7c5ed8eaab17ad",
    }


def test_fit_verbs_pin_their_outputs_on_tied_energies(tmp_path):
    # a gridded lot, where many spots share an energy, so the fit's sort
    # orders tied runs by fill; pinned as first written
    path = tmp_path / "grid.csv"
    save_survey(grid_survey(41, 0.5, 0), path)
    assert main(["fit", str(path), "--out", str(tmp_path / "fit")]) == 0
    assert main(["sample-curve", str(path), "--sizes", "5,50,400", "--trials", "10",
                 "--seed", "0", "--out", str(tmp_path / "curve")]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("grid.csv", "fit/fit_report.json", "curve/sample_curve.csv")}
    assert digests == {
        "grid.csv": "e21b0557a9c9bd09c302adcfc3ccdd8091aae1aa29e92887d5167cb230fa2e70",
        "fit/fit_report.json":
            "538759934437d981f74b0ee9a2046df32f0b48ffeece164ff7d012a5e0bcf00a",
        "curve/sample_curve.csv":
            "7c5a81e9cffbfc4c882515dbb47c752a90e9806d4d271ef5363a623364b00db6",
    }


class TestRender:
    def test_outputs_match_model_counts(self, tmp_path):
        out = tmp_path / "r"
        assert main(["render", "--out", str(out)]) == 0
        rows = (out / "garage.txt").read_text().splitlines()
        assert rows[0] == "#" * 30
        assert rows[9].count("#") == 7
        assert (out / "garage.ppm").read_bytes().startswith(b"P3 240 80 255")

    def test_nearly_empty_at_minimum_temperature(self, tmp_path):
        out = tmp_path / "r"
        main(["render", "--out", str(out), "--temperature", "0.001"])
        text = (out / "garage.txt").read_text()
        assert text.count("#") <= 1

    def test_deterministic_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["render", "--out", str(out_a), "--seed", "5"])
        main(["render", "--out", str(out_b), "--seed", "5"])
        assert (out_a / "garage.txt").read_bytes() == (out_b / "garage.txt").read_bytes()
        assert (out_a / "garage.ppm").read_bytes() == (out_b / "garage.ppm").read_bytes()


def test_cli_imports_numpy_but_not_scipy():
    src = str(Path(tipp.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import tipp.cli; "
            "print('numpy' in sys.modules, any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert done.stdout.split() == ["True", "False"]
