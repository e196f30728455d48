"""The four workloads: their inputs, the CLI calls of one repetition, and their checks.

Every repetition runs ``tipp.cli.main(argv)`` in this process, one verb
after another, with no worker threads.  Time constants are passed as
flags so the checks know them.
"""

import json
from pathlib import Path

import numpy as np

import checks

T1, T2, T3 = 30.0, 10.0, 5.0
TIMES = (T1, T2, T3)
TIME_FLAGS = ["--t1", repr(T1), "--t2", repr(T2), "--t3", repr(T3)]


class Workload:
    name = ""
    why = ""
    #: Policies whose per-car ``run_arrival`` latency is the headline.
    headline: tuple = ()
    #: Cars each repetition asks the CLI to place.
    cars_per_rep = 0
    #: Fits each repetition asks the CLI for (counted from the arguments).
    fits_per_rep = 0

    def setup(self, tipp, seed: int, inputs: Path) -> dict:
        """Write the workload's input files; return what ``argvs`` and ``check`` need."""
        return {}

    def argvs(self, inputs: dict, seed: int, out: Path) -> list:
        raise NotImplementedError

    def check(self, inputs: dict, out: Path, arrivals: list) -> dict:
        """Raise CheckError on a wrong output; return the quality metrics."""
        raise NotImplementedError


def _simulate_argv(levels, capacity, temperature, cars, policies, seed, out, departure=None):
    argv = ["simulate", "--num-levels", str(levels), "--capacity-per-level", str(capacity),
            "--temperature", repr(temperature), "--num-cars", str(cars),
            "--policies", ",".join(policies), "--seed", str(seed), "--out", str(out),
            *TIME_FLAGS]
    if departure is not None:
        argv += ["--departure-prob", repr(departure)]
    return argv


def _tipp_park_s(arrivals) -> dict:
    tipp = [a.outcome.elapsed_time for a in arrivals if a.policy == "tipp"]
    return {"tipp_park_s": sum(tipp) / len(tipp)} if tipp else {}


class RefSweep(Workload):
    name = "ref_sweep"
    why = ("tipp sweep on the paper's 10x30 garage, 30 cars, four policies, T=0.1..1.0;"
           " fits on <=10 points dominate")
    headline = ("tipp",)
    temperatures = tuple(round(0.1 * k, 1) for k in range(1, 11))
    policies = ("benchmark", "inverse", "optimal", "tipp")
    cars = 30
    cars_per_rep = cars * len(temperatures) * len(policies)

    def argvs(self, inputs, seed, out):
        return [["sweep", "--temperatures", ",".join(map(repr, self.temperatures)),
                 "--num-levels", "10", "--capacity-per-level", "30",
                 "--num-cars", str(self.cars), "--policies", ",".join(self.policies),
                 "--seed", str(seed), "--out", str(out), *TIME_FLAGS]]

    def check(self, inputs, out, arrivals):
        checks.check_arrivals(arrivals, TIMES)
        rows = checks.read_sweep(out / "sweep.csv")
        expected = {(t, p) for t in self.temperatures for p in self.policies}
        if set(rows) != expected:
            raise checks.CheckError(f"sweep.csv rows {sorted(rows)} != {sorted(expected)}")
        checks.check_sweep(rows, arrivals)
        return _tipp_park_s(arrivals)


class LargeClosedLoop(Workload):
    name = "large_closed_loop"
    why = ("tipp simulate, tipp and optimal, 50x200 garage at T=1.0, 200 cars;"
           " the N=50 descent DP dominates")
    headline = ("tipp",)
    policies = ("tipp", "optimal")
    cars = 200  # below the 1,657 spots free at T=1.0
    cars_per_rep = cars * len(policies)

    def argvs(self, inputs, seed, out):
        return [_simulate_argv(50, 200, 1.0, self.cars, self.policies, seed, out)]

    def check(self, inputs, out, arrivals):
        checks.check_arrivals(arrivals, TIMES)
        checks.check_simulate(out, self.policies, TIMES)
        return _tipp_park_s(arrivals)


class ChurnSweeps(Workload):
    name = "churn_sweeps"
    why = ("tipp simulate, the three sweeps, 100x100 at T=0.5, 3000 cars with departures"
           " holding occupancy steady; grid reads beside writes, no fit or DP")
    headline = ("benchmark", "inverse", "optimal")
    policies = headline
    levels = capacity = 100
    temperature = 0.5
    cars = 3000
    cars_per_rep = cars * len(policies)

    def departure_prob(self) -> float:
        """1 / initially occupied spots: one departure per arrival on average."""
        energies = (np.arange(1, self.levels + 1) / self.levels) ** 2
        q = 2.0 / (1.0 + np.exp(energies / self.temperature))
        return 1.0 / float(np.floor(q * self.capacity + 0.5).sum())

    def argvs(self, inputs, seed, out):
        return [_simulate_argv(self.levels, self.capacity, self.temperature, self.cars,
                               self.policies, seed, out, departure=self.departure_prob())]

    def check(self, inputs, out, arrivals):
        checks.check_arrivals(arrivals, TIMES)
        checks.check_simulate(out, self.policies, TIMES)
        return {}


class SurveyFit(Workload):
    name = "survey_fit"
    why = ("tipp fit on a 100k-spot survey plus tipp sample-curve on a 10k-spot survey;"
           " fit and q on large arrays, CSV parsing, no planner or simulator")
    big_spots = 100_000
    small_spots = 10_000
    temperature = 0.4
    initial_temperature = 0.5
    sizes = (2000, 4000, 6000, 8000)  # large subsets: the fits take a steady ~20 iterations
    trials = 20
    fits_per_rep = 1 + len(sizes) * trials

    def setup(self, tipp, seed, inputs):
        inputs.mkdir(parents=True)
        big = tipp.fitting.synthetic_survey(self.big_spots, self.temperature, 2 * seed)
        small = tipp.fitting.synthetic_survey(self.small_spots, self.temperature, 2 * seed + 1)
        tipp.fitting.save_survey(big, inputs / "big.csv")
        tipp.fitting.save_survey(small, inputs / "small.csv")
        return {"big": inputs / "big.csv", "small": inputs / "small.csv", "big_survey": big}

    def argvs(self, inputs, seed, out):
        fit_flags = ["--initial-temperature", repr(self.initial_temperature)]
        return [
            ["fit", str(inputs["big"]), "--out", str(out / "fit"), *fit_flags],
            ["sample-curve", str(inputs["small"]), "--sizes", ",".join(map(str, self.sizes)),
             "--trials", str(self.trials), "--seed", str(seed), "--out", str(out / "curve"),
             *fit_flags],
        ]

    def check(self, inputs, out, arrivals):
        survey = inputs["big_survey"]
        start = checks.survey_mse(survey.x, survey.y, survey.occupied, survey.poi,
                                  self.initial_temperature)
        report = json.loads((out / "fit" / "fit_report.json").read_text())
        checks.check_fit_report(report, self.big_spots, start)
        checks.check_sample_curve(out / "curve" / "sample_curve.csv", self.sizes)
        return {"fit_loss": report["final_loss"]}


WORKLOADS = {w.name: w for w in (RefSweep(), LargeClosedLoop(), SurveyFit(), ChurnSweeps())}
