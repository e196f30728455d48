"""Byte-identity battery for the tipp CLI.

Runs one fixed battery of CLI calls in process through ``tipp.cli.main``
and records, for every call, its exit code, stdout, stderr and the
sha256 of each file it wrote.  Two trees behave alike on the battery
when their records are equal, so a change that means to keep every
output can show it:

    python3 tools/equiv.py                   # this tree: call count and one digest
    python3 tools/equiv.py --against HEAD~1  # both trees; each call that differs, exit 1

``--against`` extracts the commit's ``src`` with ``git archive`` into
``.bench_build/equiv-<sha>/`` and runs the battery once per tree, each in
its own interpreter with that tree's ``src`` first on ``sys.path``, on one
set of input files written by this tree.  The battery:

- a grid of simulations: N in {1, 2, 3, 10}, S in {1, 2, 4, 30},
  T in {0.05, 0.5, 2}, 12 or 60 cars, no departures or p = 0.1 or 0.5,
  seeds 0 and 1, every policy;
- the four bench workloads' calls at seeds 0 and 3;
- runs that strand cars, turn cars away or both, and 50 x 200 with 500 cars;
- runs with t1 = 0.1, t2 = 0.7, t3 = 0.3, whose float totals are inexact,
  so that a change in the order of a sum shows;
- ``fit`` and ``sample-curve`` on a grid survey whose energies tie;
- usage errors, one bad value at a time and several at once, and every
  ``--help``.
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from unittest import mock

REPO = Path(__file__).resolve().parents[1]
BUILD = REPO / ".bench_build"
#: The bench workloads' time flags.
BENCH_TIMES = ["--t1", "30.0", "--t2", "10.0", "--t3", "5.0"]
INEXACT_TIMES = ["--t1", "0.1", "--t2", "0.7", "--t3", "0.3"]
POLICIES = "benchmark,inverse,optimal,tipp"

#: Config files that each make a usage error, by name, written as JSON text.
BAD_CONFIGS = {
    "not_json": "{not json",
    "a_list": "[]",
    "unknown_key": {"num_car": 4},
    "policies_int": {"policies": 5},
    "policies_dup": {"policies": ["benchmark", "benchmark"]},
    "policies_empty": {"policies": []},
    "policies_item_int": {"policies": ["tipp", 5]},
    "policies_unknown": {"policies": ["psychic"]},
    "levels_zero": {"num_levels": 0},
    "levels_text": {"num_levels": "ten"},
    "seed_negative": {"seed": -1},
    "seed_float": {"seed": 1.5},
    "departure_two": {"departure_prob": 2},
    "temperature_zero": {"temperature": 0},
    "initial_eleven": {"initial_temperature": 11},
    "times_int": {"times": 5},
    "times_unknown": {"times": {"t9": 1}},
    "times_bool": {"times": {"t1": True}},
    "times_negative": {"times": {"t1": -1}},
    "times_huge": '{"times": {"t1": 1' + "0" * 400 + "}}",
}
# every bad policies value beside a bad num_levels, in either file order
for _name in ("dup", "empty", "item_int", "unknown"):
    _policies = BAD_CONFIGS[f"policies_{_name}"]
    BAD_CONFIGS[f"policies_{_name}_then_levels"] = {**_policies, "num_levels": 0}
    BAD_CONFIGS[f"levels_then_policies_{_name}"] = {"num_levels": 0, **_policies}
#: Config files that runs read, alone or under flags.
GOOD_CONFIGS = {
    "times_t1": {"times": {"t1": 1}},
    "policies_ok": {"policies": ["optimal", "tipp"], "num_cars": 4},
    "policies_string": {"policies": "tipp,optimal"},
    "output_dir": {"output_dir": "from_file", "num_cars": 3},
}


def write_inputs(root: Path, workloads: bool = True) -> Path:
    """Write the battery's input files under ``root/inputs`` with the
    ``tipp`` on ``sys.path``; the workloads' surveys only if asked."""
    import numpy as np

    from tipp.fitting import LotSurvey, save_survey, synthetic_survey
    from tipp.model import spot_occupancy_prob

    inputs = root / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    for name, data in {**BAD_CONFIGS, **GOOD_CONFIGS}.items():
        text = data if isinstance(data, str) else json.dumps(data)
        (inputs / f"{name}.json").write_text(text)
    # a 21 x 21 grid around its centre: spots symmetric about it tie in energy
    x, y = (a.ravel() for a in np.meshgrid(np.arange(21.0), np.arange(21.0)))
    energies = (x - 10.0) ** 2 + (y - 10.0) ** 2
    occupied = np.random.default_rng(0).random(x.size) < spot_occupancy_prob(
        energies / energies.max(), 0.5)
    save_survey(LotSurvey(x=x, y=y, occupied=occupied, poi=(10.0, 10.0)), inputs / "grid.csv")
    (inputs / "bad.csv").write_text("poi,0,0\n1,2,3\n")
    if workloads:
        for seed in (0, 3):
            save_survey(synthetic_survey(100_000, 0.4, 2 * seed), inputs / f"big{seed}.csv")
            save_survey(synthetic_survey(10_000, 0.4, 2 * seed + 1), inputs / f"small{seed}.csv")
    return inputs


def battery(inputs: Path, workloads: bool = True) -> list:
    """The battery as (group, argv) pairs; every output goes to ``o`` in
    the call's own working directory."""
    import numpy as np

    out = ["--out", "o"]
    calls = []

    def add(group, *argv):
        calls.append((group, [*argv, *out]))

    def simulate(group, n, s, t, cars, *flags):
        add(group, "simulate", "--num-levels", str(n), "--capacity-per-level", str(s),
            "--temperature", str(t), "--num-cars", str(cars), *flags)

    for n, s, t, cars, departure, seed in itertools.product(
            (1, 2, 3, 10), (1, 2, 4, 30), (0.05, 0.5, 2), (12, 60), (None, 0.1, 0.5), (0, 1)):
        flags = [] if departure is None else ["--departure-prob", str(departure)]
        simulate("grid", n, s, t, cars, *flags, "--seed", str(seed), "--policies", POLICIES)

    # churn_sweeps: one departure per arrival on average, as the bench sets it
    q = 2.0 / (1.0 + np.exp((np.arange(1, 101) / 100) ** 2 / 0.5))
    churn = 1.0 / float(np.floor(q * 100 + 0.5).sum())
    temperatures = ",".join(repr(round(0.1 * k, 1)) for k in range(1, 11))
    for seed in (0, 3):
        add("workload", "sweep", "--temperatures", temperatures, "--num-levels", "10",
            "--capacity-per-level", "30", "--num-cars", "30", "--policies", POLICIES,
            "--seed", str(seed), *BENCH_TIMES)
        simulate("workload", 50, 200, 1.0, 200, "--policies", "tipp,optimal",
                 "--seed", str(seed), *BENCH_TIMES)
        simulate("workload", 100, 100, 0.5, 3000, "--policies", "benchmark,inverse,optimal",
                 "--seed", str(seed), "--departure-prob", repr(churn), *BENCH_TIMES)
        if workloads:
            add("workload", "fit", str(inputs / f"big{seed}.csv"),
                "--initial-temperature", "0.5")
            add("workload", "sample-curve", str(inputs / f"small{seed}.csv"),
                "--sizes", "2000,4000,6000,8000", "--trials", "20", "--seed", str(seed),
                "--initial-temperature", "0.5")

    mixed = ["--num-levels", "3", "--capacity-per-level", "2", "--temperature", "1.0",
             "--num-cars", "24", "--departure-prob", "0.02", "--policies", "tipp,benchmark",
             "--seed", "1"]
    stranding = ["--num-levels", "6", "--capacity-per-level", "5", "--temperature", "1.0",
                 "--num-cars", "40", "--departure-prob", "0.02", "--policies", POLICIES,
                 "--seed", "1"]
    for times in ([], INEXACT_TIMES):
        add("edge", "simulate", *mixed, *times)
        add("edge", "simulate", *stranding, *times)
        add("edge", "simulate", "--temperature", "1.0", "--num-cars", "400", *times)
        add("edge", "simulate", "--num-cars", "30", "--departure-prob", "0.05", *times)
        add("edge", "sweep", "--temperatures", "0.5,1.0", "--num-cars", "56",
            "--policies", "optimal,tipp", *times)
    add("edge", "simulate", "--num-levels", "2", "--capacity-per-level", "3",
        "--temperature", "10", "--num-cars", "12", "--departure-prob", "0.2",
        "--policies", "optimal", "--seed", "0")
    simulate("edge", 50, 200, 1.0, 500, "--policies", POLICIES)
    add("edge", "simulate", "--config", str(inputs / "times_t1.json"), "--t2", "7")
    add("edge", "simulate", "--config", str(inputs / "policies_ok.json"))
    add("edge", "simulate", "--config", str(inputs / "policies_string.json"), "--num-cars", "5")
    add("edge", "render")
    add("edge", "render", "--num-levels", "3", "--capacity-per-level", "4",
        "--temperature", "2", "--seed", "5")
    calls.append(("edge", ["simulate", "--config", str(inputs / "output_dir.json")]))

    grid = str(inputs / "grid.csv")
    add("tied", "fit", grid)
    add("tied", "fit", grid, "--initial-temperature", "2")
    add("tied", "sample-curve", grid, "--sizes", "5,50,400", "--trials", "10", "--seed", "0")
    calls.append(("tied", ["fit", grid]))  # no --out: the report goes to stdout alone

    for argv in usage_errors(inputs):
        add("usage", *argv)
    calls.append(("help", ["--help"]))
    calls.append(("help", []))
    for verb in ("simulate", "sweep", "fit", "sample-curve", "render"):
        calls.append(("help", [verb, "--help"]))
    return calls


def usage_errors(inputs: Path) -> list:
    """Calls that must fail before any output exists, each bad value alone
    and then several at once, where the first error must win."""
    sweep = ["sweep", "--temperatures", "0.5"]
    bad = {
        "--num-levels": ["0", "-1", "1.5", "x", "1_0", ""],
        "--capacity-per-level": ["0", "2.5"],
        "--temperature": ["0", "99", "nan", "inf", "-0.5", "x", "0_5", "０.5"],
        "--num-cars": ["0", "-3", "2.5"],
        "--departure-prob": ["-0.1", "1.5", "nan"],
        "--seed": ["-1", "1.5", "x", "１"],
        "--t1": ["0", "-1", "inf", "nan", "1e309"],
        "--t2": ["0", "-2"],
        "--t3": ["0", "inf"],
        "--policies": ["bogus", "", ",", "tipp,tipp", "tipp,bogus", "TIPP"],
        "--bogus": ["1"],
    }
    calls = [["simulate", flag, value] for flag, values in bad.items() for value in values]
    calls += [
        ["simulate", "--policies", "bogus", "--t1", "-1"],
        ["simulate", "--policies", "bogus", "--num-levels", "0"],
        ["simulate", "--policies", "bogus", "--temperature", "20"],
        ["simulate", "--policies", "tipp,tipp", "--t3", "0", "--seed", "-1"],
        ["simulate", "--t1", "-1", "--num-levels", "0"],
        ["simulate", "--t1", "-1", "--t2", "0"],
        ["simulate", "--num-levels", "0", "--num-cars", "0", "--temperature", "99"],
        ["simulate", "--config", str(inputs / "policies_ok.json"), "--policies", "bogus",
         "--t2", "0"],
        ["simulate", "--config", str(inputs / "times_t1.json"), "--t2", "0"],
        ["simulate", "--config", str(inputs / "policies_dup.json"), "--policies", "tipp"],
        ["simulate", "--initial-temperature", "9"],
        ["simulate", "--temperatures", "0.5"],
        ["simulate", "extra"],
        [*sweep, "--temperature", "0.9"],
        ["sweep"],
        ["sweep", "--temperatures", ""],
        ["sweep", "--temperatures", "0.5,1.0,0.50"],
        ["sweep", "--temperatures", "0.5,99"],
        ["sweep", "--temperatures", "0.1,0_5"],
        ["sweep", "--temperatures", "0.5,99", "--policies", "bogus"],
        ["render", "--num-levels", "0"],
        ["render", "--temperature", "99"],
        ["render", "--num-cars", "1"],
        ["fit"],
        ["fit", str(inputs / "missing.csv")],
        ["fit", str(inputs / "bad.csv")],
        ["fit", str(inputs / "grid.csv"), "--initial-temperature", "99"],
        ["fit", str(inputs / "grid.csv"), "--initial-temperature", "0_5"],
        ["sample-curve", str(inputs / "grid.csv")],
        ["sample-curve", str(inputs / "grid.csv"), "--sizes", "0"],
        ["sample-curve", str(inputs / "grid.csv"), "--sizes", ""],
        ["sample-curve", str(inputs / "grid.csv"), "--sizes", "5,1000"],
        ["sample-curve", str(inputs / "grid.csv"), "--sizes", "5,1_0"],
        ["sample-curve", str(inputs / "grid.csv"), "--sizes", "5", "--trials", "0"],
        ["sample-curve", str(inputs / "grid.csv"), "--sizes", "5", "--seed", "-1"],
        ["bogus"],
    ]
    for verb in (["simulate"], sweep, ["render"]):
        calls += [[*verb, "--config", str(inputs / f"{name}.json")] for name in BAD_CONFIGS]
    return calls


def run_call(argv: list, cwd: Path, work: Path) -> dict:
    """Run one call in a fresh ``cwd``: its exit code, its output with
    ``work`` written as ``<work>``, and the sha256 of each file it wrote."""
    from tipp.cli import main

    shutil.rmtree(cwd, ignore_errors=True)
    cwd.mkdir(parents=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # recorded, so that the battery goes on
                code = f"{type(exc).__name__}: {exc}"
    finally:
        os.chdir(here)
    files = {str(path.relative_to(cwd)): hashlib.sha256(path.read_bytes()).hexdigest()
             for path in sorted(cwd.rglob("*")) if path.is_file()}
    shutil.rmtree(cwd)
    return {"argv": [a.replace(str(work), "<work>") for a in argv], "code": code,
            "stdout": stdout.getvalue().replace(str(work), "<work>"),
            "stderr": stderr.getvalue().replace(str(work), "<work>"), "files": files}


def run_battery(calls: list, work: Path) -> list:
    """Every call's record, in order; help text is laid out for 80 columns."""
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        return [run_call(argv, work / "call", work) for _, argv in calls]


def digest(records: list) -> str:
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()


def _extract(commit: str) -> Path:
    """The commit's ``src`` under ``.bench_build/equiv-<sha>/``, extracted afresh."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{commit}^{{commit}}"], cwd=REPO,
                         check=True, capture_output=True, text=True).stdout.strip()
    tree = BUILD / f"equiv-{sha[:12]}"
    shutil.rmtree(tree, ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.run(["git", "archive", "--format=tar", sha, "src"], cwd=REPO,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(tree, filter="data")
    return tree / "src"


def _record_in_child(src: Path, work: Path) -> list:
    with tempfile.NamedTemporaryFile(suffix=".json", dir=work) as fh:
        subprocess.run([sys.executable, __file__, "--src", str(src), "--work", str(work),
                        "--record", fh.name], check=True, stdout=subprocess.DEVNULL)
        return json.loads(Path(fh.name).read_text())


def _differences(old: dict, new: dict) -> str:
    parts = []
    for key in ("code", "stdout", "stderr", "files"):
        if old[key] != new[key]:
            parts.append(f"  {key}: {old[key]!r}\n    -> {new[key]!r}")
    return "\n".join(parts)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="COMMIT",
                        help="compare this tree's records with those of COMMIT")
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="the tipp source tree to run (default: this tree's)")
    parser.add_argument("--work", type=Path, help="working directory (default: a new one)")
    parser.add_argument("--record", type=Path, help="write the records as JSON here")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    BUILD.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="equiv-work-", dir=BUILD) as scratch:
        work = (args.work or Path(scratch)).resolve()
        if not (work / "inputs").exists():
            write_inputs(work)
        calls = battery(work / "inputs")
        if args.against is None:
            records = run_battery(calls, work)
            if args.record:
                args.record.write_text(json.dumps(records))
            print(f"equiv: {len(records)} calls, digest {digest(records)}")
            return 0
        old = _record_in_child(_extract(args.against), work)
        new = _record_in_child(args.src.resolve(), work)
    differ = [(o, n) for o, n in zip(old, new) if o != n]
    for o, n in differ:
        print(" ".join(n["argv"]))
        print(_differences(o, n))
    print(f"equiv: {len(new)} calls, {len(differ)} differ against {args.against}")
    return 1 if differ or len(old) != len(new) else 0


if __name__ == "__main__":
    sys.exit(main())
