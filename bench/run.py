"""Benchmark of the tipp reproduction, run through its real CLI entry point.

    python3 bench/run.py --workload ref_sweep --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seconds 25   # every workload, one process each

One run of one workload, in one process with BLAS/OpenMP pinned to one
thread:

1. set-up: import tipp and write the inputs in this process;
2. one reference repetition of the workload's CLI calls, whose outputs
   are checked (bench/checks.py);
3. repetitions until ``--seconds`` have passed (at least MIN_REPS); each
   must reproduce the reference's output files and per-car decisions
   byte for byte.  With ``--trace 1`` every repetition is followed by a
   traced one; the fastest traced repetition gives the per-layer
   metrics and the spans written out.  SETUP_PROBES times, spread
   evenly over the run, a fresh interpreter imports tipp and writes the
   inputs once more; ``setup_s`` is the median of these set-ups.

Every untraced repetition and every set-up is timed between two runs of
the reference loop of bench/calib.py, and scaled to reference seconds
by the loop's time beside it: the gated ``wall_ref_s`` and ``setup_s``
are medians of these scaled times, which the shared host's slow phases
barely move.  The raw seconds are reported beside them.

The last line of stdout is one JSON object: correct, attempted, failed
and the metrics that BENCHMARK.json names for the mode (end-to-end with
``--trace 0``, per-layer with ``--trace 1``).  Every metric, the
environment and the per-layer self-time breakdown are also written to
``.bench_out/results/``; a traced run also writes the spans of its
fastest traced repetition there.
"""

import argparse
import contextlib
import io
import json
import shutil
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import env

env.pin_threads()  # before any module below imports numpy

import calib  # noqa: E402
import checks  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
RESULTS = env.OUT / "results"
SETUP_PROBES = 7
MIN_REPS = 3


@dataclass
class Rep:
    """One repetition of a workload's CLI calls."""

    wall: float
    #: The reference loop's time beside the repetition (mean of before and after).
    loop: float
    codes: list
    arrivals: list
    out: Path
    files: dict
    digest: str
    recorder: spans.SpanRecorder | None


class Runner:
    def __init__(self, tipp, workload, inputs, seed, work: Path):
        self.tipp = tipp
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.work = work
        self.count = 0
        self.attempted = 0
        self.failed = 0

    def rep(self, traced: bool) -> Rep:
        out = self.work / f"rep{self.count:03d}"
        self.count += 1
        arrivals = []
        hook = (spans.traced(self.tipp, arrivals) if traced
                else spans.timed_arrivals(self.tipp, arrivals))
        argvs = self.workload.argvs(self.inputs, self.seed, out)
        before = calib.loop_s()
        with hook as recorder, contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            codes = [self.tipp.cli.main(argv) for argv in argvs]
            wall = perf_counter() - start
        loop = (before + calib.loop_s()) / 2
        cars = self.workload.cars_per_rep
        failed = cars - len(arrivals) + sum(code != 0 for code in codes)
        self.attempted += cars + len(argvs)
        self.failed += failed
        return Rep(wall, loop, codes, arrivals, out, checks.hash_tree(out),
                   checks.arrivals_digest(arrivals), recorder)

    def repeat(self, reference: Rep, traced: bool) -> Rep:
        """A repetition that must reproduce ``reference`` exactly."""
        rep = self.rep(traced)
        what = "traced repetition" if traced else "repetition"
        if rep.codes != reference.codes:
            raise checks.CheckError(f"{what}: exit codes {rep.codes} != {reference.codes}")
        if rep.files != reference.files:
            differ = sorted(k for k in rep.files.keys() | reference.files.keys()
                            if rep.files.get(k) != reference.files.get(k))
            raise checks.CheckError(f"{what} with seed {self.seed}: files differ: {differ}")
        if rep.digest != reference.digest:
            raise checks.CheckError(f"{what} with seed {self.seed}: per-car decisions differ")
        shutil.rmtree(rep.out, ignore_errors=True)
        return rep


def probe_setup(workload: str, seed: int) -> tuple:
    """One set-up in a fresh interpreter: (its seconds, the reference loop's time beside it)."""
    before = calib.loop_s()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "setup_probe.py"), "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    loop = (before + calib.loop_s()) / 2
    return float(proc.stdout.splitlines()[-1]), loop


def sample(workload, rep: Rep) -> dict:
    """What the end-to-end metrics need from one untraced repetition.

    Kept instead of the repetition, so that memory does not grow with
    the number of repetitions a run fits in.
    """
    out = {"wall": rep.wall, "loop": rep.loop}
    if workload.cars_per_rep:
        out["cars_per_s"] = len(rep.arrivals) / rep.wall
    if workload.fits_per_rep:
        out["fits_per_s"] = workload.fits_per_rep / rep.wall
    if workload.headline:
        out["latency"] = measure.latency_summary(
            [a.seconds for a in rep.arrivals if a.policy in workload.headline])
    return out


def end_to_end(runner: Runner, samples: list, setup: list, quality: dict) -> tuple:
    """End-to-end metrics of the untraced repetitions, plus details for the record.

    ``wall_ref_s`` and ``setup_s`` are medians of times scaled by the
    reference loop beside each (see bench/calib.py).  The raw
    figures are the run's best repetition (the least time, the highest
    rate): other tenants of the machine only ever slow a repetition.
    Raw medians are recorded too.
    """
    walls = [s["wall"] for s in samples]
    loops = [s["loop"] for s in samples]
    metrics = {
        "wall_ref_s": median(calib.reference_s(s["wall"], s["loop"]) for s in samples),
        "wall_s": min(walls),
        "setup_s": median(calib.reference_s(seconds, loop) for seconds, loop in setup),
        "peak_rss_mb": measure.peak_rss_mb(),
        "fail_frac": runner.failed / runner.attempted,
        **quality,
    }
    for name in ("cars_per_s", "fits_per_s"):
        if name in samples[0]:
            metrics[name] = max(s[name] for s in samples)
    details = {"walls_s": walls, "wall_median_s": median(walls), "loops_s": loops,
               "loop_reference_s": calib.REFERENCE_S,
               "setup_samples_s": [seconds for seconds, _ in setup],
               "setup_loops_s": [loop for _, loop in setup],
               "setup_median_s": median(seconds for seconds, _ in setup)}
    if "latency" in samples[0]:
        latency = [s["latency"] for s in samples]
        metrics["car_ms_p50"] = min(x["p50"] for x in latency)
        metrics["car_ms_tail"] = min(x["tail"] for x in latency)
        details["car_latency"] = {
            "policies": list(runner.workload.headline),
            "tail_percentile": latency[0]["tail_percentile"],
            "samples_per_rep": latency[0]["samples"],
            "reps": len(latency),
            "p50_median_ms": median(x["p50"] for x in latency),
            "tail_median_ms": median(x["tail"] for x in latency),
        }
    return metrics, details


def check_counts(first: dict, layer: dict) -> None:
    """Work counts must repeat exactly across repetitions of one seed."""
    for name, unit in spans.LAYER_UNITS.items():
        if unit == "count" and layer[name] != first[name]:
            raise checks.CheckError(f"{name} differs between repetitions of one seed: "
                                    f"{first[name]}, then {layer[name]}")


def per_layer(best: Rep, times: dict, layer: dict, untraced_wall: float) -> tuple:
    """Per-layer metrics and self-time breakdown of the fastest traced repetition."""
    metrics = {**layer, "trace.overhead_s": best.wall - untraced_wall}
    breakdown = {name: {"calls": calls, "self_s": own, "share": own / best.wall}
                 for name, (calls, _, own) in sorted(times.items())}
    unattributed = layer["trace.unattributed_s"]
    breakdown["(unattributed)"] = {"calls": 0, "self_s": unattributed,
                                   "share": unattributed / best.wall}
    return metrics, {"traced_wall_s": best.wall, "self_time": breakdown}


def run_workload(tipp, workload, seed: int, seconds: float, trace: bool) -> dict:
    env.OUT.mkdir(exist_ok=True)
    RESULTS.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=env.OUT))
    try:
        inputs = workload.setup(tipp, seed, work / "inputs")
        runner = Runner(tipp, workload, inputs, seed, work)
        reference = runner.rep(traced=False)
        quality = workload.check(inputs, reference.out, reference.arrivals)

        setup, samples, traced_walls = [], [], []
        first_layer = None
        best = None  # (rep, self times, layer metrics) of the fastest traced repetition
        start = perf_counter()
        while (len(samples) < MIN_REPS or len(setup) < SETUP_PROBES
               or perf_counter() < start + seconds):
            samples.append(sample(workload, runner.repeat(reference, traced=False)))
            if trace:
                rep = runner.repeat(reference, traced=True)
                times = rep.recorder.self_times()
                layer = spans.layer_metrics(times, rep.recorder.counters, rep.wall)
                first_layer = first_layer or layer
                check_counts(first_layer, layer)
                traced_walls.append(rep.wall)
                if best is None or rep.wall < best[0].wall:
                    best = (rep, times, layer)  # drops the previous best's spans
            if (len(setup) < SETUP_PROBES
                    and perf_counter() >= start + len(setup) * seconds / SETUP_PROBES):
                # spread over the run, so that one slow phase cannot hold them all
                setup.append(probe_setup(workload.name, seed))
        metrics, details = end_to_end(runner, samples, setup, quality)
        if trace:
            layer_metrics, layer_details = per_layer(*best, metrics["wall_s"])
            metrics.update(layer_metrics)
            details.update(layer_details, traced_walls_s=traced_walls)
            spans_path = RESULTS / f"{workload.name}-seed{seed}-spans.csv"
            best[0].recorder.write_csv(spans_path)
            details["spans_file"] = str(spans_path.relative_to(env.ROOT))
        return {"attempted": runner.attempted, "failed": runner.failed,
                "metrics": metrics, "details": details}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def units() -> dict:
    return {**{k: unit for k, (unit, _) in measure.END_TO_END.items()}, **spans.LAYER_UNITS}


def print_report(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}")
    e = record["environment"]
    print(f"  python {e['python']}, numpy {e['numpy']}, scipy {e['scipy']}, nproc {e['nproc']}, "
          f"commit {e['git_commit']}, BLAS/OpenMP threads {e['thread_settings']['OMP_NUM_THREADS']}")
    metrics = record["metrics"]
    for name, m in metrics.items():
        if name in measure.END_TO_END:
            print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")
    details = record["details"]
    latency = details.get("car_latency")
    if latency:
        print(f"  car_ms_tail is p{latency['tail_percentile']:g} of "
              f"{latency['samples_per_rep']} cars per repetition "
              f"({', '.join(latency['policies'])}), best of {latency['reps']} repetitions")
    if not record["trace"]:
        return
    print("  per-layer:")
    for name, m in metrics.items():
        if name in spans.LAYER_UNITS:
            print(f"    {name:<28} {m['value']:>14.6g} {m['unit']}")
    print(f"  self time of a traced repetition ({details['traced_wall_s']:.4f} s):")
    total = 0.0
    for name, row in sorted(details["self_time"].items(), key=lambda kv: -kv[1]["self_s"]):
        total += row["self_s"]
        print(f"    {name:<28} {row['calls']:>9} calls {row['self_s']:>10.4f} s "
              f"{100 * row['share']:6.1f}%")
    print(f"    {'sum':<28} {'':>15} {total:>10.4f} s")


def benchmark_names(trace: bool) -> list:
    spec = json.loads((env.ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def run_one(args) -> int:
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    try:
        tipp = env.import_tipp()
    except env.MissingProgram as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    names = benchmark_names(trace)
    try:
        result = run_workload(tipp, workload, args.seed, args.seconds, trace)
    except checks.CheckError as exc:
        print(f"bench: {workload.name} seed {args.seed}: check failed: {exc}", file=sys.stderr)
        print(result_line(False, 1, 1, {}))
        return 1
    except Exception:  # the program crashed: report it as an incorrect run
        traceback.print_exc()
        print(result_line(False, 1, 1, {}))
        return 1
    unit = units()
    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": int(trace),
        "environment": env.environment(args.seed),
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in result["metrics"].items()},
        "details": result["details"],
    }
    path = RESULTS / f"{workload.name}-seed{args.seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print_report(record)
    print(f"  recorded in {path.relative_to(env.ROOT)}")
    print(result_line(True, result["attempted"], result["failed"],
                      {k: record["metrics"][k] for k in names}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            totals["correct"] = False
            rows.append((name, f"run failed (exit {proc.returncode})"))
            continue
        result = json.loads(lines[-1])
        totals["correct"] &= result["correct"]
        totals["attempted"] += result["attempted"]
        totals["failed"] += result["failed"]
        totals["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        rows.append((name, result["failed"] / result["attempted"]))
    print("fail_frac by workload:")
    for name, frac in rows:
        print(f"  {name:<20} {frac}")
    print(json.dumps(totals))
    return 0 if totals["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="seconds of repetitions after the reference one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also trace every layer and report per-layer metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
