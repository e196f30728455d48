"""Output checks. A failed check fails the run; it never becomes a metric.

Nothing here imports ``tipp``: each check recomputes what the program
should have written from the rules in the README (segment accounting,
the occupancy model) and compares.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

PERCAR_HEADER = ["car_index", "policy", "floors_scanned", "parked_floor", "spot_index",
                 "elapsed_seconds", "cumulative_seconds", "temperature_estimate"]
#: Half a unit in the last place of the CSV's six-decimal time columns.
CSV_ROUNDING = 5e-7


class CheckError(AssertionError):
    """An output of the program is wrong."""


def segment_time(floors, t1: float, t2: float, t3: float) -> float:
    """Time of an itinerary from the entrance (floor 0): t1 per scan, t3 per
    floor driven in either direction, t2 per floor walked up from the last."""
    driven = 0
    here = 0
    for floor in floors:
        driven += abs(floor - here)
        here = floor
    return len(floors) * t1 + driven * t3 + floors[-1] * t2


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol + 1e-12 * max(abs(a), abs(b))


def check_arrivals(arrivals, times) -> None:
    """Every placed car's elapsed time equals the segment accounting of its itinerary."""
    for a in arrivals:
        o = a.outcome
        floors = list(o.floors_scanned)
        if not floors or o.parked_floor != floors[-1]:
            raise CheckError(f"{a.policy} car {o.car_index}: parked on {o.parked_floor}"
                             f" but scanned {floors}")
        expected = segment_time(floors, *times)
        if not _close(o.elapsed_time, expected, 0.0):
            raise CheckError(f"{a.policy} car {o.car_index}: elapsed {o.elapsed_time} != "
                             f"segment accounting {expected} for floors {floors}")


def read_percar(path: Path, policy: str, times) -> list[float]:
    """Validate a per-car CSV row by row; return its elapsed seconds."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != PERCAR_HEADER:
        raise CheckError(f"{path.name}: unexpected header {rows[:1]}")
    elapsed = []
    cumulative = 0.0
    for line, row in enumerate(rows[1:], start=2):
        where = f"{path.name}:{line}"
        if len(row) != len(PERCAR_HEADER):
            raise CheckError(f"{where}: {len(row)} columns")
        if row[1] != policy:
            raise CheckError(f"{where}: policy {row[1]!r}, expected {policy!r}")
        floors = [int(f) for f in row[2].split("|")]
        if row[3] != str(floors[-1]):
            raise CheckError(f"{where}: parked on {row[3]!r} but scanned {floors}")
        seconds = float(row[5])
        expected = segment_time(floors, *times)
        if not _close(seconds, expected, CSV_ROUNDING):
            raise CheckError(f"{where}: elapsed {seconds} != segment accounting {expected}"
                             f" for floors {floors}")
        cumulative += expected
        if not _close(float(row[6]), cumulative, CSV_ROUNDING):
            raise CheckError(f"{where}: cumulative {row[6]} != running sum {cumulative}")
        elapsed.append(seconds)
    return elapsed


def check_simulate(out: Path, policies, times) -> dict:
    """Check ``tipp simulate`` outputs; return summary.json keyed by policy."""
    summary = {entry["policy"]: entry
               for entry in json.loads((out / "summary.json").read_text())}
    if sorted(summary) != sorted(policies):
        raise CheckError(f"summary.json has policies {sorted(summary)}, expected {sorted(policies)}")
    for policy in policies:
        elapsed = read_percar(out / f"{policy}_percar.csv", policy, times)
        entry = summary[policy]
        tol = CSV_ROUNDING * max(1, len(elapsed))
        if not _close(entry["total_time"], sum(elapsed), tol):
            raise CheckError(f"summary.json {policy}: total_time {entry['total_time']} != "
                             f"sum of per-car rows {sum(elapsed)}")
        mean = entry["total_time"] / len(elapsed) if elapsed else 0.0
        if not _close(entry["mean_time"], mean, 0.0):
            raise CheckError(f"summary.json {policy}: mean_time {entry['mean_time']} != {mean}")
    check_optimal_first({p: summary[p]["total_time"] for p in policies}, "summary.json")
    return summary


def read_sweep(path: Path) -> dict:
    """``sweep.csv`` as {(temperature, policy): cumulative seconds}."""
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "temperature,policy,cumulative_seconds":
        raise CheckError(f"{path.name}: unexpected header {lines[:1]}")
    rows = {}
    for line in lines[1:]:
        temperature, policy, total = line.split(",")
        rows[(float(temperature), policy)] = float(total)
    return rows


def check_sweep(rows: dict, arrivals) -> None:
    """Each sweep row equals the sum of its cars, and optimal is fastest at each temperature."""
    sums = {}
    counts = {}
    for a in arrivals:
        key = (a.temperature, a.policy)
        sums[key] = sums.get(key, 0.0) + a.outcome.elapsed_time
        counts[key] = counts.get(key, 0) + 1
    for key, total in rows.items():
        if not _close(total, sums.get(key, 0.0), CSV_ROUNDING):
            raise CheckError(f"sweep.csv {key}: {total} != sum of its {counts.get(key, 0)} cars "
                             f"{sums.get(key, 0.0)}")
    for temperature in sorted({t for t, _ in rows}):
        check_optimal_first({p: v for (t, p), v in rows.items() if t == temperature},
                            f"sweep.csv at T={temperature}")


def check_optimal_first(totals: dict, where: str) -> None:
    """The full-information policy is never slower than any other."""
    if "optimal" not in totals:
        return
    for policy, total in totals.items():
        if totals["optimal"] > total + 1e-9:
            raise CheckError(f"{where}: optimal {totals['optimal']} > {policy} {total}")


def survey_mse(x, y, occupied, poi, temperature: float) -> float:
    """Full-lot MSE of q(E, T) = 2 / (1 + exp(E / T)) against the surveyed flags."""
    dist = np.hypot(np.asarray(x) - poi[0], np.asarray(y) - poi[1])
    energies = (dist / dist.max()) ** 2
    q = 2.0 / (1.0 + np.exp(energies / temperature))
    return float(np.mean((q - np.asarray(occupied, dtype=float)) ** 2))


def check_fit_report(report: dict, num_spots: int, start_loss: float) -> None:
    """``tipp fit`` saw every spot, stayed in the domain and never ended above its start."""
    if report["n_observations"] != num_spots:
        raise CheckError(f"fit saw {report['n_observations']} spots, survey has {num_spots}")
    if not 1e-3 <= report["temperature"] <= 10.0:
        raise CheckError(f"fitted temperature {report['temperature']} outside [1e-3, 10]")
    if not report["final_loss"] <= start_loss * (1 + 1e-9):
        raise CheckError(f"fit loss {report['final_loss']} > loss at the initial "
                         f"temperature {start_loss}")


def check_sample_curve(path: Path, sizes) -> None:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "sample_size,mean_mse,std_mse":
        raise CheckError(f"{path.name}: unexpected header {lines[:1]}")
    rows = [line.split(",") for line in lines[1:]]
    if [int(r[0]) for r in rows] != list(sizes):
        raise CheckError(f"{path.name}: sizes {[r[0] for r in rows]}, expected {list(sizes)}")
    for size, mean, std in rows:
        if not (math.isfinite(float(mean)) and math.isfinite(float(std))
                and float(mean) >= 0 and float(std) >= 0):
            raise CheckError(f"{path.name}: size {size} has mean {mean}, std {std}")


def hash_tree(root: Path) -> dict:
    """sha256 of every file under ``root``, keyed by its relative path."""
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def arrivals_digest(arrivals) -> str:
    """One hash of every per-car decision and time, for the determinism check."""
    h = hashlib.sha256()
    for a in arrivals:
        o = a.outcome
        h.update(f"{a.policy},{a.temperature!r},{o.car_index},{o.floors_scanned},"
                 f"{o.parked_floor},{o.spot_index},{o.elapsed_time!r},"
                 f"{o.temperature_estimate_after!r}\n".encode())
    return h.hexdigest()
