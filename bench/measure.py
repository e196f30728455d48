"""End-to-end metric names, latency percentiles and process memory."""

import resource

import numpy as np

#: Every end-to-end metric the bench reports: name -> (unit, better).
#: BENCHMARK.json gates the ones that every workload has.
END_TO_END = {
    "wall_ref_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "cars_per_s": ("1/s", "higher"),
    "car_ms_p50": ("ms", "lower"),
    "car_ms_tail": ("ms", "lower"),
    "fits_per_s": ("1/s", "higher"),
    "tipp_park_s": ("s", "lower"),
    "fit_loss": ("mse", "lower"),
    "fail_frac": ("ratio", "lower"),
}

#: Candidate tail percentiles, in hundredths of a percent (p50 ... p99.99).
TAIL_LADDER = (5000, 9000, 9500, 9900, 9990, 9999)
#: A tail percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def tail_percentile(samples: int) -> float | None:
    """The highest ladder percentile with at least MIN_BEYOND of ``samples`` beyond it."""
    best = None
    for hundredths in TAIL_LADDER:
        # integer form of samples * (1 - p/100) >= MIN_BEYOND
        if samples * (10_000 - hundredths) >= MIN_BEYOND * 10_000:
            best = hundredths / 100
    return best


def latency_summary(seconds) -> dict:
    """p50 and tail of one repetition's per-car latencies, in milliseconds."""
    ms = np.asarray(seconds, dtype=float) * 1e3
    tail = tail_percentile(ms.size)
    return {
        "samples": int(ms.size),
        "p50": float(np.percentile(ms, 50)),
        "tail_percentile": tail,
        "tail": None if tail is None else float(np.percentile(ms, tail)),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process so far, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
