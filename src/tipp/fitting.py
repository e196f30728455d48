"""Temperature estimation from occupancy observations.

Observations are two equal-length float arrays, ``energies`` and
``fills``: entry i pairs a spot (or floor) energy with the occupancy
seen there, 1/0 for a single surveyed spot or occupied/capacity for a
whole floor.  The lot temperature is fitted by minimising the mean
squared error L between the model occupancy q(E, T) and the observed
fills, with a safeguarded Newton method in u = log T.  With x = E/T,
s = q (1 - q/2) and r = q - fill, the analytic derivatives are

    dq/du   = s x
    d2q/du2 = dq/du ((1 - q) x - 1)
    L'      = mean(2 r dq/du)
    L''     = mean(2 (dq/du)**2 + 2 r d2q/du2)

(verified against central finite differences in the test suite), with
dq/du taken as 0 where q rounds to 1 and the loss is flat in T.  Each
step moves u by -L'/L'' where L'' > 0 and by one unit down the gradient
elsewhere, at most one unit either way, and halves the move until the
loss strictly drops; T is clamped to [T_MIN, T_MAX].  The starting
temperature is the fit's only setting.

q always comes from the one kernel, ``model._q``.  A fit of at most
``_SCALAR_MAX`` observations then reduces on Python floats, where
numpy's cost per call outweighs its arithmetic, in the numpy path's
order of correctly rounded operations and sums, so both give the same bits.

Also here: survey ingestion (CSV with one point of interest followed by
spot rows), reduction of a survey to (energy, fill) observations via
squared normalized distances, a synthetic-survey generator, and the
sample-efficiency experiment (fit on random subsets, score on the full
lot).
"""

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .model import (
    _ENERGY_CAP,
    T_MAX,
    T_MIN,
    _check_count,
    _check_temperature,
    _q,
    spot_occupancy_prob,
)

#: Smallest move in u = log T the fit resolves: a Newton step no longer
#: than this has converged, and the line search halves down to it.
_RESOLUTION = 1e-9
#: Most accepted steps before the fit stops.
_MAX_ITERATIONS = 10_000
#: Most observations a fit reduces on Python floats once q is computed:
#: a Newton iteration there cost less than numpy's up to 15 points, and
#: more from 16 (x86-64, Python 3.11, numpy 2.4).
_SCALAR_MAX = 14
#: Spot rows ``save_survey`` formats and writes at a time.
_SAVE_BLOCK = 4096


@dataclass(frozen=True)
class FitResult:
    """A fitted temperature, the loss there, the accepted steps, and why
    the fit stopped (see :func:`fit_temperature`): ``"converged"``,
    ``"pinned"``, ``"no_improving_step"`` or ``"max_iterations"``.  A fit
    ends where a restart from its result would end: unless the cap
    stopped it, a fit from ``temperature`` on the same observations
    returns this result bit for bit, with 0 iterations."""

    temperature: float
    final_loss: float
    iterations: int
    stop_reason: str

    @property
    def clamped(self) -> bool:
        """True when the fitted temperature sits on a domain bound."""
        return self.temperature <= T_MIN or self.temperature >= T_MAX


@dataclass(frozen=True)
class LotSurvey:
    """Surveyed lot geometry: spot coordinates, occupancy flags (bool, 0 or 1), one POI."""

    x: np.ndarray
    y: np.ndarray
    occupied: np.ndarray
    poi: tuple

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        occ = np.asarray(self.occupied)  # dtype=bool would read 0.5, 2 or NaN as occupied
        if occ.dtype != bool and not (occ.dtype.kind in "iuf" and np.isin(occ, (0, 1)).all()):
            raise ValueError("occupancy flags must be bools, 0 or 1")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "occupied", occ.astype(bool, copy=False))
        object.__setattr__(self, "poi", (float(self.poi[0]), float(self.poi[1])))
        if not (x.shape == y.shape == occ.shape and x.ndim == 1):
            raise ValueError("x, y, occupied must be 1-D arrays of equal length")
        if x.size < 2:
            raise ValueError("survey needs at least 2 spots")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("spot coordinates must be finite")
        if not all(map(math.isfinite, self.poi)):
            raise ValueError("point of interest must be finite")


@dataclass(frozen=True)
class SampleEfficiencyPoint:
    sample_size: int
    mean_mse: float
    std_mse: float


def survey_to_observations(survey: LotSurvey) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a survey to ``(energies, fills)`` observation arrays.

    Energy is the squared spot-to-POI distance normalized by the maximum
    distance in the lot, so energies span (0, 1] with the farthest spot
    at exactly 1.  Fill is 1 for an occupied spot, 0 for a vacant one.
    Energies are computed in place: two n-sized arrays at most, the two returned.
    """
    px, py = survey.poi
    dist = survey.x - px
    np.hypot(dist, survey.y - py, out=dist)
    max_dist = float(dist.max())
    if max_dist == 0.0:
        raise ValueError("degenerate geometry: all spots coincide with the point of interest")
    np.divide(dist, max_dist, out=dist)
    return np.square(dist, out=dist), survey.occupied.astype(float)


def _sorted_observations(energies, fills) -> tuple[np.ndarray, np.ndarray]:
    """Validate observation arrays and sort them by (energy, fill).

    Sorting makes the loss (a mean) exactly invariant to input order.
    One argsort orders the energies; only when two sorted energies tie
    does a lexsort over the energy-sorted keys order fill within each
    tied run.  With distinct energies the permutation is unique, so the
    arrays equal those of one two-key lexsort byte for byte.  With ties,
    the two can differ only on pairs equal in both keys, which differ at
    most in the sign of a zero; each term such a pair adds to the loss,
    L' or L'' is then bitwise the same or a zero, and a float sum of
    zeros is -0 only when every term is, so every fit is unchanged.
    Energies above 700 T_MAX are clipped to it after the sort, so E/T
    stays finite; q is unchanged, as E/T >= 700 is capped either way.
    """
    e = np.asarray(energies, dtype=float)
    f = np.asarray(fills, dtype=float)
    if e.ndim != 1 or e.shape != f.shape:
        raise ValueError("energies and fills must be 1-D arrays of equal length")
    if e.size == 0:
        raise ValueError("observations must be non-empty")
    order = e.argsort()
    e = e[order]
    hi = e[-1]
    if not (e[0] >= 0 and hi < math.inf):  # the sort puts -inf first and NaN last
        raise ValueError("energies must be finite and non-negative")
    if not (f.min() >= 0 and f.max() <= 1):
        raise ValueError("fills must lie in [0, 1]")
    if np.count_nonzero(e[1:] == e[:-1]):
        sub = np.lexsort((f[order], e))
        order, e = order[sub], e[sub]
    if hi > _ENERGY_CAP:
        np.minimum(e, _ENERGY_CAP, out=e)
    return e, f[order]


def mse_loss(temperature: float, energies, fills) -> float:
    """Mean squared error between model occupancy and observed fills."""
    _check_temperature(temperature, "temperature")
    return _evaluate(temperature, *_sorted_observations(energies, fills))[0]


def _sum(terms) -> float:
    """``float(np.add.reduce(terms))`` for a list of at most 128 floats, in
    numpy's order, so bit for bit: under 8 terms a running sum from +0.0;
    else eight lanes that each add every eighth term, combined pairwise,
    then the tail one by one, and the +0.0 identity in front (so -0.0
    terms sum to +0.0).  ``sum()`` is no substitute: from Python 3.12 it
    compensates."""
    end = len(terms) - len(terms) % 8
    total = 0.0
    if end:
        a = terms[:8]
        for i in range(8, end, 8):
            a = [u + v for u, v in zip(a, terms[i:i + 8])]
        total = ((a[0] + a[1]) + (a[2] + a[3])) + ((a[4] + a[5]) + (a[6] + a[7]))
    for v in terms[end:]:
        total += v
    return 0.0 + total


def _evaluate(t, energies, fills):
    """``(loss, (x, q, r))`` at T = ``t``: x = E/T (the kernel caps it at
    700), q and r = q - fill, which ``_loss_derivatives`` reads: three
    n-sized buffers, or three lists of floats for at most ``_SCALAR_MAX``
    observations.  The kernel itself, not spot_occupancy_prob, on checked
    observations; the sum and division are np.mean's, minus its call overhead."""
    x = np.divide(energies, t)
    q = _q(x, out=np.empty_like(x))
    if x.size > _SCALAR_MAX:
        r = q - fills
        return float(np.add.reduce(r * r)) / r.size, (x, q, r)
    x, q = x.tolist(), q.tolist()
    r = [a - b for a, b in zip(q, fills.tolist())]
    return _sum([v * v for v in r]) / len(r), (x, q, r)


def _loss_derivatives(x, q, r) -> tuple[float, float]:
    """L' and L'' in u = log T from ``_evaluate``'s buffers at T, which it
    overwrites, and one more n-sized buffer, or from its lists, one float
    at a time in the same order.  The kernel capped x at 700, so q * x and
    every other term stay finite for any finite energy (E/T itself may
    overflow first).  dq/du is 0 on the leading run of the sorted points
    where q rounds to 1, as the loss there is flat in T."""
    ones = bisect_left(q, True, key=lambda v: v < 1.0) if q[0] == 1.0 else 0
    if isinstance(q, list):
        dq = [(v * -0.5 + 1.0) * v * w for v, w in zip(q, x)]  # dq/du = s x
        dq[:ones] = [0.0] * ones
        d1 = _sum([a * b for a, b in zip(r, dq)])
        d2 = _sum([(((1.0 - v) * w - 1.0) * a + b) * b for v, w, a, b in zip(q, x, r, dq)])
        return 2.0 * d1 / len(r), 2.0 * d2 / len(r)
    dq = q * -0.5
    dq += 1.0
    dq *= q
    dq *= x  # dq/du = s x
    dq[:ones] = 0.0
    np.subtract(1.0, q, out=q)
    q *= x
    q -= 1.0  # d2q/du2 = dq/du ((1 - q) x - 1)
    q *= r
    q += dq
    q *= dq  # (dq/du)**2 + r d2q/du2
    r *= dq
    return 2.0 * float(np.add.reduce(r)) / r.size, 2.0 * float(np.add.reduce(q)) / r.size


def fit_temperature(energies, fills, initial_temperature: float = 0.5) -> FitResult:
    """Fit the temperature by a safeguarded Newton method in u = log T.

    Starts at ``initial_temperature``.  Each step is du = -L'/L'' where
    L'' > 0 and a unit step down the gradient elsewhere, capped at
    |du| <= 1 and halved until the loss strictly drops; the candidate is
    T exp(du) clamped to [T_MIN, T_MAX].  The fit stops at the first
    iteration that accepts no step, the Newton step being within the
    resolution (converged), T pinned at a bound with the gradient
    pointing outward, or no halving down to the resolution lowering the
    loss; else at the iteration cap.  The result says why.  Accepted
    steps strictly lower the loss, so the result never scores worse than
    the start, and ``final_loss`` is the loss at the returned temperature.
    """
    _check_temperature(initial_temperature, "initial_temperature")
    energies, fills = _sorted_observations(energies, fills)
    t = float(initial_temperature)
    loss, bufs = _evaluate(t, energies, fills)
    for iterations in range(_MAX_ITERATIONS):  # each pass that goes on accepts one step
        d1, d2 = _loss_derivatives(*bufs)
        if (t <= T_MIN and d1 > 0) or (t >= T_MAX and d1 < 0):
            return FitResult(t, loss, iterations, "pinned")
        # not -L' where L'' <= 0: that crawls through the flat hot region
        du = -d1 / d2 if d2 > 0 else -math.copysign(1.0, d1)
        converged = abs(du) <= _RESOLUTION  # never true of the unit step
        du = min(max(du, -1.0), 1.0)
        while True:
            cand = min(max(t * math.exp(du), T_MIN), T_MAX)
            bufs = None  # spent: dropped first, so at most four n-sized buffers live
            cand_loss, bufs = _evaluate(cand, energies, fills)
            if cand_loss < loss or abs(du) <= _RESOLUTION:
                break
            du *= 0.5
        if not cand_loss < loss:
            return FitResult(t, loss, iterations,
                             "converged" if converged else "no_improving_step")
        t, loss = cand, cand_loss
    return FitResult(t, loss, _MAX_ITERATIONS, "max_iterations")


def sample_efficiency_curve(survey: LotSurvey, sample_sizes, trials_per_size: int,
                            seed: int, initial_temperature: float = 0.5) -> list[SampleEfficiencyPoint]:
    """Fit on random observation subsets, score the fit on the full lot.

    For each requested size, ``trials_per_size`` subsets are drawn
    without replacement; each trial's generator is derived from
    (seed, size, trial index) so results do not depend on evaluation
    order.  Reported per size: mean and standard deviation of the
    full-lot MSE of the subset fits, each started at ``initial_temperature``.
    """
    _check_count(trials_per_size, "trials_per_size")
    _check_count(seed, "seed", 0)
    energies, fills = survey_to_observations(survey)
    n = len(energies)
    scored = _sorted_observations(energies, fills)
    sizes = list(sample_sizes)
    if not sizes:
        raise ValueError("at least one sample size is required")
    for s in sizes:
        _check_count(s, "sample size")
        if s > n:
            raise ValueError(f"sample size {s} outside [1, {n}]")
    points = []
    for size in map(int, sizes):
        losses = np.empty(trials_per_size)
        for trial in range(trials_per_size):
            rng = np.random.default_rng([seed, size, trial])
            idx = rng.choice(n, size=size, replace=False)
            fit = fit_temperature(energies[idx], fills[idx], initial_temperature)
            losses[trial] = _evaluate(fit.temperature, *scored)[0]
        points.append(
            SampleEfficiencyPoint(size, float(losses.mean()), float(losses.std()))
        )
    return points


def synthetic_survey(num_spots: int, temperature: float, seed: int) -> LotSurvey:
    """A synthetic lot: spots uniform in a disk of radius 100 around a POI at
    the origin, occupancy drawn per spot from the model at ``temperature``.
    In place, so at most four n-sized float arrays live at once: x, y, the
    radii (then energies, then draws) and q (34n bytes traced at 100k spots)."""
    _check_count(num_spots, "num_spots", 2)
    _check_count(seed, "seed", 0)
    poi = (0.0, 0.0)
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 2.0 * math.pi, num_spots)  # the angles, until cos
    r = 100.0 * np.sqrt(rng.uniform(0.0, 1.0, num_spots))
    y = poi[1] + r * np.sin(x)
    x = poi[0] + r * np.cos(x, out=x)
    r /= r.max()
    q = spot_occupancy_prob(np.square(r, out=r), temperature)
    occupied = rng.random(num_spots, out=r) < q
    return LotSurvey(x=x, y=y, occupied=occupied, poi=poi)


def _plain_number(text: str) -> bool:
    """True when ``text`` is ASCII with no '_'.  ``float()`` and ``int()``
    also read digit separators and non-ASCII digits, which no number
    given to tipp may use."""
    return text.isascii() and "_" not in text


def _bulk_spots(fh, start):
    """The spot records from ``start``, where ``fh`` stands, to its end, as
    ``(x, y, occupied)`` from one C pass, or None where the line loop must
    decide: a non-ASCII character, '_' or NUL in the text (loadtxt skips
    non-ASCII blanks and drops a flag's trailing NUL), no record, or a
    line other than ``<x>,<y>,<0|1>`` with finite coordinates.  On that
    subset loadtxt reads each number as ``float()`` does."""
    records = False
    for chunk in iter(lambda: fh.read(1 << 16), ""):
        if not _plain_number(chunk) or "\x00" in chunk:
            return None
        records = records or "," in chunk  # loadtxt warns on a body with no record
    fh.seek(start)
    if not records:
        return None
    try:  # two flag characters, so that 10 or 1.0 stays whole and fails the check
        spots = np.loadtxt(fh, dtype=[("x", float), ("y", float), ("flag", "U2")],
                           delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None
    x, y, flag = spots["x"].copy(), spots["y"].copy(), spots["flag"]
    occupied = flag == "1"
    if not (np.all(occupied | (flag == "0")) and np.isfinite(x).all() and np.isfinite(y).all()):
        return None
    return x, y, occupied


def load_survey(path) -> LotSurvey:
    """Parse a survey CSV.

    Format: lines starting with '#' are comments; the first data line is
    ``poi,<x>,<y>``; every following line is ``<x>,<y>,<0|1>``.  A data
    line is ASCII with no '_'.  Each record is checked as it is read, so
    an error names the first bad record's ``<path>:<line>``.  After the
    POI line a seekable file's records are parsed in one C pass when
    they are all in the plain form; otherwise the line loop, which
    defines the format and every error, reads them from there.
    """
    poi = None
    xs, ys, occ = [], [], []
    with open(path, newline="") as fh:
        # readline, not iteration, so that tell() works after the POI line
        lines = enumerate(iter(fh.readline, ""), start=1)
        for lineno, raw in lines:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not _plain_number(raw):
                raise ValueError(f"{path}:{lineno}: a data line must be ASCII with no '_'")
            parts = line.split(",")  # float() ignores a field's surrounding blanks
            if poi is None:
                if len(parts) != 3 or parts[0].strip() != "poi":
                    raise ValueError(
                        f"{path}:{lineno}: expected 'poi,<x>,<y>' as the first data line"
                    )
                try:
                    poi = (float(parts[1]), float(parts[2]))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed POI coordinates") from None
                if not all(map(math.isfinite, poi)):
                    raise ValueError(f"{path}:{lineno}: point of interest must be finite")
                if fh.seekable():
                    start = fh.tell()
                    spots = _bulk_spots(fh, start)
                    if spots is not None:
                        xs, ys, occ = spots
                        break
                    fh.seek(start)
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected '<x>,<y>,<0|1>'")
            try:
                x = float(parts[0])
                y = float(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed coordinates") from None
            flag = parts[2].strip()
            if flag not in ("0", "1"):
                raise ValueError(f"{path}:{lineno}: occupancy flag must be 0 or 1")
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}:{lineno}: spot coordinates must be finite")
            xs.append(x)
            ys.append(y)
            occ.append(flag == "1")
    if poi is None:
        raise ValueError(f"{path}: missing 'poi,<x>,<y>' record")
    if len(xs) < 2:
        raise ValueError(f"{path}: survey needs at least 2 spots")
    return LotSurvey(x=xs, y=ys, occupied=occ, poi=poi)


def save_survey(survey: LotSurvey, path) -> None:
    """Write a survey in the CSV format understood by :func:`load_survey`,
    in blocks of 4096 rows, so the writer's memory does not grow with n."""
    with open(path, "w", newline="") as fh:
        fh.write(f"poi,{survey.poi[0]!r},{survey.poi[1]!r}\n")
        columns = (survey.x, survey.y, survey.occupied)
        for i in range(0, survey.x.size, _SAVE_BLOCK):
            rows = zip(*(c[i:i + _SAVE_BLOCK].tolist() for c in columns))
            fh.write("".join([f"{x!r},{y!r},{1 if occ else 0}\n" for x, y, occ in rows]))
