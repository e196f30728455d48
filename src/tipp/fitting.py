"""Temperature estimation from occupancy observations.

Observations are two equal-length float arrays, ``energies`` and
``fills``: entry i pairs a spot (or floor) energy with the occupancy
seen there, 1/0 for a single surveyed spot or occupied/capacity for a
whole floor.  The lot temperature is fitted by minimising the mean
squared error between the model occupancy q(E, T) and the observed
fills, using gradient descent on the single parameter T with the
analytic gradient

    dq/dT = q * (1 - q/2) * E / T**2

(verified against central finite differences in the test suite).  The
step size adapts by doubling/halving so the iterate only ever moves to
a strictly lower loss; T is clamped to [T_MIN, T_MAX] after every step.
The starting temperature is the fit's only setting.

Also here: survey ingestion (CSV with one point of interest followed by
spot rows), reduction of a survey to (energy, fill) observations via
squared normalized distances, a synthetic-survey generator, and the
sample-efficiency experiment (fit on random subsets, score on the full
lot).
"""

import math
from dataclasses import dataclass

import numpy as np

from .model import T_MAX, T_MIN, EntropyParams, _q, spot_occupancy_prob

#: Smallest step size tried before the line search gives up.
_STEP_FLOOR = 1e-18
#: Largest step size the doubling rule may reach.
_STEP_CEIL = 1e9
#: Step size of the first trial move.
_STEP_START = 0.05
#: Most accepted steps before the descent stops.
_MAX_ITERATIONS = 10_000
#: The descent stops once |dL/dT| is at most this.
_GRADIENT_TOLERANCE = 1e-8


@dataclass(frozen=True)
class FitResult:
    temperature: float
    final_loss: float
    iterations: int

    @property
    def clamped(self) -> bool:
        """True when the fitted temperature sits on a domain bound."""
        return self.temperature <= T_MIN or self.temperature >= T_MAX


@dataclass(frozen=True)
class LotSurvey:
    """Surveyed lot geometry: spot coordinates, occupancy flags, one point of interest."""

    x: np.ndarray
    y: np.ndarray
    occupied: np.ndarray
    poi: tuple

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        occ = np.asarray(self.occupied, dtype=bool)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "occupied", occ)
        object.__setattr__(self, "poi", (float(self.poi[0]), float(self.poi[1])))
        if not (x.shape == y.shape == occ.shape and x.ndim == 1):
            raise ValueError("x, y, occupied must be 1-D arrays of equal length")
        if x.size < 2:
            raise ValueError("survey needs at least 2 spots")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("spot coordinates must be finite")

    @property
    def num_spots(self) -> int:
        return int(self.x.size)


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
    """
    px, py = survey.poi
    dist = np.hypot(survey.x - px, survey.y - py)
    max_dist = float(dist.max())
    if max_dist == 0.0:
        raise ValueError("degenerate geometry: all spots coincide with the point of interest")
    return (dist / max_dist) ** 2, survey.occupied.astype(float)


def _sorted_observations(energies, fills) -> tuple[np.ndarray, np.ndarray]:
    """Validate observation arrays and sort them by (energy, fill).

    Sorting makes the loss (a mean) exactly invariant to input order.
    """
    e = np.asarray(energies, dtype=float)
    f = np.asarray(fills, dtype=float)
    if e.ndim != 1 or e.shape != f.shape:
        raise ValueError("energies and fills must be 1-D arrays of equal length")
    if e.size == 0:
        raise ValueError("observations must be non-empty")
    if not (e.min() >= 0 and e.max() < math.inf):  # NaN fails both
        raise ValueError("energies must be finite and non-negative")
    if not (f.min() >= 0 and f.max() <= 1):
        raise ValueError("fills must lie in [0, 1]")
    order = np.lexsort((f, e))
    return e[order], f[order]


def mse_loss(temperature: float, energies, fills) -> float:
    """Mean squared error between model occupancy and observed fills."""
    energies, fills = _sorted_observations(energies, fills)
    q = spot_occupancy_prob(energies, EntropyParams(temperature))
    return float(np.mean((q - fills) ** 2))


def _loss_and_grad(t, energies, fills):
    # the kernel itself, not spot_occupancy_prob: _sorted_observations
    # already validated the energies, and this runs once per trial step.
    # Both stay finite: q <= 1 bounds the loss by 1, and _q caps E/T at 700,
    # so q*E <= max(1400*T, 2e-304*E) and dq is finite for T >= T_MIN.
    q = _q(energies / t)
    resid = q - fills
    loss = float(np.mean(resid**2))
    dq = q * (1.0 - q / 2.0) * energies / (t * t)
    grad = float(np.mean(2.0 * resid * dq))
    return loss, grad


def fit_temperature(energies, fills, initial_temperature: float = 0.5) -> FitResult:
    """Fit the temperature by clamped gradient descent on the MSE.

    Starts at ``initial_temperature``.  Stops when |dL/dT| falls below
    the gradient tolerance, when the iterate is pinned at a domain bound
    with the gradient pointing outward, or after the iteration cap.  Each
    accepted step strictly decreases the loss, so the result never
    scores worse than the starting temperature.
    """
    if not T_MIN <= initial_temperature <= T_MAX:
        raise ValueError(f"initial_temperature must lie in [{T_MIN}, {T_MAX}]")
    energies, fills = _sorted_observations(energies, fills)
    t = float(initial_temperature)
    loss, grad = _loss_and_grad(t, energies, fills)
    step = _STEP_START
    iterations = 0
    while iterations < _MAX_ITERATIONS:
        if abs(grad) <= _GRADIENT_TOLERANCE:
            break
        if (t <= T_MIN and grad > 0) or (t >= T_MAX and grad < 0):
            break  # pinned at a clamp bound, projected gradient is zero
        moved = False
        while step >= _STEP_FLOOR:
            # cap the move at half the current temperature so a large step
            # cannot vault over a narrow loss basin into the flat cold
            # region where the gradient vanishes
            move = step * grad
            limit = 0.5 * t
            move = min(max(move, -limit), limit)
            cand = min(max(t - move, T_MIN), T_MAX)
            cand_loss, cand_grad = _loss_and_grad(cand, energies, fills)
            if cand != t and cand_loss < loss:
                t, loss, grad = cand, cand_loss, cand_grad
                step = min(step * 2.0, _STEP_CEIL)
                moved = True
                break
            step *= 0.5
        if not moved:
            break  # no strictly improving step exists at any scale
        iterations += 1
    return FitResult(temperature=t, final_loss=loss, iterations=iterations)


def sample_efficiency_curve(survey: LotSurvey, sample_sizes, trials_per_size: int,
                            seed: int, initial_temperature: float = 0.5) -> list[SampleEfficiencyPoint]:
    """Fit on random observation subsets, score the fit on the full lot.

    For each requested size, ``trials_per_size`` subsets are drawn
    without replacement; each trial's generator is derived from
    (seed, size, trial index) so results do not depend on evaluation
    order.  Reported per size: mean and standard deviation of the
    full-lot MSE of the subset fits, each started at ``initial_temperature``.
    """
    if trials_per_size < 1:
        raise ValueError("trials_per_size must be >= 1")
    energies, fills = survey_to_observations(survey)
    n = len(energies)
    sizes = [int(s) for s in sample_sizes]
    for s in sizes:
        if not 1 <= s <= n:
            raise ValueError(f"sample size {s} outside [1, {n}]")
    points = []
    for size in sizes:
        losses = np.empty(trials_per_size)
        for trial in range(trials_per_size):
            rng = np.random.default_rng([seed, size, trial])
            idx = rng.choice(n, size=size, replace=False)
            fit = fit_temperature(energies[idx], fills[idx], initial_temperature)
            losses[trial] = mse_loss(fit.temperature, energies, fills)
        points.append(
            SampleEfficiencyPoint(size, float(losses.mean()), float(losses.std()))
        )
    return points


def synthetic_survey(num_spots: int, temperature: float, seed: int,
                     poi: tuple = (0.0, 0.0), radius: float = 100.0) -> LotSurvey:
    """Generate a synthetic lot: spots uniform in a disk around the POI,
    occupancy drawn per spot from the model at the given temperature."""
    if num_spots < 2:
        raise ValueError("num_spots must be >= 2")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, num_spots)
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, num_spots))
    x = poi[0] + r * np.cos(theta)
    y = poi[1] + r * np.sin(theta)
    energies = (r / r.max()) ** 2
    q = spot_occupancy_prob(energies, EntropyParams(temperature))
    occupied = rng.random(num_spots) < q
    return LotSurvey(x=x, y=y, occupied=occupied, poi=poi)


def load_survey(path) -> LotSurvey:
    """Parse a survey CSV.

    Format: lines starting with '#' are comments; the first data line is
    ``poi,<x>,<y>``; every following line is ``<x>,<y>,<0|1>``.
    """
    poi = None
    xs, ys, occ = [], [], []
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split(",")]
            if poi is None:
                if len(parts) != 3 or parts[0] != "poi":
                    raise ValueError(
                        f"{path}:{lineno}: expected 'poi,<x>,<y>' as the first data line"
                    )
                try:
                    poi = (float(parts[1]), float(parts[2]))
                except ValueError:
                    raise ValueError(f"{path}:{lineno}: malformed POI coordinates") from None
                continue
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected '<x>,<y>,<0|1>'")
            try:
                x = float(parts[0])
                y = float(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed coordinates") from None
            if parts[2] not in ("0", "1"):
                raise ValueError(f"{path}:{lineno}: occupancy flag must be 0 or 1")
            xs.append(x)
            ys.append(y)
            occ.append(parts[2] == "1")
    if poi is None:
        raise ValueError(f"{path}: missing 'poi,<x>,<y>' record")
    if len(xs) < 2:
        raise ValueError(f"{path}: survey needs at least 2 spots")
    return LotSurvey(x=np.array(xs), y=np.array(ys), occupied=np.array(occ), poi=poi)


def save_survey(survey: LotSurvey, path) -> None:
    """Write a survey in the CSV format understood by :func:`load_survey`."""
    with open(path, "w", newline="") as fh:
        fh.write(f"poi,{survey.poi[0]!r},{survey.poi[1]!r}\n")
        for x, y, occ in zip(survey.x, survey.y, survey.occupied):
            fh.write(f"{float(x)!r},{float(y)!r},{1 if occ else 0}\n")
