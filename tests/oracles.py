"""Independent oracles used by the test suite.

These deliberately re-derive results through different routes than the
library: occupancy via a direct formula expression, temperature fitting
via dense grid search and via first-order descent on T, the descent
program via exhaustive enumeration of committed itineraries and via a
full O(N^2) scan of every j > i, its values via cars that follow u
through seeded spot-level grids, the time law via per-segment
accounting, the tipp closed loop via plans that each start from a
fresh copy of the policy memory, so no memo carries over, the
garage via a bool grid alone, with no per-floor counts, a sweep's car
via a scan of every floor in its order on that grid, and the sorted
observations via one two-key lexsort, and the survey reader via its
line loop alone, the survey writer via one write per row, the
synthetic lot and a survey's observations via whole-array expressions
that allocate each step's result, the Newton fit via its two-kernel
form, which computes q once for the loss and again for the derivatives
and may stop right after taking a step, and via that form restarted
until a restart accepts no step, and the floor fill count via
``fractions``.
Also here: a gridded survey, whose spot energies tie.
"""

import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np

from tipp import (
    LotSurvey,
    TippState,
    level_energies,
    level_fill_count,
    plan_parking,
    spot_occupancy_prob,
)
from tipp.fitting import _RESOLUTION, FitResult, _sorted_observations
from tipp.model import T_MAX, T_MIN, _q


def q_reference(energy, temperature, k=1.0):
    """Occupancy probability computed directly, with overflow guard."""
    x = np.minimum(np.asarray(energy, dtype=float) / (k * temperature), 700.0)
    return 2.0 / (1.0 + np.exp(x))


def mse_reference(temperature, pairs, k=1.0):
    arr = np.asarray(pairs, dtype=float)
    q = q_reference(arr[:, 0], temperature, k)
    return float(np.mean((q - arr[:, 1]) ** 2))


def sorted_observations_reference(energies, fills, cap):
    """Observations sorted by (energy, fill) with one stable lexsort, then
    energies clipped to ``cap``."""
    energies = np.asarray(energies, dtype=float)
    fills = np.asarray(fills, dtype=float)
    order = np.lexsort((fills, energies))
    return np.minimum(energies[order], cap), fills[order]


def grid_survey(side, temperature, seed):
    """A side x side lot of unit-spaced spots around a central point of
    interest, occupancy drawn per spot from the model at ``temperature``.
    Spots symmetric about the point of interest share an energy."""
    x, y = np.meshgrid(np.arange(side, dtype=float), np.arange(side, dtype=float))
    x, y = x.ravel(), y.ravel()
    centre = (side - 1) / 2
    energies = (x - centre) ** 2 + (y - centre) ** 2
    energies /= energies.max()
    rng = np.random.default_rng(seed)
    occupied = rng.random(x.size) < spot_occupancy_prob(energies, temperature)
    return LotSurvey(x=x, y=y, occupied=occupied, poi=(centre, centre))


def load_survey_reference(path):
    """A survey CSV read line by line: every record checked as it is read,
    a data line ASCII with no '_', each error naming ``<path>:<line>``."""
    poi = None
    xs, ys, occ = [], [], []
    with open(path, newline="") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not raw.isascii() or "_" in raw:
                raise ValueError(f"{path}:{lineno}: a data line must be ASCII with no '_'")
            parts = line.split(",")
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
    return LotSurvey(x=np.array(xs), y=np.array(ys), occupied=np.array(occ), poi=poi)


def save_survey_reference(survey, path):
    """A survey CSV written one row at a time."""
    with open(path, "w", newline="") as fh:
        fh.write(f"poi,{survey.poi[0]!r},{survey.poi[1]!r}\n")
        for x, y, occ in zip(survey.x.tolist(), survey.y.tolist(), survey.occupied.tolist()):
            fh.write(f"{x!r},{y!r},{1 if occ else 0}\n")


def synthetic_survey_reference(num_spots, temperature, seed):
    """Spots uniform in a disk of radius 100 around a POI at the origin,
    occupancy drawn per spot at ``temperature``, from the same draws."""
    poi = (0.0, 0.0)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * math.pi, num_spots)
    r = 100.0 * np.sqrt(rng.uniform(0.0, 1.0, num_spots))
    x = poi[0] + r * np.cos(theta)
    y = poi[1] + r * np.sin(theta)
    energies = (r / r.max()) ** 2
    occupied = rng.random(num_spots) < spot_occupancy_prob(energies, temperature)
    return LotSurvey(x=x, y=y, occupied=occupied, poi=poi)


def survey_to_observations_reference(survey):
    """Squared spot-to-POI distances over the largest one, and 0/1 fills."""
    px, py = survey.poi
    dist = np.hypot(survey.x - px, survey.y - py)
    return (dist / dist.max()) ** 2, survey.occupied.astype(float)


def grid_search_temperature(energies, fills, resolution=1e-4, lo=1e-3, hi=10.0, k=1.0):
    """Dense grid minimisation of the observation MSE; returns (T, loss)."""
    energies = np.asarray(energies, dtype=float)
    fills = np.asarray(fills, dtype=float)
    grid = np.arange(lo, hi + resolution / 2, resolution)
    best_t, best_loss = None, np.inf
    chunk = 200_000
    for start in range(0, grid.size, chunk):
        g = grid[start:start + chunk]
        x = np.minimum(energies[None, :] / (k * g[:, None]), 700.0)
        q = 2.0 / (1.0 + np.exp(x))
        losses = np.mean((q - fills[None, :]) ** 2, axis=1)
        i = int(np.argmin(losses))
        if losses[i] < best_loss:
            best_loss, best_t = float(losses[i]), float(g[i])
    return best_t, best_loss


def descent_fit_reference(energies, fills, start):
    """Clamped first-order descent on T with a doubling/halving step, the
    fit the library used before its Newton step; returns (T, loss)."""
    energies = np.asarray(energies, dtype=float)
    fills = np.asarray(fills, dtype=float)
    order = np.lexsort((fills, energies))
    energies, fills = energies[order], fills[order]

    def loss_and_grad(t):
        q = q_reference(energies, t)
        resid = q - fills
        dq = q * (1.0 - q / 2.0) * energies / (t * t)
        return float(np.mean(resid**2)), float(np.mean(2.0 * resid * dq))

    lo, hi = 1e-3, 10.0
    t = float(start)
    loss, grad = loss_and_grad(t)
    step = 0.05
    for _ in range(10_000):
        if abs(grad) <= 1e-8 or (t <= lo and grad > 0) or (t >= hi and grad < 0):
            break
        while step >= 1e-18:
            limit = 0.5 * t  # at most half of T per move
            cand = min(max(t - min(max(step * grad, -limit), limit), lo), hi)
            cand_loss, cand_grad = loss_and_grad(cand)
            if cand != t and cand_loss < loss:
                t, loss, grad = cand, cand_loss, cand_grad
                step = min(step * 2.0, 1e9)
                break
            step *= 0.5
        else:
            break
    return t, loss


def _two_kernel_loss(t, energies, fills):
    r = energies / t
    _q(r, out=r)
    r -= fills
    r *= r
    return float(np.add.reduce(r)) / r.size


def _two_kernel_derivatives(t, energies, fills):
    x = np.divide(energies, t)
    np.minimum(x, 700.0, out=x)
    q = _q(x, out=np.empty_like(x))
    r = q - fills
    dq = q * -0.5
    dq += 1.0
    dq *= q
    dq *= x
    np.putmask(dq, q == 1.0, 0.0)
    np.subtract(1.0, q, out=q)
    q *= x
    q -= 1.0
    q *= r
    q += dq
    q *= dq
    r *= dq
    n = r.size
    return 2.0 * float(np.add.reduce(r)) / n, 2.0 * float(np.add.reduce(q)) / n


def fit_two_kernel_reference(energies, fills, initial_temperature, max_iterations):
    """The safeguarded Newton fit with the loss and its derivatives as two
    kernels, each computing q from the energies itself: the loss once per
    line-search candidate, the derivatives once per Newton step, so q is
    computed twice at every accepted temperature.  Returns a FitResult."""
    energies, fills = _sorted_observations(energies, fills)
    t = float(initial_temperature)
    loss = _two_kernel_loss(t, energies, fills)
    for iterations in range(max_iterations):
        d1, d2 = _two_kernel_derivatives(t, energies, fills)
        if (t <= T_MIN and d1 > 0) or (t >= T_MAX and d1 < 0):
            return FitResult(t, loss, iterations, "pinned")
        du = -d1 / d2 if d2 > 0 else -math.copysign(1.0, d1)
        converged = abs(du) <= _RESOLUTION
        du = min(max(du, -1.0), 1.0)
        while True:
            cand = min(max(t * math.exp(du), T_MIN), T_MAX)
            cand_loss = _two_kernel_loss(cand, energies, fills)
            if cand_loss < loss or abs(du) <= _RESOLUTION:
                break
            du *= 0.5
        if not cand_loss < loss:
            return FitResult(t, loss, iterations,
                             "converged" if converged else "no_improving_step")
        t, loss = cand, cand_loss
        if converged:
            return FitResult(t, loss, iterations + 1, "converged")
    return FitResult(t, loss, max_iterations, "max_iterations")


def fit_restarted_reference(energies, fills, initial_temperature, max_iterations):
    """``fit_two_kernel_reference`` restarted from its own result until a
    restart accepts no step, the restarts sharing one budget of
    ``max_iterations`` accepted steps; the FitResult of the last restart,
    with the iterations of all of them."""
    res = fit_two_kernel_reference(energies, fills, initial_temperature, max_iterations)
    total = res.iterations
    while res.iterations:
        res = fit_two_kernel_reference(energies, fills, res.temperature, max_iterations - total)
        total += res.iterations
    return replace(res, iterations=total)


def level_fill_count_reference(q, capacity):
    """q * capacity rounded half up, in exact rationals."""
    return math.floor(Fraction(float(q)) * capacity + Fraction(1, 2))


def expected_itinerary_time(itinerary, availability, t1, t2, t3):
    """Exact expected time of a committed strictly increasing itinerary.

    The car tries each floor in order; it parks on floor v with
    probability p_v (times the chance all earlier floors failed) at a
    cost of k*t1 + v*(t2 + t3) after k scans.  The final floor must be N
    and is treated as always yielding a spot (the program's boundary
    convention).
    """
    total, reach = 0.0, 1.0
    last = itinerary[-1]
    for k, floor in enumerate(itinerary, start=1):
        cost = k * t1 + floor * (t2 + t3)
        if floor == last:
            total += reach * cost
        else:
            p = availability[floor - 1]
            total += reach * p * cost
            reach *= 1.0 - p
    return total


def enumerate_best_itinerary(availability, t1, t2, t3):
    """Minimum expected time over every strictly increasing itinerary
    ending at the deepest floor; returns (time, itinerary)."""
    n = len(availability)
    best, best_seq = float("inf"), None
    for r in range(n):
        for combo in itertools.combinations(range(1, n), r):
            seq = (*combo, n)
            t = expected_itinerary_time(seq, availability, t1, t2, t3)
            if t < best:
                best, best_seq = t, seq
    return best, best_seq


def solve_dp_reference(availability, times):
    """The descent program by a full scan of every j > i at each floor,
    O(N^2); returns (values, actions, entrance_value) like ``DpSolution``."""
    p = np.asarray(availability, dtype=float)
    n = p.size
    t1, t2, t3 = times.t1, times.t2, times.t3

    f = np.empty(n + 1)  # f[i] for floors 1..N; f[0] unused
    u = np.empty(n, dtype=int)  # u[i] for i = 0..N-1
    f[n] = t1 + n * t2
    for i in range(n - 1, 0, -1):
        js = np.arange(i + 1, n + 1)
        costs = (js - i) * t3 + f[i + 1:]
        k = int(np.argmin(costs))  # first minimum = smallest j
        u[i] = i + 1 + k
        f[i] = p[i - 1] * (t1 + i * t2) + (1.0 - p[i - 1]) * (t1 + costs[k])
    entrance_costs = np.arange(1, n + 1) * t3 + f[1:]
    k = int(np.argmin(entrance_costs))
    u[0] = 1 + k
    return f[1:].copy(), u, float(entrance_costs[k])


def segment_accounting(itinerary, t1, t2, t3):
    """Leg-by-leg time of a monotone descending itinerary from the entrance:
    t1 per scan, t3 per floor driven, t2 per floor walked back up."""
    drive = 0.0
    position = 0
    for floor in itinerary:
        drive += (floor - position) * t3
        position = floor
    return len(itinerary) * t1 + drive + itinerary[-1] * t2


def descent_path(actions, start):
    """The floors a car scans when it follows ``actions`` (u(0..N-1))
    from floor ``start`` (0 = the entrance, which it does not scan) and
    never parks: every floor it is sent to, down to N."""
    path, here = ([start] if start else []), start
    while here < len(actions):
        here = int(actions[here])
        path.append(here)
    return path


def sampled_free_floors(occupancy, capacity, draws, rng):
    """``draws`` seeded spot-level grids, as a (draws, N) array of whether
    each floor has a free spot.  Each spot of floor i is occupied with
    probability ``occupancy[i - 1]`` on its own; floor N always has a free
    spot, as the descent program's boundary assumes.  One floor is drawn
    at a time, so the grids are never held whole."""
    n = len(occupancy)
    free = np.ones((draws, n), dtype=bool)
    for floor in range(1, n):
        free[:, floor - 1] = ~(rng.random((draws, capacity)) < occupancy[floor - 1]).all(axis=1)
    return free


def descent_stop_times(path, start, times):
    """The time of each itinerary a car on ``path`` from floor ``start``
    can take, parking on path[k] after scanning path[:k + 1]: its segment
    accounting less the drive from the entrance to ``start``."""
    return np.array([segment_accounting(path[:k + 1], times.t1, times.t2, times.t3)
                     - start * times.t3 for k in range(len(path))])


def tipp_sequence_replanned_fresh(garage, num_cars, times, departure_prob=0.0):
    """The tipp closed loop of ``run_policy_sequence``, with every plan
    made on a fresh ``TippState`` copied from the memory, so no plan
    reuses anything an earlier plan computed.  Fills are counted on the
    grid itself.  A car that reaches the deepest floor without a spot is
    stranded: it is recorded with no floor or spot and a time of t1 per
    scan plus t3 per floor driven down, no walk.  A car that arrives
    while every cell of the grid is taken is turned away unrecorded; the
    renewal step follows every car either way.  Returns (floors_scanned,
    parked_floor, spot_index, elapsed_time, temperature_estimate_after)
    per recorded car."""
    n, s = garage.num_levels, garage.capacity_per_level
    estimate = 0.5 if garage.init_temperature is None else garage.init_temperature
    observations = {}
    cars = []
    for _ in range(num_cars):
        if garage.occupancy.all():
            if departure_prob > 0.0:
                garage.renewal_step(departure_prob)
            continue
        floors, here, spot = [], 0, None
        while spot is None and here < n:
            state = TippState(temperature_estimate=estimate,
                              floor_observations=dict(observations))
            here = plan_parking(state, here, n, s, times)
            estimate = state.temperature_estimate
            floors.append(here)
            spot = garage.scan_and_park(here)
            observations[here] = int(garage.occupancy[here - 1].sum()) / s
        if spot is not None:
            elapsed = segment_accounting(floors, times.t1, times.t2, times.t3)
            cars.append((tuple(floors), here, spot, elapsed, estimate))
        else:
            cars.append((tuple(floors), None, None, len(floors) * times.t1 + here * times.t3,
                         estimate))
        if departure_prob > 0.0:
            garage.renewal_step(departure_prob)
    return cars


class GridGarage:
    """The garage on its bool grid and its own ``default_rng(seed)``, with
    no per-floor counts: scans search the row, counts sum the grid and
    renewal clears a mask."""

    def __init__(self, grid, seed):
        self.occupancy = np.array(grid, dtype=bool)
        self.rng = np.random.default_rng(seed)

    @classmethod
    def from_temperature(cls, num_levels, capacity_per_level, temperature, seed):
        garage = cls(np.zeros((num_levels, capacity_per_level), dtype=bool), seed)
        q = spot_occupancy_prob(level_energies(num_levels), temperature)
        for level in range(num_levels):
            count = level_fill_count(float(q[level]), capacity_per_level)
            spots = garage.rng.choice(capacity_per_level, size=count, replace=False)
            garage.occupancy[level, spots] = True
        return garage

    def level_occupied_count(self, floor):
        return int(self.occupancy[floor - 1].sum())

    def lowest_free_floor(self):
        free = self.occupancy.shape[1] - self.occupancy.sum(axis=1)
        floors = [level + 1 for level in range(len(free)) if free[level] > 0]
        return floors[0] if floors else None

    def scan_and_park(self, floor):
        row = self.occupancy[floor - 1]
        free = np.flatnonzero(~row)
        if free.size == 0:
            return None
        row[free[0]] = True
        return int(free[0])

    def renewal_step(self, departure_prob):
        draws = self.rng.random(self.occupancy.shape)
        vacate = self.occupancy & (draws < departure_prob)
        self.occupancy[vacate] = False
        return int(vacate.sum())


def sweep_arrival_reference(garage, policy, times):
    """One car of a sweep policy on a ``GridGarage``: it scans every floor
    in the policy's order, one after another, until one parks it; optimal
    tries only the shallowest floor with a free cell on the grid.  Timed
    leg by leg: t1 per scan, t3 per floor driven either way and, if it
    parked, t2 per floor walked back up.  Returns (floors_scanned,
    parked_floor, spot_index, elapsed_time)."""
    n = garage.occupancy.shape[0]
    if policy == "benchmark":
        order = list(range(1, n + 1))
    elif policy == "inverse":
        order = list(range(n, 0, -1))
    else:
        floor = garage.lowest_free_floor()
        order = [] if floor is None else [floor]
    scanned, driven, position = [], 0, 0
    for floor in order:
        scanned.append(floor)
        driven += abs(floor - position)
        position = floor
        spot = garage.scan_and_park(floor)
        if spot is not None:
            return (tuple(scanned), floor, spot,
                    len(scanned) * times.t1 + driven * times.t3 + floor * times.t2)
    return tuple(scanned), None, None, len(scanned) * times.t1 + driven * times.t3


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_difference(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
