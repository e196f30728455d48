"""Floor-descent planning for multi-level garages.

A car enters above floor 1 and may only drive downward.  Visiting a
floor costs a scan time ``t1``; if the car parks on floor ``a`` the
passenger walks back up, costing ``a * t2``; driving down one floor
costs ``t3``.  With ``p_i`` the probability that floor ``i`` has a free
spot, the minimum expected remaining time after arriving on floor ``i``
satisfies

    f(N) = t1 + N * t2                       (deepest floor, always parks)
    f(i) = p_i * (t1 + i * t2)
         + (1 - p_i) * (t1 + min_{j > i} ((j - i) * t3 + f(j)))

and the floor to drive to next from floor ``i`` (0 = entrance) is

    u(i) = argmin_{j > i} ((j - i) * t3 + f(j))

with ties broken toward the smallest ``j`` so the walk back stays short.

The closed loop re-estimates the temperature from the floor fills seen
so far, converts it to per-floor availabilities, re-solves the program
and takes ``u(i)`` from the car's current floor ``i``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .fitting import fit_temperature
from .model import (
    _check_temperature,
    level_availability_prob,
    level_energies,
    spot_occupancy_prob,
)


@dataclass(frozen=True)
class TimeConstants:
    """Per-floor time constants, in seconds."""

    t1: float = 30.0  # scanning one floor for a spot
    t2: float = 10.0  # passenger walking up one floor
    t3: float = 5.0   # vehicle driving down one floor

    def __post_init__(self):
        for name in ("t1", "t2", "t3"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be a positive finite number")


@dataclass(frozen=True)
class DpSolution:
    """Value function and control actions of the descent program.

    ``values[i-1]`` is f(i) for floors i = 1..N; ``actions[i]`` is u(i)
    for i = 0..N-1; ``entrance_value`` is min_j (j*t3 + f(j)), the
    expected total time for a car at the entrance.
    """

    values: np.ndarray
    actions: np.ndarray
    entrance_value: float

    @property
    def num_levels(self) -> int:
        return int(self.values.size)

    def value(self, floor: int) -> float:
        if not 1 <= floor <= self.num_levels:
            raise ValueError(f"floor {floor} outside [1, {self.num_levels}]")
        return float(self.values[floor - 1])

    def action(self, floor: int) -> int:
        if not 0 <= floor <= self.num_levels - 1:
            raise ValueError(f"no action from floor {floor}")
        return int(self.actions[floor])


def solve_dp(availability, times: TimeConstants) -> DpSolution:
    """Solve the descent program for one availability vector.

    ``availability`` lists p_1..p_N.  The deepest floor's value is the
    boundary t1 + N*t2 regardless of p_N.

    One backward pass carries the suffix minimum: the candidates for
    floor i are those for floor i + 1 plus j = i + 1, so only j = i + 1
    is compared with the running best, and a solve is O(N).  Every cost
    is computed in the recurrence's own form (j - i) * t3 + f(j), not as
    j*t3 + f(j) - i*t3, and the new j wins on ``<=``, so ties go to the
    smallest j, the nearest floor.  Rounding can still reorder two j
    whose costs differ by a few ulps once i moves, so such near ties are
    kept and re-compared at every floor; f, u and the entrance value are
    thus bit-identical to a full scan of every j > i at each floor.
    Times so large that a cost could overflow are rejected.
    """
    p = np.asarray(availability, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("availability must be a non-empty 1-D sequence")
    if not (p.min() >= 0 and p.max() <= 1):  # NaN fails both comparisons
        raise ValueError("availability entries must lie in [0, 1]")
    n = p.size
    t1, t2, t3 = times.t1, times.t2, times.t3

    probs = p.tolist()
    # f[i] for floors 1..N; f[0] unused; f[N+1] = inf, no floor below N
    f = [0.0] * (n + 1) + [math.inf]
    u = [0] * n  # u[i] for i = 0..N-1
    f[n] = t1 + n * t2
    # Every cost is below 3N(t1 + t2 + t3) and rounds off by at most
    # 2**-52 of that, so a j costlier than the best by more than tol can
    # never round to the minimum at this floor or any floor above it.
    tol = 3 * n * (t1 + t2 + t3) * 2.0**-48
    if not tol < math.inf:
        raise ValueError(f"times too large for {n} floors: the expected times overflow")
    best, close = n + 1, []  # close: other j within tol of the best
    for i in range(n - 1, -1, -1):
        cost = (best - i) * t3 + f[best]
        near = t3 + f[i + 1]  # the same form at j = i + 1
        if close or abs(near - cost) <= tol:
            js = [i + 1, *sorted([best, *close])]
            costs = [(j - i) * t3 + f[j] for j in js]
            cost = min(costs)
            best = js[costs.index(cost)]  # js ascend: the smallest j
            close = [j for j, c in zip(js, costs) if c - cost <= tol and j != best]
        elif near <= cost:
            best, cost = i + 1, near
        u[i] = best
        if i:
            f[i] = probs[i - 1] * (t1 + i * t2) + (1.0 - probs[i - 1]) * (t1 + cost)
    return DpSolution(values=np.array(f[1:n + 1]), actions=np.array(u, dtype=int),
                      entrance_value=cost)


def total_time(floors, times: TimeConstants) -> float:
    """Time of an itinerary from the entrance (floor 0) that parks on its
    last floor: t1 per floor scanned, t3 per floor driven in either
    direction, t2 per floor walked back up.  On a descent this is
    n*t1 + a*(t2 + t3)."""
    if not floors or min(floors) < 1:
        raise ValueError("an itinerary is a non-empty sequence of floors >= 1")
    return _scan_and_drive_time(floors, times) + floors[-1] * times.t2


def _scan_and_drive_time(floors, times: TimeConstants) -> float:
    """t1 per floor scanned plus t3 per floor driven, from the entrance:
    the time of a car that parks nowhere, so walks nowhere."""
    driven = 0
    here = 0
    for floor in floors:
        driven += abs(floor - here)
        here = floor
    return len(floors) * times.t1 + driven * times.t3


@dataclass
class TippState:
    """Closed-loop policy memory, carried from car to car and updated in place.

    ``temperature_estimate`` is the latest refitted temperature and
    ``floor_observations`` maps each floor scanned so far to the fill
    fraction last seen there.
    """

    temperature_estimate: float = 0.5
    floor_observations: dict = field(default_factory=dict)
    # plan_parking's one-entry memos, private to this state:
    # (key, fitted T) and (key, (availability, DpSolution))
    _fit_memo: tuple = field(default=(None, None), init=False, repr=False, compare=False)
    _plan_memo: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_temperature(self.temperature_estimate, "temperature_estimate")
        for floor, fill in self.floor_observations.items():
            if floor < 1:
                raise ValueError("observed floors must be >= 1")
            if not 0.0 <= fill <= 1.0:
                raise ValueError("observed fills must lie in [0, 1]")


@dataclass(frozen=True)
class TippPlan:
    """One re-planning step: refitted temperature, availabilities, DP solution, decision."""

    next_floor: int
    temperature: float
    availability: np.ndarray
    solution: DpSolution


def plan_parking(state: TippState, from_floor: int, num_levels: int,
                 capacity_per_level: int, times: TimeConstants) -> TippPlan:
    """Re-estimate, re-solve, and pick the next floor below ``from_floor``
    (0 = entrance, at most N - 1, else a ValueError) in a garage of
    ``num_levels`` floors of ``capacity_per_level`` spots each.

    If any floor fills have been observed, the temperature is refitted
    on {(E(k), fill_k)} starting from the current estimate; otherwise
    the prior estimate is kept.  The fit and q read the same floor
    energies, ``level_energies(N)``, built only when a memo misses.
    Availabilities follow from the model and the DP supplies u(from_floor).

    The call writes two one-entry memos on ``state`` and nothing else:
    the fit, keyed by a snapshot of the observations, the start
    temperature and N, and the availabilities and DP solution, keyed by
    (T, N, S, times).  A call whose key matches the previous one reuses
    its result, which is exactly what recomputing would give; a caller
    that edits ``floor_observations`` changes the key and gets a refit.
    The memoised arrays are shared by later plans, so they are read-only.
    """
    if num_levels < 1:  # the first error on every path, memo hit or miss
        raise ValueError("num_levels must be >= 1")
    temperature = state.temperature_estimate
    if state.floor_observations:
        key = (tuple(state.floor_observations.items()), temperature, num_levels)
        if state._fit_memo[0] != key:
            floors = np.array(list(state.floor_observations))
            if not (floors.min() >= 1 and floors.max() <= num_levels):
                raise ValueError(f"observed floors must lie in [1, {num_levels}]")
            fills = list(state.floor_observations.values())
            energies = level_energies(num_levels)[floors - 1]
            fitted = fit_temperature(energies, fills, temperature).temperature
            state._fit_memo = (key, fitted)
        temperature = state._fit_memo[1]
    key = (temperature, num_levels, capacity_per_level, times)
    if state._plan_memo[0] != key:
        q = spot_occupancy_prob(level_energies(num_levels), temperature)
        availability = level_availability_prob(q, capacity_per_level)
        solution = solve_dp(availability, times)
        for array in (availability, solution.values, solution.actions):
            array.flags.writeable = False
        state._plan_memo = (key, (availability, solution))
    availability, solution = state._plan_memo[1]
    return TippPlan(
        next_floor=solution.action(from_floor),
        temperature=temperature,
        availability=availability,
        solution=solution,
    )
