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
    _check_count,
    _check_temperature,
    _is_int_in,
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
            try:  # a str or None is no number; a bool is refused as one
                valid = type(v) is not bool and math.isfinite(v) and v > 0
            except TypeError:
                valid = False
            if not valid:
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

    def value(self, floor: int) -> float:
        if not _is_int_in(floor, 1, self.values.size):
            raise ValueError(f"floor {floor!r} is not an integer in [1, {self.values.size}]")
        return float(self.values[floor - 1])

    def action(self, floor: int) -> int:
        if not _is_int_in(floor, 0, self.values.size - 1):
            raise ValueError(f"no action from floor {floor!r}: not an integer in "
                             f"[0, {self.values.size - 1}]")
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
    if len(floors) == 0 or not all(_is_int_in(floor, 1) for floor in floors):
        raise ValueError("an itinerary is a non-empty sequence of floors >= 1, each an "
                         f"integer, got {floors!r}")
    stops = [0, *map(int, floors)]  # NumPy integers are timed as Python ints
    driven = sum(abs(floor - here) for here, floor in zip(stops, stops[1:]))
    return _timed(len(floors), driven, times, stops[-1])


def _timed(scans: int, driven: int, times: TimeConstants, parked: int | None) -> float:
    """The one time law: t1 per scan, t3 per floor driven and, for a car
    parked on floor ``parked``, t2 per floor walked back up; a stranded
    car (None) walks nowhere."""
    elapsed = scans * times.t1 + driven * times.t3
    return elapsed if parked is None else elapsed + parked * times.t2


@dataclass
class TippState:
    """Closed-loop policy memory, carried from car to car and updated in place.

    ``temperature_estimate`` is the prior, then the latest fit, which
    ``plan_parking`` writes; ``floor_observations`` maps each floor
    scanned so far to the fill fraction last seen there.  ``plan_parking``
    keeps its last DP solution here with the key it was solved for, and
    its last fit's observations, T and N unless the fit stopped at the
    cap (else None).  Neither memo is an init field, shown or compared.
    """

    temperature_estimate: float = 0.5
    floor_observations: dict = field(default_factory=dict)
    _fit_memo: tuple | None = field(default=None, init=False, repr=False, compare=False)
    _plan_memo: tuple = field(default=(None, None), init=False, repr=False, compare=False)

    def __post_init__(self):
        _check_temperature(self.temperature_estimate, "temperature_estimate")
        self._check_observations()

    def _check_observations(self, num_levels=math.inf, bound: str = "be >= 1") -> None:
        for floor, fill in self.floor_observations.items():
            if not _is_int_in(floor, 1, num_levels):  # each on its own: True is no index, 2.0 neither
                rule = bound if _is_int_in(floor) else "be integers"
                raise ValueError(f"observed floors must {rule}, got {floor!r}")
            try:
                valid = 0.0 <= fill <= 1.0
            except TypeError:  # a str or None: no fill
                valid = False
            if not valid:
                raise ValueError(f"observed fills must lie in [0, 1], got {fill!r} "
                                 f"on floor {floor!r}")


def plan_parking(state: TippState, from_floor: int, num_levels: int,
                 capacity_per_level: int, times: TimeConstants) -> int:
    """Refit, re-solve, and return u(from_floor), the floor to drive to
    next from ``from_floor`` (an integer, 0 = entrance, at most N - 1,
    else a ValueError) in a garage of ``num_levels`` floors of
    ``capacity_per_level`` spots each, integers >= 1 checked ahead of the memos.

    If fills have been observed, each an integer floor in [1, N] with a
    fill in [0, 1] (``TippState``'s rule), the temperature is refitted on
    {(E(k), fill_k)} from ``state.temperature_estimate`` and, if the call
    succeeds, becomes the new estimate; otherwise the estimate is kept.
    The fit and q read the same floor energies, ``level_energies(N)``,
    built only when a memo misses.

    The DP solution is kept on ``state`` keyed by (T, N, S, times), and
    a call with the same key reuses it.  A fit ends where a restart from
    its result would, so any fit but one stopped by the cap leaves the
    observations, its result and N on ``state``, and the call that
    matches them keeps the estimate and fits nothing.  Either reuse is
    exactly what recomputing would give; a caller that edits
    ``floor_observations`` gets a refit.  A fit-memo hit compares floors
    by value and skips the miss's checks, so a key ``4.0`` (or ``True``)
    put in place of a planned ``4`` (or ``1``) is served as that floor.
    """
    _check_count(num_levels, "num_levels")  # the first error on every path, memo hit or miss
    _check_count(capacity_per_level, "capacity")
    temperature = state.temperature_estimate
    observations = state.floor_observations
    # dicts compare without regard to order, as the fit sorts its points
    if observations and state._fit_memo != (observations, temperature, num_levels):
        state._check_observations(num_levels, f"lie in [1, {num_levels}]")
        energies = level_energies(num_levels)[np.array(list(observations)) - 1]
        fit = fit_temperature(energies, list(observations.values()), temperature)
        temperature = fit.temperature
        state._fit_memo = ((dict(observations), temperature, num_levels)
                           if fit.stop_reason != "max_iterations" else None)
    key = (temperature, num_levels, capacity_per_level, times)
    if state._plan_memo[0] != key:
        q = spot_occupancy_prob(level_energies(num_levels), temperature)
        availability = level_availability_prob(q, capacity_per_level)
        state._plan_memo = (key, solve_dp(availability, times))
    next_floor = state._plan_memo[1].action(from_floor)
    state.temperature_estimate = temperature
    return next_floor
