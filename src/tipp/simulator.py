"""Seeded multi-level garage simulation and the four parking policies.

The garage is an N x S boolean occupancy grid.  Initial occupancy per
level comes from the occupancy model at a chosen temperature; which
spots within a level start occupied is a seeded uniform draw (timing
depends only on floor fill counts, never on spot identity).  Arrivals
run under one of four policies:

* benchmark: sweep floors 1, 2, 3, ... and take the first free spot;
* inverse:   drive to the deepest floor, sweep N, N-1, ... upward;
* optimal:   full grid visibility, park on the shallowest free floor;
* tipp:      closed loop; re-estimate the temperature from observed
             floor fills, re-solve the descent program, drive to u(i).

A policy only supplies the floors to try, in order; the car scans them
until one has a free spot.  A sweep's order is fixed, so the free counts
give its floors and it parks with one scan, on the floors and in the
time that a scan of each floor would give.  Every itinerary is timed by one law,
the one :func:`tipp.planner.total_time` applies: t1 per scan, t3 per floor driven
in either direction, t2 per floor walked back up from the parked floor.
On a descent this is n*t1 + a*(t2 + t3).  A sweep counts its floors
driven in closed form; a tipp itinerary walks them.
"""

import copy
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import _check_count, _is_integer, level_energies, level_fill_count, spot_occupancy_prob
from .planner import TimeConstants, TippState, _floors_driven, _timed, plan_parking


class PolicyKind(str, Enum):
    BENCHMARK = "benchmark"
    INVERSE = "inverse"
    OPTIMAL = "optimal"
    TIPP = "tipp"


@dataclass(frozen=True)
class ArrivalOutcome:
    """One car's journey: floors visited, where it parked (None for a
    stranded car, whose policy ran out of floors), elapsed seconds.

    ``floors_scanned`` is a tuple of Python ints, as :func:`run_arrival`
    builds it; :func:`write_outcomes_csv` relies on that (see there)."""

    car_index: int
    floors_scanned: tuple
    parked_floor: int | None
    spot_index: int | None
    elapsed_time: float
    temperature_estimate_after: float | None = None


class Garage:
    """Mutable garage state; single-writer, mutated only by arrivals and renewal.

    ``occupancy`` is the one record of which spots are taken.  ``free``
    holds each floor's free-spot count, derived from it and kept in step
    by this class's own methods, so callers must not write ``occupancy``
    directly.
    """

    # slots, not an instance dict: a deep copy (one per extra policy of a
    # lockstep run) then keeps the attribute reads of the scan and renewal
    # loops as fast as on a garage built directly
    __slots__ = ("num_levels", "capacity_per_level", "occupancy", "free", "rng",
                 "init_temperature")

    def __init__(self, num_levels: int, capacity_per_level: int, seed: int = 0):
        _check_count(num_levels, "num_levels")
        _check_count(capacity_per_level, "capacity_per_level")
        self.num_levels = int(num_levels)
        self.capacity_per_level = int(capacity_per_level)
        self.occupancy = np.zeros((num_levels, capacity_per_level), dtype=bool)
        self.free = np.full(num_levels, self.capacity_per_level)
        self.rng = np.random.default_rng(seed)
        self.init_temperature: float | None = None

    @classmethod
    def from_temperature(cls, num_levels: int, capacity_per_level: int,
                         temperature: float, seed: int = 0) -> "Garage":
        """Garage whose level fill counts follow the occupancy model.

        Level i holds round(q(E(i), T) * S) occupied spots; the spots
        chosen within each level are a seeded uniform sample.
        Deterministic given (num_levels, capacity, temperature, seed).
        """
        garage = cls(num_levels, capacity_per_level, seed)
        garage.init_temperature = float(temperature)
        q = spot_occupancy_prob(level_energies(num_levels), temperature)
        for level in range(num_levels):
            count = level_fill_count(float(q[level]), capacity_per_level)
            spots = garage.rng.choice(capacity_per_level, size=count, replace=False)
            garage.occupancy[level, spots] = True
            garage.free[level] -= count
        return garage

    @classmethod
    def from_occupancy(cls, occupancy, seed: int = 0) -> "Garage":
        """Garage with an explicit occupancy grid (levels x spots)."""
        grid = np.asarray(occupancy, dtype=bool)
        if grid.ndim != 2:
            raise ValueError("occupancy must be a 2-D grid")
        garage = cls(grid.shape[0], grid.shape[1], seed)
        garage.occupancy[:] = grid
        garage.free -= grid.sum(axis=1)
        return garage

    def level_fill_fraction(self, floor: int) -> float:
        self._check_floor(floor)
        return (self.capacity_per_level - int(self.free[floor - 1])) / self.capacity_per_level

    def lowest_free_floor(self) -> int | None:
        """Shallowest floor with a free spot, or None if the garage is full."""
        floors = self.free.nonzero()[0]
        return int(floors[0]) + 1 if floors.size else None

    def scan_and_park(self, floor: int) -> int | None:
        """Occupy the lowest-indexed free spot on the floor; None if full.

        A full floor costs one count read; the grid is mutated only on success.
        """
        self._check_floor(floor)
        if self.free[floor - 1] == 0:
            return None
        row = self.occupancy[floor - 1]
        spot = int(row.argmin())
        row[spot] = True
        self.free[floor - 1] -= 1
        return spot

    def renewal_step(self, departure_prob: float, copies=()) -> int:
        """Vacate each occupied spot independently with the given probability.

        One uniform draw per spot, from this garage's generator, decides
        which spots empty.  The same draw empties them in ``copies``,
        garages of this shape whose generators it leaves untouched; a copy
        of another shape is a ValueError, raised before any garage changes.
        Returns the number of spots vacated in this garage.
        """
        if not 0.0 <= departure_prob <= 1.0:
            raise ValueError("departure_prob must lie in [0, 1]")
        for garage in copies:
            if garage.occupancy.shape != self.occupancy.shape:
                raise ValueError(f"a garage of shape {garage.occupancy.shape} cannot share "
                                 f"the draw of one of shape {self.occupancy.shape}")
        # the draw fills the grid in row-major order, so its flat indices are the spots
        leaving = (self.rng.random(self.occupancy.size) < departure_prob).nonzero()[0]
        if not leaving.size:  # after the draw, so every step advances the stream alike
            return 0
        for garage in copies:
            garage._vacate(leaving)
        return self._vacate(leaving)

    def _vacate(self, leaving: np.ndarray) -> int:
        """Empty the occupied spots among the flat indices ``leaving``; return how many.
        ``occupancy`` is C-contiguous, as ``__init__`` allocates it and a deep
        copy keeps it, so ``reshape(-1)`` is a view that writes through."""
        grid = self.occupancy.reshape(-1)
        vacate = leaving[grid[leaving]]
        grid[vacate] = False
        np.add.at(self.free, vacate // self.capacity_per_level, 1)
        return int(vacate.size)

    def _check_floor(self, floor: int) -> None:
        # a Python int, every caller's floor, skips the general integer check
        if not ((type(floor) is int or _is_integer(floor)) and 1 <= floor <= self.num_levels):
            raise ValueError(f"floor {floor!r} is not an integer in [1, {self.num_levels}]")


def run_arrival(garage: Garage, policy: PolicyKind, times: TimeConstants | None = None,
                tipp_state: TippState | None = None,
                car_index: int = 0) -> tuple[ArrivalOutcome, TippState | None]:
    """Drive one car through the garage under a policy.

    Returns the outcome and, for the tipp policy, the policy memory:
    ``tipp_state`` itself, updated in place, or a fresh one started from
    the garage's temperature (None for the other policies).  A car whose
    policy runs out of floors to try gets an outcome too, stranded: no
    floor or spot, and t1 per scan plus t3 per floor driven, no walk.
    A sweep's floors are read off ``garage.free``, and it scans only the
    floor it parks on.  Tipp scans each floor to record its fill, and
    refits and replans from each full one; a car stops planning once it
    parks, so its own park informs only later cars.
    """
    if times is None:
        times = TimeConstants()
    policy = PolicyKind(policy)
    state = None
    if policy is PolicyKind.TIPP:
        state = tipp_state
        if state is None:
            state = (TippState() if garage.init_temperature is None
                     else TippState(temperature_estimate=garage.init_temperature))
        scanned, spot, here = [], None, 0
        while spot is None and here < garage.num_levels:
            here = plan_parking(state, here, garage.num_levels, garage.capacity_per_level, times)
            scanned.append(here)
            spot = garage.scan_and_park(here)
            state.floor_observations[here] = garage.level_fill_fraction(here)
        scanned, driven = tuple(scanned), _floors_driven(scanned)
    else:
        # a sweep's floors are consecutive, so its drive has a closed form: straight
        # down to a, its last floor, or for inverse down to N and back up to a
        n, levels = garage.num_levels, garage.free.nonzero()[0]
        if policy is PolicyKind.BENCHMARK:
            a = int(levels[0]) + 1 if levels.size else n
            scanned, driven = tuple(range(1, a + 1)), a
        elif policy is PolicyKind.INVERSE:
            a = int(levels[-1]) + 1 if levels.size else 1
            scanned, driven = tuple(range(n, a - 1, -1)), 2 * n - a
        else:
            scanned = (int(levels[0]) + 1,) if levels.size else ()
            driven = sum(scanned)
        spot = garage.scan_and_park(scanned[-1]) if levels.size else None
    parked = None if spot is None else scanned[-1]  # None: stranded
    elapsed = _timed(len(scanned), driven, times, parked)
    estimate = None if state is None else state.temperature_estimate
    return ArrivalOutcome(car_index, scanned, parked, spot, elapsed, estimate), state


def run_policy_sequence(garage: Garage, policy: PolicyKind, num_cars: int,
                        times: TimeConstants | None = None,
                        departure_prob: float = 0.0) -> list[ArrivalOutcome]:
    """Insert cars sequentially under one policy.

    Every car's outcome is kept, a stranded car's too.  A car that
    arrives at a full garage is turned away at the gate: it gets no
    outcome, so the list then holds fewer than ``num_cars`` outcomes and
    the gap in ``car_index`` marks it.  The tipp policy's memory starts
    from the temperature the garage was built at and carries over from
    car to car.  A positive ``departure_prob`` applies one renewal step
    after every car, a turned-away one too, so the run goes on.  This is
    the one-policy case of :func:`_run_lockstep`, run on ``garage`` itself.
    """
    if times is None:
        times = TimeConstants()
    return _run_lockstep(garage, [policy], num_cars, times, departure_prob)[0]


def _run_lockstep(garage: Garage, policies, num_cars: int, times: TimeConstants,
                  departure_prob: float) -> list[list[ArrivalOutcome]]:
    """Run every policy on its own copy of ``garage``, car by car, all in step.

    The first policy runs on ``garage`` itself, and each other one on a
    deep copy, generator included, made before the first car.  Each car
    arrives under every policy in turn; then one renewal step, drawn by
    ``garage``, vacates the same spots in every copy.  So each policy
    meets the departures that a separate :func:`run_policy_sequence` run
    on its own copy would draw, while the draw is made once.  Returns
    each policy's outcomes.
    """
    _check_count(num_cars, "num_cars")
    if not 0.0 <= departure_prob <= 1.0:  # NaN fails too
        raise ValueError("departure_prob must lie in [0, 1]")
    copies = [copy.deepcopy(garage) for _ in policies[1:]]
    runs = [(lot, PolicyKind(policy), []) for lot, policy in zip([garage, *copies], policies)]
    states = [None] * len(runs)
    for car in range(num_cars):
        for k, (lot, policy, outcomes) in enumerate(runs):
            if lot.lowest_free_floor() is not None:
                outcome, states[k] = run_arrival(lot, policy, times, tipp_state=states[k],
                                                 car_index=car)
                outcomes.append(outcome)
        if departure_prob > 0.0:
            garage.renewal_step(departure_prob, copies)
    return [outcomes for _, _, outcomes in runs]


def render_text(garage: Garage) -> str:
    """Plain-text occupancy grid: one row per level, '#' occupied, '.' free."""
    rows = ["".join("#" if cell else "." for cell in level) for level in garage.occupancy]
    return "\n".join(rows) + "\n"


def render_ppm(garage: Garage) -> bytes:
    """Portable pixmap (P3) of the grid, 8 pixels a spot: red = occupied, white = free."""
    pixel_size = 8
    levels, spots = garage.occupancy.shape
    width, height = spots * pixel_size, levels * pixel_size
    lines = [f"P3 {width} {height} 255"]
    for level in garage.occupancy:
        row = " ".join("255 0 0" if cell else "255 255 255"
                       for cell in level for _ in range(pixel_size))
        lines.extend([row] * pixel_size)
    return ("\n".join(lines) + "\n").encode("ascii")


def write_outcomes_csv(path, policy: PolicyKind, outcomes) -> None:
    """Per-car outcome stream with a running cumulative-time column.

    Each distinct ``floors_scanned`` is joined into its ``|`` text once
    per call, for sweeps repeat their itineraries.  The texts are keyed
    by tuple equality, so the floors must be Python ints, as
    :func:`run_arrival` makes them: a hand-built ``(3.0,)`` written after
    a ``(3,)`` prints ``3``, as the fit memo of
    :func:`tipp.planner.plan_parking` serves a floor ``4.0`` as ``4``.
    """
    policy = PolicyKind(policy)
    cumulative = 0.0
    texts = {}
    with open(path, "w", newline="") as fh:
        fh.write("car_index,policy,floors_scanned,parked_floor,spot_index,"
                 "elapsed_seconds,cumulative_seconds,temperature_estimate\n")
        for outcome in outcomes:
            cumulative += outcome.elapsed_time
            floors = texts.get(outcome.floors_scanned)
            if floors is None:
                floors = texts[outcome.floors_scanned] = "|".join(map(str, outcome.floors_scanned))
            parked = "" if outcome.parked_floor is None else str(outcome.parked_floor)
            spot = "" if outcome.spot_index is None else str(outcome.spot_index)
            temp = ("" if outcome.temperature_estimate_after is None
                    else f"{outcome.temperature_estimate_after:.6f}")
            fh.write(f"{outcome.car_index},{policy.value},{floors},{parked},{spot},"
                     f"{outcome.elapsed_time:.6f},{cumulative:.6f},{temp}\n")
