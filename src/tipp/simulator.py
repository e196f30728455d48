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
until one has a free spot.  Every itinerary is timed by one law
(:func:`tipp.planner.total_time`): t1 per scan, t3 per floor driven in
either direction, t2 per floor walked back up from the parked floor.
On a descent this is n*t1 + a*(t2 + t3).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import _check_count, level_energies, level_fill_count, spot_occupancy_prob
from .planner import TimeConstants, TippState, _scan_and_drive_time, plan_parking, total_time


class PolicyKind(str, Enum):
    BENCHMARK = "benchmark"
    INVERSE = "inverse"
    OPTIMAL = "optimal"
    TIPP = "tipp"


@dataclass(frozen=True)
class ArrivalOutcome:
    """One car's journey: floors visited, where it parked (None for a
    stranded car, whose policy ran out of floors), elapsed seconds."""

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

    # slots, not an instance dict: a deep copy (one per policy run) then
    # keeps the attribute reads of the scan and renewal loops as fast as
    # on a garage built directly
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
        floors = np.flatnonzero(self.free)
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

    def renewal_step(self, departure_prob: float) -> int:
        """Vacate each occupied spot independently with the given probability."""
        if not 0.0 <= departure_prob <= 1.0:
            raise ValueError("departure_prob must lie in [0, 1]")
        draws = self.rng.random(self.occupancy.shape)
        vacate = np.flatnonzero(self.occupancy & (draws < departure_prob))
        self.occupancy.flat[vacate] = False
        self.free += np.bincount(vacate // self.capacity_per_level, minlength=self.num_levels)
        return int(vacate.size)

    def _check_floor(self, floor: int) -> None:
        if not 1 <= floor <= self.num_levels:
            raise ValueError(f"floor {floor} outside [1, {self.num_levels}]")


def run_arrival(garage: Garage, policy: PolicyKind, times: TimeConstants | None = None,
                tipp_state: TippState | None = None,
                car_index: int = 0) -> tuple[ArrivalOutcome, TippState | None]:
    """Drive one car through the garage under a policy.

    Returns the outcome and, for the tipp policy, the policy memory:
    ``tipp_state`` itself, updated in place, or a fresh one started from
    the garage's temperature (None for the other policies).  A car whose
    policy runs out of floors to try gets an outcome too, stranded: no
    floor or spot, and t1 per scan plus t3 per floor driven, no walk.
    """
    if times is None:
        times = TimeConstants()
    policy = PolicyKind(policy)
    n = garage.num_levels
    state = None
    if policy is PolicyKind.BENCHMARK:
        floors = range(1, n + 1)
    elif policy is PolicyKind.INVERSE:
        floors = range(n, 0, -1)
    elif policy is PolicyKind.OPTIMAL:
        floor = garage.lowest_free_floor()
        floors = () if floor is None else (floor,)
    else:
        state = tipp_state
        if state is None:
            state = (TippState() if garage.init_temperature is None
                     else TippState(temperature_estimate=garage.init_temperature))
        floors = _tipp_floors(garage, times, state)

    scanned, spot = [], None
    for floor in floors:
        scanned.append(floor)
        spot = garage.scan_and_park(floor)
        if state is not None:
            state.floor_observations[floor] = garage.level_fill_fraction(floor)
        if spot is not None:
            break
    if spot is None:  # stranded
        parked, elapsed = None, _scan_and_drive_time(scanned, times)
    else:
        parked, elapsed = scanned[-1], total_time(scanned, times)
    estimate = None if state is None else state.temperature_estimate
    return ArrivalOutcome(car_index, tuple(scanned), parked, spot, elapsed, estimate), state


def _tipp_floors(garage: Garage, times: TimeConstants, state: TippState):
    """Yield the closed loop's floors, re-planning from each full one.

    Each plan refits ``state.temperature_estimate`` from the fills that
    ``run_arrival`` records as each floor is scanned.  A car stops
    planning once it parks, so its own park informs only later cars.
    """
    here = 0
    while here < garage.num_levels:
        here = plan_parking(state, here, garage.num_levels, garage.capacity_per_level, times)
        yield here


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
    after every car, a turned-away one too, so the run goes on.
    """
    _check_count(num_cars, "num_cars")
    if not 0.0 <= departure_prob <= 1.0:  # NaN fails too
        raise ValueError("departure_prob must lie in [0, 1]")
    policy = PolicyKind(policy)
    state = None
    outcomes = []
    for car in range(num_cars):
        if garage.lowest_free_floor() is not None:
            outcome, state = run_arrival(garage, policy, times, tipp_state=state,
                                         car_index=car)
            outcomes.append(outcome)
        if departure_prob > 0.0:
            garage.renewal_step(departure_prob)
    return outcomes


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
    """Per-car outcome stream with a running cumulative-time column."""
    policy = PolicyKind(policy)
    cumulative = 0.0
    with open(path, "w", newline="") as fh:
        fh.write("car_index,policy,floors_scanned,parked_floor,spot_index,"
                 "elapsed_seconds,cumulative_seconds,temperature_estimate\n")
        for outcome in outcomes:
            cumulative += outcome.elapsed_time
            floors = "|".join(str(f) for f in outcome.floors_scanned)
            parked = "" if outcome.parked_floor is None else str(outcome.parked_floor)
            spot = "" if outcome.spot_index is None else str(outcome.spot_index)
            temp = ("" if outcome.temperature_estimate_after is None
                    else f"{outcome.temperature_estimate_after:.6f}")
            fh.write(f"{outcome.car_index},{policy.value},{floors},{parked},{spot},"
                     f"{outcome.elapsed_time:.6f},{cumulative:.6f},{temp}\n")
