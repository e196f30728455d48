"""Independent oracles used by the test suite.

These deliberately re-derive results through different routes than the
library: occupancy via a direct formula expression, temperature fitting
via dense grid search and via first-order descent on T, the descent
program via exhaustive enumeration of committed itineraries and via a
full O(N^2) scan of every j > i, the time law via per-segment
accounting, and the tipp closed loop via plans that each start from a
fresh copy of the policy memory, so no memo carries over.
"""

import itertools

import numpy as np

from tipp import TippState, plan_parking


def q_reference(energy, temperature, k=1.0):
    """Occupancy probability computed directly, with overflow guard."""
    x = np.minimum(np.asarray(energy, dtype=float) / (k * temperature), 700.0)
    return 2.0 / (1.0 + np.exp(x))


def mse_reference(temperature, pairs, k=1.0):
    arr = np.asarray(pairs, dtype=float)
    q = q_reference(arr[:, 0], temperature, k)
    return float(np.mean((q - arr[:, 1]) ** 2))


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


def tipp_sequence_replanned_fresh(garage, num_cars, times, departure_prob=0.0):
    """The tipp closed loop of ``run_policy_sequence``, with every plan
    made on a fresh ``TippState`` copied from the memory, so no plan
    reuses anything an earlier plan computed.  Fills are counted on the
    grid itself.  A car that reaches the deepest floor without a spot is
    stranded: it is recorded with no floor or spot and a time of t1 per
    scan plus t3 per floor driven down, no walk.  The run stops at the
    first car that finds no spot while every cell of the grid is taken.
    Returns (floors_scanned, parked_floor, spot_index, elapsed_time,
    temperature_estimate_after) per recorded car."""
    n, s = garage.num_levels, garage.capacity_per_level
    estimate = 0.5 if garage.init_temperature is None else garage.init_temperature
    observations = {}
    cars = []
    for _ in range(num_cars):
        floors, here, spot = [], 0, None
        while spot is None and here < n:
            state = TippState(temperature_estimate=estimate,
                              floor_observations=dict(observations))
            plan = plan_parking(state, here, n, s, times)
            estimate, here = plan.temperature, plan.next_floor
            floors.append(here)
            spot = garage.scan_and_park(here)
            observations[here] = int(garage.occupancy[here - 1].sum()) / s
        if spot is not None:
            elapsed = segment_accounting(floors, times.t1, times.t2, times.t3)
            cars.append((tuple(floors), here, spot, elapsed, estimate))
        elif garage.occupancy.all():
            break
        else:
            cars.append((tuple(floors), None, None, len(floors) * times.t1 + here * times.t3,
                         estimate))
        if departure_prob > 0.0:
            garage.renewal_step(departure_prob)
    return cars


def central_difference(f, x, h):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def second_difference(f, x, h):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
