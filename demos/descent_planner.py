#!/usr/bin/env python3
"""Solve the floor-descent program and watch the plan react to availability.

f(i) is the expected remaining seconds after arriving on floor i; u(i)
is the floor to drive to next.  The bottom floor is the boundary case
(always parks): f(N) = t1 + N*t2.
"""

import numpy as np

from tipp import (
    TimeConstants,
    level_availability_prob,
    level_energies,
    solve_dp,
    spot_occupancy_prob,
)

times = TimeConstants(t1=30.0, t2=10.0, t3=5.0)
print(f"Time constants: scan t1={times.t1:.0f}s, walk up t2={times.t2:.0f}s, "
      f"drive down t3={times.t3:.0f}s\n")

print("Model-derived availabilities for a 10x30 garage at T=0.5:")
q = spot_occupancy_prob(level_energies(10), 0.5)
availability = level_availability_prob(q, 30)
solution = solve_dp(availability, times)
print("floor   p(free spot)   f(i) seconds   u(i) next floor")
for floor in range(1, 11):
    action = solution.action(floor) if floor < 10 else "-"
    print(f"{floor:5d}   {availability[floor - 1]:12.4f}   {solution.value(floor):12.2f}   {action}")
print(f"entrance: u(0) = {solution.action(0)}, "
      f"expected total {solution.entrance_value:.2f}s\n")

print("The plan flips with availability (two floors, t1=30, t2=10, t3=5):")
for p1 in (0.5, 0.9):
    sol = solve_dp([p1, 0.7], times)
    print(f"  p1={p1}: f(1)={sol.value(1):.1f}  f(2)={sol.value(2):.1f}  "
          f"-> first stop floor {sol.action(0)}")
print("\nA coin-flip first floor is worth skipping; a 90% one is worth trying.")

print("\nDegenerate cases:")
sol = solve_dp(np.ones(10), times)
print(f"  everything free   -> u(0)={sol.action(0)} (park immediately)")
p = np.zeros(10)
sol = solve_dp(p, times)
print(f"  nothing free above -> u(0)={sol.action(0)} (skip straight to the bottom)")
