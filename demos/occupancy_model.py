#!/usr/bin/env python3
"""Walk through the single-parameter occupancy model.

Shows how spot occupancy falls with energy and rises with temperature,
and how the model seeds a 10-level garage (text rendering included).
"""

from tipp import (
    Garage,
    level_energies,
    level_fill_count,
    render_text,
    spot_occupancy_prob,
)

N_LEVELS, CAPACITY = 10, 30

print("Occupancy probability q(E, T) = 2 / (1 + exp(E / T))")
print("q(0, T) = 1: a zero-energy (perfect) spot is always taken.\n")

energies = level_energies(N_LEVELS)
print("floor  energy   q(T=0.1)  q(T=0.5)  q(T=1.0)")
for floor, energy in enumerate(energies, start=1):
    row = [spot_occupancy_prob(float(energy), t) for t in (0.1, 0.5, 1.0)]
    print(f"{floor:5d}  {energy:6.3f}   {row[0]:8.4f}  {row[1]:8.4f}  {row[2]:8.4f}")

print("\nPer-floor occupied counts (capacity 30), rounding q * capacity half-up:")
for t in (0.1, 0.5, 1.0):
    q = spot_occupancy_prob(energies, t)
    counts = [level_fill_count(float(qi), CAPACITY) for qi in q]
    print(f"  T={t:>4}: {counts}  (total {sum(counts)}/300)")

print("\nA seeded garage at T=0.5 ('#' occupied, '.' free; floor 1 on top):\n")
garage = Garage.from_temperature(N_LEVELS, CAPACITY, temperature=0.5, seed=0)
print(render_text(garage))
