#!/usr/bin/env python3
"""Estimate a lot's temperature from surveyed occupancy.

Generates a synthetic 105-spot lot, fits the temperature by a Newton
method in log T on the occupancy MSE, and shows the sample-efficiency story:
a fit from 10 random spots already scores close to the full-data fit.
"""

from tipp import (
    fit_temperature,
    mse_loss,
    sample_efficiency_curve,
    survey_to_observations,
    synthetic_survey,
)

TRUE_TEMPERATURE = 0.5

survey = synthetic_survey(105, TRUE_TEMPERATURE, seed=42)
energies, fills = survey_to_observations(survey)
occupied = fills.sum()
print(f"Synthetic lot: 105 spots, {occupied:.0f} occupied, "
      f"generated at T* = {TRUE_TEMPERATURE}")

result = fit_temperature(energies, fills)
print(f"Full-data fit: T = {result.temperature:.4f} "
      f"(loss {result.final_loss:.4f}, {result.iterations} iterations, "
      f"stopped: {result.stop_reason})")
print(f"MSE at the fitted temperature: {mse_loss(result.temperature, energies, fills):.4f}")
print("The residual MSE is the Bernoulli noise floor, not model error.\n")

print("Sample efficiency: fit on k random spots, score on the whole lot")
print("(50 trials per size, seeded)\n")
print("  size   mean full-lot MSE   std")
for point in sample_efficiency_curve(survey, [5, 10, 20, 50, 105],
                                     trials_per_size=50, seed=42):
    print(f"  {point.sample_size:4d}   {point.mean_mse:17.4f}   {point.std_mse:.4f}")
print("\nTen observations (under 10% of the lot) already land within a few")
print("percent of the full-data fit; size 105 has zero spread by construction.")
