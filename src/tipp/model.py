"""Single-parameter occupancy model for parking lots and garages.

The chance that an individual spot is taken is modelled with one free
parameter, the lot *temperature* ``T``, together with a desirability
scalar ``E`` (the spot's *energy*, low energy = attractive spot):

    q(E, T) = 2 / (1 + exp(E / T))

The leading factor of 2 normalises the curve so that a zero-energy spot
is occupied with certainty, ``q(0, T) = 1``, and every positive-energy
spot has ``q`` strictly inside ``(0, 1)``.  For fixed ``T`` the
occupancy falls off monotonically with energy; for fixed ``E > 0`` it
rises monotonically with temperature, so hotter lots are fuller lots.
A Boltzmann-style scale constant would only rescale ``T``, so there is
none: the exponent is ``E / T``.

Floor energies in an ``N``-level garage are ``E(i) = (i / N)**2`` with
floor 1 closest to the entrance, so the deepest floor always has energy
exactly 1.  Per-spot energies from a surveyed lot are squared normalized
distances to the point of interest and land in the same ``[0, 1]`` range
(see :mod:`tipp.fitting`).

Temperatures lie in ``[T_MIN, T_MAX] = [1e-3, 10.0]``: the fit clamps
to this domain, and every other reader rejects a temperature outside it.
"""

import math

import numpy as np

#: Domain of the temperature parameter.
T_MIN = 1e-3
T_MAX = 10.0
#: An energy above this has E/T >= 700 at every temperature, where q is
#: capped anyway; clipping to it keeps E/T finite.
_ENERGY_CAP = 700.0 * T_MAX


def _check_temperature(value, name: str) -> None:
    """Reject a temperature outside [T_MIN, T_MAX]; NaN and +-inf fail too,
    and so do a bool and a value that no float compares with, such as a str."""
    try:
        inside = T_MIN <= value <= T_MAX
    except TypeError:
        inside = None
    if inside is None or type(value) is bool:
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not inside:
        raise ValueError(f"{name} {value} outside domain [{T_MIN}, {T_MAX}]")


def _is_int_in(value, lo=-math.inf, hi=math.inf) -> bool:
    """The one integer rule: a Python or NumPy integer, never a bool, in
    [lo, hi].  A Python int, every hot caller's floor, passes on its type."""
    kind = type(value)
    return ((kind is int or kind is not bool and isinstance(value, (int, np.integer)))
            and lo <= value <= hi)


def _check_count(value, name: str, lo: int = 1) -> None:
    """Reject a count of floors, spots or cars, or a seed, not an integer >= ``lo``."""
    if not _is_int_in(value, lo):
        raise ValueError(f"{name} must be >= {lo} and an integer, got {value!r}")


def _q(x, out=None):
    """q as a function of the array x = E / T, written into ``out`` when
    given, else into one new array.  x is capped at 700 in place, its one
    cap: exp stays finite, and q there is ~2e-304, below anything a fill
    count or loss can resolve."""
    np.minimum(x, 700.0, out=x)
    q = np.exp(x, out=out)
    np.add(1.0, q, out=q)
    return np.divide(2.0, q, out=q)


def spot_occupancy_prob(energy, temperature: float):
    """Probability q(E, T) that a spot of energy E is occupied at temperature T.

    ``energy`` may be a scalar or an array; the return type matches.
    q(0, T) = 1 exactly; while E/T < 700, q is strictly decreasing in
    energy and, for E > 0, strictly increasing in temperature.  Energies
    above 700 T_MAX are clipped to it, which leaves every q unchanged.
    E/T, then q, fill one new array, the one returned; ``energy`` is kept.
    """
    _check_temperature(temperature, "temperature")
    e = np.asarray(energy, dtype=float)
    x = np.empty(e.shape)
    if e.size:
        lo, hi = e.min(), e.max()  # NaN propagates into both
        if not (-math.inf < lo and hi < math.inf):
            raise ValueError("energy must be finite")
        if lo < 0:
            raise ValueError("energy must be non-negative")
        if hi > _ENERGY_CAP:
            e = np.minimum(e, _ENERGY_CAP, out=x)
    q = _q(np.divide(e, temperature, out=x), out=x)
    if np.ndim(energy) == 0:
        return float(q)
    return q


def level_energies(num_levels: int) -> np.ndarray:
    """Energies of all floors 1..N as an array, E(i) = (i/N)**2, floor 1
    nearest the entrance.  Every caller reads floor energies from here."""
    _check_count(num_levels, "num_levels")
    return (np.arange(1, num_levels + 1) / num_levels) ** 2


def level_fill_count(q: float, capacity: int) -> int:
    """Occupied-spot count for a floor: q * capacity rounded half-up, in
    exact integers on q's ratio n/d, (2 n capacity + d) // 2d, so that .5
    ties resolve identically on every platform.  As q lies in [0, 1] the
    count lies in [0, capacity]."""
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    _check_count(capacity, "capacity")
    n, d = float(q).as_integer_ratio()
    return (2 * n * int(capacity) + d) // (2 * d)


def level_availability_prob(q, capacity: int):
    """Probability that a floor of ``capacity`` spots has at least one free spot.

    Spots are treated as independently occupied with probability ``q``,
    so availability is 1 - q**capacity.  ``q`` may be a scalar or array.
    """
    _check_count(capacity, "capacity")
    qa = np.asarray(q, dtype=float)
    if qa.size and not (qa.min() >= 0 and qa.max() <= 1):  # NaN fails both
        raise ValueError("q must lie in [0, 1]")
    p = 1.0 - np.power(qa, capacity)
    if np.ndim(q) == 0:
        return float(p)
    return p
