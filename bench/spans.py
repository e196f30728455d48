"""Hooks the bench puts around the program's layers, from outside ``src/``.

Two modes:

* ``timed_arrivals``: the only hook of an untraced run, one
  ``perf_counter`` pair around ``tipp.simulator.run_arrival``.
* ``traced``: a span at every layer boundary.  Each public function is
  replaced at the module attribute its caller looks up (for example
  ``tipp.planner.fit_temperature``, which ``plan_parking`` calls), and the
  ``Garage`` methods on the class.  Spans (name, start, end, parent, car)
  stay in memory until the run writes them out.
"""

import contextlib
import importlib
from array import array
from collections import Counter, namedtuple
from time import perf_counter

import numpy as np

#: One placed car: its policy, the temperature its garage was built at,
#: the program's ArrivalOutcome and the wall seconds ``run_arrival`` took.
Arrival = namedtuple("Arrival", "policy temperature outcome seconds")

#: (module, attribute, span name): every call site the traced run wraps.
PATCHES = (
    ("tipp.cli", "main", "cli.verb"),
    ("tipp.cli", "write_outcomes_csv", "simulator.csv"),
    ("tipp.cli", "load_survey", "fitting.survey_io"),
    ("tipp.cli", "survey_to_observations", "fitting.to_obs"),
    ("tipp.cli", "fit_temperature", "fitting.fit"),
    ("tipp.cli", "sample_efficiency_curve", "fitting.curve"),
    ("tipp.fitting", "survey_to_observations", "fitting.to_obs"),
    ("tipp.fitting", "fit_temperature", "fitting.fit"),
    ("tipp.fitting", "mse_loss", "fitting.mse"),
    ("tipp.fitting", "spot_occupancy_prob", "model.q"),
    ("tipp.simulator", "run_arrival", "simulator.arrival"),
    ("tipp.simulator", "plan_parking", "planner.plan"),
    ("tipp.simulator", "spot_occupancy_prob", "model.q"),
    ("tipp.planner", "fit_temperature", "fitting.fit"),
    ("tipp.planner", "solve_dp", "planner.dp"),
    ("tipp.planner", "spot_occupancy_prob", "model.q"),
    ("tipp.planner", "level_availability_prob", "model.avail"),
)
#: (Garage method, span name).
GARAGE_PATCHES = (
    ("from_temperature", "simulator.garage_init"),
    ("scan_and_park", "simulator.scan"),
    ("lowest_free_floor", "simulator.lowest_free"),
    ("level_fill_fraction", "simulator.fill"),
    ("renewal_step", "simulator.renewal"),
)


def _arrival(args, result, seconds) -> Arrival:
    garage, policy = args[0], args[1]
    return Arrival(getattr(policy, "value", policy), garage.init_temperature, result[0], seconds)


@contextlib.contextmanager
def _patched(replacements):
    """Set (owner, attribute, value) triples; restore the originals on exit."""
    saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in replacements]
    try:
        for owner, name, value in replacements:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in saved:
            setattr(owner, name, value)


@contextlib.contextmanager
def timed_arrivals(tipp, arrivals: list):
    """Append an Arrival, with its wall time, for every car the program places."""
    run_arrival = tipp.simulator.run_arrival

    def timed(*args, **kwargs):
        start = perf_counter()
        result = run_arrival(*args, **kwargs)
        arrivals.append(_arrival(args, result, perf_counter() - start))
        return result

    with _patched([(tipp.simulator, "run_arrival", timed)]):
        yield


class SpanRecorder:
    """Spans kept in flat arrays; a span's index is its position."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.cars = array("l")
        self.counters = Counter()
        self._stack: list[int] = []
        self._car = -1
        self._next_car = 0

    def wrap(self, name: str, fn, count=None, new_car: bool = False):
        """``fn`` recorded as a span ``name``.  ``count(counters, args, result,
        seconds)`` adds work counters; ``new_car`` gives the call and its
        children a new car id."""
        name_id = self._ids.setdefault(name, len(self._ids))
        if name_id == len(self.names):
            self.names.append(name)

        def wrapper(*args, **kwargs):
            index = len(self.starts)
            self.name_ids.append(name_id)
            self.parents.append(self._stack[-1] if self._stack else -1)
            outer_car = self._car
            if new_car:
                self._car = self._next_car
                self._next_car += 1
            self.cars.append(self._car)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self._car = outer_car
                self.starts[index] = start
                self.ends[index] = end
            if count is not None:
                count(self.counters, args, result, end - start)
            return result

        return wrapper

    def spans(self):
        """(name, start, end, parent, car) for every span, in start order."""
        for i, name_id in enumerate(self.name_ids):
            yield (self.names[name_id], self.starts[i], self.ends[i], self.parents[i], self.cars[i])

    def self_times(self) -> dict:
        return self_times(self.spans())

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start_s,end_s,parent,car\n")
            origin = self.starts[0] if self.starts else 0.0
            for i, (name, start, end, parent, car) in enumerate(self.spans()):
                fh.write(f"{i},{name},{start - origin!r},{end - origin!r},{parent},{car}\n")


def self_times(spans) -> dict:
    """{name: (calls, total seconds, self seconds)} from (name, start, end, parent, ...) spans.

    A span's self time is its duration minus the part of it covered by
    its children.  Spans come from one thread, so children of one parent
    never overlap and that part is the sum of their durations.
    """
    spans = list(spans)
    covered = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for (name, start, end, *_), child in zip(spans, covered):
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start), own + (end - start) - child)
    return out


def _count_fit(counters, args, result, _seconds):
    counters["fitting.fit.iters"] += result.iterations
    counters["fitting.fit.points"] += len(args[0])
    counters["fitting.fit.clamped"] += int(result.clamped)


def _count_dp(counters, args, _result, _seconds):
    counters["planner.dp.levels"] += int(np.size(args[0]))


def _count_q(counters, args, _result, _seconds):
    counters["model.q.elems"] += int(np.size(args[0]))


def _count_scan(counters, _args, result, _seconds):
    counters["simulator.scan.hits"] += result is not None


def _count_renewal(counters, _args, result, _seconds):
    counters["simulator.renewal.vacated"] += result


COUNTERS = {
    "fitting.fit": _count_fit,
    "planner.dp": _count_dp,
    "model.q": _count_q,
    "simulator.scan": _count_scan,
    "simulator.renewal": _count_renewal,
}


@contextlib.contextmanager
def traced(tipp, arrivals: list):
    """Record a span at every layer boundary; yields the SpanRecorder."""
    recorder = SpanRecorder()

    def count_arrival(counters, args, result, seconds):
        arrival = _arrival(args, result, seconds)
        counters["simulator.arrival.tipp"] += arrival.policy == "tipp"
        arrivals.append(arrival)

    replacements = []
    for module_name, attr, name in PATCHES:
        module = importlib.import_module(module_name)
        fn = module.__dict__[attr]  # KeyError names a call site that moved
        count = count_arrival if name == "simulator.arrival" else COUNTERS.get(name)
        replacements.append((module, attr, recorder.wrap(
            name, fn, count, new_car=name == "simulator.arrival")))
    garage = tipp.simulator.Garage
    for attr, name in GARAGE_PATCHES:
        descriptor = garage.__dict__[attr]
        if isinstance(descriptor, classmethod):
            wrapped = classmethod(recorder.wrap(name, descriptor.__func__, COUNTERS.get(name)))
        else:
            wrapped = recorder.wrap(name, descriptor, COUNTERS.get(name))
        replacements.append((garage, attr, wrapped))
    with _patched(replacements):
        yield recorder


#: Per-layer metrics of one traced repetition: name -> unit.  Counts must
#: repeat exactly across repetitions of one seed; times are medians.
LAYER_UNITS = {
    "fitting.fit.calls": "count",
    "fitting.fit.s": "s",
    "fitting.fit.iters": "count",
    "fitting.fit.points": "count",
    "fitting.fit.clamped": "count",
    "planner.dp.calls": "count",
    "planner.dp.s": "s",
    "planner.dp.levels": "count",
    "planner.plan.calls": "count",
    "planner.plan.self_s": "s",
    "planner.replans_per_car": "ratio",
    "model.q.calls": "count",
    "model.q.elems": "count",
    "model.q.s": "s",
    "model.avail.s": "s",
    "fitting.survey_io.s": "s",
    "fitting.to_obs.s": "s",
    "fitting.mse.calls": "count",
    "fitting.mse.s": "s",
    "fitting.curve.s": "s",
    "simulator.scan.calls": "count",
    "simulator.scan.s": "s",
    "simulator.scan_hit_ratio": "ratio",
    "simulator.lowest_free.s": "s",
    "simulator.renewal.calls": "count",
    "simulator.renewal.s": "s",
    "simulator.renewal.vacated": "count",
    "simulator.garage_init.s": "s",
    "simulator.arrival.self_s": "s",
    "simulator.csv.s": "s",
    "cli.verb.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def layer_metrics(times: dict, c: Counter, wall: float) -> dict:
    """Per-layer metrics of one traced repetition whose verbs took ``wall`` seconds.

    ``times`` is the repetition's ``self_times`` and ``c`` its counters.
    ``<layer>.s`` is the layer's inclusive time, ``<layer>.self_s`` its
    time minus its traced children.  A layer that did not run reads 0,
    and so does a ratio whose base is 0.  ``trace.overhead_s`` needs an
    untraced run and is filled in by the caller.
    """

    def calls(name):
        return times.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return times.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return times.get(name, (0, 0.0, 0.0))[2]

    scans = calls("simulator.scan")
    tipp_cars = c["simulator.arrival.tipp"]
    return {
        "fitting.fit.calls": calls("fitting.fit"),
        "fitting.fit.s": total("fitting.fit"),
        "fitting.fit.iters": c["fitting.fit.iters"],
        "fitting.fit.points": c["fitting.fit.points"],
        "fitting.fit.clamped": c["fitting.fit.clamped"],
        "planner.dp.calls": calls("planner.dp"),
        "planner.dp.s": total("planner.dp"),
        "planner.dp.levels": c["planner.dp.levels"],
        "planner.plan.calls": calls("planner.plan"),
        "planner.plan.self_s": own("planner.plan"),
        "planner.replans_per_car": calls("planner.plan") / tipp_cars if tipp_cars else 0.0,
        "model.q.calls": calls("model.q"),
        "model.q.elems": c["model.q.elems"],
        "model.q.s": total("model.q"),
        "model.avail.s": total("model.avail"),
        "fitting.survey_io.s": total("fitting.survey_io"),
        "fitting.to_obs.s": total("fitting.to_obs"),
        "fitting.mse.calls": calls("fitting.mse"),
        "fitting.mse.s": total("fitting.mse"),
        "fitting.curve.s": total("fitting.curve"),
        "simulator.scan.calls": scans,
        "simulator.scan.s": total("simulator.scan"),
        "simulator.scan_hit_ratio": c["simulator.scan.hits"] / scans if scans else 0.0,
        "simulator.lowest_free.s": total("simulator.lowest_free"),
        "simulator.renewal.calls": calls("simulator.renewal"),
        "simulator.renewal.s": total("simulator.renewal"),
        "simulator.renewal.vacated": c["simulator.renewal.vacated"],
        "simulator.garage_init.s": total("simulator.garage_init"),
        "simulator.arrival.self_s": own("simulator.arrival"),
        "simulator.csv.s": total("simulator.csv"),
        "cli.verb.s": total("cli.verb"),
        "cli.self_s": own("cli.verb"),
        "trace.overhead_s": 0.0,
        "trace.unattributed_s": wall - total("cli.verb"),
    }
