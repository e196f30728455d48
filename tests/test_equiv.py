import importlib.util
from dataclasses import replace
from pathlib import Path

import tipp.simulator

PATH = Path(__file__).resolve().parents[1] / "tools" / "equiv.py"
spec = importlib.util.spec_from_file_location("equiv", PATH)
equiv = importlib.util.module_from_spec(spec)
spec.loader.exec_module(equiv)


def test_the_battery_is_deterministic_and_sees_a_mutant(tmp_path, monkeypatch):
    # a slice of tools/equiv.py's battery, every verb and exit code in it:
    # twice it gives equal records, and with t2 read as t3 another digest
    inputs = equiv.write_inputs(tmp_path, workloads=False)
    calls = [(group, argv) for i, (group, argv) in enumerate(equiv.battery(inputs, False))
             if group in ("edge", "tied", "help") and "500" not in argv
             or group in ("grid", "usage") and i % 24 == 0]
    first = equiv.run_battery(calls, tmp_path)
    assert {argv[0] for _, argv in calls if argv} >= {"simulate", "sweep", "fit", "sample-curve",
                                                     "render"}
    assert {record["code"] for record in first} >= {0, 2, 3}
    assert all(record["files"] for (group, _), record in zip(calls, first) if group == "edge")
    assert equiv.run_battery(calls, tmp_path) == first

    timed = tipp.simulator._timed

    def t2_read_as_t3(scans, driven, times, parked):
        return timed(scans, driven, replace(times, t2=times.t3), parked)
    monkeypatch.setattr(tipp.simulator, "_timed", t2_read_as_t3)
    assert equiv.digest(equiv.run_battery(calls, tmp_path)) != equiv.digest(first)
