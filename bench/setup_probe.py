"""Time one set-up of a workload in a fresh interpreter: import tipp, write the inputs.

``run.py`` starts several of these and reports their median as
``setup_s``.  Prints the seconds on its last line.
"""

import argparse
import shutil
import tempfile
from pathlib import Path
from time import perf_counter

import env


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()

    start = perf_counter()
    tipp = env.import_tipp()
    import workloads  # after the clock starts: it imports numpy

    env.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="setup-", dir=env.OUT))
    try:
        workloads.WORKLOADS[args.workload].setup(tipp, args.seed, work / "inputs")
        seconds = perf_counter() - start
    finally:
        shutil.rmtree(work)
    print(repr(seconds))


if __name__ == "__main__":
    main()
