"""Where the program lives, how the bench imports it, and what it runs on.

Standard library only, so the set-up probe can start its clock before
numpy is imported.
"""

import os
import platform
import sys
from importlib import metadata
from pathlib import Path

#: Root of the checkout: the directory that holds ``bench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Everything the bench writes goes under here (git-ignored).
OUT = ROOT / ".bench_out"

#: Thread-pool settings of BLAS and OpenMP back ends; the bench pins each to 1.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


class MissingProgram(RuntimeError):
    """The checkout holds no importable ``tipp`` sources."""


def pin_threads() -> None:
    """Pin every BLAS/OpenMP pool to one thread; call before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_tipp():
    """Import ``tipp`` from this checkout's ``src/``, never from an installed copy."""
    init = SRC / "tipp" / "__init__.py"
    if not init.is_file():
        raise MissingProgram(f"no tipp sources at {init.relative_to(ROOT)}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import tipp.cli

    if not Path(tipp.__file__).resolve().is_relative_to(SRC):
        raise MissingProgram(f"tipp was imported from {tipp.__file__}, not from src/")
    return tipp


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git; None outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _version(package: str) -> str | None:
    # Read from package metadata so that recording a version never imports
    # the package (and never adds to the measured memory).
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def environment(seed: int) -> dict:
    """What every result is recorded with."""
    return {
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "seed": seed,
        "thread_settings": {var: os.environ.get(var) for var in THREAD_VARS},
    }
