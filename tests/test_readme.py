"""README's examples run as written: its Python block, and every ``tipp``
command of its shell blocks as the command line parses it."""

import re
import shlex
from pathlib import Path

from tipp.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_the_python_block_runs():
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})


def test_every_tipp_command_parses():
    parser = build_parser()
    verbs = set()
    for block in blocks("bash"):
        for line in block.splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["tipp"]:
                verbs.add(parser.parse_args(argv[1:]).command)  # parsed only, never run
    assert verbs == {"simulate", "sweep", "fit", "sample-curve", "render"}
