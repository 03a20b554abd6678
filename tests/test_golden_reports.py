"""Golden reports: stdout, stderr and exit code of a fixed command list.

Every command runs in-process through cli.main, in order, in one fresh
directory and with relative file names, so the `config` paths in the
reports do not depend on where the suite runs.  Earlier commands write the
design, witness and graph files that later ones read.  The expected
outputs live in golden_reports.json next to this file; after a deliberate
output change, regenerate it with

    PYTHONPATH=src python tests/test_golden_reports.py

and name each changed entry in CHANGES.md.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from designdim.cli import main

GOLDEN = Path(__file__).with_name("golden_reports.json")

# input files the constructors cannot write
FILES = {
    "kvv3.sd": "SD 3 2 1\n1 2\n0 2\n0 1\n",  # point_complement_design(3)
    "sd310.sd": "SD 3 1 0\n0\n1\n2\n",  # k = 1: three disjoint edges
    "sd222.sd": "SD 2 2 2\n0 1\n0 1\n",  # order 0
    "bad.rs": "RS semi-points\n0\n",
}

RESOLVE_DESIGNS = ("pg2.sd", "ba2.std", "ba3.std", "hstd4.std", "kvv3.sd")
METHODS = ("random", "greedy", "exact")
TARGETS = ("semi-points", "semi-blocks", "split", "full-mdim")


def _commands():
    cmds = [
        "construct pg 2 -o pg2.sd",
        "construct pg 3 -o pg3.sd",
        "construct hadamard-design 8 -o hd8.sd",
        "construct biaffine 2 -o ba2.std",
        "construct biaffine 3 -o ba3.std",
        "construct hadamard-std 4 -o hstd4.std",
        "construct file kvv3.sd -o kvv3-copy.sd",
        "construct pg 6 -o pg6.sd",
    ]
    for design in RESOLVE_DESIGNS:
        for method in METHODS:
            for target in TARGETS:
                cmds.append(f"resolve {design} --method {method} --target {target}")
    cmds += [
        "resolve pg2.sd --method exact --target semi-points --out pg2-semi.rs",
        "resolve pg2.sd --method greedy --target full-mdim --out pg2-full.rs",
        "resolve ba3.std --method greedy --target split --out ba3-split.rs",
        "resolve hstd4.std --method exact --target full-mdim --out hstd4-full.rs",
        "resolve kvv3.sd --method exact --target semi-blocks --out kvv3-semib.rs",
        "resolve pg3.sd --method random --target split --seed 7 --retries 50 --s 9",
        "export pg2.sd",
        "export ba2.std -o ba2.g",
        "export pg2.sd -o pg2.g",
        "verify pg2.sd pg2-semi.rs",
        "verify ba3.std ba3-split.rs",
        "verify hstd4.std hstd4-full.rs",
        "verify kvv3.sd kvv3-semib.rs",
        "verify pg2.sd bad.rs",
        "verify pg2.g pg2-full.rs",
        "verify pg2.g pg2-semi.rs",
        "classify pg2.sd",
        "classify ba3.std",
        "classify hstd4.std",
        "classify hd8.sd",
        "classify kvv3.sd",
        "classify pg2.g",
        "bounds --v 7 --m 4 --s 3",
        "bounds --v 57 --m 14",
        "bounds --design pg2.sd --bound-s",
        "bounds --design pg3.sd --bound-s",
        "bounds --design ba3.std --s 4",
        "bounds --design ba2.std --bound-s",
        "bounds --sweep pg --qmax 9 --mc-trials 5",
        "construct file sd310.sd -o sd310-copy.sd",
        "classify sd310.sd",
        "export sd310.sd",
        "verify sd310.sd bad.rs",
        "resolve sd310.sd --method greedy",
        "construct file sd222.sd -o sd222-copy.sd",
        "classify sd222.sd",
    ]
    return cmds


COMMANDS = _commands()


def _run_all(directory) -> dict:
    """{command: {"exit", "stdout", "stderr"}} for every command, run in
    order in directory."""
    here = os.getcwd()
    os.chdir(directory)
    try:
        for name, text in FILES.items():
            Path(name).write_text(text, encoding="ascii")
        results = {}
        for cmd in COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(cmd.split())
            results[cmd] = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
        return results
    finally:
        os.chdir(here)


@pytest.fixture(scope="module")
def actual(tmp_path_factory):
    return _run_all(tmp_path_factory.mktemp("golden"))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="ascii"))


def test_golden_covers_every_command(golden):
    assert list(golden) == COMMANDS


@pytest.mark.parametrize("cmd", COMMANDS)
def test_golden_report(actual, golden, cmd):
    assert actual[cmd] == golden[cmd]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        results = _run_all(scratch)
    GOLDEN.write_text(json.dumps(results, indent=1) + "\n", encoding="ascii")
