"""Frozen CLI oracle: every report and exit code on the bundled setups.

Each case replays one command through ``cli.main`` and compares stdout
byte-for-byte with ``tests/golden/<setup>.<command>[.machine].out`` and the
exit code with ``tests/golden/exit_codes.json``.  The setups come from
``setups/`` and, for report paths no bundled setup reaches (analyzer roots,
the degree caveat, a vacuous prime set, a choice without lifting, a
radical step whose class is a rational behind a common factor), from
``tests/golden/setups/``.

To regenerate the files from the code on ``PYTHONPATH`` (only at a commit
whose reports are trusted)::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from valtwist.cli import main

ROOT = Path(__file__).resolve().parents[1]
SETUPS = ROOT / "setups"
GOLDEN = Path(__file__).resolve().parent / "golden"
FROZEN_SETUPS = GOLDEN / "setups"

CHOICE_SETUPS = ("chain_radical", "chain_rootless", "free_lex", "twisted_2x")
BUILD_SETUPS = ("chain_radical", "chain_rootless", "free_lex")
ANALYZER_SETUPS = ("counterexample_conflict", "counterexample_pool")
FROZEN_ANALYZER_SETUPS = (
    "analyzer_roots",
    "analyzer_caveat",
    "analyzer_vacuous",
    "analyzer_pool_two",
)

CASES = [
    (command, folder, setup, machine)
    for command, folder, setups in (
        ("ring-axioms", SETUPS, CHOICE_SETUPS),
        ("iso-verify", SETUPS, CHOICE_SETUPS),
        ("build", SETUPS, BUILD_SETUPS),
        ("counterexample", SETUPS, ANALYZER_SETUPS),
        ("counterexample", FROZEN_SETUPS, FROZEN_ANALYZER_SETUPS),
        ("build", FROZEN_SETUPS, ("hidden_constant",)),
        ("ring-axioms", FROZEN_SETUPS, ("table_nolift",)),
        ("iso-verify", FROZEN_SETUPS, ("table_nolift",)),
    )
    for setup in setups
    for machine in (False, True)
]


def case_key(command, folder, setup, machine):
    return f"{setup}.{command}" + (".machine" if machine else "")


def replay(command, folder, setup, machine):
    argv = [command, "--setup", str(folder / f"{setup}.vt")]
    if machine:
        argv.append("--machine")
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return out.getvalue(), code


@pytest.mark.parametrize(
    "command,folder,setup,machine", CASES, ids=[case_key(*c) for c in CASES]
)
def test_report_matches_golden(command, folder, setup, machine):
    key = case_key(command, folder, setup, machine)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text(encoding="utf-8"))
    expected = (GOLDEN / f"{key}.out").read_text(encoding="utf-8")
    out, code = replay(command, folder, setup, machine)
    assert code == codes[key]
    assert out == expected


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for case in CASES:
        key = case_key(*case)
        out, codes[key] = replay(*case)
        (GOLDEN / f"{key}.out").write_text(out, encoding="utf-8")
    text = json.dumps(codes, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "exit_codes.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    sys.exit(regenerate())
