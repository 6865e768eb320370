"""Frozen CLI oracle: every report and exit code on the bundled setups.

Each case replays one command through ``cli.main`` and compares stdout
byte-for-byte with ``tests/golden/<setup>.<command>[.machine].out`` and the
exit code with ``tests/golden/exit_codes.json``.  The setups come from
``setups/`` and, for report paths no bundled setup reaches (analyzer roots,
the degree caveat, a vacuous prime set, a choice without lifting, a
radical step whose class is a rational behind a common factor, a sampler
that crashes into an internal error, a free generator whose powers at
bound 60 are far too large to expand), from ``tests/golden/setups/``.

To write the file of each case that has none, and of each case named on
the command line, from the code on ``PYTHONPATH``::

    PYTHONPATH=src python tests/test_golden.py [chain_radical.build.machine ...]

Every other golden file keeps its bytes, so a new case never rewrites the
trusted ones; name an existing case only when its report change is decided.
"""

import contextlib
import io
import json
import shutil
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
        ("ring-axioms", FROZEN_SETUPS, ("table_nolift", "homogeneous_power")),
        ("iso-verify", FROZEN_SETUPS, ("table_nolift", "sampler_miss")),
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


def regenerate(only=(), folder=GOLDEN):
    """Write the report and exit code of each case named in ``only`` and of
    each case with no report or no exit code in ``folder``; return the keys
    written."""
    unknown = set(only) - {case_key(*case) for case in CASES}
    if unknown:
        raise SystemExit(f"no golden case named {', '.join(sorted(unknown))}")
    folder.mkdir(exist_ok=True)
    codes_path = folder / "exit_codes.json"
    codes = json.loads(codes_path.read_text(encoding="utf-8")) if codes_path.exists() else {}
    written = []
    for case in CASES:
        key = case_key(*case)
        path = folder / f"{key}.out"
        if key in only or not path.exists() or key not in codes:
            out, codes[key] = replay(*case)
            path.write_text(out, encoding="utf-8")
            written.append(key)
    text = json.dumps(codes, indent=2, sort_keys=True) + "\n"
    codes_path.write_text(text, encoding="utf-8")
    return written


def test_regenerate_keeps_every_golden_it_was_not_asked_for(tmp_path):
    folder = tmp_path / "golden"
    shutil.copytree(GOLDEN, folder, ignore=shutil.ignore_patterns("setups"))
    before = {p.name: p.read_bytes() for p in folder.iterdir()}
    kept = folder / "analyzer_vacuous.counterexample.out"
    kept.write_text("kept\n", encoding="utf-8")
    (folder / "counterexample_conflict.counterexample.out").unlink()
    (folder / "analyzer_roots.counterexample.out").write_text("stale\n", encoding="utf-8")

    written = regenerate(only=["analyzer_roots.counterexample"], folder=folder)

    assert written == ["counterexample_conflict.counterexample", "analyzer_roots.counterexample"]
    after = {p.name: p.read_bytes() for p in folder.iterdir()}
    assert after == dict(before, **{kept.name: b"kept\n"})
    with pytest.raises(SystemExit, match="no golden case named nope"):
        regenerate(only=["nope"], folder=folder)


if __name__ == "__main__":
    print("\n".join(regenerate(only=sys.argv[1:])))
