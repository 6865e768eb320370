"""Command line driver: exit codes, report rendering, determinism."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from valtwist import cli
from valtwist.cli import main

SETUPS = Path(__file__).resolve().parents[1] / "setups"


def run(capsys, *args):
    rc = main(list(args))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def setup_path(name):
    return str(SETUPS / name)


class TestRingAxioms:
    def test_free_setup_passes(self, capsys):
        rc, out, err = run(capsys, "ring-axioms", "--setup", setup_path("free_lex.vt"))
        assert rc == 0
        assert "ring-axioms[free]: PASS" in out
        assert "cocycle[free]: PASS" in out
        assert "trivial=true" in out

    def test_twisted_table_is_reported_nontrivial(self, capsys):
        rc, out, _ = run(
            capsys, "ring-axioms", "--setup", setup_path("twisted_2x.vt")
        )
        assert rc == 0
        assert "trivial=false first_failing_pair=(1, 1)" in out

    def test_machine_mode(self, capsys):
        rc, out, _ = run(
            capsys,
            "ring-axioms", "--setup", setup_path("twisted_2x.vt"), "--machine",
        )
        assert rc == 0
        first = out.splitlines()[0]
        assert first.startswith("suite name=ring-axioms[doubled] status=PASS")


class TestIsoVerify:
    def test_free_and_twisted(self, capsys):
        for name in ("free_lex.vt", "twisted_2x.vt"):
            rc, out, _ = run(capsys, "iso-verify", "--setup", setup_path(name))
            assert rc == 0
            assert "psi-well-defined-injective" in out
            assert "FAIL" not in out
            assert "cancelling-branch trials:" in out

    def test_roundtrip_runs_with_constant_lifting(self, capsys):
        rc, out, _ = run(capsys, "iso-verify", "--setup", setup_path("free_lex.vt"))
        assert rc == 0
        assert "psi-roundtrip[free]: PASS" in out


class TestBuild:
    def test_radical_chain(self, capsys):
        rc, out, _ = run(capsys, "build", "--setup", setup_path("chain_radical.vt"))
        assert rc == 0
        assert "step 0: extend by 1/2" in out
        assert "radical instance: 2-th root of class 64" in out
        assert "root witness a = 8" in out
        assert "step 1: extend by 1/6" in out
        assert "certified trivial by construction: True" in out
        assert "epsilon(1/6) = 2*z" in out

    def test_radical_chain_machine(self, capsys):
        rc, out, _ = run(
            capsys, "build", "--setup", setup_path("chain_radical.vt"), "--machine"
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "step index=0 gamma=1/2 n0=2 root=8 factor=8*z^3"
        assert lines[1] == "step index=1 gamma=1/6 n0=3 root=2 factor=2*z"
        assert (
            lines[2]
            == "construction certified=true trivial_checked=true hom_checked=true bound=6"
        )
        assert 'epsilon degree=1/6 value=2*z' in lines

    def test_free_build_describes_generators(self, capsys):
        rc, out, _ = run(capsys, "build", "--setup", setup_path("free_lex.vt"))
        assert rc == 0
        assert "kind = free (2 generators)" in out
        assert "generator (1, 0) -> x" in out

    def test_rootless_chain_exits_3(self, capsys):
        rc, out, err = run(capsys, "build", "--setup", setup_path("chain_rootless.vt"))
        assert rc == 3
        assert err.startswith("construction failed: no 2-th root of the class x / y^2")


class TestCounterexample:
    def test_conflict_exits_1(self, capsys):
        rc, out, _ = run(
            capsys, "counterexample", "--setup", setup_path("counterexample_conflict.vt")
        )
        assert rc == 1
        assert "verdict: CONFLICT" in out
        assert "forced identity p=3: INCONSISTENT: x3^3 vs x2^2" in out
        assert "narrative, not machine-checked" in out

    def test_enumeration_divisibility(self, capsys):
        rc, out, _ = run(
            capsys, "counterexample", "--setup", setup_path("counterexample_pool.vt")
        )
        assert rc == 0
        assert "verdict: DIVISIBILITY" in out
        assert "consistent joint tables: 1" in out

    def test_enumeration_machine_lines(self, capsys):
        rc, out, _ = run(
            capsys,
            "counterexample", "--setup", setup_path("counterexample_pool.vt"),
            "--machine",
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "analyzer mode=enumerate primes=2,3 degree_bound=8"
        assert (
            'consistent_table index=0 entries="1/2:x2^3 / x3^3|1/3:x2^2 / x3^2'
            '|1:x2^6 / x3^6" unit_degree=6 divisible=true recheck=true' in lines
        )
        assert "verdict kind=DIVISIBILITY detail=-" in lines

    def test_divisibility_is_not_assessed_on_a_conflict(self, capsys):
        # degree 6 is divisible by lcm(2, 3); a CONFLICT stops before the
        # divisibility step, so the field is "-", never a made-up false
        caveat = Path(__file__).resolve().parent / "golden" / "setups" / "analyzer_caveat.vt"
        for setup, verdict, holds in (
            (setup_path("counterexample_conflict.vt"), "CONFLICT", "-"),
            (str(caveat), "CONFLICT", "-"),
            (setup_path("counterexample_pool.vt"), "DIVISIBILITY", "true"),
        ):
            rc, out, _ = run(capsys, "counterexample", "--setup", setup, "--machine")
            lines = out.splitlines()
            assert f"divisibility lcm=6 holds={holds}" in lines
            assert any(line.startswith(f"verdict kind={verdict} ") for line in lines)
            assert rc == (1 if verdict == "CONFLICT" else 0)


class TestErrorPaths:
    def test_missing_file_exits_2(self, capsys):
        rc, _, err = run(capsys, "ring-axioms", "--setup", setup_path("missing.vt"))
        assert rc == 2
        assert err.startswith("error: cannot read setup file")

    def test_malformed_setup_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.vt"
        bad.write_text("[valuation]\nx == 1\n")
        rc, _, err = run(capsys, "ring-axioms", "--setup", str(bad))
        assert rc == 2
        assert err.startswith("error:")

    def test_setup_without_choices_exits_2(self, capsys, tmp_path):
        f = tmp_path / "empty.vt"
        f.write_text("[valuation]\nx = 1\n")
        rc, _, err = run(capsys, "ring-axioms", "--setup", str(f))
        assert rc == 2

    @pytest.mark.parametrize(
        "degree,value",
        [("1/2", "x2^"), ("1", "a / b + c / d"), ("1", "x2^2 / x2 - x2")],
        ids=["dangling-power", "two-bars", "zero-denominator"],
    )
    def test_malformed_candidate_exits_2(self, capsys, tmp_path, degree, value):
        table = {"1/2": "x2", "1": "x2^2", degree: value}
        entries = "".join(f'  "{k}" = "{v}"\n' for k, v in table.items())
        f = tmp_path / "bad.vt"
        f.write_text(f"[analyzer]\nprimes = 2\ncandidates {{\n{entries}}}\n")
        rc, out, err = run(capsys, "counterexample", "--setup", str(f))
        assert rc == 2
        assert out == ""
        assert err.startswith(f"error: malformed candidate for degree {degree}:")

    def test_zero_denominator_in_a_choice_entry_exits_2(self, capsys, tmp_path):
        f = tmp_path / "zero.vt"
        f.write_text('[valuation]\nz = 1/6\n\n[choice base]\ngenerators {\n  "1" = "64/0*z^6"\n}\n')
        rc, out, err = run(capsys, "ring-axioms", "--setup", str(f))
        assert rc == 2
        assert out == ""
        assert err.startswith("error: [choice base] bad entry '1': zero denominator in '64/0*z^6'")

    @pytest.mark.parametrize(
        "key,value,message",
        [
            ("bound", "-2", "[campaign] bound must be non-negative, got -2"),
            ("samples", "0", "[campaign] samples must be at least 1, got 0"),
            ("samples", "-5", "[campaign] samples must be at least 1, got -5"),
        ],
        ids=["negative-bound", "zero-samples", "negative-samples"],
    )
    def test_vacuous_campaign_values_exit_2(self, capsys, tmp_path, key, value, message):
        text = Path(setup_path("free_lex.vt")).read_text(encoding="utf-8")
        f = tmp_path / "vacuous.vt"
        f.write_text(text.replace(f"{key} = ", f"{key} = {value} #", 1))
        rc, out, err = run(capsys, "ring-axioms", "--setup", str(f))
        assert rc == 2
        assert out == ""
        assert err == f"error: {message}\n"

    def test_negative_bound_option_exits_2(self, capsys):
        rc, out, err = run(capsys, "build", "--setup", setup_path("chain_radical.vt"), "--bound", "-4")
        assert rc == 2
        assert out == ""
        assert err == "error: --bound must be non-negative, got -4\n"

    def test_zero_bound_is_accepted(self, capsys):
        rc, out, _ = run(capsys, "build", "--setup", setup_path("free_lex.vt"), "--bound", "0")
        assert rc == 0
        assert "twisting trivial up to height 0: True" in out

    def test_unknown_command_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["frobnicate", "--setup", "x"])

    def test_parser_is_built_once(self, capsys, monkeypatch):
        built = []
        real = cli.build_arg_parser
        monkeypatch.setattr(cli, "build_arg_parser", lambda: built.append(1) or real())
        cli._arg_parser.cache_clear()
        try:
            for _ in range(3):
                assert run(capsys, "build", "--setup", "no-such-file.vt")[0] == 2
            with pytest.raises(SystemExit) as exc:
                main(["frobnicate", "--setup", "x"])
            assert exc.value.code == 2
        finally:
            cli._arg_parser.cache_clear()
        assert built == [1]


class TestOnlyWhatIsRead:
    """Input a command would ignore is refused with exit 2."""

    @pytest.mark.parametrize(
        "setup,old,new,command,message",
        [
            ("free_lex.vt", "lifting =", "lifitng =", "iso-verify", "[ring] unknown or unused key 'lifitng'"),
            ("twisted_2x.vt", "[campaign]", "[campain]", "ring-axioms", "unknown or repeated section [campain]"),
            ("counterexample_conflict.vt", "candidates {", "candidate {", "counterexample",
             "[analyzer] unknown or unused block 'candidate'"),
        ],
        ids=["misspelt-key", "misspelt-section", "misspelt-block"],
    )
    def test_unread_setup_input_exits_2(self, capsys, tmp_path, setup, old, new, command, message):
        text = Path(setup_path(setup)).read_text(encoding="utf-8")
        assert old in text
        f = tmp_path / "typo.vt"
        f.write_text(text.replace(old, new, 1))
        assert run(capsys, command, "--setup", str(f)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("samples = 150", "samples = 5\nsamples = 300", "line 13: repeated key 'samples' in [campaign]"),
            ('"2" = "x^2"', '"2/2" = "3*x"\n  "2" = "x^2"', "line 17: degree '2/2' repeats line 16"),
        ],
        ids=["repeated-key", "repeated-degree"],
    )
    def test_repeated_setup_input_exits_2(self, capsys, tmp_path, old, new, message):
        # the later value used to win silently: 300 samples, or eps(1) = 3x
        text = Path(setup_path("twisted_2x.vt")).read_text(encoding="utf-8")
        assert old in text
        f = tmp_path / "repeated.vt"
        f.write_text(text.replace(old, new, 1))
        assert run(capsys, "ring-axioms", "--setup", str(f)) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "command,setup,flags",
        [
            ("ring-axioms", "twisted_2x.vt", ("seed", "bound")),
            ("iso-verify", "twisted_2x.vt", ("seed",)),
            ("build", "free_lex.vt", ("bound",)),
            ("counterexample", "counterexample_pool.vt", ()),
        ],
    )
    def test_a_command_takes_only_the_flags_it_reads(self, capsys, command, setup, flags):
        # an override the command would ignore, such as `iso-verify --bound 0`,
        # must not parse, or it would look as if it changed the run
        for flag in ("seed", "bound"):
            argv = [command, "--setup", setup_path(setup), f"--{flag}", "0"]
            if flag in flags:
                assert cli._arg_parser().parse_args(argv).flags == list(flags)
            else:
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == 2
                assert f"unrecognized arguments: --{flag} 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command,setup,key",
        [("iso-verify", "twisted_2x.vt", "seed"), ("build", "free_lex.vt", "bound")],
    )
    def test_a_flag_sets_what_the_campaign_key_sets(self, capsys, tmp_path, command, setup, key):
        text = Path(setup_path(setup)).read_text(encoding="utf-8")
        f = tmp_path / "set.vt"
        f.write_text(text.replace(f"{key} = ", f"{key} = 2 #", 1))
        via_flag = run(capsys, command, "--setup", setup_path(setup), f"--{key}", "2")
        assert via_flag == run(capsys, command, "--setup", str(f))
        assert via_flag != run(capsys, command, "--setup", setup_path(setup))

    def test_ring_axioms_reads_seed_and_bound(self, capsys, monkeypatch):
        # its report does not show either value on a passing setup, so the
        # suites it runs are asked what they were given
        seen = []
        ring, triviality = cli.ring_axiom_suite, cli.triviality_agreement_suite
        monkeypatch.setattr(cli, "ring_axiom_suite",
                            lambda cs, rng, trials: seen.append(rng.getstate()) or ring(cs, rng, trials=trials))
        monkeypatch.setattr(cli, "triviality_agreement_suite",
                            lambda cs, bound: seen.append(bound) or triviality(cs, bound=bound))
        rc, _, _ = run(capsys, "ring-axioms", "--setup", setup_path("twisted_2x.vt"), "--seed", "9", "--bound", "2")
        assert rc == 0
        assert seen == [random.Random(9).getstate(), 2]
        seen.clear()
        run(capsys, "ring-axioms", "--setup", setup_path("twisted_2x.vt"))
        assert seen == [random.Random(7).getstate(), 6]  # the file's seed and bound


class TestDeterminism:
    def test_same_seed_same_bytes(self, capsys):
        a = run(capsys, "ring-axioms", "--setup", setup_path("twisted_2x.vt"),
                "--seed", "5")
        b = run(capsys, "ring-axioms", "--setup", setup_path("twisted_2x.vt"),
                "--seed", "5")
        assert a == b

    def test_seed_changes_sampling_not_verdicts(self, capsys):
        rc1, out1, _ = run(capsys, "iso-verify", "--setup",
                           setup_path("twisted_2x.vt"), "--seed", "1")
        rc2, out2, _ = run(capsys, "iso-verify", "--setup",
                           setup_path("twisted_2x.vt"), "--seed", "2")
        assert rc1 == rc2 == 0
        assert "FAIL" not in out1 and "FAIL" not in out2


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "valtwist", "counterexample",
         "--setup", setup_path("counterexample_conflict.vt")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "verdict: CONFLICT" in proc.stdout


@pytest.mark.parametrize("command, setup, code", [
    ("build", "chain_radical.vt", 0),
    ("counterexample", "counterexample_conflict.vt", 1),
])
def test_closed_stdout_ends_quietly_with_the_verdict(command, setup, code):
    # the reader is gone before the report is written, as in `| head -0`
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "valtwist", command, "--setup", setup_path(setup)],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
        )
    finally:
        os.close(write_end)
    assert proc.stderr == ""
    assert proc.returncode == code
