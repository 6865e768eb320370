"""Command-line interface.

Four subcommands, all driven by a setup file:

* ``ring-axioms``   — randomized ring-axiom and cocycle campaigns per choice
* ``iso-verify``    — the isomorphism battery (well-definedness, additivity,
                      multiplicativity, degree preservation, round trips)
* ``build``         — run the free/extension construction and dump the result
* ``counterexample`` — the finite-prime analyzer

Every command takes ``--setup FILE`` and ``--machine``.  A command takes
``--seed`` or ``--bound`` only if it reads that campaign value from the
setup (``ring-axioms`` both, ``iso-verify`` the seed, ``build`` the bound),
so an override that would change nothing is a usage error (exit 2).

Exit codes: 0 all checks passed, 1 a mathematical check failed (a genuine
conflict), 2 unusable input, 3 a construction step failed (no radical
witness), 4 an internal error: the program itself failed, so there is no
verdict, and stderr carries one ``internal error: <Type>: <message>``
line with no traceback.  Reports go to stdout, diagnostics to stderr; for
a fixed setup file and seed the report is byte-identical across runs.
When the reader closes stdout early (``valtwist build ... | head -1``)
the rest of the report is dropped without a traceback and the exit code
is still the command's verdict.

Each command returns one list of report records ``(text, tag, fields)``;
:func:`main` prints either the text lines or, with ``--machine``, one
``tag key=value ...`` line per record, so the two formats cannot drift.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import sys
from pathlib import Path

from .constructions import AnalyzerReport, analyze_counterexample, extend_choice
from .errors import RootNotFound, SetupError
from .setupfile import SetupFile, load_setup
from .suites import (
    ChoiceSetup,
    SuiteResult,
    cocycle_suite,
    product_safe_support,
    psi_suites,
    ring_axiom_suite,
    triviality_agreement_suite,
)
from .twist import is_trivial, semigroup_hom_check

EXIT_OK = 0
EXIT_CONFLICT = 1
EXIT_INPUT = 2
EXIT_CONSTRUCTION = 3
EXIT_INTERNAL = 4


def _line(text: str | None, tag: str | None = None, **fields) -> tuple:
    """One report record: the text line, and the tag and ordered fields of
    the ``--machine`` line; either side is None when the line exists in one
    format only."""
    return text, tag, fields


def _quote(value) -> str:
    """A machine field value: None as ``-``, booleans in lower case, and
    quotes around values that are empty or hold a space, ``=`` or ``|``."""
    if value is None:
        return "-"
    value = str(value).lower() if isinstance(value, bool) else str(value)
    if value == "" or any(ch in value for ch in " =|"):
        return '"' + value + '"'
    return value


def _render(records, machine: bool) -> list[str]:
    if not machine:
        return [text for text, _, _ in records if text is not None]
    return [
        " ".join([tag] + [f"{k}={_quote(v)}" for k, v in fields.items()])
        for _, tag, fields in records
        if tag is not None
    ]


def _suite_records(results: list[SuiteResult]):
    records = []
    for r in results:
        status = r.status()
        extra = {"reason": r.skipped} if r.skipped else {}
        records.append(
            _line(
                f"{r.name}: {status} ({r.skipped or f'{r.cases} cases'})",
                "suite",
                name=r.name,
                status=status,
                cases=r.cases,
                failures=len(r.failures),
                **extra,
            )
        )
        records += [_line(f"  failure: {f}", "failure", suite=r.name, detail=f) for f in r.failures]
        records += [_line(f"  note: {n}", "note", suite=r.name, detail=n) for n in r.notes]
    ok = all(r.ok for r in results if r.skipped is None)
    return records, EXIT_OK if ok else EXIT_CONFLICT


def _setups_for(setup: SetupFile) -> list[ChoiceSetup]:
    out = []
    for name in sorted(setup.choices):
        eps = setup.choices[name]
        support = product_safe_support(eps, eps.domain_elements(2))
        out.append(ChoiceSetup(name, setup.valuation, eps, setup.lifting, support))
    if not out:
        raise SetupError("this command needs at least one [choice NAME] section")
    return out


def cmd_ring_axioms(setup: SetupFile, seed: int, bound: int):
    results = []
    for cs in _setups_for(setup):
        rng = random.Random(seed)
        trials = max(1, setup.campaign.samples // 10)
        results.append(ring_axiom_suite(cs, rng, trials=trials))
        results.append(cocycle_suite(cs, rng, triples=setup.campaign.samples))
        results.append(triviality_agreement_suite(cs, bound=bound))
    return _suite_records(results)


def cmd_iso_verify(setup: SetupFile, seed: int):
    results = []
    for cs in _setups_for(setup):
        rng = random.Random(seed)
        results.extend(psi_suites(cs, rng, pairs=setup.campaign.samples))
    return _suite_records(results)


def _step_records(i: int, step) -> list:
    detail = [f"kind = extension by {step.gamma}", f"witness x_gamma = {step.x_gamma}"]
    if step.n0 is None:
        detail += [
            "multiples of the new degree meet the base subgroup only in 0",
            f"factor = {step.factor}",
        ]
    else:
        detail += [
            f"least returning multiple n0 = {step.n0}",
            f"epsilon(n0*gamma) = {step.x0}",
            f"radical instance: {step.n0}-th root of class {step.root_class}",
            f"root witness a = {step.root_witness}",
            f"factor = a*x_gamma = {step.factor}",
        ]
    head = _line(
        f"step {i}: extend by {step.gamma}",
        "step",
        index=i,
        gamma=step.gamma,
        n0=step.n0,
        root=step.root_witness,
        factor=step.factor,
    )
    return [head] + [_line("  " + text) for text in detail]


def cmd_build(setup: SetupFile, bound: int):
    if setup.build is None:
        raise SetupError("the build command needs a [build] section")
    directive = setup.build
    records = []
    if directive.mode == "free":
        pair = setup.pairs[directive.choice]
    else:
        pair = setup.pairs[directive.base]
        for i, (gamma, witness) in enumerate(directive.steps):
            try:
                pair = extend_choice(pair, gamma, witness)
            except ValueError as exc:
                raise SetupError(f"[build] step {i} ({gamma}): {exc}") from None
            records += _step_records(i, pair.choice.step)
    eps = pair.choice
    trivial, failing = is_trivial(eps, bound)
    hom = semigroup_hom_check(eps, bound)
    records.append(
        _line(
            f"certified trivial by construction: {pair.certified_trivial}",
            "construction",
            certified=pair.certified_trivial,
            trivial_checked=trivial,
            hom_checked=hom,
            bound=bound,
        )
    )
    records.append(_line(f"twisting trivial up to height {bound}: {trivial}"))
    if failing is not None:
        records.append(_line(f"  first failing pair: ({failing[0]}, {failing[1]})"))
    records.append(_line(f"semigroup-hom check up to height {bound}: {hom}"))
    if directive.mode == "free":
        records.append(_line(f"kind = free ({len(eps.generators)} generators)"))
        records += [_line(f"generator {g} -> {w}") for g, w in zip(eps.generators, eps.witnesses)]
    records.append(_line("values on low degrees:"))
    records += [
        _line(f"  epsilon({g}) = {eps(g)}", "epsilon", degree=g, value=eps(g))
        for g in eps.domain_elements(min(bound, 3))
    ]
    return records, EXIT_OK if trivial and hom else EXIT_CONFLICT


def _yes(flag: bool) -> str:
    return "yes" if flag else "no"


def _analyzer_records(r: AnalyzerReport) -> list:
    primes = ", ".join(map(str, r.primes))
    records = [
        _line(
            f"prime set: {primes or '(empty)'}",
            "analyzer",
            mode=r.mode,
            primes=",".join(map(str, r.primes)),
            degree_bound=r.degree_bound,
        ),
        _line(f"mode: {r.mode}"),
    ]
    for title, tag, table in (
        ("candidate table:", "candidate", r.candidates),
        ("initial reduction:", "initial", r.initial_table),
    ):
        if table is not None:
            records.append(_line(title))
            records += [_line(f"  epsilon({d}) = {v}", tag, degree=d, value=v) for d, v in table]
    for f in r.forced:
        status = "consistent" if f.consistent else "INCONSISTENT"
        records.append(
            _line(
                f"forced identity p={f.n}: {status}: {f.lhs} vs {f.rhs}",
                "forced_power",
                p=f.n,
                consistent=f.consistent,
                lhs=f.lhs,
                rhs=f.rhs,
            )
        )
    for root in r.roots:
        found = "no root found" if root.root is None else f"root {root.root}"
        records.append(
            _line(
                f"p-th power p={root.p}: {found}; p | deg(epsilon(1)): {_yes(root.divides)}",
                "pth_root",
                p=root.p,
                found=root.root is not None,
                root=root.root,
                divides=root.divides,
            )
        )
    if r.unit_degree is not None:
        records.append(
            _line(
                f"deg(epsilon(1)) = {r.unit_degree}",
                "unit_degree",
                value=r.unit_degree,
                caveat=r.degree_caveat,
            )
        )
        if r.degree_caveat:
            records.append(
                _line(
                    "degree caveat: numerator and denominator are both non-monomial;"
                    " an undetected common factor could lower the degree"
                )
            )
    for d, size in r.pool_sizes or ():
        text = f"candidate pool for degree {d}: {size} values"
        records.append(_line(text, "pool", degree=d, size=size))
    if r.consistent_tables is not None:
        records.append(_line(f"consistent joint tables: {len(r.consistent_tables)}"))
        for i, t in enumerate(r.consistent_tables):
            inner = ", ".join(f"epsilon({d}) = {v}" for d, v in t.assignments)
            records.append(
                _line(
                    f"  [{i}] {inner}; deg(epsilon(1)) = {t.unit_degree}; "
                    f"lcm divides: {_yes(t.divisible)}; "
                    f"twisting recheck: {'ok' if t.recheck_ok else 'FAILED'}",
                    "consistent_table",
                    index=i,
                    entries="|".join(f"{d}:{v}" for d, v in t.assignments),
                    unit_degree=t.unit_degree,
                    divisible=t.divisible,
                    recheck=t.recheck_ok,
                )
            )
    if r.lcm_primes is not None:
        text = None
        if r.divisible is not None:
            text = f"lcm({primes}) = {r.lcm_primes} divides deg(epsilon(1)): {_yes(r.divisible)}"
        records.append(
            _line(text, "divisibility", lcm=r.lcm_primes, holds=r.divisible)
        )
    if r.conflict_detail:
        records.append(_line(f"conflict: {r.conflict_detail}"))
    records.append(
        _line(f"verdict: {r.verdict}", "verdict", kind=r.verdict, detail=r.conflict_detail)
    )
    return records + [_line(note) for note in r.narrative]


def cmd_counterexample(setup: SetupFile):
    if setup.analyzer is None:
        raise SetupError("the counterexample command needs an [analyzer] section")
    directive = setup.analyzer
    bound = {} if directive.degree_bound is None else {"degree_bound": directive.degree_bound}
    report = analyze_counterexample(directive.primes, candidates=directive.candidates, **bound)
    return _analyzer_records(report), report.exit_code


_COMMANDS = {
    "ring-axioms": (cmd_ring_axioms, "randomized ring-axiom and cocycle campaigns"),
    "iso-verify": (cmd_iso_verify, "verify the degreewise isomorphism on random samples"),
    "build": (cmd_build, "run the free/extension construction and dump the choice function"),
    "counterexample": (cmd_counterexample, "analyze forced identities over a finite prime set"),
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valtwist",
        description="exact checks for twisted semigroup rings and graded algebras of monomial valuations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (command, desc) in _COMMANDS.items():
        # the campaign values a command reads are its parameters after the setup
        code = command.__code__
        flags = list(code.co_varnames[1:code.co_argcount])
        sp = sub.add_parser(name, help=desc)
        sp.add_argument("--setup", required=True, metavar="FILE", help="setup file")
        for flag in flags:
            sp.add_argument(f"--{flag}", type=int, default=None, help=f"override [campaign] {flag}")
        sp.add_argument("--machine", action="store_true", help="machine-readable report")
        sp.set_defaults(run=command, flags=flags)
    return parser


@functools.cache
def _arg_parser() -> argparse.ArgumentParser:
    # building the parser costs about twenty parses, so build it once
    return build_arg_parser()


def main(argv=None) -> int:
    args = _arg_parser().parse_args(argv)
    try:
        text = Path(args.setup).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read setup file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        bound = getattr(args, "bound", None)
        if bound is not None and bound < 0:
            raise SetupError(f"--bound must be non-negative, got {bound}")
        setup = load_setup(text)
        flags = {flag: getattr(args, flag) for flag in args.flags}
        flags = {flag: getattr(setup.campaign, flag) if v is None else v for flag, v in flags.items()}
        records, code = args.run(setup, **flags)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RootNotFound as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except Exception as exc:
        # a crash is not a verdict: exit 1 must keep meaning a genuine conflict
        message = str(exc).replace("\n", " ")
        print(f"internal error: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        for line in _render(records, args.machine):
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: the verdict stands, and pointing stdout
        # at devnull keeps the interpreter's last flush from failing again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
