"""Command-line interface.

Four subcommands, all driven by a setup file:

* ``ring-axioms``   — randomized ring-axiom and cocycle campaigns per choice
* ``iso-verify``    — the isomorphism battery (well-definedness, additivity,
                      multiplicativity, degree preservation, round trips)
* ``build``         — run the free/extension construction and dump the result
* ``counterexample`` — the finite-prime analyzer

Exit codes: 0 all checks passed, 1 a mathematical check failed (a genuine
conflict), 2 unusable input, 3 a construction step failed (no radical
witness).  Reports go to stdout, diagnostics to stderr; for a fixed setup
file and seed the report is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from .constructions import analyze_counterexample, extend_choice
from .errors import RootNotFound, SetupError
from .graded import constant_lift
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


def _quote(value: str) -> str:
    if value == "" or any(ch in value for ch in " =|"):
        return '"' + value + '"'
    return value


def _kv_line(tag: str, pairs) -> str:
    return " ".join([tag] + [f"{k}={_quote(str(v))}" for k, v in pairs])


def _suite_lines(results: list[SuiteResult], machine: bool) -> tuple[list[str], bool]:
    lines = []
    ok = True
    for r in results:
        if r.skipped is None and not r.ok:
            ok = False
        if machine:
            pairs = [
                ("name", r.name),
                ("status", r.status()),
                ("cases", r.cases),
                ("failures", len(r.failures)),
            ]
            if r.skipped:
                pairs.append(("reason", r.skipped))
            lines.append(_kv_line("suite", pairs))
            for f in r.failures:
                lines.append(_kv_line("failure", [("suite", r.name), ("detail", f)]))
            for n in r.notes:
                lines.append(_kv_line("note", [("suite", r.name), ("detail", n)]))
        else:
            status = r.status()
            tail = f" ({r.cases} cases)"
            if r.skipped:
                tail = f" ({r.skipped})"
            lines.append(f"{r.name}: {status}{tail}")
            for f in r.failures:
                lines.append(f"  failure: {f}")
            for n in r.notes:
                lines.append(f"  note: {n}")
    return lines, ok


def _setups_for(setup: SetupFile) -> list[ChoiceSetup]:
    lifting = constant_lift if setup.lifting == "constants" else None
    out = []
    for name in sorted(setup.choices):
        eps = setup.choices[name]
        support = product_safe_support(eps, eps.domain_elements(2))
        out.append(ChoiceSetup(name, setup.valuation, eps, lifting, support))
    if not out:
        raise SetupError("this command needs at least one [choice NAME] section")
    return out


def cmd_ring_axioms(setup: SetupFile, seed: int, bound: int, machine: bool):
    results = []
    for cs in _setups_for(setup):
        rng = random.Random(seed)
        trials = max(1, setup.campaign.samples // 10)
        results.append(ring_axiom_suite(cs, rng, trials=trials))
        results.append(cocycle_suite(cs, rng, triples=setup.campaign.samples))
        results.append(triviality_agreement_suite(cs, bound=bound))
    lines, ok = _suite_lines(results, machine)
    return lines, EXIT_OK if ok else EXIT_CONFLICT


def cmd_iso_verify(setup: SetupFile, seed: int, bound: int, machine: bool):
    results = []
    for cs in _setups_for(setup):
        rng = random.Random(seed)
        results.extend(psi_suites(cs, rng, pairs=setup.campaign.samples))
    lines, ok = _suite_lines(results, machine)
    return lines, EXIT_OK if ok else EXIT_CONFLICT


def _dump_choice(eps, bound: int, machine: bool, describe: bool = False) -> list[str]:
    lines = []
    if machine:
        for g in eps.domain_elements(min(bound, 3)):
            lines.append(_kv_line("epsilon", [("degree", g), ("value", eps(g))]))
    else:
        if describe:
            lines.extend(eps.describe())
        lines.append("values on low degrees:")
        for g in eps.domain_elements(min(bound, 3)):
            lines.append(f"  epsilon({g}) = {eps(g)}")
    return lines


def cmd_build(setup: SetupFile, seed: int, bound: int, machine: bool):
    if setup.build is None:
        raise SetupError("the build command needs a [build] section")
    directive = setup.build
    lines: list[str] = []
    if directive.mode == "free":
        pair = setup.pairs[directive.choice]
    else:
        pair = setup.pairs[directive.base]
        for i, (gamma, witness) in enumerate(directive.steps):
            try:
                pair = extend_choice(pair, gamma, witness)
            except ValueError as exc:
                raise SetupError(f"[build] step {i} ({gamma}): {exc}") from None
            step = pair.choice.step
            if machine:
                lines.append(
                    _kv_line(
                        "step",
                        [
                            ("index", i),
                            ("gamma", gamma),
                            ("n0", step.n0 if step.n0 is not None else "-"),
                            ("root", step.root_witness if step.root_witness is not None else "-"),
                            ("factor", step.factor),
                        ],
                    )
                )
            else:
                lines.append(f"step {i}: extend by {gamma}")
                lines.extend("  " + l for l in step.describe())
    trivial, failing = is_trivial(pair.choice, bound)
    hom = semigroup_hom_check(pair.choice, bound)
    ok = trivial and hom
    if machine:
        lines.append(
            _kv_line(
                "construction",
                [
                    ("certified", str(pair.certified_trivial).lower()),
                    ("trivial_checked", str(trivial).lower()),
                    ("hom_checked", str(hom).lower()),
                    ("bound", bound),
                ],
            )
        )
        lines.extend(_dump_choice(pair.choice, bound, machine))
    else:
        lines.append(f"certified trivial by construction: {pair.certified_trivial}")
        lines.append(f"twisting trivial up to height {bound}: {trivial}")
        if failing is not None:
            lines.append(f"  first failing pair: ({failing[0]}, {failing[1]})")
        lines.append(f"semigroup-hom check up to height {bound}: {hom}")
        lines.extend(_dump_choice(pair.choice, bound, machine, describe=directive.mode == "free"))
    return lines, EXIT_OK if ok else EXIT_CONFLICT


def cmd_counterexample(setup: SetupFile, seed: int, bound: int, machine: bool):
    if setup.analyzer is None:
        raise SetupError("the counterexample command needs an [analyzer] section")
    directive = setup.analyzer
    report = analyze_counterexample(
        directive.primes,
        candidates=directive.candidates,
        degree_bound=directive.degree_bound,
    )
    lines = report.render_machine_lines() if machine else report.render_text().splitlines()
    return lines, report.exit_code


_COMMANDS = {
    "ring-axioms": cmd_ring_axioms,
    "iso-verify": cmd_iso_verify,
    "build": cmd_build,
    "counterexample": cmd_counterexample,
}


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="valtwist",
        description="exact checks for twisted semigroup rings and graded algebras of monomial valuations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "ring-axioms": "randomized ring-axiom and cocycle campaigns",
        "iso-verify": "verify the degreewise isomorphism on random samples",
        "build": "run the free/extension construction and dump the choice function",
        "counterexample": "analyze forced identities over a finite prime set",
    }
    for name, desc in descriptions.items():
        sp = sub.add_parser(name, help=desc)
        sp.add_argument("--setup", required=True, metavar="FILE", help="setup file")
        sp.add_argument("--seed", type=int, default=None, help="override the campaign seed")
        sp.add_argument("--bound", type=int, default=None, help="override the height bound")
        sp.add_argument("--machine", action="store_true", help="machine-readable report")
    return parser


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        text = Path(args.setup).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read setup file: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        setup = load_setup(text)
        seed = args.seed if args.seed is not None else setup.campaign.seed
        bound = args.bound if args.bound is not None else setup.campaign.bound
        lines, code = _COMMANDS[args.command](setup, seed, bound, args.machine)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RootNotFound as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
