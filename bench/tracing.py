"""In-memory tracer for the benchmark's traced run.

The tracer wraps valtwist's public entry points from outside: every
function object listed in :data:`OPS` is replaced in *every* valtwist module
namespace that bound it by name (``suites`` and ``cli`` import several of
them), and every listed method is replaced on its class under each of its
aliases.  Nothing inside the package is edited.

Two kinds of wrapper share one call stack:

* **spans**, at the coarse boundaries (a suite, a ``cli.main`` call,
  ``extend_choice``, ``analyze_counterexample``, ``psi``, ``twisted_mul``,
  the two triviality scans, ...): each call records name, start, end, parent
  span and job id;
* **counted ops**, for everything hotter: calls and self time are summed per
  (op, parent op, phase), never one record per call, because a campaign
  pass makes hundreds of thousands of them.

A span's self time is its duration minus the part of it covered by child
spans, minus the time of counted ops directly beneath it.  A counted op's
self time is its duration minus that of the counted ops beneath it.  Spans
never start inside a counted op in this code base; if one did, the tracer
counts a nesting error and the traced run fails rather than double-count.

Everything is kept per *phase*: ``"setup"`` while the benchmark builds a
workload's inputs, ``"job"`` while jobs run.  While the benchmark checks a
verdict the phase is ``None`` and the wrappers record nothing.
"""

from __future__ import annotations

import itertools
import sys
from time import perf_counter
from collections import namedtuple

SPAN, COUNT = "span", "count"

# (op, kind, owner as "module" or "module.Class", attribute names)
OPS = (
    ("ordgroup.add", COUNT, "ordgroup.GroupElement", ("__add__",)),
    ("ordgroup.hash", COUNT, "ordgroup.GroupElement", ("__hash__",)),
    ("ordgroup.compare", COUNT, "ordgroup.GroupElement", ("__lt__", "__le__", "__gt__", "__ge__")),
    ("ordgroup.decompose", COUNT, "ordgroup.FgSubgroup", ("decompose",)),
    ("ordgroup.min_multiple", COUNT, "ordgroup.FgSubgroup", ("min_multiple",)),
    ("mpoly.monomial_mul", COUNT, "mpoly.Monomial", ("mul",)),
    ("mpoly.poly_mul", COUNT, "mpoly.Polynomial", ("__mul__",)),
    ("mpoly.poly_add", COUNT, "mpoly.Polynomial", ("__add__",)),
    ("mpoly.poly_pow", COUNT, "mpoly.Polynomial", ("__pow__",)),
    ("mpoly.rf_new", COUNT, "mpoly.RationalFunction", ("__init__",)),
    ("mpoly.rf_eq", COUNT, "mpoly.RationalFunction", ("__eq__",)),
    ("mpoly.nth_root", COUNT, "mpoly", ("nth_root",)),
    ("mpoly.parse", COUNT, "mpoly", ("parse_polynomial", "parse_rational_function")),
    ("valuation.value", COUNT, "valuation.MonomialValuation", ("value",)),
    ("valuation.initial_rf", COUNT, "valuation.MonomialValuation", ("initial_rf",)),
    ("valuation.residue", COUNT, "valuation.MonomialValuation", ("residue",)),
    ("valuation.in_eq", COUNT, "valuation.MonomialValuation", ("in_eq",)),
    ("valuation.residue_arith", COUNT, "valuation.ResidueElement",
     ("__mul__", "__add__", "__neg__", "__sub__", "__rsub__", "inv", "__pow__")),
    ("valuation.residue_eq", COUNT, "valuation.ResidueElement", ("__eq__",)),
    ("twist.choice_eval", COUNT, "twist.ChoiceFunction", ("__call__",)),
    ("twist.twisting", COUNT, "twist.TwistingTable", ("__call__",)),
    ("twist.twisted_mul", SPAN, "twist", ("twisted_mul",)),
    ("twist.is_trivial", SPAN, "twist", ("is_trivial",)),
    ("twist.hom_check", SPAN, "twist", ("semigroup_hom_check",)),
    ("graded.psi", SPAN, "graded", ("psi",)),
    ("graded.psi_inverse", SPAN, "graded", ("psi_inverse",)),
    ("graded.h_ops", COUNT, "graded", ("in_v", "h_add", "h_mul")),
    ("constructions.free_pair", COUNT, "constructions", ("free_pair",)),
    ("constructions.extend_choice", SPAN, "constructions", ("extend_choice",)),
    ("constructions.analyze", SPAN, "constructions", ("analyze_counterexample",)),
    ("constructions.monomial_pool", COUNT, "constructions", ("monomial_pool",)),
    ("suites", SPAN, "suites", (
        "ring_axiom_suite", "cocycle_suite", "triviality_agreement_suite",
        "psi_suites", "exact_multiplicativity_suite",
    )),
    ("setupfile.load_setup", SPAN, "setupfile", ("load_setup",)),
    ("cli.main", SPAN, "cli", ("main",)),
)

# outcome ratios: useful outcomes over attempts, measured where the work happens
RATIOS = (
    "mpoly.rf_eq.fast_ratio",
    "mpoly.nth_root.found_ratio",
    "twist.choice_eval.hit_ratio",
    "twist.twisting.hit_ratio",
    "constructions.extend_choice.root_found_ratio",
    "constructions.analyze.consistent_ratio",
)
COUNTS = ("graded.lift.failed",)

# set-up ops reported for the set-up phase, as setup.<op>.{calls,self_s}
SETUP_OPS = ("setupfile.load_setup", "mpoly.parse")

# a span's job is "setup" during the set-up phase, else the job's index
Span = namedtuple("Span", "id name start end parent job counted_s")


def span_self_times(spans) -> dict:
    """Self time per span id: duration minus child-span coverage minus counted ops beneath."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for start, end in sorted(children.get(s.id, ())):
            start, end = max(start, reach), min(end, s.end)
            if end > start:
                covered += end - start
                reach = end
        out[s.id] = (s.end - s.start) - covered - s.counted_s
    return out


class Tracer:
    """Spans, per-parent counters and outcome ratios, all kept in memory."""

    def __init__(self):
        # a frame is [op, time of counted ops beneath it, span id or None]
        self.root = ["job", 0.0, -1]
        self.stack = [self.root]
        self.phase = ["job"]
        self.stats: dict = {}  # (op, parent op, phase) -> [calls, self seconds]
        self.spans: list[Span] = []
        self.outcomes = {phase: {name: [0, 0] for name in RATIOS + COUNTS} for phase in ("setup", "job")}
        self.nesting_errors = 0
        self.bindings: dict = {}
        self.job = None
        self._ids = itertools.count(1)

    def enter(self, job) -> None:
        """Attribute what follows to ``job``: "setup", a job index, or None (not traced)."""
        self.job = job
        self.phase[0] = None if job is None else "setup" if job == "setup" else "job"

    # -- wrappers ---------------------------------------------------------------

    def counted(self, op, fn, pre=None, post=None):
        stack, stats, current = self.stack, self.stats, self.phase

        def wrapper(*args, **kwargs):
            phase = current[0]
            if phase is None:
                return fn(*args, **kwargs)
            state = pre(args) if pre is not None else None
            parent = stack[-1]
            frame = [op, 0.0, None]
            stack.append(frame)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                parent[1] += elapsed
                key = (op, parent[0], phase)
                s = stats.get(key)
                if s is None:
                    stats[key] = [1, elapsed - frame[1]]
                else:
                    s[0] += 1
                    s[1] += elapsed - frame[1]
                if post is not None:
                    post(state, args, result, exc)

        return wrapper

    def span(self, op, fn, post=None):
        stack, spans, current = self.stack, self.spans, self.phase

        def wrapper(*args, **kwargs):
            if current[0] is None:
                return fn(*args, **kwargs)
            parent = stack[-1]
            if parent[2] is None:
                self.nesting_errors += 1
            frame = [op, 0.0, next(self._ids)]
            stack.append(frame)
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                parent_id = parent[2] if parent[2] not in (None, -1) else None
                spans.append(Span(frame[2], op, t0, t1, parent_id, self.job, frame[1]))
                if post is not None:
                    post(None, args, result, exc)

        return wrapper

    # -- outcome hooks ------------------------------------------------------------

    def _ratio(self, name, useful, attempts=1):
        o = self.outcomes[self.phase[0]][name]
        o[0] += useful
        o[1] += attempts

    def _hooks(self, op, vt):
        if op == "mpoly.rf_eq":
            def pre(args):
                a, b = args
                return isinstance(b, type(a)) and a.den.terms == b.den.terms

            return pre, lambda fast, args, r, exc: self._ratio("mpoly.rf_eq.fast_ratio", bool(fast))
        if op == "mpoly.nth_root":
            def post(_, args, r, exc):
                if exc is None:
                    self._ratio("mpoly.nth_root.found_ratio", r is not None)

            return None, post
        if op in ("twist.choice_eval", "twist.twisting"):
            attr = "_values" if op == "twist.choice_eval" else "_cache"
            name = op + ".hit_ratio"

            def pre(args):
                return len(getattr(args[0], attr))

            def post(before, args, r, exc):
                self._ratio(name, exc is None and len(getattr(args[0], attr)) == before)

            return pre, post
        if op == "graded.psi_inverse":
            def post(_, args, r, exc):
                if isinstance(exc, vt.errors.LiftingError):
                    self.outcomes[self.phase[0]]["graded.lift.failed"][0] += 1

            return None, post
        if op == "constructions.extend_choice":
            def post(_, args, r, exc):
                if isinstance(exc, vt.errors.RootNotFound):
                    self._ratio("constructions.extend_choice.root_found_ratio", 0)
                elif exc is None and r.choice.step.n0 is not None:
                    self._ratio("constructions.extend_choice.root_found_ratio", 1)

            return None, post
        if op == "constructions.analyze":
            def post(_, args, r, exc):
                if exc is not None:
                    return
                if r.mode == "enumerate":
                    tries = 1
                    for _, size in r.pool_sizes:
                        tries *= size
                    self._ratio("constructions.analyze.consistent_ratio", len(r.consistent_tables), tries)
                elif r.mode == "table":
                    self._ratio("constructions.analyze.consistent_ratio", r.verdict != "CONFLICT")

            return None, post
        return None, None

    # -- wiring -----------------------------------------------------------------

    def install(self, vt) -> None:
        """Wrap every entry point of :data:`OPS` in the freshly imported package ``vt``."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == vt.__name__ or name.startswith(vt.__name__ + "."))]
        for op, kind, owner, attrs in OPS:
            modname, _, clsname = owner.partition(".")
            target = getattr(vt, modname)
            if clsname:
                target = getattr(target, clsname)
            pre, post = self._hooks(op, vt)
            bound = 0
            for attr in attrs:
                orig = vars(target)[attr]
                if kind == SPAN:
                    wrapper = self.span(op, orig, post)
                else:
                    wrapper = self.counted(op, orig, pre, post)
                # every alias in the class, or every module namespace that bound the function
                holders = [target] if clsname else modules
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is orig:
                            setattr(holder, name, wrapper)
                            bound += 1
            self.bindings[op] = bound

    # -- results ----------------------------------------------------------------

    def op_totals(self, phase: str = "job") -> dict:
        """op -> [calls, self seconds] in one phase, spans and counted ops alike."""
        totals = {op: [0, 0.0] for op, *_ in OPS}
        for (op, _parent, in_phase), (calls, self_s) in self.stats.items():
            if in_phase == phase:
                totals[op][0] += calls
                totals[op][1] += self_s
        spans = [s for s in self.spans if (s.job == "setup") == (phase == "setup")]
        selfs = span_self_times(spans)
        for s in spans:
            totals[s.name][0] += 1
            totals[s.name][1] += selfs[s.id]
        return totals

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics per pass.

        ``<op>.calls``, ``<op>.self_s`` and the outcome ratios cover the job
        phase; ``setup.<op>.calls``, ``setup.<op>.self_s`` (for
        :data:`SETUP_OPS`) and ``setup.traced_self_s`` (all traced self
        time) cover the set-up phase.  A ratio with no attempts reads 0.
        """
        out = {}
        for op, (calls, self_s) in self.op_totals("job").items():
            out[f"{op}.calls"] = (calls / passes, "count")
            out[f"{op}.self_s"] = (self_s / passes, "s")
        outcomes = self.outcomes["job"]
        for name in RATIOS:
            useful, attempts = outcomes[name]
            out[name] = (useful / attempts if attempts else 0.0, "ratio")
        for name in COUNTS:
            out[name] = (outcomes[name][0] / passes, "count")
        setup = self.op_totals("setup")
        for op in SETUP_OPS:
            out[f"setup.{op}.calls"] = (setup[op][0] / passes, "count")
            out[f"setup.{op}.self_s"] = (setup[op][1] / passes, "s")
        out["setup.traced_self_s"] = (sum(s for _calls, s in setup.values()) / passes, "s")
        return out

    def dump(self) -> dict:
        return {
            "bindings": self.bindings,
            "per_parent": [
                {"op": op, "parent": parent, "phase": phase, "calls": c, "self_s": s}
                for (op, parent, phase), (c, s) in sorted(self.stats.items())
            ],
            "spans": [list(s) for s in self.spans],
        }
