"""Plain-text setup files: sections of key = value entries, with optional
brace blocks of quoted pairs.

    # weights of the valuation
    [valuation]
    x = (1, 0)
    y = (0, 1)

    [choice eps]
    table {
      "1" = "2*x"
      "2" = "x^2"
    }

Sections: ``[valuation]`` (variable weights), ``[ring]`` (optional
``lifting = constants``), ``[campaign]`` (``seed``, ``bound >= 0``,
``samples >= 1``), any number of ``[choice NAME]`` with a ``table { }`` or
``generators { }`` block, ``[build]`` (``mode = free`` with ``choice =
NAME``, or ``mode = extend`` with ``base = NAME`` and a ``steps { }`` block
applied in file order), and ``[analyzer]`` (``primes``, optional
``degree_bound``, optional ``candidates { }`` block).

``load_setup`` interprets a setup text and rejects with
:class:`SetupError` anything malformed — in particular a tabulated value
whose valuation disagrees with its degree — and every section, key and
block it did not read, so a misspelt name cannot change what is verified.
Input given twice is refused with its line: a key or block name in a
section, a choice name, or a block's degree, compared after parsing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .constructions import SubgroupWithChoice, counterexample_valuation, free_pair
from .errors import SetupError
from .mpoly import parse_rational_function
from .ordgroup import GroupElement
from .twist import ChoiceFunction, TableChoice
from .valuation import MonomialValuation

__all__ = [
    "Section",
    "SetupDocument",
    "SetupFile",
    "parse_document",
    "load_setup",
]


@dataclass
class Section:
    name: str
    entries: dict[str, str] = field(default_factory=dict)
    blocks: dict[str, dict[str, str]] = field(default_factory=dict)
    # the section's line, and the line of each (block name, key) pair
    line: int = field(default=0, compare=False, repr=False)
    lines: dict[tuple[str, str], int] = field(default_factory=dict, compare=False, repr=False)
    # the keys and "NAME {" blocks load_setup read; None until it looks the section up
    read: set[str] | None = field(default=None, compare=False, repr=False)

    def opened(self) -> "Section":
        self.read = self.read or set()
        return self

    def entry(self, key: str) -> str | None:
        self.read.add(key)
        return self.entries.get(key)

    def block(self, name: str) -> dict[str, str] | None:
        self.read.add(name + " {")
        return self.blocks.get(name)


@dataclass
class SetupDocument:
    sections: list[Section] = field(default_factory=list)

    def get(self, name: str) -> Section | None:
        for s in self.sections:
            if s.name == name:
                return s.opened()
        return None

    def choice_sections(self) -> list[Section]:
        return [s.opened() for s in self.sections if s.name.startswith("choice ")]

    def reject_unread(self) -> None:
        """Raise :class:`SetupError` on the first section, key or block not read."""
        for s in self.sections:
            if s.read is None:
                raise SetupError(f"unknown or repeated section [{s.name}]")
            unread = [f"key {k!r}" for k in s.entries if k not in s.read]
            unread += [f"block {b!r}" for b in s.blocks if b + " {" not in s.read]
            if unread:
                raise SetupError(f"[{s.name}] unknown or unused {unread[0]}")


# a line up to its first '#' outside double quotes; an open quote runs to the end
_UNCOMMENTED = re.compile(r'(?:[^"#]|"[^"]*(?:"|$))*')


def _unquote(token: str, lineno: int) -> str:
    token = token.strip()
    if token.startswith('"'):
        if not token.endswith('"') or len(token) < 2:
            raise SetupError(f"line {lineno}: unterminated quote in {token!r}")
        return token[1:-1]
    return token


def parse_document(text: str) -> SetupDocument:
    doc = SetupDocument()
    section: Section | None = None
    block: dict[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _UNCOMMENTED.match(raw).group().strip()
        if not line:
            continue
        if block is not None:
            if line == "}":
                block = None
                continue
            if "=" not in line:
                raise SetupError(f"line {lineno}: expected '\"key\" = \"value\"' inside a block")
            k, _, v = line.partition("=")
            k = _unquote(k, lineno)
            if k in block:
                raise SetupError(f"line {lineno}: repeated key {k!r} in block {name!r}")
            block[k] = _unquote(v, lineno)
            section.lines[name, k] = lineno
            continue
        if line.startswith("[") and line.endswith("]"):
            section = Section(line[1:-1].strip(), line=lineno)
            if not section.name:
                raise SetupError(f"line {lineno}: empty section name")
            doc.sections.append(section)
            continue
        if section is None:
            raise SetupError(f"line {lineno}: content before the first section")
        if line.endswith("{"):
            name = line[:-1].strip()
            if not name:
                raise SetupError(f"line {lineno}: block needs a name")
            if name in section.blocks:
                raise SetupError(f"line {lineno}: repeated block {name!r} in [{section.name}]")
            block = section.blocks[name] = {}
            continue
        if "=" in line:
            k, _, v = (part.strip() for part in line.partition("="))
            if k in section.entries:
                raise SetupError(f"line {lineno}: repeated key {k!r} in [{section.name}]")
            section.entries[k] = v
            continue
        raise SetupError(f"line {lineno}: cannot parse {line!r}")
    if block is not None:
        raise SetupError("unterminated block at end of file")
    return doc


@dataclass
class CampaignConfig:
    seed: int = 0
    bound: int = 6
    samples: int = 200


@dataclass
class BuildDirective:
    mode: str  # "free" | "extend"
    choice: str | None = None
    base: str | None = None
    steps: list = field(default_factory=list)  # [(GroupElement, RationalFunction)]


@dataclass
class AnalyzerDirective:
    primes: tuple[int, ...]
    degree_bound: int | None  # None: the analyzer's own default
    candidates: dict[GroupElement, str] | None


@dataclass
class SetupFile:
    """A fully interpreted setup: ready-made objects, not raw strings."""

    valuation: MonomialValuation
    lifting: str | None = None
    choices: dict[str, ChoiceFunction] = field(default_factory=dict)
    pairs: dict[str, SubgroupWithChoice] = field(default_factory=dict)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)
    build: BuildDirective | None = None
    analyzer: AnalyzerDirective | None = None


def _parse_int(section: str, key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise SetupError(f"[{section}] {key} must be an integer, got {value!r}") from None


def _parse_pairs(section: Section, name: str, dim: int, what: str, parse) -> list:
    """The ``"degree" = "value"`` pairs of the section's block ``name``, each
    value read by ``parse``, in file order; two keys that parse to one degree
    are an error."""
    pairs, first = [], {}
    for k, v in section.block(name).items():
        try:
            degree = GroupElement.parse(k, dim=dim)
            pairs.append((degree, parse(v)))
        except ValueError as exc:
            raise SetupError(f"{what} {k!r}: {exc}") from None
        line = section.lines[name, k]
        if first.setdefault(degree, line) != line:
            raise SetupError(f"line {line}: degree {k!r} repeats line {first[degree]}")
    return pairs


def _load_analyzer(section: Section) -> AnalyzerDirective:
    raw = section.entry("primes") or ""
    primes = []
    for part in raw.split(","):
        part = part.strip()
        if part:
            primes.append(_parse_int("analyzer", "primes", part))
    bound = section.entry("degree_bound")
    if bound is not None:
        bound = _parse_int("analyzer", "degree_bound", bound)
    candidates = None
    if section.block("candidates") is not None:
        candidates = dict(
            _parse_pairs(section, "candidates", 1, "[analyzer] bad candidate degree", str)
        )
    return AnalyzerDirective(tuple(primes), bound, candidates)


def load_setup(text: str) -> SetupFile:
    doc = parse_document(text)

    analyzer = None
    analyzer_section = doc.get("analyzer")
    if analyzer_section is not None:
        analyzer = _load_analyzer(analyzer_section)

    val_section = doc.get("valuation")
    if val_section is None:
        if analyzer is None:
            raise SetupError("a setup needs a [valuation] section (or an [analyzer])")
        if not analyzer.primes:
            raise SetupError("[analyzer] needs a non-empty primes list without [valuation]")
        valuation = counterexample_valuation(analyzer.primes)
    else:
        weights = {}
        dim = None
        for var in val_section.entries:
            try:
                w = GroupElement.parse(val_section.entry(var), dim=dim)
            except ValueError as exc:
                raise SetupError(f"[valuation] bad weight for {var}: {exc}") from None
            dim = w.dim
            weights[var] = w
        if not weights:
            raise SetupError("[valuation] section is empty")
        try:
            valuation = MonomialValuation(weights)
        except ValueError as exc:
            raise SetupError(f"[valuation] {exc}") from None

    setup = SetupFile(valuation=valuation, analyzer=analyzer)

    ring = doc.get("ring")
    if ring is not None:
        lifting = ring.entry("lifting")
        if lifting is not None and lifting != "constants":
            raise SetupError(f"[ring] unknown lifting oracle {lifting!r}")
        setup.lifting = lifting

    campaign = doc.get("campaign")
    if campaign is not None:
        cfg = CampaignConfig()
        for key in ("seed", "bound", "samples"):
            value = campaign.entry(key)
            if value is not None:
                setattr(cfg, key, _parse_int("campaign", key, value))
        # a negative height or no samples would make every verdict vacuous
        if cfg.bound < 0:
            raise SetupError(f"[campaign] bound must be non-negative, got {cfg.bound}")
        if cfg.samples < 1:
            raise SetupError(f"[campaign] samples must be at least 1, got {cfg.samples}")
        setup.campaign = cfg

    for section in doc.choice_sections():
        # the parser strips the name, so "choice " is always followed by one
        name = section.name.split(None, 1)[1]
        if name in setup.choices:
            raise SetupError(f"line {section.line}: repeated choice name {name!r}")
        kinds = [k for k in ("table", "generators") if section.block(k) is not None]
        if len(kinds) != 1:
            raise SetupError(
                f"[{section.name}] needs exactly one 'table' or 'generators' block"
            )
        what = f"[{section.name}] bad entry"
        parsed = dict(_parse_pairs(section, kinds[0], valuation.dim, what, parse_rational_function))
        try:
            if kinds[0] == "table":
                setup.choices[name] = TableChoice(valuation, parsed)
            else:
                pair = free_pair(valuation, list(parsed), list(parsed.values()))
                setup.choices[name] = pair.choice
                setup.pairs[name] = pair
        except ValueError as exc:
            raise SetupError(f"[{section.name}] {exc}") from None

    build = doc.get("build")
    if build is not None:
        mode = build.entry("mode")
        if mode not in ("free", "extend"):
            raise SetupError(f"[build] mode must be free or extend, got {mode!r}")
        directive = BuildDirective(mode=mode)
        if mode == "free":
            directive.choice = build.entry("choice")
            if directive.choice not in setup.pairs:
                raise SetupError(
                    "[build] mode = free needs choice = NAME of a generators choice"
                )
        else:
            directive.base = build.entry("base")
            if directive.base not in setup.pairs:
                raise SetupError(
                    "[build] mode = extend needs base = NAME of a generators choice"
                )
            if not build.block("steps"):
                raise SetupError("[build] mode = extend needs a non-empty steps block")
            directive.steps = _parse_pairs(
                build, "steps", valuation.dim, "[build] bad step", parse_rational_function
            )
        setup.build = directive

    doc.reject_unread()
    return setup
