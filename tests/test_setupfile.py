"""Setup-file grammar: sections, key/value entries, quoted blocks."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from valtwist.errors import SetupError
from valtwist.graded import constant_lift
from valtwist.mpoly import parse_rational_function
from valtwist.ordgroup import GroupElement
from valtwist.setupfile import _UNCOMMENTED, load_setup, parse_document
from valtwist.twist import GeneratorChoice, TableChoice


def render_document(doc) -> str:
    """Write a parsed document back as text, for the parser's round trip."""
    lines = []
    for section in doc.sections:
        if lines:
            lines.append("")
        lines.append(f"[{section.name}]")
        for k, v in section.entries.items():
            lines.append(f"{k} = {v}")
        for name, block in section.blocks.items():
            lines.append(f"{name} {{")
            for k, v in block.items():
                lines.append(f'  "{k}" = "{v}"')
            lines.append("}")
    return "\n".join(lines) + "\n"


GOOD = """\
# campaign file
[valuation]
x = (1, 0)
y = (0, 1)

[ring]
lifting = constants

[campaign]
seed = 42
bound = 6
samples = 200

[choice free]
generators {
  "(1,0)" = "x"   # witness for the first axis
  "(0,1)" = "y"
}

[build]
mode = free
choice = free
"""


class TestDocumentGrammar:
    def test_sections_and_entries(self):
        doc = parse_document(GOOD)
        names = [s.name for s in doc.sections]
        assert names == ["valuation", "ring", "campaign", "choice free", "build"]
        assert doc.get("campaign").entries["seed"] == "42"
        assert doc.get("choice free").blocks["generators"]["(1,0)"] == "x"

    def test_comments_stripped_outside_quotes(self):
        doc = parse_document('[a]\nk = v # tail\nb {\n"x # y" = "z"\n}\n')
        assert doc.get("a").entries["k"] == "v"
        assert doc.get("a").blocks["b"] == {"x # y": "z"}

    def test_render_round_trip(self):
        doc = parse_document(GOOD)
        again = parse_document(render_document(doc))
        assert again == doc

    def test_entry_before_any_section(self):
        with pytest.raises(SetupError, match="line 1"):
            parse_document("k = v\n")

    def test_missing_equals(self):
        with pytest.raises(SetupError, match="line 2"):
            parse_document("[a]\njust words\n")

    def test_unterminated_block(self):
        with pytest.raises(SetupError, match="block"):
            parse_document('[a]\nb {\n"x" = "y"\n')

    def test_block_entries_may_omit_quotes(self):
        doc = parse_document("[a]\nb {\nx = y\n}\n")
        assert doc.get("a").blocks["b"] == {"x": "y"}

    def test_unterminated_quote_rejected(self):
        with pytest.raises(SetupError, match="unterminated quote"):
            parse_document('[a]\nb {\n"x = "y"\n}\n')


class TestLoadSetup:
    def test_full_file(self):
        setup = load_setup(GOOD)
        assert sorted(setup.valuation.weights) == ["x", "y"]
        assert setup.lifting is constant_lift
        assert setup.campaign.seed == 42 and setup.campaign.samples == 200
        eps = setup.choices["free"]
        assert isinstance(eps, GeneratorChoice)
        assert eps(GroupElement((1, 1))) == parse_rational_function("x*y")
        assert setup.pairs["free"].certified_trivial
        assert setup.build.mode == "free" and setup.build.choice == "free"

    def test_table_choice(self):
        text = (
            "[valuation]\nx = 1\n\n[choice t]\ntable {\n"
            '"1" = "2*x"\n"2" = "x^2"\n}\n'
        )
        setup = load_setup(text)
        eps = setup.choices["t"]
        assert isinstance(eps, TableChoice)
        assert eps(GroupElement(1)) == parse_rational_function("2*x")

    def test_extend_steps_parsed_in_order(self):
        text = (
            "[valuation]\nz = 1/6\n\n[choice base]\ngenerators {\n"
            '"1" = "64*z^6"\n}\n\n[build]\nmode = extend\nbase = base\n'
            'steps {\n"1/2" = "z^3"\n"1/6" = "z"\n}\n'
        )
        setup = load_setup(text)
        steps = setup.build.steps
        assert [str(g) for g, _ in steps] == ["1/2", "1/6"]
        assert steps[0][1] == parse_rational_function("z^3")

    def test_analyzer_only_needs_no_valuation(self):
        setup = load_setup("[analyzer]\nprimes = 2, 3\ndegree_bound = 8\n")
        assert setup.analyzer.primes == (2, 3)
        assert setup.analyzer.degree_bound == 8
        # the valuation defaults to the finite-prime weights 1/p
        assert setup.valuation.value(
            parse_rational_function("x2")
        ) == GroupElement(Fraction(1, 2))

    def test_analyzer_candidates(self):
        text = (
            "[analyzer]\nprimes = 2\ncandidates {\n"
            '"1/2" = "x2"\n"1" = "x2^2"\n}\n'
        )
        setup = load_setup(text)
        assert setup.analyzer.candidates == {
            GroupElement(Fraction(1, 2)): "x2",
            GroupElement(1): "x2^2",
        }

    def test_analyzer_refuses_a_degree_bound_beside_candidates(self):
        # a candidates table is checked as given, with no enumeration to bound
        text = '[analyzer]\nprimes = 2\ndegree_bound = 4\ncandidates {\n"1/2" = "x2"\n"1" = "x2^2"\n}\n'
        with pytest.raises(SetupError) as exc:
            load_setup(text)
        assert str(exc.value) == "[analyzer] degree_bound is unused with a candidates table"
        assert load_setup(text.replace("degree_bound = 4\n", "")).analyzer.degree_bound is None

    def test_missing_valuation_rejected_without_analyzer(self):
        with pytest.raises(SetupError, match="valuation"):
            load_setup("[campaign]\nseed = 1\n")

    def test_bad_subring(self):
        with pytest.raises(SetupError, match=r"^\[ring\] unknown or unused key 'subring'$"):
            load_setup("[valuation]\nx = 1\n\n[ring]\nsubring = weird\n")

    def test_bad_lifting(self):
        with pytest.raises(SetupError):
            load_setup("[valuation]\nx = 1\n\n[ring]\nlifting = magic\n")

    def test_bad_campaign_int(self):
        with pytest.raises(SetupError, match="seed"):
            load_setup("[valuation]\nx = 1\n\n[campaign]\nseed = many\n")

    @pytest.mark.parametrize(
        "entry,key",
        [("bound = -1", "bound"), ("samples = 0", "samples"), ("samples = -5", "samples"),
         ("samples = 100001", "samples")],
    )
    def test_vacuous_campaign_values_rejected(self, entry, key):
        with pytest.raises(SetupError, match=rf"^\[campaign\] {key} must be"):
            load_setup(f"[valuation]\nx = 1\n\n[campaign]\n{entry}\n")

    def test_zero_bound_and_one_sample_accepted(self):
        setup = load_setup("[valuation]\nx = 1\n\n[campaign]\nbound = 0\nsamples = 1\n")
        assert (setup.campaign.bound, setup.campaign.samples) == (0, 1)

    def test_choice_needs_exactly_one_block(self):
        with pytest.raises(SetupError):
            load_setup("[valuation]\nx = 1\n\n[choice c]\nkind = free\n")

    def test_invalid_table_entry_reported_as_setup_error(self):
        text = '[valuation]\nx = 1\n\n[choice t]\ntable {\n"2" = "x"\n}\n'
        with pytest.raises(SetupError):
            load_setup(text)

    def test_malformed_step_witness(self):
        text = (
            "[valuation]\nz = 1/6\n\n[choice base]\ngenerators {\n"
            '"1" = "64*z^6"\n}\n\n[build]\nmode = extend\nbase = base\n'
            'steps {\n"1/2" = "z +"\n}\n'
        )
        with pytest.raises(SetupError):
            load_setup(text)

    def test_build_mode_checked(self):
        with pytest.raises(SetupError):
            load_setup("[valuation]\nx = 1\n\n[build]\nmode = fancy\n")

    def test_build_free_needs_known_choice(self):
        with pytest.raises(SetupError):
            load_setup("[valuation]\nx = 1\n\n[build]\nmode = free\nchoice = nope\n")

    def test_campaign_defaults(self):
        setup = load_setup("[valuation]\nx = 1\n")
        assert (setup.campaign.seed, setup.campaign.bound, setup.campaign.samples) == (
            0,
            6,
            200,
        )


class TestOnlyWhatIsRead:
    """Every section, key and block the loader does not read is an error."""

    @pytest.mark.parametrize(
        "text,message",
        [
            # the key that named the subring was never read
            ("[ring]\nsubring = polynomial\n", "[ring] unknown or unused key 'subring'"),
            ("[ring]\nlifitng = constants\n", "[ring] unknown or unused key 'lifitng'"),
            ("[campain]\nsamples = 3\n", "unknown or repeated section [campain]"),
            ("[ring]\n\n[ring]\nlifting = constants\n", "unknown or repeated section [ring]"),
            ("[choice]\ntable {\n\"1\" = \"x\"\n}\n", "unknown or repeated section [choice]"),
            ("[campaign]\nsteps {\n\"1\" = \"2\"\n}\n", "[campaign] unknown or unused block 'steps'"),
            ('[choice t]\nkind = table\ntable {\n"1" = "x"\n}\n', "[choice t] unknown or unused key 'kind'"),
            ("[build]\nmode = free\nchoice = g\nbase = g\n", "[build] unknown or unused key 'base'"),
            ("[build]\nmode = extend\nbase = g\nsteps = 1\nsteps {\n\"1\" = \"x\"\n}\n",
             "[build] unknown or unused key 'steps'"),
            ("[analyzer]\nprimes = 2\ncandidate {\n\"1\" = \"x2^2\"\n}\n",
             "[analyzer] unknown or unused block 'candidate'"),
            ("[ring]\nlifting {\n\"1\" = \"2\"\n}\n", "[ring] unknown or unused block 'lifting'"),
        ],
        ids=["subring", "misspelt-key", "misspelt-section", "repeated-section", "unnamed-choice",
             "stray-block", "choice-entry", "other-mode-key", "entry-for-block", "misspelt-block",
             "block-for-entry"],
    )
    def test_unread_input_is_named(self, text, message):
        base = '[valuation]\nx = 1\n\n[choice g]\ngenerators {\n"1" = "x"\n}\n\n'
        with pytest.raises(SetupError) as exc:
            load_setup(base + text)
        assert str(exc.value) == message

    @pytest.mark.parametrize("name", ['a"b c', '"t"', 'x"'])
    def test_choice_name_with_a_double_quote_is_refused(self, name):
        text = f'[valuation]\nx = 1\n\n[choice t]\ntable {{\n"1" = "x"\n}}\n\n[choice {name}]\n'
        with pytest.raises(SetupError) as exc:
            load_setup(text + 'table {\n"1" = "x"\n}\n')
        assert str(exc.value) == f"line 9: choice name {name!r} holds a '\"'"

    def test_absent_degree_bound_is_left_to_the_analyzer(self):
        assert load_setup("[analyzer]\nprimes = 2\n").analyzer.degree_bound is None


class TestRepeatedInput:
    """Input given twice is an error naming the line, not a silent last-one-wins."""

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[valuation]\nx = 1\n\n[campaign]\nsamples = 5\nsamples = 300\n",
             "line 6: repeated key 'samples' in [campaign]"),
            ("[valuation]\nx = 1\nx = 2\n", "line 3: repeated key 'x' in [valuation]"),
            ('[valuation]\nx = 1\n\n[choice t]\ntable {\n"1" = "x"\n}\ntable {\n"1" = "2*x"\n}\n',
             "line 8: repeated block 'table' in [choice t]"),
            ('[valuation]\nx = 1\n\n[choice t]\ntable {\n"1" = "2*x"\n"1" = "3*x"\n}\n',
             "line 7: repeated key '1' in block 'table'"),
            ('[valuation]\nx = 1\n\n[choice t]\ntable {\n"1" = "2*x"\n"2/2" = "3*x"\n}\n',
             "line 7: degree '2/2' repeats line 6"),
            ('[valuation]\nx = (1, 0)\ny = (0, 1)\n\n[choice g]\ngenerators {\n'
             '"(1,0)" = "x"\n"(1, 0)" = "2*x"\n}\n',
             "line 8: degree '(1, 0)' repeats line 7"),
            ('[analyzer]\nprimes = 2\ncandidates {\n"1/2" = "x2"\n"2/4" = "x2"\n"1" = "x2^2"\n}\n',
             "line 5: degree '2/4' repeats line 4"),
            ('[valuation]\nx = 1\n\n[choice t]\ntable {\n"1" = "x"\n}\n\n'
             '[choice  t]\ntable {\n"1" = "2*x"\n}\n',
             "line 9: repeated choice name 't'"),
        ],
        ids=["section-key", "weight", "block", "block-key", "table-degree", "generator-degree",
             "candidate-degree", "choice-name"],
    )
    def test_repeated_input_is_named(self, text, message):
        with pytest.raises(SetupError) as exc:
            load_setup(text)
        assert str(exc.value) == message


# the comment stripper the pattern replaced, kept as the reference
def _ref_strip_comment(line):
    out = []
    quoted = False
    for ch in line:
        if ch == '"':
            quoted = not quoted
        if ch == "#" and not quoted:
            break
        out.append(ch)
    return "".join(out)


@settings(max_examples=1000, deadline=None)
@given(st.text(alphabet='"# x2=1/^*+-@{}', max_size=30))
def test_comment_pattern_matches_the_character_loop(line):
    assert _UNCOMMENTED.match(line).group() == _ref_strip_comment(line)
