"""Surface syntax: parse, serialize, diagnostics, round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from portsync.dsl import (
    KEYWORDS,
    DslError,
    FILE_EXTENSION,
    _lex,
    load,
    parse,
    save,
    serialize,
)
from portsync.enumerative import EnumEngine
from portsync.generators import gen_bus, gen_tasks, modulo8, random_system
from portsync.model import ExplicitPairs, MaximalProgress, SystemModel, effective_pairs
from portsync.symbolic import SymbolicEngine

from oracles import reference_lex, reference_parse


SMALL = """
# a one-atom system
system tiny {
  atom A {
    ports go;
    states off init, on;
    trans off -[ go ]-> on;
    trans on -[ go ]-> off;
  }
  connector c = go;
}
"""


def test_parse_small_source():
    sysm = parse(SMALL)
    assert sysm.name == "tiny"
    assert [a.name for a in sysm.atoms] == ["A"]
    assert sysm.atoms[0].init == "off"
    assert sysm.gamma == {frozenset({"go"})}
    assert sysm.priority is None


def test_parse_priority_pairs():
    src = SMALL.replace(
        "connector c = go;",
        "connector c = go;\n  connector d = stop;\n"
        "  priority {stop} < {go};",
    ).replace("ports go;", "ports go, stop;").replace(
        "trans on -[ go ]-> off;", "trans on -[ stop ]-> off;")
    sysm = parse(src)
    assert isinstance(sysm.priority, ExplicitPairs)
    assert (frozenset({"stop"}), frozenset({"go"})) in sysm.priority.pairs


class TestRoundTrips:
    def check(self, sysm):
        again = parse(serialize(sysm))
        assert again == sysm
        assert serialize(again) == serialize(sysm)  # idempotent

    def test_modulo8(self, mod8):
        self.check(mod8)

    def test_bus(self):
        self.check(gen_bus(2))

    def test_tasks(self):
        self.check(gen_tasks(3, 2))

    def test_random(self):
        for seed in range(25):
            self.check(random_system(seed))


def test_modulo8_connector_text(mod8):
    assert "connector x = p' [[q r]' [[s t]' u]];" in serialize(mod8)


def test_save_and_load(tmp_path, mod8):
    path = tmp_path / ("m" + FILE_EXTENSION)
    save(mod8, str(path))
    assert load(str(path)) == mod8


class TestDiagnostics:
    def expect_error(self, src, fragment):
        with pytest.raises(DslError) as exc:
            parse(src)
        messages = " | ".join(str(d) for d in exc.value.diagnostics)
        assert fragment in messages, messages

    def test_unknown_connector_port(self):
        self.expect_error(SMALL.replace("= go;", "= stop;"), "stop")

    def test_priority_with_no_pair(self):
        self.expect_error(SMALL.replace("connector c = go;", "connector c = go;\n  priority ;"),
                          "expected 'maximal_progress' or at least one '{...} < {...}' pair")

    def test_missing_init(self):
        self.expect_error(SMALL.replace(" init", ""), "init")

    def test_duplicate_init(self):
        self.expect_error(SMALL.replace("off init, on", "off init, on init"),
                          "init")

    def test_keyword_as_name(self):
        self.expect_error(SMALL.replace("atom A", "atom system"), "system")

    def test_stray_character(self):
        self.expect_error(SMALL.replace("ports go;", "ports go$;"), "$")

    def test_missing_semicolon(self):
        self.expect_error(SMALL.replace("ports go;", "ports go"), ";")

    def test_truncated_input(self):
        self.expect_error(SMALL.rsplit("}", 1)[0], "")

    def test_trailing_garbage(self):
        self.expect_error(SMALL + "\nextra", "extra")

    def test_diagnostics_carry_positions(self):
        try:
            parse("system x {\n  atom A {\n    ports p$;\n")
        except DslError as e:
            d = e.diagnostics[0]
            assert d.line == 3
            assert d.col > 0
        else:
            pytest.fail("no error raised")

    def test_duplicate_port_in_an_atom(self):
        with pytest.raises(DslError) as exc:
            parse(SMALL.replace("ports go;", "ports go, go;"))
        assert [(d.line, d.col, d.message) for d in exc.value.diagnostics] == [
            (4, 3, "atom A: duplicate port names within atom [unique-ports]"),
            (4, 3, "atom A: port 'go' already owned by A [disjoint-ports]")]

    def test_semantic_errors_surface_through_parse(self):
        src = SMALL.replace("trans off -[ go ]-> on;",
                            "trans off -[ go ]-> missing;")
        self.expect_error(src, "missing")


@settings(max_examples=300, deadline=None)
@given(st.text(
    alphabet=st.sampled_from(list("system atom{}[];,<->'=#\n\tabc01 ")),
    max_size=200,
))
def test_fuzz_only_dsl_errors(text):
    # arbitrary input either parses or reports diagnostics, never crashes
    try:
        parse(text)
    except DslError:
        pass


def _tokens_or_error(lex, text):
    try:
        return [tuple(t) for t in lex(text)]
    except DslError as exc:
        return [str(d) for d in exc.diagnostics]


@settings(max_examples=500, deadline=None)
@given(st.text(
    alphabet=st.one_of(st.sampled_from(list("system atom{}[];,<->'=#\n\t\r_abc01 ")), st.characters()),
    max_size=200,
))
def test_lexer_matches_the_reference(text):
    # the same tokens at the same line:col, or the same first error
    assert _tokens_or_error(_lex, text) == _tokens_or_error(reference_lex, text)


def test_lexer_matches_the_reference_on_models():
    texts = [SMALL, serialize(modulo8()), serialize(gen_tasks(4, 2)), serialize(gen_bus(3)),
             SMALL + "# no newline at the end", "a\u00b2 \u00b2a \u00e9t\u00e9 _x", "x\r\n  -", "] ]-> ]-[ -[ -x"]
    for text in texts:
        assert _tokens_or_error(_lex, text) == _tokens_or_error(reference_lex, text)


def _model_or_diagnostics(parse_text, text):
    try:
        return parse_text(text)
    except DslError as exc:
        return [(d.line, d.col, d.message) for d in exc.diagnostics]


def _pairs_text():
    tasks = gen_tasks(2, 1)
    return serialize(SystemModel(tasks.name, tasks.atoms, tasks.connectors,
                                 ExplicitPairs(effective_pairs(tasks.priority, tasks.gamma))))


_PARITY_TEXTS = [SMALL, serialize(modulo8()), serialize(gen_tasks(2, 2)), serialize(gen_bus(2)), _pairs_text()]
_PUNCT_MARKS = ["-[", "]->", "{", "}", "[", "]", ";", ",", "'", "=", "<"]


@st.composite
def _mutated_texts(draw):
    """A parity text with one to three token-level edits: a token dropped,
    doubled, swapped with another, or replaced by a keyword, a punctuation
    mark, a stray character or a name of the text."""
    text = draw(st.sampled_from(_PARITY_TEXTS))
    rows = text.split("\n")
    offsets = [sum(len(r) + 1 for r in rows[:line - 1]) + col - 1 for _, _, line, col in reference_lex(text)[:-1]]
    tokens = [tok for _, tok, _, _ in reference_lex(text)[:-1]]
    names = sorted({t for t in tokens if t[0].isalpha()})
    pieces = list(tokens)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(tokens) - 1))
        edit = draw(st.sampled_from(["drop", "double", "swap", "replace"]))
        if edit == "drop":
            pieces[k] = ""
        elif edit == "double":
            pieces[k] = pieces[k] + " " + pieces[k]
        elif edit == "swap":
            j = draw(st.integers(0, len(tokens) - 1))
            pieces[k], pieces[j] = pieces[j], pieces[k]
        else:
            pieces[k] = draw(st.sampled_from(sorted(KEYWORDS)) | st.sampled_from(_PUNCT_MARKS)
                             | st.sampled_from(["-", "$", "0", "\u00b2", "#", "\n"]) | st.sampled_from(names))
    out, end = [], 0
    for start, tok, piece in zip(offsets, tokens, pieces):
        out += [text[end:start], piece]
        end = start + len(tok)
    return "".join(out) + text[end:]


@settings(max_examples=400, deadline=None)
@given(_mutated_texts())
def test_parser_matches_the_reference(text):
    # the same model, or the same diagnostics at the same line:col
    assert _model_or_diagnostics(parse, text) == _model_or_diagnostics(reference_parse, text)


def test_parser_matches_the_reference_on_chosen_errors():
    syntax = [SMALL.replace("off init, on", "off init, on init"), SMALL.replace(" init", ""),
              SMALL.replace("ports go;", "ports go$;"), SMALL.rsplit("}", 1)[0] + "  # cut short",
              SMALL.replace("= go;", "= [go ;"), SMALL.replace("trans on", "trans on on")]
    for text in syntax:
        expected = _model_or_diagnostics(reference_parse, text)
        assert len(expected) == 1 and expected[0][0] > 1
        assert _model_or_diagnostics(parse, text) == expected
    # each text parses but fails validation: every diagnostic sits at the
    # keyword of the element it names, the system's at `system`
    bad = [SMALL.replace("atom A", "atom A {\n ports x; states s init; }\n atom A"),
           SMALL.replace("= go;", "= stop;\n  connector c = go;"),
           SMALL.replace("trans on -[ go ]-> off;", "trans on -[ go ]-> nowhere;\n    trans on -[ go ]-> nowhere;"),
           SMALL.replace("states off init, on;", "states off init, off;"),
           serialize(gen_bus(2)).replace("c1_2", "c1_1"),
           _pairs_text().replace("< { b1_1, go1, p1_2 }", "< { b1_1, zz }"),
           SMALL.replace("connector c = go;", "connector c = go;\n  priority { go } < { go };"),
           "system \u00e9 {\n atom A { ports p; states s init; }\n connector c = p;\n}"]
    for text in bad:
        expected = _model_or_diagnostics(reference_parse, text)
        assert isinstance(expected, list) and all(line > 0 for line, _, _ in expected[:1])
        assert _model_or_diagnostics(parse, text) == expected
    for text in _PARITY_TEXTS:
        assert parse(text) == reference_parse(text)


TWICE = """system twice {
  atom A {
    ports a;
    states q init;
    trans q -[ a ]-> q;
  }
  atom B {
    ports b;
    states q init;
    trans q -[ b ]-> q;
  }
  connector x = a' [b b'];
}
"""


def test_a_port_named_twice_in_a_connector_is_located():
    with pytest.raises(DslError) as exc:
        parse(TWICE)
    assert [(d.line, d.col, d.message) for d in exc.value.diagnostics] == [
        (12, 3, "connector x: port 'b' named more than once [linear-term]")]


def test_a_repeated_transition_changes_no_trace():
    # the transitions are a relation: a repeated line adds no target, so
    # no firing draws a coin between two copies of one target, and both
    # engines run the same same-seed traces as without it; the text with
    # the repeat still round-trips
    text = serialize(gen_bus(2))
    line = "    trans A -[ c1_1 ]-> B;\n"
    plain, twice = parse(text), parse(text.replace(line, line * 2, 1))
    assert len(twice.atoms[0].transitions) == len(plain.atoms[0].transitions) + 1
    assert twice.atoms[0].moves == plain.atoms[0].moves
    assert parse(serialize(twice)) == twice
    for engine in (EnumEngine, SymbolicEngine):
        for seed in (1, 7):
            assert engine(twice, seed).run(300).steps == engine(plain, seed).run(300).steps
