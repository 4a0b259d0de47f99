"""Surface syntax: parse, serialize, diagnostics, round trips."""

import pytest
from hypothesis import given, settings, strategies as st

from portsync.dsl import (
    DslError,
    FILE_EXTENSION,
    _lex,
    load,
    parse,
    save,
    serialize,
)
from portsync.generators import gen_bus, gen_tasks, modulo8, random_system
from portsync.model import ExplicitPairs, MaximalProgress

from oracles import reference_lex


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
