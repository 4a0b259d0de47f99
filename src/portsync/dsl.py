"""Concrete syntax for system models (.bip-lite files).

    system modulo8 {
      atom B1 {
        ports p, q;
        states l1 init, l2;
        trans l1 -[ p ]-> l2;
        trans l2 -[ p, q ]-> l1;
      }
      connector x = p' [[q r]' [[s t]' u]];
      priority maximal_progress;
    }

Declaration order is atoms, then connectors, then one optional priority
clause (either `maximal_progress` or juxtaposed `{low} < {high}` pairs).
An apostrophe marks a trigger; brackets group.  `#` starts a comment.
The constants 0/1 of the connector algebra have no surface syntax.

Parsing is total: any input either yields a validated SystemModel or a
DslError carrying line/column diagnostics.  `serialize` inverts `parse`
up to whitespace: parse(serialize(m)) == m for any valid model.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .connectors import AcTerm, Factor, Fusion, PortLeaf, fusion
from .model import (
    AtomicBehavior,
    Connector,
    ExplicitPairs,
    MaximalProgress,
    SystemModel,
    Transition,
    validate,
)

FILE_EXTENSION = ".bip-lite"

KEYWORDS = frozenset((
    "system", "atom", "ports", "states", "init", "trans",
    "connector", "priority", "maximal_progress",
))

# per line: a name (its first character checked after the match), a
# punctuation mark, blanks, a comment, any other character
_TOKEN_RE = re.compile(r"(\w+)|(-\[|\]->|[{}\[\];,'=<\]])|[ \t\r]+|(#.*)|(.)")


@dataclass(frozen=True)
class DslDiagnostic:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class DslError(Exception):
    def __init__(self, diagnostics: list[DslDiagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


class Token(NamedTuple):
    kind: str  # "name" | "punct" | "eof"
    text: str
    line: int
    col: int


def _lex(text: str) -> list[Token]:
    """The tokens of `text` with their line and column, then "eof" where
    the text ends, or before a comment that ends it."""
    tokens: list[Token] = []
    new = tuple.__new__  # what Token(...) calls, without the call
    for line, row in enumerate(text.split("\n"), 1):
        end = len(row)
        for m in _TOKEN_RE.finditer(row):
            group, start = m.lastindex, m.start()
            if group == 2 or group == 1 and (row[start].isalpha() or row[start] == "_"):
                tokens.append(new(Token, ("punct" if group == 2 else "name", m.group(), line, start + 1)))
            elif group == 3:
                end = start
            elif group is not None:
                ch = row[start]
                raise DslError([DslDiagnostic(line, start + 1, "stray '-' (expected '-[')" if ch == "-"
                                              else f"unexpected character {ch!r}")])
    tokens.append(Token("eof", "", line, end + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0
        self.locations: dict[str, tuple[int, int]] = {}

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: Token, message: str) -> None:
        raise DslError([DslDiagnostic(tok.line, tok.col, message)])

    def expect_punct(self, text: str) -> Token:
        tok = self.next()
        if tok.kind != "punct" or tok.text != text:
            self.fail(tok, f"expected {text!r}, found {tok.text!r}" if tok.kind != "eof"
                      else f"expected {text!r}, found end of input")
        return tok

    def expect_keyword(self, word: str) -> Token:
        tok = self.next()
        if tok.kind != "name" or tok.text != word:
            self.fail(tok, f"expected keyword {word!r}, found {tok.text!r}" if tok.kind != "eof"
                      else f"expected keyword {word!r}, found end of input")
        return tok

    def expect_name(self) -> Token:
        tok = self.next()
        if tok.kind != "name":
            self.fail(tok, f"expected a name, found {tok.text!r}" if tok.kind != "eof"
                      else "expected a name, found end of input")
        if tok.text in KEYWORDS:
            self.fail(tok, f"{tok.text!r} is a reserved word")
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "name" and tok.text == word

    def namelist(self) -> list[Token]:
        names = [self.expect_name()]
        while self.peek().text == ",":
            self.next()
            names.append(self.expect_name())
        return names

    # -- grammar ------------------------------------------------------

    def system(self) -> SystemModel:
        self.expect_keyword("system")
        name_tok = self.expect_name()
        self.expect_punct("{")
        atoms: list[AtomicBehavior] = []
        while self.at_keyword("atom"):
            atoms.append(self.atom())
        connectors: list[Connector] = []
        while self.at_keyword("connector"):
            connectors.append(self.connector())
        priority = None
        if self.at_keyword("priority"):
            priority = self.priority()
        self.expect_punct("}")
        tok = self.peek()
        if tok.kind != "eof":
            self.fail(tok, f"trailing input after the system block: {tok.text!r}")
        return SystemModel(
            name=name_tok.text,
            atoms=tuple(atoms),
            connectors=tuple(connectors),
            priority=priority,
        )

    def atom(self) -> AtomicBehavior:
        kw = self.expect_keyword("atom")
        name_tok = self.expect_name()
        self.locations[f"atom:{name_tok.text}"] = (kw.line, kw.col)
        self.expect_punct("{")
        self.expect_keyword("ports")
        port_toks = self.namelist()
        self.expect_punct(";")
        self.expect_keyword("states")
        states: list[str] = []
        init: str | None = None
        while True:
            st = self.expect_name()
            states.append(st.text)
            if self.at_keyword("init"):
                mark = self.next()
                if init is not None:
                    raise DslError([DslDiagnostic(
                        mark.line, mark.col,
                        f"atom {name_tok.text!r} marks more than one init state")])
                init = st.text
            if self.peek().text != ",":
                break
            self.next()
        self.expect_punct(";")
        if init is None:
            self.fail(name_tok, f"atom {name_tok.text!r} marks no state as init")
        assert init is not None
        transitions: list[Transition] = []
        while self.at_keyword("trans"):
            transitions.append(self.trans(name_tok.text, len(transitions) + 1))
        self.expect_punct("}")
        return AtomicBehavior(
            name=name_tok.text,
            states=tuple(states),
            init=init,
            ports=tuple(t.text for t in port_toks),
            transitions=tuple(transitions),
        )

    def trans(self, atom: str, n: int) -> Transition:
        """The atom's n-th transition, located as `validate` names it."""
        kw = self.expect_keyword("trans")
        src = self.expect_name()
        self.expect_punct("-[")
        label = self.namelist()
        self.expect_punct("]->")
        dst = self.expect_name()
        self.expect_punct(";")
        self.locations[f"atom:{atom} trans #{n} {src.text}->{dst.text}"] = (kw.line, kw.col)
        return Transition(source=src.text, label=frozenset(t.text for t in label), target=dst.text)

    def connector(self) -> Connector:
        kw = self.expect_keyword("connector")
        name_tok = self.expect_name()
        self.locations[f"connector:{name_tok.text}"] = (kw.line, kw.col)
        self.expect_punct("=")
        term = self.acterm()
        self.expect_punct(";")
        return Connector(name=name_tok.text, term=term)

    def acterm(self) -> AcTerm:
        factors = [self.factor()]
        while True:
            tok = self.peek()
            if (tok.kind == "name" and tok.text not in KEYWORDS) or tok.text == "[":
                factors.append(self.factor())
            else:
                break
        return fusion(factors)

    def factor(self) -> Factor:
        tok = self.peek()
        if tok.text == "[":
            self.next()
            inner = self.acterm()
            self.expect_punct("]")
            trigger = self.peek().text == "'"
            if trigger:
                self.next()
            return Factor(inner, trigger)
        name = self.expect_name()
        trigger = self.peek().text == "'"
        if trigger:
            self.next()
        return Factor(PortLeaf(name.text), trigger)

    def priority(self) -> MaximalProgress | ExplicitPairs:
        kw = self.expect_keyword("priority")
        self.locations["priority"] = (kw.line, kw.col)
        if self.at_keyword("maximal_progress"):
            self.next()
            self.expect_punct(";")
            return MaximalProgress()
        pairs: list[tuple[frozenset[str], frozenset[str]]] = []
        while self.peek().text == "{":
            self.next()
            low = frozenset(t.text for t in self.namelist())
            self.expect_punct("}")
            self.expect_punct("<")
            self.expect_punct("{")
            high = frozenset(t.text for t in self.namelist())
            self.expect_punct("}")
            pairs.append((low, high))
        if not pairs:
            self.fail(self.peek(), "expected 'maximal_progress' or at least one '{...} < {...}' pair")
        self.expect_punct(";")
        return ExplicitPairs(frozenset(pairs))


def parse(text: str) -> SystemModel:
    """Parse and validate; raises DslError with located diagnostics."""
    parser = _Parser(_lex(text))
    system = parser.system()
    diags = validate(system)
    if diags:
        located = []
        for d in diags:
            key = d.location.replace(" ", ":", 1)
            line, col = parser.locations.get(key, (0, 0))
            located.append(DslDiagnostic(line, col, str(d)))
        raise DslError(located)
    return system


def load(path: str) -> SystemModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# -- serialization ----------------------------------------------------


def _term_text(term: AcTerm) -> str:
    if isinstance(term, PortLeaf):
        return term.port
    if isinstance(term, Fusion):
        return " ".join(_factor_text(f) for f in term.factors)
    raise DslError([DslDiagnostic(0, 0, f"term {term!r} has no surface syntax")])


def _factor_text(f: Factor) -> str:
    mark = "'" if f.trigger else ""
    if isinstance(f.term, PortLeaf):
        return f.term.port + mark
    return f"[{_term_text(f.term)}]{mark}"


def _priority_text(priority) -> str:
    if isinstance(priority, MaximalProgress):
        return "  priority maximal_progress;"
    pairs = sorted(priority.pairs, key=lambda ab: (sorted(ab[0]), sorted(ab[1])))
    rendered = " ".join(
        "{ %s } < { %s }" % (", ".join(sorted(lo)), ", ".join(sorted(hi)))
        for lo, hi in pairs
    )
    return f"  priority {rendered};"


def serialize(system: SystemModel) -> str:
    lines = [f"system {system.name} {{"]
    for atom in system.atoms:
        lines.append(f"  atom {atom.name} {{")
        lines.append(f"    ports {', '.join(atom.ports)};")
        marked = ", ".join(s + " init" if s == atom.init else s for s in atom.states)
        lines.append(f"    states {marked};")
        for t in atom.transitions:
            label = ", ".join(sorted(t.label))
            lines.append(f"    trans {t.source} -[ {label} ]-> {t.target};")
        lines.append("  }")
    for conn in system.connectors:
        lines.append(f"  connector {conn.name} = {_term_text(conn.term)};")
    if system.priority is not None:
        lines.append(_priority_text(system.priority))
    lines.append("}")
    return "\n".join(lines) + "\n"


def save(system: SystemModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(system))
