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
`serialize` and the generators (the built-in families and
`random_system`) write an atom's declaration lines through one function,
`atom_lines`, and a connector's term through one function, `term_text`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, NoReturn, Optional

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

# after any blanks and comments: a name, a punctuation mark, any other
# character (a name's first character is checked after the match), or ""
# where the text ends
_TOKEN_RE = re.compile(r"(?:[ \t\r\n]+|#[^\n]*)*(\w+|-\[|\]->|[{}\[\];,'=<\]]|.|\Z)")
_PUNCT = frozenset(("-[", "]->", "{", "}", "[", "]", ";", ",", "'", "=", "<"))
_NOT_NAME = _PUNCT | {""}


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


def _stray(tok: str) -> bool:
    """Does the match `tok` of `_TOKEN_RE` start no token?"""
    return tok not in _NOT_NAME and not (tok[0].isalpha() or tok[0] == "_")


def _lex(text: str) -> list[tuple[str, str, int, int]]:
    """The tokens of `text` as (kind, text, line, col), then "eof" where
    the text ends, or where a comment that ends it starts; DslError at
    the first character that starts no token.  `parse` reads the tokens
    without their places and calls this only for a diagnostic."""
    tokens, line = [], 1
    for m in _TOKEN_RE.finditer(text):
        tok, start = m.group(1), m.start(1)
        line += text.count("\n", m.start(), start)
        row = text.rfind("\n", 0, start) + 1
        if _stray(tok):
            raise DslError([DslDiagnostic(line, start - row + 1, "stray '-' (expected '-[')" if tok == "-"
                                          else f"unexpected character {tok[0]!r}")])
        if not tok:  # a text that ends with a blank matches "" twice there
            comment = text.find("#", row)
            tokens.append(("eof", "", line, (start if comment < 0 else comment) - row + 1))
            break
        tokens.append(("punct" if tok in _PUNCT else "name", tok, line, start - row + 1))
    return tokens


class _Parser:
    """Recursive descent over the token strings, "" at the end."""

    def __init__(self, text: str, tokens: list[str]):
        self.text = text
        self.tokens = tokens
        self.pos = 0

    def fail(self, message: str, pos: Optional[int] = None) -> NoReturn:
        """DslError at the token at `pos`, by default the next one."""
        _, _, line, col = _lex(self.text)[self.pos if pos is None else pos]
        raise DslError([DslDiagnostic(line, col, message)])

    def expect(self, word: str) -> None:
        """Take `word`, a punctuation mark or a keyword."""
        tok = self.tokens[self.pos]
        if tok != word:
            what = f"keyword {word!r}" if word in KEYWORDS else repr(word)
            self.fail(f"expected {what}, found {tok!r}" if tok else f"expected {what}, found end of input")
        self.pos += 1

    def name(self) -> str:
        tok = self.tokens[self.pos]
        if tok in _NOT_NAME:
            self.fail(f"expected a name, found {tok!r}" if tok else "expected a name, found end of input")
        if tok in KEYWORDS:
            self.fail(f"{tok!r} is a reserved word")
        self.pos += 1
        return tok

    def take(self, word: str) -> bool:
        """Take the next token if it is `word`."""
        if self.tokens[self.pos] == word:
            self.pos += 1
            return True
        return False

    def namelist(self) -> list[str]:
        names = [self.name()]
        while self.take(","):
            names.append(self.name())
        return names

    # -- grammar ------------------------------------------------------

    def system(self) -> SystemModel:
        self.expect("system")
        name = self.name()
        self.expect("{")
        atoms: list[AtomicBehavior] = []
        while self.take("atom"):
            atoms.append(self.atom())
        connectors: list[Connector] = []
        while self.take("connector"):
            connectors.append(self.connector())
        priority = self.priority() if self.take("priority") else None
        self.expect("}")
        if self.tokens[self.pos]:
            self.fail(f"trailing input after the system block: {self.tokens[self.pos]!r}")
        return SystemModel(name=name, atoms=tuple(atoms), connectors=tuple(connectors), priority=priority)

    def atom(self) -> AtomicBehavior:
        at = self.pos
        name = self.name()
        self.expect("{")
        self.expect("ports")
        ports = self.namelist()
        self.expect(";")
        self.expect("states")
        states: list[str] = []
        init: str | None = None
        while True:
            states.append(self.name())
            if self.take("init"):
                if init is not None:
                    self.fail(f"atom {name!r} marks more than one init state", self.pos - 1)
                init = states[-1]
            if not self.take(","):
                break
        self.expect(";")
        if init is None:
            self.fail(f"atom {name!r} marks no state as init", at)
        transitions: list[Transition] = []
        while self.take("trans"):
            src = self.name()
            self.expect("-[")
            label = frozenset(self.namelist())
            self.expect("]->")
            dst = self.name()
            self.expect(";")
            transitions.append(Transition(source=src, label=label, target=dst))
        self.expect("}")
        return AtomicBehavior(name=name, states=tuple(states), init=init, ports=tuple(ports),
                              transitions=tuple(transitions))

    def connector(self) -> Connector:
        name = self.name()
        self.expect("=")
        term = self.acterm()
        self.expect(";")
        return Connector(name=name, term=term)

    def acterm(self) -> AcTerm:
        factors = [self.factor()]
        while (tok := self.tokens[self.pos]) == "[" or tok not in _NOT_NAME and tok not in KEYWORDS:
            factors.append(self.factor())
        return fusion(factors)

    def factor(self) -> Factor:
        if self.take("["):
            term = self.acterm()
            self.expect("]")
        else:
            term = PortLeaf(self.name())
        return Factor(term, self.take("'"))

    def priority(self) -> MaximalProgress | ExplicitPairs:
        if self.take("maximal_progress"):
            self.expect(";")
            return MaximalProgress()
        pairs: list[tuple[frozenset[str], frozenset[str]]] = []
        while self.take("{"):
            low = frozenset(self.namelist())
            self.expect("}")
            self.expect("<")
            self.expect("{")
            high = frozenset(self.namelist())
            self.expect("}")
            pairs.append((low, high))
        if not pairs:
            self.fail("expected 'maximal_progress' or at least one '{...} < {...}' pair")
        self.expect(";")
        return ExplicitPairs(frozenset(pairs))


def parse(text: str) -> SystemModel:
    """Parse and validate; raises DslError with located diagnostics.  The
    model holds one string object per distinct name, however often the
    text writes it: each token is read through this parse's own table."""
    names: dict[str, str] = {}
    found = _TOKEN_RE.findall(text)
    tokens = list(map(names.setdefault, found, found))
    del found  # its repeated strings are freed before the model is built
    if any(map(_stray, names)):
        _lex(text)  # raises at the first stray character
    system = _Parser(text, tokens).system()
    diags = validate(system)
    if diags:
        # each diagnostic sits at the keyword that opens its element
        marks: dict[str, list[tuple[int, int]]] = {}
        for _, tok, line, col in _lex(text):
            marks.setdefault(tok, []).append((line, col))
        raise DslError([DslDiagnostic(*marks[d.at[0]][d.at[1]], str(d)) for d in diags])
    return system


def load(path: str) -> SystemModel:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


# -- serialization ----------------------------------------------------


def term_text(term: AcTerm, factor: bool = False) -> str:
    """`term` as written, in brackets where it is a fusion written as a
    factor.  Callers: `serialize` and `generators.random_system`."""
    if isinstance(term, PortLeaf):
        return term.port
    if isinstance(term, Fusion):
        text = " ".join(term_text(f.term, True) + "'" * f.trigger for f in term.factors)
        return f"[{text}]" if factor else text
    raise DslError([DslDiagnostic(0, 0, f"term {term!r} has no surface syntax")])


def atom_lines(name: str, ports: Iterable[str], states: Iterable[str], init: str, trans: Iterable[tuple]) -> list[str]:
    """The declaration lines of an atom, indented as in a system block;
    each transition is (source, label as written, target).  Callers:
    `serialize`, and the built-in families and `random_system`
    (`generators`)."""
    marked = ", ".join(s + " init" if s == init else s for s in states)
    return [f"  atom {name} {{", f"    ports {', '.join(ports)};", f"    states {marked};",
            *(f"    trans {src} -[ {label} ]-> {dst};" for src, label, dst in trans), "  }"]


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
        lines += atom_lines(atom.name, atom.ports, atom.states, atom.init,
                            [(t.source, ", ".join(sorted(t.label)), t.target) for t in atom.transitions])
    for conn in system.connectors:
        lines.append(f"  connector {conn.name} = {term_text(conn.term)};")
    if system.priority is not None:
        lines.append(_priority_text(system.priority))
    lines.append("}")
    return "\n".join(lines) + "\n"


def save(system: SystemModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize(system))
