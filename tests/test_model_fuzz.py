"""Fuzzed models: every model that validates is one both engines agree on.

Connector terms nest fusions up to depth 3 over at most 9 port
occurrences, drawn with repeats and with a port no atom owns, so many
draws are rejected by a diagnostic (`linear-term`, `bound-ports`,
`strict-order` for a cycle of explicit pairs).  A model that is accepted
must pass `check_equivalence` and survive a serialize/parse round trip;
a library-built model may also hold the constants 1 and 0, which the
text has no syntax for.
"""

from hypothesis import HealthCheck, example, given, settings, strategies as st
import pytest

from portsync.connectors import Factor, Fusion, OneLeaf, PortLeaf, ZeroLeaf, fusion
from portsync.dsl import DslError, parse, serialize
from portsync.equivalence import check_equivalence
from portsync.model import (
    AtomicBehavior,
    Connector,
    ExplicitPairs,
    MaximalProgress,
    SystemModel,
    Transition,
    ValidationError,
    validate,
)

from oracles import cell_system

LOOSE = "u"  # a port no atom owns
ONE, ZERO = OneLeaf(), ZeroLeaf()
FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# a port that causes itself (a' [b b']) loses {a, b} from the symbolic pool
# unless the `linear-term` diagnostic refuses it; random draws find such a
# term in a few percent of examples, so each test also tries this one
TWICE = SystemModel(
    "twice", tuple(AtomicBehavior(n, ("q",), "q", (p,), (Transition("q", frozenset((p,)), "q"),)) for n, p in ("Aa", "Bb")),
    (Connector("x", Fusion((Factor(PortLeaf("a"), True), Factor(Fusion((Factor(PortLeaf("b")), Factor(PortLeaf("b"), True))))))),))


@st.composite
def atoms(draw):
    """One to three atoms, each with one to three ports, two or three
    states, one transition on each port alone from the initial state and
    up to three on labels of one or two ports."""
    out = []
    for k in range(draw(st.integers(1, 3))):
        ports = tuple(f"p{k}{j}" for j in range(draw(st.integers(1, 3))))
        states = tuple(f"s{j}" for j in range(draw(st.integers(2, 3))))
        move = st.sampled_from(states)
        trans = [Transition(states[0], frozenset((p,)), draw(move)) for p in ports]
        label = st.frozensets(st.sampled_from(ports), min_size=1, max_size=2)
        trans += draw(st.lists(st.builds(Transition, move, label, move), max_size=3))
        out.append(AtomicBehavior(f"A{k}", states, states[0], ports, tuple(trans)))
    return tuple(out)


@st.composite
def leaf_lists(draw, owned, constants=False):
    """The leaves of one connector and whether `term` may double them:
    up to 9 distinct ports, or up to 4 drawn with repeats from the atoms'
    first ports, a port no atom owns among them at times (and the
    constants 1 and 0 if `constants`)."""
    if draw(st.booleans()):
        ports = [p for a in owned for p in a.ports]
        return draw(st.permutations(ports))[:draw(st.integers(min(2, len(ports)), min(9, len(ports))))], False
    extra = [LOOSE] * draw(st.sampled_from((False, False, True))) + [ONE, ZERO] * constants
    return draw(st.lists(st.sampled_from([a.ports[0] for a in owned] + extra), min_size=2, max_size=4)), True


def term(draw, leaves: list, double: bool, depth: int = 1) -> list:
    """A fusion's factors as (term, trigger) pairs, nested at most to
    depth 3, consuming `leaves`: at least one factor while any is left.
    If `double`, a leaf may be doubled in place into a fusion of a
    trigger and a synchron occurrence, so that a port causes itself."""
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        if not leaves:
            break
        if depth < 3 and draw(st.booleans()):
            inner = term(draw, leaves, double, depth + 1)
        else:
            inner = leaves.pop()
            if double and depth < 3 and draw(st.booleans()):
                inner = [(inner, False), (inner, True)][::draw(st.sampled_from((1, -1)))]
        factors.append((inner, draw(st.booleans())))
    return factors


def priorities(ports):
    """No priority, maximal progress, or explicit pairs over `ports`, now
    and then with a pair's reverse added so that a cycle occurs."""
    sides = st.frozensets(st.sampled_from(ports), min_size=1, max_size=2)
    back = st.sampled_from((False, False, False, True))
    pairs = st.lists(st.tuples(sides, sides, back).filter(lambda p: p[0] != p[1]), min_size=1, max_size=3).map(
        lambda ps: ExplicitPairs(frozenset(p for lo, hi, b in ps for p in ((lo, hi), (hi, lo))[:1 + b])))
    return st.one_of(st.none(), st.just(MaximalProgress()), pairs)


def _text(factors: list) -> str:
    return " ".join((f"[{_text(t)}]" if isinstance(t, list) else t) + "'" * trig for t, trig in factors)


@st.composite
def model_texts(draw):
    """The text of a fuzzed model, written out by hand."""
    owned = draw(atoms())
    ports = [p for a in owned for p in a.ports]
    lines = ["system fuzz {"]
    for a in owned:
        lines += [f"  atom {a.name} {{", f"    ports {', '.join(a.ports)};",
                  f"    states {a.init} init{''.join(', ' + s for s in a.states[1:])};"]
        lines += [f"    trans {t.source} -[ {', '.join(sorted(t.label))} ]-> {t.target};" for t in a.transitions]
        lines.append("  }")
    for i in range(draw(st.integers(1, 3))):
        lines.append(f"  connector c{i} = {_text(term(draw, *draw(leaf_lists(owned))))};")
    pr = draw(priorities(ports))
    if isinstance(pr, MaximalProgress):
        lines.append("  priority maximal_progress;")
    elif pr is not None:
        lines.append("  priority " + " ".join(
            "{%s} < {%s}" % (", ".join(sorted(lo)), ", ".join(sorted(hi))) for lo, hi in sorted(pr.pairs, key=str)) + ";")
    return "\n".join(lines + ["}", ""])


def _built(factors: list):
    return fusion(Factor(_built(t) if isinstance(t, list) else t if t in (ONE, ZERO) else PortLeaf(t), trig)
                  for t, trig in factors)


@st.composite
def built_models(draw):
    """A library-built fuzzed model whose leaves include the constants."""
    owned = draw(atoms())
    ports = [p for a in owned for p in a.ports]
    conns = tuple(Connector(f"c{i}", _built(term(draw, *draw(leaf_lists(owned, True)))))
                  for i in range(draw(st.integers(1, 3))))
    return SystemModel("fuzz", owned, conns, draw(priorities(ports)))


def _constants(t) -> bool:
    return isinstance(t, (OneLeaf, ZeroLeaf)) or isinstance(t, Fusion) and any(_constants(f.term) for f in t.factors)


@FUZZ
@given(model_texts())
@example(serialize(TWICE))
def test_every_text_is_rejected_or_checks_equivalent(text):
    try:
        sysm = parse(text)
    except DslError:
        return
    report = check_equivalence(sysm, bound=200)
    assert report.equivalent, report.summary()
    again = serialize(sysm)
    assert parse(again) == sysm and serialize(parse(again)) == again


@FUZZ
@given(built_models())
@example(TWICE)
def test_every_built_model_is_refused_or_checks_equivalent(sysm):
    if validate(sysm):
        with pytest.raises(ValidationError):
            check_equivalence(sysm, bound=200)
        return
    report = check_equivalence(sysm, bound=200)
    assert report.equivalent, report.summary()
    if any(_constants(c.term) for c in sysm.connectors):
        with pytest.raises(DslError, match="no surface syntax"):
            serialize(sysm)
    else:
        assert parse(serialize(sysm)) == sysm


def test_every_cell_system_is_refused_or_checks_equivalent():
    # the copied-cell family, whose systems move, through the property above
    for seed in range(120):
        test_every_built_model_is_refused_or_checks_equivalent.hypothesis.inner_test(cell_system(seed))
