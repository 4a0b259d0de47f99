"""Independent reference implementations used to cross-check the engines.

Everything here is written directly from the definitions, on purpose
duplicating none of the library code paths: enabledness walks the atom
transition relations, priority filtering recomputes domination from
scratch, and state spaces come from the raw product of state sets.  The
BDD references keep earlier, simpler versions of library routines, and
the kernel operations that only tests need (`evaluate`, `support`, and
`ite`, built from and/or/not as the kernel builds xor and implies).  One
seeded system family (`hub_system`) gives components of several port
groups, which the random generator almost never makes; another
(`cell_system`) copies one random cell under one connector plan, so that
it reaches many states and builds orbits and components of several
groups.  `moved_trigger` makes one of several isomorphic clusters differ
from the others in one connector, and `with_outside_dominator` lists a
dominator that no connector offers; the engine never builds a
component's survivor function, which `joined_survivor_fn` builds from
its groups' models.
`reference_walk` is the breadth-first walk as first written, which reads
every successor also past its bound.  `reference_enum_survivors` is the
enumerative engine's priority filter as first written, which probes
every dominator's participation plan.  `reference_lex` is the DSL lexer
as first written, one character at a time, and `reference_parse` the
parser as first written, over its located tokens.
"""

import random
from collections import defaultdict, deque
from itertools import product
from typing import NamedTuple

from portsync.causal import causal_rules, rules_to_formula, tau
from portsync.dsl import KEYWORDS, DslDiagnostic, DslError
from portsync.connectors import AcTerm, Factor, Fusion, PortLeaf, fusion, interaction_key, interactions_of, support as term_support
from portsync.generators import random_monomial_term, random_system
from portsync.model import AtomicBehavior, Connector, ExplicitPairs, MaximalProgress, ReachableSet, SystemModel, Transition, effective_pairs, validate
from portsync.symbolic import Component, _expr_bdd, _partition, prime


def all_states(system):
    return [tuple(s) for s in product(*(a.states for a in system.atoms))]


def oracle_act(system, state, interaction):
    for atom, current in zip(system.atoms, state):
        label = frozenset(interaction & atom.port_set)
        if not label:
            continue
        if not any(
            t.source == current and t.label == label for t in atom.transitions
        ):
            return False
    return True


def oracle_enabled(system, state):
    return {a for a in system.gamma if oracle_act(system, state, a)}


def oracle_successors(system, state, interaction):
    """Every product of the owning atoms' targets on their shares; empty
    if some owner has no matching transition."""
    choices = []
    for atom, current in zip(system.atoms, state):
        label = frozenset(interaction & atom.port_set)
        if not label:
            choices.append([current])
        else:
            choices.append([t.target for t in atom.transitions
                            if t.source == current and t.label == label])
    return set(product(*choices))


def _oracle_pairs(system):
    pr = system.priority
    if pr is None:
        return set()
    if isinstance(pr, MaximalProgress):
        return {
            (a, b)
            for a in system.gamma
            for b in system.gamma
            if a < b  # frozenset: strict subset
        }
    assert isinstance(pr, ExplicitPairs)
    pairs = set(pr.pairs)
    while True:  # transitive closure by saturation
        extra = {
            (a, c)
            for (a, b) in pairs
            for (b2, c) in pairs
            if b == b2 and (a, c) not in pairs
        }
        if not extra:
            return pairs
        pairs |= extra


def oracle_survivors(system, state):
    en = oracle_enabled(system, state)
    pairs = _oracle_pairs(system)
    return {
        a
        for a in en
        if not any(
            low == a and oracle_act(system, state, high) for (low, high) in pairs
        )
    }


def reference_walk(system, bound, expand):
    """`model.walk` as first written: it reads every successor of every
    queued state, also after the set is truncated."""
    init = system.initial_state()
    seen, queue, truncated = {init}, deque([init]), False
    while queue:
        for t in expand(queue.popleft()):
            if t in seen:
                continue
            if len(seen) >= bound:
                truncated = True
                continue
            seen.add(t)
            queue.append(t)
    return ReachableSet(frozenset(seen), truncated)


def reference_enum_survivors(system, state):
    """`EnumEngine.survivors` as first written: scan the pool, then probe
    the participation plan of every dominator of each active interaction.
    Returns the survivors and what the scan and the probes add to
    `activity_checks` and `priority_checks`."""
    labels = [atom.labels_from for atom in system.atoms]

    def active(a):
        return all(label in labels[i][state[i]] for i, label, _ in system.shares(a))

    out, probes = set(), 0
    for a in filter(active, system.gamma):
        doms = system.dominators.get(a, ())
        probes += len(doms)
        if not any(map(active, doms)):
            out.add(a)
    return frozenset(out), len(system.gamma), probes


def evaluate(f, assignment):
    """Follow f's path for `assignment`; missing variables read as false."""
    mgr, u = f.manager, f.node
    while u > 1:
        name = mgr._names[mgr._var[u]]
        u = mgr._hi[u] if assignment.get(name, False) else mgr._lo[u]
    return u == 1


def support(f):
    """The names of the variables that some node below f tests."""
    mgr = f.manager
    return frozenset(mgr._names[mgr._var[u]] for u in mgr._reachable(f.node))


def ite(f, g, h):
    """If f then g else h, from the connectives."""
    return (f & g) | (~f & h)


def hub_system(seed):
    """A seeded random system in which one atom, the hub, joins connectors
    on disjoint ports: its ports fall into two or three parts, each part
    shares connectors with one spoke atom only, and each hub transition
    fires inside one part, so the component has a port group per part."""
    rng = random.Random(seed)
    n = rng.randint(2, 3)
    parts = [[f"h{i}_{j}" for j in range(rng.randint(1, 2))] for i in range(n)]

    def atom(name, ports, labels):
        states = tuple(f"{name}q{j}" for j in range(rng.randint(1, 3)))
        trans = dict.fromkeys(Transition(s, frozenset(rng.sample(lbl, rng.randint(1, len(lbl)))), rng.choice(states))
                              for s in states for lbl in rng.sample(labels, rng.randint(1, len(labels))))
        return AtomicBehavior(name, states, states[0], tuple(ports), tuple(trans))

    atoms = [atom("H", [p for part in parts for p in part], parts)]
    connectors, pools = [], []
    for i, part in enumerate(parts):
        own = [f"s{i}_{j}" for j in range(rng.randint(1, 2))]
        atoms.append(atom(f"S{i}", own, [own]))
        terms = [fusion(Factor(random_monomial_term(rng, ports, 2), rng.random() < 0.5) for ports in (part, own))
                 for _ in range(rng.randint(1, 2))]
        connectors += [Connector(f"c{i}_{c}", term) for c, term in enumerate(terms)]
        pools.append(sorted(set().union(*map(interactions_of, terms)) - {frozenset()}, key=interaction_key))
    priority, roll = None, rng.random()
    if roll < 0.4:
        priority = MaximalProgress()
    elif roll < 0.7:  # one pair inside each of some parts keeps the groups apart
        pairs = {tuple(rng.sample(pool, 2)) for pool in pools if len(pool) > 1 and rng.random() < 0.7}
        priority = ExplicitPairs(frozenset(pairs)) if pairs else None
    return SystemModel(f"hub{seed}", tuple(atoms), tuple(connectors), priority)


def cell_system(seed):
    """A seeded random system of one cell copied two to four times under
    one connector plan, which moves through many states and builds orbits
    and components of several port groups, as `random_system` almost
    never does.  A cell is one or two atoms of two to four states on a
    cycle, with up to two more transitions.  Most seeds add a hub atom
    whose ports fall into h parts, fewer than the copies, each part alike
    in ports and transitions; copy c uses part c mod h.  Copies that share
    a part form one port group, in which they can be swapped, and each
    part's group joins the hub's component.  Each label of a cell atom
    gets a connector, alone or fused with a label of the other cell atom,
    a hub label of the copy's part, or both, each factor a trigger at
    random.  Half the seeds run under maximal progress, and some others
    under explicit pairs drawn alike in every copy."""
    rng = random.Random(seed)
    copies = rng.randint(2, 4)
    parts = rng.randint(1, copies - 1) if rng.random() < 0.8 else 0

    def moves(n_ports, n_states, extra):
        """A cycle through the states, then `extra` more transitions, each
        (source, label, target) over state and port indices."""
        ends = [(j, (j + 1) % n_states) for j in range(n_states)]
        ends += [(rng.randrange(n_states), rng.randrange(n_states)) for _ in range(extra)]
        return [(s, frozenset(rng.sample(range(n_ports), rng.randint(1, n_ports))), t) for s, t in ends]

    # per cell atom, and for the hub's parts: the port count, the state count and the moves
    cell = [(n, q, moves(n, q, rng.randint(0, 2))) for n, q in
            ((rng.randint(1, 2), rng.randint(2, 4)) for _ in range(rng.randint(1, 2)))]
    hub = None
    if parts:
        n, q = rng.randint(1, 2), rng.randint(1, 3)
        hub = n, q, moves(n, q, rng.randint(0, 2))

    def labels(mv):
        return list(dict.fromkeys(lbl for _, lbl, _ in mv))

    def drawn(keys):
        return [(key, rng.random() < 0.5) for key in keys], rng.random() < 0.5

    # per connector, its factors, each its port keys and triggers: ("c", k, i)
    # is cell atom k's port i, ("h", i) the port i of the copy's hub part
    plan = []
    for k, (_, _, mv) in enumerate(cell):
        for lbl in labels(mv):
            factors = [drawn([("c", k, i) for i in sorted(lbl)])]
            if len(cell) == 2 and rng.random() < 0.4:
                factors.append(drawn([("c", 1 - k, i) for i in sorted(rng.choice(labels(cell[1 - k][2])))]))
            if hub and rng.random() < 0.7:
                factors.append(drawn([("h", i) for i in sorted(rng.choice(labels(hub[2])))]))
            plan.append(factors)

    def name(key, c):
        return f"c{key[1]}p{key[2]}_{c}" if key[0] == "c" else f"h{c % parts}p{key[1]}"

    def term(factors, c):
        return fusion(Factor(fusion(Factor(PortLeaf(name(key, c)), trig) for key, trig in keys), outer)
                      for keys, outer in factors)

    def atom(atom_name, q, ports, mv):
        states = tuple(f"q{j}" for j in range(q))
        trans = dict.fromkeys(Transition(states[s], frozenset(ports[i] for i in lbl), states[t]) for s, lbl, t in mv)
        return AtomicBehavior(atom_name, states, states[0], tuple(ports), tuple(trans))

    atoms = [atom(f"C{k}_{c}", q, [name(("c", k, i), c) for i in range(n)], mv)
             for c in range(copies) for k, (n, q, mv) in enumerate(cell)]
    if hub:
        n, q, mv = hub
        atoms.append(atom("H", q, [name(("h", i), h) for h in range(parts) for i in range(n)],
                          [(s, frozenset(h * n + i for i in lbl), t) for h in range(parts) for s, lbl, t in mv]))
    connectors = [Connector(f"x{j}_{c}", term(factors, c)) for c in range(copies) for j, factors in enumerate(plan)]
    priority, roll = None, rng.random()
    if roll < 0.5:
        priority = MaximalProgress()
    elif roll < 0.8:  # pairs over the first copy's pool, renamed onto every copy
        keys = {name(key, 0): key for factors in plan for keys, _ in factors for key, _ in keys}
        pool = sorted(set().union(*(interactions_of(term(f, 0)) for f in plan)) - {frozenset()}, key=interaction_key)
        pairs = set()
        for _ in range(rng.randint(1, 3) if len(pool) > 1 else 0):
            lo, hi = rng.sample(pool, 2)
            alike = {tuple(frozenset(name(keys[p], c) for p in a) for a in (lo, hi)) for c in range(copies)}
            if all(a != b for a, b in ExplicitPairs(frozenset(pairs | alike)).closure):
                pairs |= alike
        priority = ExplicitPairs(frozenset(pairs)) if pairs else None
    return SystemModel(f"cell{seed}", tuple(atoms), tuple(connectors), priority)


def moved_trigger(system, name):
    """`system` with connector `name`'s first factor a synchron and its
    other factors triggers."""
    def moved(term):
        return Fusion(tuple(Factor(f.term, k > 0) for k, f in enumerate(term.factors)))

    return SystemModel(system.name, system.atoms, tuple(Connector(c.name, moved(c.term)) if c.name == name else c
                                                        for c in system.connectors), system.priority)


def pairs_written_out(system):
    """`system` with its priority written out as the explicit pairs it
    stands for."""
    return SystemModel(system.name, system.atoms, system.connectors, ExplicitPairs(effective_pairs(system.priority, system.gamma)))


def with_outside_dominator(seed):
    """`random_system(seed)` with one more explicit pair whose dominator is
    a label of some atom that no connector offers, and that pair; None
    where the system has no explicit pairs or no such label."""
    sysm = random_system(seed)
    outside = sorted({t.label for atom in sysm.atoms for t in atom.transitions} - sysm.gamma, key=sorted)
    if not isinstance(sysm.priority, ExplicitPairs) or not outside:
        return None
    rng = random.Random(seed)
    pair = (rng.choice(sorted(sysm.gamma, key=sorted)), rng.choice(outside))
    return SystemModel(sysm.name, sysm.atoms, sysm.connectors, ExplicitPairs(sysm.priority.pairs | {pair})), pair


def bdd_table(mgr, f, names):
    """Truth table of f over `names` as an int, row i = assignment bits
    of i with names[0] as the most significant bit."""
    n = len(names)
    out = 0
    for i in range(1 << n):
        asg = {
            name: bool((i >> (n - 1 - k)) & 1) for k, name in enumerate(names)
        }
        if evaluate(f, asg):
            out |= 1 << i
    return out


def pick_choices(mgr, f, names, model):
    """Per name of `names` in level order, the models of f still in play
    before it is set as in `model`, and those among them that set it true."""
    models, out = list(mgr.iter_models(f, names)), []
    for name in sorted(set(names), key=mgr.level_of):
        high = [m for m in models if name in m]
        out.append((models, high))
        models = high if name in model else [m for m in models if name not in m]
    return out


def reference_pick_sat(mgr, f, names, rng):
    """A uniform model of f over `names`, drawn as BddManager.pick_sat
    draws it but from f's model list: per name in level order, where both
    values keep a model in play, one coin from `rng`, true with the share
    of the models in play that set the name true.  Returns the set of
    names set true."""
    models = list(mgr.iter_models(f, names))
    if not models:
        return None
    for name in sorted(set(names), key=mgr.level_of):
        high = [m for m in models if name in m]
        if 0 < len(high) < len(models):
            models = high if rng.random() < len(high) / len(models) else [m for m in models if name not in m]
        elif high:
            models = high
    (model,) = models
    return model


def transfer(f, dst):
    """Rebuild f node by node in manager `dst`, which names the same
    variables, so that functions from two managers can be compared as
    handles of one."""
    src = f.manager
    memo = {0: dst.false, 1: dst.true}

    def rec(u):
        if u not in memo:
            top = dst.var(src.variables[src._var[u]])
            memo[u] = ite(top, rec(src._hi[u]), rec(src._lo[u]))
        return memo[u]

    return rec(f.node)


def skipped_levels(f, names):
    """The levels of `names` that an edge of f jumps over: from the top
    of the order to the root, from a node to a child, or down to the
    true leaf."""
    mgr, u = f.manager, f.node
    if u == 0:
        return set()
    levels = {mgr.level_of(n) for n in names}
    edges = [(-1, u)] + [(mgr._var[v], c) for v in mgr._reachable(u)
                         for c in (mgr._lo[v], mgr._hi[v]) if c != 0]
    return {l for top, child in edges for l in levels if top < l < mgr._var[child]}


def encode_connector(conn, all_ports, mgr):
    """Causal rules of one connector, with foreign ports forced false."""
    sup = term_support(conn.term)
    rules, root_clause = causal_rules(tau(conn.term))
    inside = _expr_bdd(mgr, rules_to_formula(rules, root_clause, sup))
    outside = mgr.cube({p: False for p in all_ports if p not in sup})
    return inside & outside


def reference_connector_fn(system, mgr):
    """f_C as first written: every connector widened to all ports, then
    one disjunction."""
    return mgr.or_all(encode_connector(c, system.all_ports, mgr) for c in system.connectors)


def reference_priority_pairs(pairs, all_ports, mgr):
    """Explicit pairs' R as first written: per pair one minterm over every
    plain and primed port, then one disjunction."""
    disjuncts = []
    for lo, hi in sorted(pairs, key=lambda ab: (sorted(ab[0]), sorted(ab[1]))):
        assignment = {p: p in lo for p in all_ports}
        assignment.update({prime(p): p in hi for p in all_ports})
        disjuncts.append(mgr.cube(assignment))
    return mgr.or_all(disjuncts)


def active_fn(enc, state):
    """The conjunction of the atoms' local behaviors at `state`, folded:
    restrict(f_B, state), as the survivor function builds it."""
    return enc.manager.and_all(local[q] for local, q in zip(enc.local_behavior, state))


def whole_survivor_fn(enc, state):
    """An encoding's survivor function at its local state over the whole
    encoding at once, whatever its port groups: the folded local behaviors
    conjoined with f_C, then the maximal models or the pairs' exclusion,
    whose dominators are the active members of the pool and of the listed
    dominators outside it, one cube each."""
    m = enc.manager
    active = active_fn(enc, state)
    g = active & enc.connector_fn
    if isinstance(enc.system.priority, MaximalProgress):
        return m.maximal(g, enc.port_names)
    if enc.pairs_fn == m.false:
        return g
    outside = {hi for _, hi in enc.system.priority.closure} - enc.system.gamma
    dominators = enc.connector_fn | m.or_all(m.cube({p: p in hi for p in enc.port_names}) for hi in outside)
    return g & ~m.and_exists(m.shift(active & dominators), enc.pairs_fn, enc.primed_names)


def components(system):
    """Atom indices of each independent component, in atom order."""
    return tuple(tuple(atoms) for atoms, _ in _partition(system)[0])


def port_groups(system):
    """Each component's port groups, each in port order."""
    return tuple(tuple(tuple(ports) for _, ports, _, _ in groups) for _, groups in _partition(system)[0])


def port_groups_of(x):
    """The port groups of a component, or of every component of an encoding."""
    return x.groups if isinstance(x, Component) else [g for c in x.components for g in c.groups]


def ports_of(x):
    """The ports of a component, or of every component of an encoding."""
    return [p for g in port_groups_of(x) for p in g.system.all_ports]


def key_of(g, state):
    """A port group's class key at a system state: the sum of its owners'
    codes, which its component reads from its field of one packed sum."""
    return sum(code[state[j]] for j, code in g.codes)


def oracle_orient(g, state):
    """Per owner position of a port group, the owner position whose value
    sorting each orbit of its class by value, stably, puts there (`sorted`
    over the orbit's positions, keyed by the representative's first state
    with the same offer): the order in which the engine reads an orbit's
    owners."""
    v = [r[state[j]] for j, r in g._readers]
    perm = list(range(len(v)))
    for o in g.cls.orbits:
        for k, at in zip(o, sorted(o, key=v.__getitem__)):
            perm[k] = at
    return perm


def own_state(enc, system, state):
    """An encoding's own atoms' states read out of a state of `system`."""
    at = {a.name: i for i, a in enumerate(system.atoms)}
    return tuple(state[at[a.name]] for a in enc.system.atoms)


def joined_survivor_fn(x, state):
    """The survivor function of a component, or of a whole encoding, at a
    system state as one function over its ports: the disjunction of the
    full cubes of its groups' models, each group's read from its class
    entry and translated onto its ports (`Component.survivors`); the engine
    picks from and counts the groups without building it."""
    comps = [x] if isinstance(x, Component) else x.components
    ports = ports_of(x)
    return x.manager.or_all(x.manager.cube({p: p in a for p in ports}) for c in comps for a in c.survivors(*c.entries(state)))


def reference_lex(text):
    """The (kind, text, line, col) tokens of `text`, then "eof"; DslError
    at the first character that starts no token."""
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], start_line, start_col))
            col += j - i
            i = j
            continue
        if ch == "-":
            if i + 1 < n and text[i + 1] == "[":
                tokens.append(("punct", "-[", start_line, start_col))
                i += 2
                col += 2
                continue
            raise DslError([DslDiagnostic(start_line, start_col, "stray '-' (expected '-[')")])
        if ch == "]":
            if text[i + 1:i + 3] == "->":
                tokens.append(("punct", "]->", start_line, start_col))
                i += 3
                col += 3
                continue
            tokens.append(("punct", "]", start_line, start_col))
            i += 1
            col += 1
            continue
        if ch in "{}[;,'=<":
            tokens.append(("punct", ch, start_line, start_col))
            i += 1
            col += 1
            continue
        raise DslError([DslDiagnostic(start_line, start_col, f"unexpected character {ch!r}")])
    tokens.append(("eof", "", line, col))
    return tokens


class _Token(NamedTuple):
    kind: str  # "name" | "punct" | "eof"
    text: str
    line: int
    col: int


class _ReferenceParser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.pos = 0
        # the place of each system, atom, trans, connector and priority
        # keyword, in the order of the text
        self.places: defaultdict[str, list[tuple[int, int]]] = defaultdict(list)

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def fail(self, tok: _Token, message: str) -> None:
        raise DslError([DslDiagnostic(tok.line, tok.col, message)])

    def expect_punct(self, text: str) -> _Token:
        tok = self.next()
        if tok.kind != "punct" or tok.text != text:
            self.fail(tok, f"expected {text!r}, found {tok.text!r}" if tok.kind != "eof"
                      else f"expected {text!r}, found end of input")
        return tok

    def expect_keyword(self, word: str) -> _Token:
        tok = self.next()
        if tok.kind != "name" or tok.text != word:
            self.fail(tok, f"expected keyword {word!r}, found {tok.text!r}" if tok.kind != "eof"
                      else f"expected keyword {word!r}, found end of input")
        return tok

    def expect_name(self) -> _Token:
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

    def namelist(self) -> list[_Token]:
        names = [self.expect_name()]
        while self.peek().text == ",":
            self.next()
            names.append(self.expect_name())
        return names

    # -- grammar ------------------------------------------------------

    def system(self) -> SystemModel:
        kw = self.expect_keyword("system")
        name_tok = self.expect_name()
        self.places["system"].append((kw.line, kw.col))
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
        self.places["atom"].append((kw.line, kw.col))
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
            transitions.append(self.trans())
        self.expect_punct("}")
        return AtomicBehavior(
            name=name_tok.text,
            states=tuple(states),
            init=init,
            ports=tuple(t.text for t in port_toks),
            transitions=tuple(transitions),
        )

    def trans(self) -> Transition:
        kw = self.expect_keyword("trans")
        src = self.expect_name()
        self.expect_punct("-[")
        label = self.namelist()
        self.expect_punct("]->")
        dst = self.expect_name()
        self.expect_punct(";")
        self.places["trans"].append((kw.line, kw.col))
        return Transition(source=src.text, label=frozenset(t.text for t in label), target=dst.text)

    def connector(self) -> Connector:
        kw = self.expect_keyword("connector")
        name_tok = self.expect_name()
        self.places["connector"].append((kw.line, kw.col))
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
        self.places["priority"].append((kw.line, kw.col))
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


def reference_parse(text):
    """The DSL parser as first written, over `reference_lex`'s located
    tokens: the model, or DslError with the first syntax error or every
    validation diagnostic at its element's keyword: the occurrence of
    that keyword that the diagnostic's `at` counts."""
    parser = _ReferenceParser([_Token(*t) for t in reference_lex(text)])
    system = parser.system()
    diags = validate(system)
    if diags:
        located = []
        for d in diags:
            located.append(DslDiagnostic(*parser.places[d.at[0]][d.at[1]], str(d)))
        raise DslError(located)
    return system
