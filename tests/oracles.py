"""Independent reference implementations used to cross-check the engines.

Everything here is written directly from the definitions, on purpose
duplicating none of the library code paths: enabledness walks the atom
transition relations, priority filtering recomputes domination from
scratch, and state spaces come from the raw product of state sets.  The
BDD references keep earlier, simpler versions of library routines, and
the kernel operations that only tests need (`evaluate`, `support`, and
`ite`, built from and/or/not as the kernel builds xor and implies).  One
seeded system family (`hub_system`) gives components of several port
groups, which the random generator almost never makes, and
`moved_trigger` makes one of several isomorphic clusters differ from the
others in one connector; the engine never builds a component's survivor
function, which `joined_survivor_fn` builds from its groups' models.
"""

import random
from itertools import product

from portsync.causal import causal_rules, rules_to_formula, tau
from portsync.connectors import Factor, Fusion, fusion, interaction_key, interactions_of, support as term_support
from portsync.generators import random_monomial_term
from portsync.model import AtomicBehavior, Connector, ExplicitPairs, MaximalProgress, SystemModel, Transition
from portsync.symbolic import Component, _expr_bdd, prime, union_join


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


def moved_trigger(system, name):
    """`system` with connector `name`'s first factor a synchron and its
    other factors triggers."""
    def moved(term):
        return Fusion(tuple(Factor(f.term, k > 0) for k, f in enumerate(term.factors)))

    return SystemModel(system.name, system.atoms, tuple(Connector(c.name, moved(c.term)) if c.name == name else c
                                                        for c in system.connectors), system.priority)


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


def reference_pick_sat(mgr, f, names, rng):
    """A uniform model of f over `names`, drawn as BddManager.pick_sat
    draws it but from f's model list: one coin from `rng` per name in
    level order, true with the share of the models still in play that set
    the name true.  Returns the set of names set true."""
    models = list(mgr.iter_models(f, names))
    if not models:
        return None
    for name in sorted(set(names), key=mgr.level_of):
        high = [m for m in models if name in m]
        models = high if rng.random() < len(high) / len(models) else [m for m in models if name not in m]
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
    restrict(f_B, state), as the survivor function once built it."""
    return enc.manager.and_all(local[q] for local, q in zip(enc.local_behavior, state))


def whole_survivor_fn(enc, state):
    """An encoding's survivor function at its local state over the whole
    encoding at once, whatever its port groups: the folded local behaviors
    conjoined with f_C (and with the dominators), then the maximal models
    or the pairs' exclusion."""
    m = enc.manager
    active = active_fn(enc, state)
    g = active & enc.connector_fn
    if isinstance(enc.system.priority, MaximalProgress):
        return m.maximal(g, enc.port_names)
    if enc.pairs_fn == m.false:
        return g
    return g & ~m.and_exists(m.shift(active & enc.dominator_fn), enc.pairs_fn, enc.primed_names)


def port_groups_of(x):
    """The port groups of a component, or of every component of an encoding."""
    return x.groups if isinstance(x, Component) else [g for c in x.components for g in c.groups]


def ports_of(x):
    """The ports of a component, or of every component of an encoding."""
    return [p for g in port_groups_of(x) for p in g.port_names]


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
    return x.manager.or_all(x.manager.cube({p: p in a for p in ports}) for c in comps for a in c.survivors(state))
