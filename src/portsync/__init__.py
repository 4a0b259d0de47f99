"""Coordination of labeled transition systems over shared ports.

Atomic components synchronize through connectors (typed fusion terms
that denote sets of interactions) under an optional priority order.
The package provides the connector algebra with its causal-tree and
causal-rule views, a small BDD kernel, matching enumerative and
symbolic execution engines, a textual model format, benchmark model
families, and a CLI.
"""

from .bdd import BddError, BddManager, BddRef
from .causal import (
    CausalNode,
    CausalRule,
    CausalTree,
    canonical,
    causal_rules,
    ct_interactions,
    rules_to_formula,
    tau,
)
from .connectors import (
    AcTerm,
    Factor,
    Fusion,
    Interaction,
    OneLeaf,
    PortLeaf,
    ZeroLeaf,
    fusion,
    interactions_of,
    support,
)
from .dsl import DslError, parse, serialize
from .enumerative import EnumEngine
from .equivalence import EquivalenceReport, check_equivalence
from .generators import (
    RandomBounds,
    gen_bus,
    gen_tasks,
    modulo8,
    random_monomial_term,
    random_system,
)
from .model import (
    AtomicBehavior,
    Connector,
    Diagnostic,
    ExplicitPairs,
    GlobalState,
    MaximalProgress,
    NotEnabledError,
    SystemModel,
    Trace,
    Transition,
    ValidationError,
    act,
    effective_pairs,
    enabled,
    filter_priority,
    reachable,
    step,
    successors,
    survivors,
    validate,
)
from .symbolic import SymbolicEngine, SystemEncoding, build

__version__ = "0.1.0"

__all__ = [
    "AcTerm", "AtomicBehavior", "BddError", "BddManager", "BddRef",
    "CausalNode", "CausalRule", "CausalTree", "Connector", "Diagnostic",
    "DslError", "EnumEngine", "EquivalenceReport", "ExplicitPairs",
    "Factor", "Fusion", "GlobalState", "Interaction", "MaximalProgress",
    "NotEnabledError", "OneLeaf", "PortLeaf", "RandomBounds",
    "SymbolicEngine", "SystemEncoding", "SystemModel", "Trace",
    "Transition", "ValidationError", "ZeroLeaf",
    "act", "build", "canonical", "causal_rules", "check_equivalence",
    "ct_interactions", "effective_pairs", "enabled", "filter_priority",
    "fusion", "gen_bus", "gen_tasks", "interactions_of",
    "modulo8", "parse", "random_monomial_term", "random_system",
    "reachable", "rules_to_formula", "serialize", "step", "successors",
    "support", "survivors", "tau", "validate",
]
