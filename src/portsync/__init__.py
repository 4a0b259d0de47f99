"""Coordination of labeled transition systems over shared ports.

Atomic components synchronize through connectors (typed fusion terms
that denote sets of interactions) under an optional priority order.
The package re-exports the four names a user needs to load a model,
run it and compare the engines; every other name is imported from
its module:

- connectors: fusion terms, interactions and `interactions_of`.
- causal: causal trees and causal rules of a fusion (`tau`).
- boolfunc: Boolean formulas over port names.
- bdd: a standalone hash-consed ROBDD kernel (`BddManager`).
- model: atoms, connectors, priorities, `SystemModel`, `validate` and
  the explicit semantics (`survivors`, `step`, `reachable`).
- dsl: the textual model format (`parse`, `serialize`, `load`, `save`)
  and its one atom writer (`atom_lines`) and term writer (`term_text`),
  which the generators share.
- enumerative: the engine over the materialized pool (`EnumEngine`).
- symbolic: the BDD encoding and its engine (`SymbolicEngine`).
- equivalence: the exhaustive check that the engines agree.
- generators: the built-in families and `random_system`.
- bench: the benchmark harness behind `portsync bench`.
- cli: the `portsync` command.
"""

from .dsl import parse
from .enumerative import EnumEngine
from .equivalence import check_equivalence
from .symbolic import SymbolicEngine

__version__ = "0.1.0"

__all__ = ["EnumEngine", "SymbolicEngine", "check_equivalence", "parse"]
