"""Span tracing for the benchmark's traced run.

The traced run wraps public functions of the program at the bindings its
callers look them up through (module globals, class attributes), records
one span per call with name, start, end and parent, keeps the spans in
memory and aggregates them per phase when the run ends.  Nothing inside
`src/` is edited: `uninstall` puts every original binding back.

BDD kernel calls are recorded only below a step-context span (a
symbolic step or a survivor query), so the many small applies made while
the encoding is built stay in the build's own self time.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, Union

SELF = "self"  # a part counts the span's own time, children excluded
INCL = "incl"  # a part counts the span and everything below it

NameOf = Union[str, Callable[[tuple, dict], str]]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self._open: list[int] = []
        self._context = 0            # open step-context spans
        self._installed: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        if self._open:
            raise RuntimeError(f"phase {name!r} opened inside span {self.spans[self._open[-1]][0]!r}")
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn: Callable, name_of: NameOf, context: bool, bdd: bool) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if bdd and not tracer._context:
                return fn(*args, **kwargs)
            name = name_of if isinstance(name_of, str) else name_of(args, kwargs)
            idx = tracer.begin(name)
            tracer._context += context
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._context -= context
                tracer.end(idx)

        return traced

    def install(self, bindings: list[tuple[object, str, NameOf, str]]) -> list[str]:
        """Wrap each (owner, attribute, span name, kind) binding; kind is
        "", "context" or "bdd".  Returns the bindings that do not exist."""
        missing = []
        for owner, attr, name_of, kind in bindings:
            original = vars(owner).get(attr)
            if original is None:
                missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                continue
            setattr(owner, attr, self._wrap(original, name_of, kind == "context", kind == "bdd"))
            self._installed.append((owner, attr, original))
        return missing

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def program_bindings() -> list[tuple[object, str, NameOf, str]]:
    """Where the traced run hooks into the program, and the span names."""
    from portsync import bdd, dsl, enumerative, equivalence, symbolic

    def behavior(args: tuple, kwargs: dict) -> str:
        primed = len(args) > 2 or "port_name" in kwargs
        return "symbolic.encode_behavior_primed" if primed else "symbolic.encode_behavior"

    def connectors(args: tuple, kwargs: dict) -> str:
        # the primed connector function is maximal progress's priority input
        primed = len(args) > 2 or "port_name" in kwargs
        return "symbolic.encode_priority" if primed else "symbolic.encode_connectors"

    def apply(args: tuple, kwargs: dict) -> str:
        return f"bdd.apply_{args[1] if len(args) > 1 else kwargs.get('op')}"

    return [
        (dsl, "parse", "dsl.parse", ""),
        (dsl, "validate", "model.validate", ""),
        (enumerative, "validate", "model.validate", ""),
        (symbolic, "validate", "model.validate", ""),
        (enumerative.EnumEngine, "__init__", "enumerative.init", ""),
        (enumerative.EnumEngine, "step", "enumerative.step", ""),
        (enumerative.EnumEngine, "survivors", "enumerative.survivors", ""),
        (symbolic, "build", "symbolic.build", ""),
        (equivalence, "build", "symbolic.build", ""),
        (symbolic, "encode_behavior", behavior, ""),
        (symbolic, "encode_connectors", connectors, ""),
        (symbolic, "encode_priority_pairs", "symbolic.encode_priority", ""),
        (symbolic.SymbolicEngine, "step", "symbolic.step", "context"),
        (symbolic.SystemEncoding, "survivor_fn", "symbolic.survivor_fn", "context"),
        (symbolic.SystemEncoding, "survivors", "symbolic.survivors", "context"),
        (symbolic.SystemEncoding, "state_assignment", "symbolic.state_assignment", ""),
        (equivalence, "check_equivalence", "equivalence.check_equivalence", ""),
        (equivalence, "successors", "model.successors", ""),
        (bdd.BddManager, "apply", apply, "bdd"),
        (bdd.BddManager, "not_", "bdd.not", "bdd"),
        (bdd.BddManager, "restrict_many", "bdd.restrict_many", "bdd"),
        (bdd.BddManager, "exists", "bdd.exists", "bdd"),
        (bdd.BddManager, "pick_sat", "bdd.pick_sat", "bdd"),
    ]


# Each phase is split into parts that do not overlap: a span's self time
# goes to the outermost INCL part above it (itself included), else to its
# own SELF part, else to the phase's unattributed remainder.  So the parts
# plus the remainder add up to the phase total by construction, which
# `PhaseSummary.check` re-verifies from the sums.
PHASE_PARTS: dict[str, list[tuple[str, str, str]]] = {
    "setup": [
        ("dsl.parse", SELF, "dsl.parse"),
        ("model.validate", INCL, "model.validate"),
        ("enumerative.init", SELF, "enumerative.init"),
        ("symbolic.build_self", SELF, "symbolic.build"),
        ("symbolic.encode_behavior", INCL, "symbolic.encode_behavior"),
        ("symbolic.encode_behavior_primed", INCL, "symbolic.encode_behavior_primed"),
        ("symbolic.encode_connectors", INCL, "symbolic.encode_connectors"),
        ("symbolic.encode_priority", INCL, "symbolic.encode_priority"),
    ],
    "enum": [
        ("enumerative.step_self", SELF, "enumerative.step"),
        ("enumerative.survivors", INCL, "enumerative.survivors"),
    ],
    "sym": [
        ("symbolic.step_self", SELF, "symbolic.step"),
        ("symbolic.survivor_fn", SELF, "symbolic.survivor_fn"),
        ("symbolic.state_assignment", INCL, "symbolic.state_assignment"),
        ("bdd.restrict_many", INCL, "bdd.restrict_many"),
        ("bdd.apply_and", INCL, "bdd.apply_and"),
        ("bdd.exists", INCL, "bdd.exists"),
        ("bdd.not", INCL, "bdd.not"),
        ("bdd.pick_sat", INCL, "bdd.pick_sat"),
    ],
    "check": [
        ("check.equivalence.bfs_self", SELF, "equivalence.check_equivalence"),
        ("check.init", INCL, "enumerative.init"),
        ("check.init", INCL, "symbolic.build"),
        ("check.enumerative.survivors", INCL, "enumerative.survivors"),
        ("check.bdd.iter_models_expand", SELF, "symbolic.survivors"),
        ("check.symbolic.survivor_fn", INCL, "symbolic.survivor_fn"),
        ("check.model.successors", INCL, "model.successors"),
    ],
}


@dataclass
class PhaseSummary:
    total_ns: int
    parts_ns: dict[str, int]         # part name -> attributed ns
    unattributed_ns: int
    inclusive_ns: dict[str, int]     # span name -> summed duration
    calls: dict[str, int]            # span name -> number of spans

    def check(self) -> None:
        covered = sum(self.parts_ns.values()) + self.unattributed_ns
        if covered != self.total_ns:
            raise AssertionError(f"parts {covered} ns != phase total {self.total_ns} ns")


def summarize(spans: list[list]) -> dict[str, PhaseSummary]:
    """Per-phase sums; top-level spans are phases, named as in PHASE_PARTS."""
    incl = {ph: {span: part for part, kind, span in parts if kind == INCL} for ph, parts in PHASE_PARTS.items()}
    own_part = {ph: {span: part for part, kind, span in parts if kind == SELF} for ph, parts in PHASE_PARTS.items()}
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    phase_of: list[str] = []
    owner: list[str | None] = []  # INCL part covering the span, if any
    out: dict[str, PhaseSummary] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        own = dur - child_ns[i]
        if parent < 0:
            phase_of.append(name)
            owner.append(None)
            summary = out.setdefault(name, PhaseSummary(0, {}, 0, {}, {}))
            summary.total_ns += dur
            summary.unattributed_ns += own
            continue
        phase = phase_of[parent]
        phase_of.append(phase)
        owner.append(owner[parent] or incl.get(phase, {}).get(name))
        part = owner[i] or own_part.get(phase, {}).get(name)
        summary = out[phase]
        if part is None:
            summary.unattributed_ns += own
        else:
            summary.parts_ns[part] = summary.parts_ns.get(part, 0) + own
        summary.inclusive_ns[name] = summary.inclusive_ns.get(name, 0) + dur
        summary.calls[name] = summary.calls.get(name, 0) + 1
    for summary in out.values():
        summary.check()
    return out
