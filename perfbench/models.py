"""Model text for the benchmark workloads, written as `.bip-lite` source.

The benchmark owns its inputs: the text is generated here rather than by
`portsync.generators`, so a change to the program's own generators cannot
silently change what is measured.  `bus_text(n)` and `tasks_text(n, m)`
are the same systems as `gen_bus(n)` and `gen_tasks(n, m)`;
`tasks_pairs_text(n, m)` is `gen_tasks(n, m)` with its maximal-progress
relation written out as explicit `{a} < {b}` pairs.
"""

from __future__ import annotations


def _atom(name: str, ports: list[str], states: list[str], trans: list[tuple[str, str, str]]) -> list[str]:
    marked = ", ".join(s + " init" if k == 0 else s for k, s in enumerate(states))
    lines = [f"  atom {name} {{", f"    ports {', '.join(ports)};", f"    states {marked};"]
    lines += [f"    trans {src} -[ {label} ]-> {dst};" for src, label, dst in trans]
    lines.append("  }")
    return lines


def bus_text(n: int) -> str:
    """n independent clusters of four members: singleton claims, then a
    bus connector with three triggers and one synchron."""
    lines = [f"system bus{n} {{"]
    conns = []
    for k in range(1, n + 1):
        for i in range(1, 5):
            c, s = f"c{i}_{k}", f"s{i}_{k}"
            lines += _atom(f"member{i}_{k}", [c, s], ["A", "B"], [("A", c, "B"), ("B", s, "A")])
            conns.append(f"  connector claim{i}_{k} = {c};")
        conns.append(f"  connector bus_{k} = s1_{k}' s2_{k}' s3_{k}' s4_{k};")
    lines += conns
    lines += ["  priority maximal_progress;", "}"]
    return "\n".join(lines) + "\n"


def _tasks_body(n: int, m: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Atom and connector lines of tasks(n, m), plus the strict-subset
    pairs of its pool (each connector's trigger pair below the full set)."""
    lines: list[str] = []
    for j in range(1, n + 1):
        ports, trans = [], []
        for i in range(1, m + 1):
            b, f, p, r = f"b{i}_{j}", f"f{i}_{j}", f"p{i}_{j}", f"r{i}_{j}"
            ports += [b, f, p, r]
            trans += [("s", b, f"c{i}"), (f"c{i}", f, "s"), (f"c{i}", p, f"w{i}"), (f"w{i}", r, f"c{i}")]
        states = ["s"] + [f"c{i}" for i in range(1, m + 1)] + [f"w{i}" for i in range(1, m + 1)]
        lines += _atom(f"T{j}", ports, states, trans)
    for i in range(1, m + 1):
        go, halt = f"go{i}", f"halt{i}"
        lines += _atom(f"P{i}", [go, halt], ["l0", "l1", "l2"],
                       [("l0", go, "l1"), ("l1", halt, "l0"), ("l1", go, "l2"), ("l2", halt, "l1")])
    pairs = []
    for j1 in range(1, n + 1):
        for j2 in range(1, n + 1):
            if j1 == j2:
                continue
            for i in range(1, m + 1):
                b, go, p = f"b{i}_{j2}", f"go{i}", f"p{i}_{j1}"
                f, halt, r = f"f{i}_{j1}", f"halt{i}", f"r{i}_{j2}"
                lines.append(f"  connector beg_{j2}_over_{j1}_{i} = [{b} {go}]' {p};")
                lines.append(f"  connector fin_{j1}_back_{j2}_{i} = [{f} {halt}]' {r};")
                pairs.append((", ".join(sorted((b, go))), ", ".join(sorted((b, go, p)))))
                pairs.append((", ".join(sorted((f, halt))), ", ".join(sorted((f, halt, r)))))
    return lines, pairs


def tasks_text(n: int, m: int) -> str:
    """n tasks sharing m processors with preemption, maximal progress."""
    body, _ = _tasks_body(n, m)
    return "\n".join([f"system tasks{n}x{m} {{", *body, "  priority maximal_progress;", "}"]) + "\n"


def tasks_pairs_text(n: int, m: int) -> str:
    """tasks(n, m) with maximal progress spelled out as explicit pairs."""
    body, pairs = _tasks_body(n, m)
    rendered = " ".join("{ %s } < { %s }" % lo_hi for lo_hi in sorted(pairs))
    return "\n".join([f"system tasks{n}x{m} {{", *body, f"  priority {rendered};", "}"]) + "\n"
