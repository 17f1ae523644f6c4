"""Frozen JSON/DOT serializations and the graph6 input format.

Key sets and orderings are fixed so identical inputs always produce identical
bytes; golden-file tests rely on it.
"""

from __future__ import annotations

from .graphs import GraphError, ParseError, SimplicialGraph
from .jsj import BLACK, CyclicGroup, GraphOfGroups, RaagGroup
from .splitting import NonSplitCover, SmallCaseWitness, SplitReport, Witness, ZSplitWitness

GRAPH6_MAX_VERTICES = 62


def witness_to_dict(w: Witness) -> dict:
    if isinstance(w, ZSplitWitness):
        return {"kind": "amalgam", "side1": list(w.side1), "side2": list(w.side2), "vertex": w.vertex}
    if isinstance(w, NonSplitCover):
        return {
            "kind": "cover",
            "cover": [
                {"segment": seg, "delta": delta, "cycle": cycle}  # json writes tuples as arrays
                for seg, (delta, cycle) in sorted(w.entries.items())
            ],
        }
    if isinstance(w, SmallCaseWitness):
        return {"kind": "small_case", "tag": w.tag}
    raise GraphError(f"unknown witness {w!r}")


def report_to_dict(report: SplitReport) -> dict:
    return {
        "free_split": report.free_split,
        "z_split": report.z_split,
        "witness": witness_to_dict(report.witness),
    }


_JSON_BOOL = {False: "false", True: "true"}


def _names_json(names) -> str:
    """``json.dumps`` of a sequence of vertex names, which are tokens with nothing to escape."""
    return '["' + '", "'.join(names) + '"]' if names else "[]"


def _payload_json(fields: dict) -> str:
    """``json.dumps(fields)`` where ``fields["witness"]`` is a witness record, not its dict.

    The bytes are those of ``json.dumps`` with ``witness_to_dict`` of the
    record in its place.  A cover is written at C speed per name, a span
    tuple that several entries share is written once and reused while the
    same object comes round again, and every piece goes into one list that
    is joined once.
    """
    import json  # here, so that ``raag jsj`` and ``raag export-dot`` never load it

    parts = []
    for key, value in fields.items():
        parts += (", " if parts else "{", json.dumps(key), ": ")
        if key != "witness":
            parts.append(json.dumps(value))
        elif not isinstance(value, NonSplitCover):
            parts.append(json.dumps(witness_to_dict(value)))
        else:
            parts.append('{"kind": "cover", "cover": [')
            written: dict[int, tuple[object, str]] = {}
            sep = ""
            for seg, (delta, cycle) in sorted(value.entries.items()):
                hit = written.get(id(delta))
                if hit is None or hit[0] is not delta:
                    hit = written[id(delta)] = (delta, _names_json(delta))
                parts += (
                    sep, '{"segment": ', _names_json(seg), ', "delta": ', hit[1],
                    ', "cycle": ', _names_json(cycle), "}",
                )
                sep = ", "
            parts.append("]}")
    parts.append("}" if parts else "{}")
    return "".join(parts)


def _group_to_dict(group) -> dict:
    if isinstance(group, RaagGroup):
        return {"kind": "raag", "vertices": list(group.vertices)}
    if isinstance(group, CyclicGroup):
        return {"kind": "cyclic", "vertices": [group.generator]}
    raise GraphError(f"unknown group descriptor {group!r}")


def gog_to_dict(gog: GraphOfGroups) -> dict:
    return {
        "vertices": [
            {
                "id": v.id,
                "color": v.color,
                "group": _group_to_dict(v.group),
                "hanging": v.hanging,
                "toral": v.toral,
            }
            for v in gog.vertices
        ],
        "edges": [
            {
                "id": e.id,
                "ends": list(e.ends),
                "group_vertex": e.group.generator,
                "loop": e.is_loop,
                "stable_letter": e.stable_letter,
            }
            for e in gog.edges
        ],
    }


def _gog_json(gog: GraphOfGroups) -> str:
    """``json.dumps(gog_to_dict(gog))``, for a decomposition built by ``build_j0`` or ``collapse_to_j``.

    Every id, color, name and stable letter of such a decomposition is a
    token with nothing to escape, so each record is written as one f-string
    and the records of each list are joined once.
    """
    vertices = []
    for v in gog.vertices:
        group = v.group
        if isinstance(group, RaagGroup):
            text = '{"kind": "raag", "vertices": ' + _names_json(group.vertices) + "}"
        elif isinstance(group, CyclicGroup):
            text = '{"kind": "cyclic", "vertices": ["' + group.generator + '"]}'
        else:
            raise GraphError(f"unknown group descriptor {group!r}")
        vertices.append(
            f'{{"id": "{v.id}", "color": "{v.color}", "group": {text}, '
            f'"hanging": {_JSON_BOOL[v.hanging]}, "toral": {_JSON_BOOL[v.toral]}}}'
        )
    edges = []
    for e in gog.edges:
        a, b = e.ends
        letter = e.stable_letter
        edges.append(
            f'{{"id": "{e.id}", "ends": ["{a}", "{b}"], "group_vertex": "{e.group.generator}", '
            f'"loop": {_JSON_BOOL[a == b]}, "stable_letter": '
            + ("null}" if letter is None else f'"{letter}"}}')
        )
    return f'{{"vertices": [{", ".join(vertices)}], "edges": [{", ".join(edges)}]}}'


def _group_label(group) -> str:
    if isinstance(group, RaagGroup):
        return "raag:" + ",".join(group.vertices)
    return "cyclic:" + group.generator


def gog_to_dot(gog: GraphOfGroups) -> str:
    """DOT rendering: black/white nodes, edges labeled by their group generator,
    loops by their stable letter."""
    lines = ["graph decomposition {"]
    for v in gog.vertices:
        fill = "black" if v.color == BLACK else "white"
        lines.append(
            f'  "{v.id}" [shape=circle, fillcolor={fill}, style=filled, label="{_group_label(v.group)}"];'
        )
    for e in gog.edges:
        label = e.stable_letter if e.is_loop else e.group.generator
        lines.append(f'  "{e.ends[0]}" -- "{e.ends[1]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_dot(g: SimplicialGraph) -> str:
    lines = ["graph defining_graph {"]
    for v in g.vertices:
        lines.append(f'  "{v}" [shape=circle];')
    for u, v in g.edges:
        lines.append(f'  "{u}" -- "{v}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def parse_graph6(line: str) -> SimplicialGraph:
    """Decode one graph6 line (short form, up to 62 vertices).

    Vertices are named v00..v61 so numeric and lexicographic order agree.
    """
    data = line.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<") :]
    if not data:
        raise ParseError("empty graph6 line", 1)
    first = ord(data[0]) - 63
    if first < 0 or ord(data[0]) > 126:
        raise ParseError(f"bad graph6 size byte {data[0]!r}", 1)
    if first > GRAPH6_MAX_VERTICES:
        raise ParseError(f"graph6 input limited to {GRAPH6_MAX_VERTICES} vertices", 1)
    n = first
    need_bits = n * (n - 1) // 2
    need_chars = (need_bits + 5) // 6
    body = data[1:]
    if len(body) != need_chars:
        raise ParseError(f"graph6 body has {len(body)} characters, expected {need_chars}", 1)
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if val < 0 or val > 63:
            raise ParseError(f"bad graph6 character {ch!r}", 1)
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    names = [f"v{i:02d}" for i in range(n)]
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((names[i], names[j]))
            k += 1
    return SimplicialGraph(names, edges)
