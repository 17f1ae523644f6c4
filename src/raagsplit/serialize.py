"""Frozen JSON/DOT serializations and the graph6 input format.

Key sets and orderings are fixed so identical inputs always produce identical
bytes; golden-file tests rely on it.  The writers ``raag`` streams are
generators of small pieces, which ``cli._emit`` alone joins into writes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from .graphs import GraphError, ParseError, SimplicialGraph

# each record names its own kind, which the writers dispatch on: ``raag jsj`` never loads
# ``splitting``, nor ``raag split`` ``jsj``
if TYPE_CHECKING:
    from .decompositions import GraphOfGroups
    from .splitting import SplitReport, Witness

GRAPH6_MAX_VERTICES = 62


def witness_to_dict(w: Witness) -> dict:
    kind = getattr(w, "_kind", None)
    if kind == "amalgam":
        return {"kind": "amalgam", "side1": list(w.side1), "side2": list(w.side2), "vertex": w.vertex}
    if kind == "cover":
        return {
            "kind": "cover",
            "cover": [
                {"segment": seg, "delta": delta, "cycle": cycle}  # json writes tuples as arrays
                for seg, (delta, cycle) in w.entries.items()
            ],
        }
    if kind == "small_case":
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


def _payload_json(fields: dict) -> Iterator[str]:
    """``json.dumps(fields)`` in pieces, where ``fields["witness"]`` is a witness record, not its dict.

    The joined pieces are the bytes of ``json.dumps`` with ``witness_to_dict``
    of the record in its place, written without ``json``: keys, ``z_split``,
    tags and names are tokens with nothing to escape, and the other fields
    booleans.  Each cover entry is one piece, and a span that is the very
    object of the entry before reuses its text.  A witness of no known kind
    raises ``GraphError`` before the cover, the only long part.
    """
    lead = "{"
    for key, value in fields.items():
        head = f'{lead}"{key}": '
        lead = ", "
        kind = getattr(value, "_kind", None)
        if key != "witness":
            yield head + (_JSON_BOOL[value] if isinstance(value, bool) else f'"{value}"')
        elif kind == "amalgam":
            yield (
                f'{head}{{"kind": "amalgam", "side1": {_names_json(value.side1)}, '
                f'"side2": {_names_json(value.side2)}, "vertex": "{value.vertex}"}}'
            )
        elif kind == "small_case":
            yield f'{head}{{"kind": "small_case", "tag": "{value.tag}"}}'
        elif kind != "cover":
            raise GraphError(f"unknown witness {value!r}")
        else:
            yield head + '{"kind": "cover", "cover": ['
            sep = ""
            last = object()  # the entry span that ``span`` spells; none yet
            for seg, (delta, cycle) in value.entries.items():
                if delta is not last:
                    span, last = _names_json(delta), delta
                yield f'{sep}{{"segment": {_names_json(seg)}, "delta": {span}, "cycle": {_names_json(cycle)}}}'
                sep = ", "
            yield "]}"
    yield "}" if fields else "{}"


def _group_kind(group) -> str:
    """``raag`` or ``cyclic``, as the group record names itself."""
    kind = getattr(group, "_kind", None)
    if kind not in ("raag", "cyclic"):
        raise GraphError(f"unknown group descriptor {group!r}")
    return kind


def gog_to_dict(gog: GraphOfGroups) -> dict:
    return {
        "vertices": [
            {
                "id": v.id,
                "color": v.color,
                "group": {"kind": _group_kind(v.group), "vertices": list(v.group.generators())},
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


def _check_groups(gog: GraphOfGroups) -> None:
    """Raise ``GraphError`` on the first group of ``gog`` of no known kind, so a writer never stops partway."""
    for v in gog.vertices:
        _group_kind(v.group)


def _gog_json(gog: GraphOfGroups) -> Iterator[str]:
    """``json.dumps(gog_to_dict(gog))`` in pieces, one per record, for a decomposition built by this library.

    Every id, color, name and stable letter of such a decomposition is a
    token with nothing to escape, so each record is one f-string, written when
    it is read: neither the joined text nor every record's text is held.
    """
    _check_groups(gog)
    yield '{"vertices": ['
    sep = ""
    for v in gog.vertices:
        group = v.group
        yield (
            f'{sep}{{"id": "{v.id}", "color": "{v.color}", "group": {{"kind": "{group._kind}", '
            f'"vertices": {_names_json(group.generators())}}}, '
            f'"hanging": {_JSON_BOOL[v.hanging]}, "toral": {_JSON_BOOL[v.toral]}}}'
        )
        sep = ", "
    yield '], "edges": ['
    sep = ""
    for e in gog.edges:
        a, b = e.ends
        letter = e.stable_letter
        yield (
            f'{sep}{{"id": "{e.id}", "ends": ["{a}", "{b}"], "group_vertex": "{e.group.generator}", '
            f'"loop": {_JSON_BOOL[a == b]}, "stable_letter": '
            + ("null}" if letter is None else f'"{letter}"}}')
        )
        sep = ", "
    yield "]}"


def _gog_dot(gog: GraphOfGroups) -> Iterator[str]:
    """``gog_to_dot(gog)`` line by line, each line written when it is read."""
    from .decompositions import BLACK
    _check_groups(gog)
    yield "graph decomposition {\n"
    for v in gog.vertices:
        fill = "black" if v.color == BLACK else "white"
        label = v.group._kind + ":" + ",".join(v.group.generators())
        yield f'  "{v.id}" [shape=circle, fillcolor={fill}, style=filled, label="{label}"];\n'
    for e in gog.edges:
        label = e.stable_letter if e.is_loop else e.group.generator
        yield f'  "{e.ends[0]}" -- "{e.ends[1]}" [label="{label}"];\n'
    yield "}\n"


def gog_to_dot(gog: GraphOfGroups) -> str:
    """DOT rendering: black/white nodes, edges labeled by their group generator,
    loops by their stable letter.  One string, joined from the lines ``raag jsj --format dot`` streams."""
    return "".join(_gog_dot(gog))


def graph_to_dot(g: SimplicialGraph) -> Iterator[str]:
    """DOT of the defining graph, line by line."""
    yield "graph defining_graph {\n"
    for v in g.vertices:
        yield f'  "{v}" [shape=circle];\n'
    for u, v in g.edges:
        yield f'  "{u}" -- "{v}";\n'
    yield "}\n"


def parse_graph6(line: str, lineno: int = 1) -> SimplicialGraph:
    """Decode one graph6 line (short form, up to 62 vertices), line ``lineno`` of its input.

    Vertices are named v00..v61 so numeric and lexicographic order agree; a
    ``ParseError`` names ``lineno``.
    """
    data = line.strip()
    if data.startswith(">>graph6<<"):
        data = data[len(">>graph6<<") :]
    if not data:
        raise ParseError("empty graph6 line", lineno)
    first = ord(data[0]) - 63
    if first < 0 or ord(data[0]) > 126:
        raise ParseError(f"bad graph6 size byte {data[0]!r}", lineno)
    if first > GRAPH6_MAX_VERTICES:
        raise ParseError(f"graph6 input limited to {GRAPH6_MAX_VERTICES} vertices", lineno)
    n = first
    need_bits = n * (n - 1) // 2
    need_chars = (need_bits + 5) // 6
    body = data[1:]
    if len(body) != need_chars:
        raise ParseError(f"graph6 body has {len(body)} characters, expected {need_chars}", lineno)
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if val < 0 or val > 63:
            raise ParseError(f"bad graph6 character {ch!r}", lineno)
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
