"""Command-line front end.

Subcommands: split, jsj, witness, check, census, export-dot.  Input is the
edge-list format (or graph6 with --g6) from a file argument or stdin.  Machine
payload goes to stdout, diagnostics to stderr.

Exit codes: 0 success, 2 parse error or input not readable as UTF-8 text
(missing file, directory, invalid bytes), 3 empty graph, 4 decomposition
precondition unmet (disconnected or fewer than three vertices; ``check``
works at any size otherwise), 5 census range error, 1 internal check
failure.  ``witness`` re-verifies through the library's ``amalgam_defects``
and ``cover_defects``.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

# each command imports the modules it runs, so ``--help`` loads none of the library
if TYPE_CHECKING:
    from typing import Iterable, Iterator, Optional

    from .graphs import SimplicialGraph
    from .jsj import GraphOfGroups

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_EMPTY = 3
EXIT_PRECONDITION = 4
EXIT_CENSUS_RANGE = 5

CENSUS_MIN_N = 3
CENSUS_MAX_N = 6


class _Unreadable(Exception):
    """The input cannot be read as UTF-8 text: exit 2, as for a parse error."""


def _read_text(path: str) -> str:
    try:
        if path == "-":
            # the bytes, so stdin decodes as strict UTF-8 whatever the locale; every reader
            # splits lines with str.splitlines, so CRLF and LF read alike untranslated
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:  # strerror, unlike str(exc), omits the path
        raise _Unreadable(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _load_graph(path: str, g6: bool) -> SimplicialGraph:
    from .graphs import ParseError, parse_graph

    text = _read_text(path)
    if g6:
        from .serialize import parse_graph6

        lines = [ln for ln in text.splitlines() if ln.strip()]
        if len(lines) != 1:
            raise ParseError(f"expected exactly one graph6 line, got {len(lines)}", 1)
        return parse_graph6(lines[0])
    return parse_graph(text)


def _emit(payload: str) -> None:
    # written apart, so a cover payload of many megabytes is not copied to add a newline
    sys.stdout.write(payload)
    if not payload.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj) -> None:
    import json

    _emit(json.dumps(obj))


def _is_empty(g: SimplicialGraph) -> bool:
    """True, after saying so on stderr, when g has no vertex: the caller then exits 3."""
    if g.vertices:
        return False
    print("error: empty graph", file=sys.stderr)
    return True


def cmd_split(args: argparse.Namespace) -> int:
    from .serialize import _payload_json
    from .splitting import splits_over_z

    g = _load_graph(args.file, args.g6)
    if _is_empty(g):
        return EXIT_EMPTY
    _emit(_payload_json(splits_over_z(g)._asdict()))  # the fields report_to_dict writes, in order
    return EXIT_OK


def _decomposition(g: SimplicialGraph, stage: str) -> GraphOfGroups:
    from .jsj import build_j0, collapse_to_j

    gog = build_j0(g)
    if stage == "j":
        gog = collapse_to_j(gog)
    return gog


def cmd_jsj(args: argparse.Namespace) -> int:
    from .serialize import _gog_json, gog_to_dot

    g = _load_graph(args.file, args.g6)
    if _is_empty(g):
        return EXIT_EMPTY
    gog = _decomposition(g, args.stage)
    _emit(gog_to_dot(gog) if args.format == "dot" else _gog_json(gog))
    return EXIT_OK


def cmd_witness(args: argparse.Namespace) -> int:
    from .serialize import _payload_json
    from .splitting import ZSplitWitness, amalgam_defects, cover_defects, splits_over_z

    g = _load_graph(args.file, args.g6)
    if _is_empty(g):
        return EXIT_EMPTY
    if len(g.vertices) < 3:
        print("error: witnesses are produced for graphs with at least three vertices", file=sys.stderr)
        return EXIT_PRECONDITION
    report = splits_over_z(g)
    witness = report.witness
    defects = amalgam_defects if isinstance(witness, ZSplitWitness) else cover_defects
    verified = not defects(g, witness)
    _emit(_payload_json({"z_split": report.z_split, "witness": witness, "verified": verified}))
    return EXIT_OK if verified else EXIT_CHECK_FAILED


def cmd_check(args: argparse.Namespace) -> int:
    from .jsj import is_reduced, jsj
    from .presentations import abelianization, check_coverage, check_euler, emit_presentation

    g = _load_graph(args.file, args.g6)
    if _is_empty(g):
        return EXIT_EMPTY
    decomposition = jsj(g)
    rank, torsion = abelianization(emit_presentation(decomposition))
    results = [
        ("reduced", is_reduced(decomposition), ""),
        ("euler", check_euler(g, decomposition), ""),
        ("coverage", check_coverage(g, decomposition), ""),
        (
            "abelianization",
            (rank, torsion) == (len(g.vertices), []),
            f" rank={rank} torsion={torsion}",
        ),
    ]
    for name, ok, detail in results:
        _emit(f"{name} {'pass' if ok else 'fail'}{detail}")
    return EXIT_OK if all(ok for _, ok, _ in results) else EXIT_CHECK_FAILED


def cmd_export_dot(args: argparse.Namespace) -> int:
    from .serialize import gog_to_dot, graph_to_dot

    g = _load_graph(args.file, args.g6)
    if args.stage == "graph":
        _emit(graph_to_dot(g))
        return EXIT_OK
    if _is_empty(g):
        return EXIT_EMPTY
    _emit(gog_to_dot(_decomposition(g, args.stage)))
    return EXIT_OK


def labeled_graphs(n: int, names: Optional[list[str]] = None) -> Iterator[SimplicialGraph]:
    """All 2^(n choose 2) labeled graphs on n vertices, in edge-mask order."""
    import string
    from itertools import combinations

    from .graphs import SimplicialGraph

    if names is None:
        names = list(string.ascii_lowercase[:n]) if n <= 26 else [f"v{i:03d}" for i in range(n)]
    pairs = list(combinations(names, 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        yield SimplicialGraph(names, edges)


def oracle_biconnected(g: SimplicialGraph) -> bool:
    """Removal-definition biconnectivity: connected, and still connected less any one vertex.

    A closure over the vertex and edge lists that calls nothing in the
    library, so it shares no code with the verdicts it checks.
    """
    vertices = g.vertices
    adj: dict[str, list[str]] = {v: [] for v in vertices}
    for u, w in g.edges:
        adj[u].append(w)
        adj[w].append(u)

    def connected_without(removed: Optional[str]) -> bool:
        rest = [v for v in vertices if v != removed]
        seen, stack = {removed, rest[0]}, [rest[0]]  # so no search enters the removed vertex
        while stack:
            found = [y for y in adj[stack.pop()] if y not in seen]
            seen.update(found)
            stack.extend(found)
        return seen.issuperset(rest)

    return len(vertices) >= 2 and connected_without(None) and all(map(connected_without, vertices))


def census_rows(graphs_by_n: dict[int, Iterable[SimplicialGraph]]) -> list[dict]:
    """Count connected/biconnected/splitting graphs and the jsj edge histogram.

    Every connected graph's verdict is cross-checked against the removal
    oracle; a disagreement is an internal error, not a report entry.
    """
    from .blocks import is_biconnected
    from .graphs import connected_components
    from .jsj import jsj
    from .splitting import Z_SPLIT_YES, splits_over_z

    rows = []
    for n in sorted(graphs_by_n):
        connected = biconnected = splits = 0
        histogram: dict[int, int] = {}
        for g in graphs_by_n[n]:
            if len(connected_components(g)) != 1:
                continue
            connected += 1
            oracle = oracle_biconnected(g)
            if n >= 3:
                # a connected graph on >= 3 vertices splits over Z iff it is not biconnected,
                # so the checked verdict is the biconnectivity count's too
                z_yes = splits_over_z(g).z_split == Z_SPLIT_YES
                if z_yes != (not oracle):
                    raise RuntimeError(
                        f"verdict disagrees with removal oracle on {g!r}"
                    )
                if z_yes:
                    splits += 1
                edge_count = len(jsj(g).edges)
                histogram[edge_count] = histogram.get(edge_count, 0) + 1
            elif is_biconnected(g) != oracle:
                raise RuntimeError(f"biconnectivity disagrees with removal oracle on {g!r}")
            if oracle:
                biconnected += 1
        rows.append(
            {
                "n": n,
                "connected": connected,
                "splits_over_Z": splits,
                "biconnected": biconnected,
                "jsj_edge_histogram": {str(k): histogram[k] for k in sorted(histogram)},
            }
        )
    return rows


def cmd_census(args: argparse.Namespace) -> int:
    if args.file is not None:
        from .graphs import ParseError
        from .serialize import parse_graph6

        text = _read_text(args.file)
        by_n: dict[int, list[SimplicialGraph]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                g = parse_graph6(line)
            except ParseError as exc:
                print(f"error: graph6 stream line {lineno}: {exc}", file=sys.stderr)
                return EXIT_PARSE
            if g.vertices:
                by_n.setdefault(len(g.vertices), []).append(g)
        _emit_json(census_rows(by_n))
        return EXIT_OK
    if args.n is not None:
        ns = [args.n]
    else:
        ns = list(range(CENSUS_MIN_N, args.max_n + 1))
    if any(n < CENSUS_MIN_N or n > CENSUS_MAX_N for n in ns) or not ns:
        print(
            f"error: census enumerates {CENSUS_MIN_N} <= n <= {CENSUS_MAX_N} vertices",
            file=sys.stderr,
        )
        return EXIT_CENSUS_RANGE
    _emit_json(census_rows({n: labeled_graphs(n) for n in ns}))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raag",
        description="Splittings and JSJ decompositions of right-angled Artin groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser) -> None:
        p.add_argument("file", nargs="?", default="-", help="edge-list file, or - for stdin")
        p.add_argument("--g6", action="store_true", help="input is a single graph6 line")

    p_split = sub.add_parser("split", help="free and Z-splitting verdicts with witness")
    add_input(p_split)
    p_split.set_defaults(func=cmd_split)

    p_jsj = sub.add_parser("jsj", help="graph-of-groups decomposition")
    add_input(p_jsj)
    p_jsj.add_argument("--stage", choices=("j0", "j"), default="j")
    p_jsj.add_argument("--format", choices=("json", "dot"), default="json")
    p_jsj.set_defaults(func=cmd_jsj)

    p_witness = sub.add_parser("witness", help="emit and re-verify the splitting witness")
    add_input(p_witness)
    p_witness.set_defaults(func=cmd_witness)

    p_check = sub.add_parser("check", help="consistency checks of the decomposition")
    add_input(p_check)
    p_check.set_defaults(func=cmd_check)

    p_census = sub.add_parser("census", help="sweep labeled graphs and tabulate verdicts")
    p_census.add_argument(
        "file", nargs="?", default=None, help="graph6 stream (or -) instead of internal enumeration"
    )
    p_census.add_argument("--n", type=int, default=None, help="single vertex count")
    p_census.add_argument("--max-n", type=int, default=CENSUS_MAX_N, dest="max_n")
    p_census.set_defaults(func=cmd_census)

    p_dot = sub.add_parser("export-dot", help="DOT of the graph or its decomposition")
    add_input(p_dot)
    p_dot.add_argument("--stage", choices=("graph", "j0", "j"), default="graph")
    p_dot.set_defaults(func=cmd_export_dot)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .graphs import GraphError, ParseError

    try:
        return args.func(args)
    except (ParseError, _Unreadable) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
