"""Command-line front end.

Subcommands: split, jsj, witness, check, census, export-dot.  Input is the
edge-list format (or graph6 with --g6) from a file argument or stdin, as UTF-8
with an optional byte-order mark.  Machine payload goes to stdout in writes of
64 KB that ``_emit`` alone joins from the writers' pieces, diagnostics to
stderr.  ``export-dot --stage j|j0`` is ``jsj --format dot``.

Exit codes: 0 success, 2 usage or parse error, or input not readable as UTF-8
text (missing file, directory, invalid bytes, closed stdin), 3 empty graph,
4 decomposition precondition unmet (disconnected or fewer than three vertices;
``check`` works at any size otherwise), 5 census range error, 1 internal check
failure, 141 stdout closed by its reader (128 + SIGPIPE, as a shell reports).
``witness`` re-verifies through ``raagsplit.certify``.
"""

from __future__ import annotations

import argparse
import errno
import gc
import os
import sys
from typing import TYPE_CHECKING

# each command imports the modules it runs, so ``--help`` loads none of the library
if TYPE_CHECKING:
    from typing import Iterable, Iterator, Optional, Union

    from .graphs import SimplicialGraph

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
            if sys.stdin is None:  # the process started with descriptor 0 closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            # the bytes, so stdin decodes as strict UTF-8 whatever the locale; every reader
            # splits lines with str.splitlines, so CRLF and LF read alike untranslated.
            # utf-8-sig drops a leading byte-order mark, as some editors write one
            return sys.stdin.buffer.read().decode("utf-8-sig")
        with open(path, "r", encoding="utf-8-sig") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:  # strerror, unlike str(exc), omits the path
        raise _Unreadable(f"cannot read {path}: {getattr(exc, 'strerror', None) or exc}") from None


def _load_graph(path: str, g6: bool) -> SimplicialGraph:
    from .graphs import ParseError, parse_graph

    text = _read_text(path)
    if g6:
        from .serialize import parse_graph6

        lines = [(ln, n) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if len(lines) != 1:
            raise ParseError(f"expected exactly one graph6 line, got {len(lines)}", 1)
        return parse_graph6(*lines[0])
    return parse_graph(text)


_CHUNK = 1 << 16  # the least number of characters in each write but the last


def _emit(payload: Union[str, Iterable[str]]) -> None:
    """Write ``payload``, a string or its pieces, to stdout, ending in one newline.

    The one buffer between the writers and stdout, which ``PYTHONUNBUFFERED``
    makes one system call per write: pieces are joined until they reach 64 KB,
    written once the next piece comes (so the last write carries the newline),
    and a writer that raises within its first 64 KB leaves nothing written.
    """
    parts, size, last = [], 0, ""
    for last in (payload,) if isinstance(payload, str) else payload:
        if size >= _CHUNK:
            sys.stdout.write("".join(parts))
            parts, size = [], 0
        parts.append(last)
        size += len(last)
    if not last.endswith("\n"):
        parts.append("\n")
    sys.stdout.write("".join(parts))


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


def cmd_jsj(args: argparse.Namespace) -> int:
    from .decompositions import build_j0, jsj
    from .serialize import _gog_dot, _gog_json

    g = _load_graph(args.file, args.g6)
    if _is_empty(g):
        return EXIT_EMPTY
    gog = jsj(g) if args.stage == "j" else build_j0(g)
    _emit(_gog_dot(gog) if args.format == "dot" else _gog_json(gog))
    return EXIT_OK


def cmd_witness(args: argparse.Namespace) -> int:
    from .certify import amalgam_defects, cover_defects
    from .graphs import GraphError
    from .serialize import _payload_json
    from .splitting import splits_over_z

    g = _load_graph(args.file, args.g6)
    if _is_empty(g):
        return EXIT_EMPTY
    if len(g.vertices) < 3:
        raise GraphError("witnesses are produced for graphs with at least three vertices")
    report = splits_over_z(g)
    witness = report.witness
    defects = amalgam_defects if witness._kind == "amalgam" else cover_defects
    verified = not defects(g, witness)
    _emit(_payload_json({"z_split": report.z_split, "witness": witness, "verified": verified}))
    return EXIT_OK if verified else EXIT_CHECK_FAILED


def cmd_check(args: argparse.Namespace) -> int:
    from .certify import is_reduced
    from .decompositions import jsj
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
    if args.stage != "graph":
        return cmd_jsj(args)  # the parser set format="dot"
    from .serialize import graph_to_dot

    _emit(graph_to_dot(_load_graph(args.file, args.g6)))
    return EXIT_OK


def labeled_graphs(n: int) -> Iterator[SimplicialGraph]:
    """All 2^(n choose 2) labeled graphs on the first n letters, in edge-mask order."""
    import string
    from itertools import combinations

    from .graphs import SimplicialGraph

    names = string.ascii_lowercase[:n]
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

    Every connected graph's biconnectivity is cross-checked against the
    removal oracle; a disagreement is an internal error, not a report entry.
    A connected graph on three or more vertices splits over Z iff it is not
    biconnected, so that count is the difference and builds no witness;
    acceptance criterion 3 checks ``splits_over_z`` itself against the oracle.
    """
    from .blocks import is_biconnected
    from .decompositions import jsj
    from .graphs import connected_components

    rows = []
    for n in sorted(graphs_by_n):
        connected = biconnected = 0
        histogram: dict[int, int] = {}
        for g in graphs_by_n[n]:
            if len(connected_components(g)) != 1:
                continue
            connected += 1
            verdict = is_biconnected(g)
            if verdict != oracle_biconnected(g):
                raise RuntimeError(f"biconnectivity disagrees with removal oracle on {g!r}")
            biconnected += verdict
            if n >= 3:
                edge_count = len(jsj(g).edges)
                histogram[edge_count] = histogram.get(edge_count, 0) + 1
        rows.append(
            {
                "n": n,
                "connected": connected,
                "splits_over_Z": connected - biconnected if n >= 3 else 0,
                "biconnected": biconnected,
                "jsj_edge_histogram": {str(k): histogram[k] for k in sorted(histogram)},
            }
        )
    return rows


def cmd_census(args: argparse.Namespace) -> int:
    import json

    if args.file is not None:
        from .graphs import ParseError
        from .serialize import parse_graph6

        text = _read_text(args.file)
        by_n: dict[int, list[SimplicialGraph]] = {}
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                g = parse_graph6(line, lineno)
            except ParseError as exc:  # its message begins "line {lineno}: "
                print(f"error: graph6 stream {exc}", file=sys.stderr)
                return EXIT_PARSE
            if g.vertices:
                by_n.setdefault(len(g.vertices), []).append(g)
        _emit(json.dumps(census_rows(by_n)))
        return EXIT_OK
    top = CENSUS_MAX_N if args.max_n is None else args.max_n
    ns = [args.n] if args.n is not None else list(range(CENSUS_MIN_N, top + 1))
    if any(n < CENSUS_MIN_N or n > CENSUS_MAX_N for n in ns) or not ns:
        print(
            f"error: census enumerates {CENSUS_MIN_N} <= n <= {CENSUS_MAX_N} vertices",
            file=sys.stderr,
        )
        return EXIT_CENSUS_RANGE
    _emit(json.dumps(census_rows({n: labeled_graphs(n) for n in ns})))
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
    # one source of graphs; argparse passes an option given its default value as if absent,
    # so --max-n has none of its own and cannot slip past the conflict check as "--max-n 6"
    source = p_census.add_mutually_exclusive_group()
    source.add_argument("--n", type=int, default=None, help="single vertex count")
    source.add_argument("--max-n", type=int, default=None, dest="max_n")
    source.add_argument(
        "file", nargs="?", default=None, help="graph6 stream (or -) instead of internal enumeration"
    )
    p_census.set_defaults(func=cmd_census)

    p_dot = sub.add_parser("export-dot", help="DOT of the graph or its decomposition")
    add_input(p_dot)
    p_dot.add_argument("--stage", choices=("graph", "j0", "j"), default="graph")
    p_dot.set_defaults(func=cmd_export_dot, format="dot")

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
    # no record is in a reference cycle; ``main`` and the library leave GC state alone
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit as a shell reports SIGPIPE, and let the final flush go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE
    raise SystemExit(code)


if __name__ == "__main__":
    entry()
