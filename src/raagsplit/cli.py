"""Command-line front end.

Subcommands: split, jsj, witness, check, census, export-dot, each a row of the table
``COMMANDS``, which reads argv and prints help and usage errors.  Input is the edge-list
format (or graph6 with --g6) from a file argument or stdin, as UTF-8 with an optional BOM.
Machine payload goes to stdout in writes of 64 KB that ``_emit`` alone joins from the
writers' pieces, diagnostics to stderr.  ``export-dot --stage j|j0`` is ``jsj --format dot``.

Exit codes: 0 success, 2 usage or parse error, or input not readable as UTF-8
text (missing file, directory, invalid bytes, closed stdin), 3 empty graph,
4 decomposition precondition unmet (disconnected or fewer than three vertices;
``check`` works at any size otherwise), 5 census range error, 1 internal check
failure, 141 stdout closed by its reader (128 + SIGPIPE, as a shell reports).
``witness`` re-verifies through ``raagsplit.certify``, its defects to stderr.
"""

from __future__ import annotations

import errno
import gc
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING

# each command imports the modules it runs, so ``--help`` loads none of the library
if TYPE_CHECKING:
    from typing import Iterable, Iterator, NoReturn, Optional, Union

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


def cmd_split(args: SimpleNamespace) -> int:
    from .serialize import _payload_json
    from .splitting import splits_over_z

    g = _load_graph(args.file, args.g6)
    if _is_empty(g):
        return EXIT_EMPTY
    _emit(_payload_json(splits_over_z(g)._asdict()))  # the fields report_to_dict writes, in order
    return EXIT_OK


def cmd_jsj(args: SimpleNamespace) -> int:
    from .decompositions import build_j0, jsj
    from .serialize import _gog_dot, _gog_json

    g = _load_graph(args.file, args.g6)
    if _is_empty(g):
        return EXIT_EMPTY
    gog = jsj(g) if args.stage == "j" else build_j0(g)
    _emit(_gog_dot(gog) if args.format == "dot" else _gog_json(gog))
    return EXIT_OK


def cmd_witness(args: SimpleNamespace) -> int:
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
    defects = (amalgam_defects if witness._kind == "amalgam" else cover_defects)(g, witness)
    _emit(_payload_json({"z_split": report.z_split, "witness": witness, "verified": not defects}))
    sys.stderr.writelines(f"error: witness {defect}\n" for defect in defects)
    return EXIT_CHECK_FAILED if defects else EXIT_OK


def cmd_check(args: SimpleNamespace) -> int:
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


def cmd_export_dot(args: SimpleNamespace) -> int:
    if args.stage != "graph":
        return cmd_jsj(args)  # its defaults set format="dot"
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


def cmd_census(args: SimpleNamespace) -> int:
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


# Each command: its handler, its options (bool for a flag, a tuple of choices, or int), its defaults and
# its help line. Where its file defaults to None, its options and file are sources, and at most one is given.
_INPUT = {"file": "-", "g6": False}
COMMANDS = {
    "split": (cmd_split, {"--g6": bool}, _INPUT, "free and Z-splitting verdicts with witness"),
    "jsj": (cmd_jsj, {"--g6": bool, "--stage": ("j0", "j"), "--format": ("json", "dot")},
            {**_INPUT, "stage": "j", "format": "json"}, "graph-of-groups decomposition"),
    "witness": (cmd_witness, {"--g6": bool}, _INPUT, "emit and re-verify the splitting witness"),
    "check": (cmd_check, {"--g6": bool}, _INPUT, "consistency checks of the decomposition"),
    "census": (cmd_census, {"--n": int, "--max-n": int}, {"file": None, "n": None, "max_n": None},
               f"tabulate graphs on N or {CENSUS_MIN_N}..N (default {CENSUS_MAX_N}) vertices, or a graph6 file"),
    "export-dot": (cmd_export_dot, {"--g6": bool, "--stage": ("graph", "j0", "j")},
                   {**_INPUT, "stage": "graph", "format": "dot"}, "DOT of the graph or its decomposition"),
}
_HELP = ("-h", "--help")
_FILE = "file is an edge-list file (one graph6 line with --g6), or - (the default) for stdin"


def _usage(command: Optional[str], full: bool = False) -> str:
    """The usage line of raag, or of ``command``; with ``full``, the help lines after it."""
    if command is None:
        rows = [f"  {name:<12}{spec[3]}" for name, spec in COMMANDS.items()]
        head, body = f"raag [-h] {{{','.join(COMMANDS)}}} ...", [*rows, "", _FILE]
    else:
        _, opts, defaults, line = COMMANDS[command]
        words = [o if k is bool else f"{o} N" if k is int else f"{o} {{{','.join(k)}}}" for o, k in opts.items()]
        between = " | " if defaults["file"] is None else "] ["  # one source, or each word optional
        head, body = f"raag {command} [-h] [{between.join([*words, 'file'])}]", [line]
    return "\n".join([f"usage: {head}", "", *body] if full else [f"usage: {head}"])


def _option(token: str, options: dict) -> tuple[Optional[str], Optional[str]]:
    """The option ``token`` names (itself if unknown) and the value after ``=``, or None twice if positional."""
    name, eq, value = token.partition("=")
    if name in options or name in _HELP:
        return name, value if eq else None
    if token[:2] == "-h":  # the short option -h, with the value x in -hx
        return "-h", token[2:]
    whole, dot, fraction = token[1:].removesuffix("\n").partition(".")
    number = (whole + fraction).isdecimal() and (fraction or not dot)  # argparse's -\d+$|-\d*\.\d+$
    return (None, None) if token[:1] != "-" or token == "-" or " " in token or number else (token, None)


def parse_args(argv: Optional[list[str]] = None) -> SimpleNamespace:
    """The command ``argv`` (default ``sys.argv[1:]``) names and its fields, as argparse read them
    but unabbreviated: help and bad values exit where met, unknown or extra words once all are read."""
    command, options, fields, given, unknown, rest = None, {}, {}, [], [], False
    tokens = iter(sys.argv[1:] if argv is None else argv)

    def fail(message: str) -> NoReturn:
        print(f"{_usage(command)}\nraag: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_PARSE)

    for token in tokens:
        if token == "--" and command and not rest:
            rest = True  # ends the options; as argparse, dropped before the file or just after it
            if "file" not in given or given[-1] == "file":
                continue
        name, value = (None, None) if rest or token == "--" else _option(token, options)
        if name is None and command is None:
            if token not in COMMANDS:
                fail(f"argument command: invalid choice: {token!r}")
            command, (_, options, defaults, _) = token, COMMANDS[token]
            fields = dict(defaults)
            continue
        if name is None and "file" not in given:
            name, value = "file", token
        elif name in _HELP or options.get(name) is bool:
            if value is not None:
                fail(f"argument {name}: ignored explicit argument {value!r}")
            if name in _HELP:
                print(_usage(command, full=True))
                raise SystemExit(EXIT_OK)
            value = True
        elif name not in options:  # an unknown option, or a positional after the file
            unknown.append(token)
            continue
        else:
            if value is None:
                value = next(tokens, "--")
                if value == "--" or _option(value, options)[0] is not None:
                    fail(f"argument {name}: expected one argument")
            if options[name] is int:
                try:
                    value = int(value)
                except ValueError:
                    fail(f"argument {name}: invalid int value: {value!r}")
            elif value not in options[name]:
                fail(f"argument {name}: invalid choice: {value!r}")
        if defaults["file"] is None and set(given) - {name}:
            fail(f"argument {name}: not allowed with argument {given[0]}")
        given.append(name)
        fields[name.lstrip("-").replace("-", "_")] = value
    if command is None or unknown:
        fail(f"unrecognized arguments: {' '.join(unknown)}" if command else "a command is required")
    return SimpleNamespace(command=command, **fields)


def main(argv: Optional[list[str]] = None) -> int:
    args = parse_args(argv)
    from .graphs import GraphError, ParseError

    try:
        return COMMANDS[args.command][0](args)
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
