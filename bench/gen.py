"""Seeded input generators for the benchmark workloads.

Every family is a pure function of ``(seed, round)``: the same arguments give
the same edge list, and ``edge_list_text`` turns it into the exact bytes the
program reads.  Vertex names are a seeded permutation of ``v0000``.. so that
lexicographic tie-breaks differ from seed to seed, and edge lines are shuffled.
Nothing here imports ``raagsplit``.
"""

from __future__ import annotations

import random
from itertools import combinations

COMMANDS = ("split", "witness", "jsj", "check")  # what each graph goes through
CUT_HEAVY_N = 2000
CYCLE_N = 500
GRID_ROWS, GRID_COLS = 20, 25
EAR_N = 500
EAR_MAX_DEGREE = 4
SWEEP_N = 7
SWEEP_NAMES = tuple("abcdefg")
SWEEP_PAIRS = tuple(combinations(SWEEP_NAMES, 2))


def _rng(seed: int, workload: str, rnd: int, family: str) -> random.Random:
    return random.Random(f"{seed}/{workload}/{rnd}/{family}")


def _label(rng: random.Random, n: int, edges: list[tuple[int, int]]) -> list[tuple[str, str]]:
    """Rename 0..n-1 through a seeded permutation and shuffle the edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    named = [(f"v{perm[u]:04d}", f"v{perm[v]:04d}") for u, v in edges]
    named = [(a, b) if rng.random() < 0.5 else (b, a) for a, b in named]
    rng.shuffle(named)
    return named


def path(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def random_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random recursive tree: vertex i hangs off a uniform earlier vertex."""
    return [(rng.randrange(i), i) for i in range(1, n)]


def k4_chain(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """K4 blocks in a chain, consecutive blocks sharing one cut vertex."""
    edges = []
    base = 0
    while base + 3 < n:
        quad = range(base, base + 4)
        edges.extend(combinations(quad, 2))
        base += 3
    return edges


def cactus(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Blocks of 3-5 vertices (cycles or cliques), each glued at a random old vertex."""
    edges: list[tuple[int, int]] = []
    size = 1
    while size < n:
        k = min(rng.randint(3, 5), n - size + 1)
        members = [rng.randrange(size)] + list(range(size, size + k - 1))
        size += k - 1
        if k == 2:
            edges.append((members[0], members[1]))
        elif rng.random() < 0.5:
            edges.extend(zip(members, members[1:] + members[:1]))
        else:
            edges.extend(combinations(members, 2))
    return edges


def cycle(rng: random.Random, n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def grid(rng: random.Random, n: int) -> list[tuple[int, int]]:
    edges = []
    for r in range(GRID_ROWS):
        for c in range(GRID_COLS):
            v = r * GRID_COLS + c
            if c + 1 < GRID_COLS:
                edges.append((v, v + 1))
            if r + 1 < GRID_ROWS:
                edges.append((v, v + GRID_COLS))
    return edges


def ear_graph(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Random ear decomposition with maximum degree EAR_MAX_DEGREE.

    A seed cycle grows by open ears: paths of fresh vertices between two
    distinct old vertices of degree below the cap.  Every ear keeps the
    graph 2-connected.
    """
    start = rng.randint(5, 20)
    edges = cycle(rng, start)
    degree = [2] * start
    size = start
    while size < n:
        open_ends = [v for v in range(size) if degree[v] < EAR_MAX_DEGREE]
        a, b = rng.sample(open_ends, 2)
        inner = min(rng.randint(1, 20), n - size)
        chain = [a, *range(size, size + inner), b]
        edges.extend(zip(chain, chain[1:]))
        degree[a] += 1
        degree[b] += 1
        degree.extend([2] * inner)
        size += inner
    return edges


# family name -> (generator, vertex count)
WORKLOAD_FAMILIES = {
    "cut-heavy": {
        "path": (path, CUT_HEAVY_N),
        "random-tree": (random_tree, CUT_HEAVY_N),
        "k4-chain": (k4_chain, CUT_HEAVY_N + 2),
        "cactus": (cactus, CUT_HEAVY_N),
    },
    "biconnected": {
        "cycle": (cycle, CYCLE_N),
        "grid": (grid, GRID_ROWS * GRID_COLS),
        "ear": (ear_graph, EAR_N),
    },
}


def round_graphs(workload: str, seed: int, rnd: int) -> list[tuple[str, list[tuple[str, str]]]]:
    """One graph per family of ``workload``: ``[(family, named edges)]``."""
    out = []
    for family, (build, n) in WORKLOAD_FAMILIES[workload].items():
        rng = _rng(seed, workload, rnd, family)
        out.append((family, _label(rng, n, build(rng, n))))
    return out


def edge_list_text(edges: list[tuple[str, str]]) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


def _mask_connected(mask: int) -> bool:
    adj = [0] * SWEEP_N
    for i, (a, b) in enumerate(SWEEP_PAIRS):
        if mask >> i & 1:
            u, v = ord(a) - 97, ord(b) - 97
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    seen = frontier = 1
    while frontier:
        reach = 0
        for v in range(SWEEP_N):
            if frontier >> v & 1:
                reach |= adj[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << SWEEP_N) - 1


def sweep_masks(seed: int):
    """Endless stream of edge masks of connected graphs on a..g.

    Masks are drawn uniformly from all 2^21 labeled graphs and the
    disconnected ones are dropped, so the stream is uniform over connected
    labeled graphs on seven vertices.
    """
    rng = random.Random(f"{seed}/small-sweep")
    while True:
        mask = rng.getrandbits(len(SWEEP_PAIRS))
        if _mask_connected(mask):
            yield mask


def mask_edges(mask: int) -> list[tuple[str, str]]:
    return [pair for i, pair in enumerate(SWEEP_PAIRS) if mask >> i & 1]
