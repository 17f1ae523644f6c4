"""The public surface that the benchmark and the scripts rely on.

Their files are parsed, not imported, so this holds without the benchmark's
own dependencies: every ``raagsplit`` name they import must resolve, and a
name they take from the package root must be public.
"""

import ast
import importlib
from pathlib import Path

import pytest

import raagsplit

ROOT = Path(__file__).resolve().parents[1]


def raagsplit_imports(path: Path) -> list[tuple[str, str]]:
    """Every (module, name) that ``from raagsplit[.x] import name`` reads, anywhere in the file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "raagsplit" or node.module.startswith("raagsplit."):
                found.extend((node.module, alias.name) for alias in node.names)
    return found


# the benchmark (its tests included) and the scripts: each file that imports from raagsplit
CLIENTS = {
    str(path.relative_to(ROOT)): imports
    for pattern in ("bench/**/*.py", "scripts/*.py")
    for path in sorted(ROOT.glob(pattern))
    if (imports := raagsplit_imports(path))
}


def test_all_is_sorted_unique_and_resolves():
    names = raagsplit.__all__
    assert names == sorted(set(names))
    missing = [name for name in names if not hasattr(raagsplit, name)]
    assert missing == []


def test_clients_are_found():
    # a glob that matched nothing, or a parser that missed every import, would pass vacuously
    assert {"bench/pipeline.py", "scripts/demo_decompositions.py", "scripts/verdict_sweep.py"} <= set(CLIENTS)


@pytest.mark.parametrize("client", CLIENTS)
def test_client_imports_resolve(client):
    unresolved, private_root = [], []
    for module, name in CLIENTS[client]:
        if not hasattr(importlib.import_module(module), name):
            unresolved.append(f"{module}.{name}")
        elif module == "raagsplit" and name not in raagsplit.__all__:
            private_root.append(name)
    assert unresolved == []
    assert private_root == []
