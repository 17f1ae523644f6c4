"""The public surface that the benchmark and the scripts rely on.

Their files are parsed, not imported, so this holds without the benchmark's
own dependencies: every ``raagsplit`` name they import must resolve, and a
name they take from the package root must be public.  The package root loads
its submodules lazily; ``TestLazyRoot`` checks, each time in a new
interpreter, that this changes none of the names it exports.
"""

import ast
import importlib
import re
import subprocess
import sys
import types
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


def third_party_imports(path: Path) -> set[str]:
    """The top-level modules a file imports, anywhere in it, other than the stdlib's and the project's."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            found.add(node.module.partition(".")[0])
    return found - set(sys.stdlib_module_names) - {"raagsplit", "conftest"}


def test_test_imports_are_declared_in_the_test_extra():
    # a checkout set up from pyproject.toml's test extra must collect every test module
    tomllib = pytest.importorskip("tomllib")  # new in Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    extra = project["optional-dependencies"]["test"]
    declared = {re.match(r"[\w.-]+", req)[0].lower().replace("-", "_") for req in extra}
    imported = set().union(*map(third_party_imports, (ROOT / "tests").glob("*.py")))
    assert {"pytest", "hypothesis"} <= imported  # a parser that missed every import would pass vacuously
    assert sorted(imported - declared) == []


SRC = ROOT / "src"

# the parent of the lazy root exported exactly these
PUBLIC_NAMES = [
    "BlockTree", "CyclicGroup", "GoGEdge", "GoGVertex", "GraphError", "GraphOfGroups",
    "NonSplitCover", "ParseError", "Presentation", "RaagGroup", "SimplicialGraph",
    "SmallCaseWitness", "SplitReport", "ZSplitWitness", "abelianization", "amalgam_defects",
    "block_tree", "build_j0", "check_coverage", "check_euler", "clique_counts", "collapse_to_j",
    "connected_components", "cover_defects", "cut_vertices", "emit_presentation",
    "euler_characteristic", "is_biconnected", "is_reduced", "jsj", "nonsplit_cover",
    "parse_graph", "raag_presentation", "smith_normal_form", "splits_over_z",
    "two_edge_segments", "verify_cover", "z_split_witness",
]


def fresh(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that sees only src and the stdlib."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", f"import sys; sys.path.insert(0, {str(SRC)!r})\n{code}"],
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout


class TestLazyRoot:
    @pytest.mark.parametrize(
        "first",
        ["import raagsplit.presentations", "from raagsplit.decompositions import build_j0", "pass"],
    )
    def test_jsj_stays_the_function(self, first):
        code = f"{first}\nimport raagsplit, types\nprint(isinstance(raagsplit.jsj, types.FunctionType))"
        assert fresh(code) == "True\n"

    def test_package_is_a_plain_module(self):
        assert type(sys.modules["raagsplit"]) is types.ModuleType

    def test_no_submodule_shares_a_public_name(self):
        # the import system binds each loaded submodule on the package, over any such name
        assert set(raagsplit.__all__).isdisjoint(raagsplit._SUBMODULES)

    def test_star_import_binds_exactly_all(self):
        code = (
            "before = set(globals())\nfrom raagsplit import *\nimport raagsplit\n"
            "print(sorted(set(globals()) - before - {'before', 'raagsplit'}))\n"
            "print(raagsplit.__all__)"
        )
        bound, names = fresh(code).splitlines()
        assert bound == names == repr(PUBLIC_NAMES)

    def test_dir_lists_all(self):
        listed = fresh("import raagsplit\nprint(*dir(raagsplit))").split()
        assert {"__all__", *PUBLIC_NAMES} <= set(listed)

    def test_submodule_resolves_on_the_package(self):
        code = "import raagsplit\nprint(raagsplit.splitting.__name__, raagsplit.cli.__name__)"
        assert fresh(code) == "raagsplit.splitting raagsplit.cli\n"

    def test_certify_loads_only_graphs(self):
        # the checkers import no producer, so they share no code with what they check
        code = (
            "import raagsplit.certify\n"
            "print(*sorted(m for m in sys.modules if m == 'json' or m.partition('.')[0] == 'raagsplit'))"
        )
        assert fresh(code).split() == ["raagsplit", "raagsplit.certify", "raagsplit.graphs"]

    def test_each_name_is_defined_in_its_home(self):
        # a stale table entry, such as one naming a module that only re-exports the name, fails here
        strays = [
            name for name in raagsplit.__all__
            if getattr(raagsplit, name).__module__ != f"raagsplit.{raagsplit._HOME[name]}"
        ]
        assert strays == []

    def test_unknown_name_is_an_attribute_error(self):
        code = "import raagsplit\ntry:\n    raagsplit.nope\nexcept AttributeError as exc:\n    print(exc)"
        assert fresh(code) == "module 'raagsplit' has no attribute 'nope'\n"
