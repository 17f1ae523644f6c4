"""The library's records: immutable NamedTuples, imported without ``dataclasses``."""

import subprocess
import sys
from pathlib import Path

import pytest

from raagsplit import (
    BlockTree,
    CyclicGroup,
    GoGEdge,
    GoGVertex,
    GraphOfGroups,
    NonSplitCover,
    Presentation,
    RaagGroup,
    SmallCaseWitness,
    SplitReport,
    ZSplitWitness,
    parse_graph,
)

SRC = Path(__file__).resolve().parents[1] / "src"

_VERTEX = GoGVertex(id="blk0", color="white", group=RaagGroup(("a", "b")), block=("a", "b"))
_LOOP = GoGEdge(
    id="e0", ends=("blk0", "blk0"), group=CyclicGroup("a"), inclusions=("a", "a"), stable_letter="b"
)

RECORDS = [
    BlockTree(black=(), white=(("blk0", ("a", "b")),)),
    RaagGroup(("a", "b")),
    CyclicGroup("a"),
    _VERTEX,
    _LOOP,
    GraphOfGroups(vertices=(_VERTEX,), edges=(_LOOP,), source=parse_graph("a b")),
    Presentation(generators=("a", "b"), relators=()),
    ZSplitWitness(side1=("a", "b"), side2=("b", "c"), vertex="b"),
    NonSplitCover({}),
    SmallCaseWitness("Z"),
    SplitReport(free_split=False, z_split="no", witness=SmallCaseWitness("Z")),
]


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = None  # no instance dict either


def test_cli_import_leaves_out_dataclasses():
    # -S keeps site-packages (and any .pth hooks) out, so only src and the stdlib load
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import raagsplit.cli; "
        "print('dataclasses' in sys.modules)"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)], capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"
