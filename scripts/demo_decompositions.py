#!/usr/bin/env python3
"""Run the two showcase graphs through ``raag``: split, J0, J, check and J's DOT.

The star gives F3 x Z (a decomposition that is already reduced, all groups
cyclic); the two bridged triangles give the Z^3 *_Z Z^2 *_Z Z^3 amalgam after
collapsing.  Each graph is written to a file named after it in a temporary
directory; each command prints a ``$ raag ...`` line and then its own bytes,
and the script exits with the first non-zero status, so a failed check fails it.
"""

import sys
import tempfile
from pathlib import Path

from raagsplit.cli import main

FIXTURES = {
    "star (F3 x Z)": "c l1\nc l2\nc l3",
    "two bridged triangles": "a b\na c\nb c\nc d\nd e\nd f\ne f",
}
COMMANDS = (["split"], ["jsj", "--stage", "j0"], ["jsj"], ["check"], ["jsj", "--format", "dot"])

if __name__ == "__main__":
    codes = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in FIXTURES.items():
            path = Path(tmp, f"{name}.txt")
            path.write_text(text, encoding="utf-8")
            for command in COMMANDS:
                print(f"$ raag {' '.join(command)} '{path.name}'")
                codes.append(main([*command, str(path)]))
    sys.exit(next((code for code in codes if code), 0))
