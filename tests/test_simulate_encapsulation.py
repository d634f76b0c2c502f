"""``repro.simulate`` drives the UE and radio layers only through their public interfaces.

Each tick decision has one owner: the entry conditions, the quiet
verdict and the PHY cadence live in :mod:`repro.ue`, the snapshot
physics in :mod:`repro.cellnet`.  A simulate module that reads another
object's underscore attribute would be deciding from state it does not
own, so any such access fails here.
"""

from __future__ import annotations

import ast
from pathlib import Path

import repro.simulate

SIMULATE_DIR = Path(repro.simulate.__file__).parent


def private_accesses(source: str) -> list[tuple[int, str]]:
    """(line, ``base._name``) of every underscore attribute read off a non-``self`` base."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute):
            continue
        name = node.attr
        if not name.startswith("_") or (name.startswith("__") and name.endswith("__")):
            continue
        if isinstance(node.value, ast.Name) and node.value.id == "self":
            continue
        found.append((node.lineno, f"{ast.unparse(node.value)}.{name}"))
    return found


def test_checker_flags_foreign_private_attributes():
    source = "x = lane.ue._listeners\nself._memo = 1\ny = obj.__class__\nz = f()._snap\n"
    assert private_accesses(source) == [(1, "lane.ue._listeners"), (4, "f()._snap")]


def test_simulate_reads_no_foreign_private_state():
    offenders = [
        f"{path.name}:{line}: {expr}"
        for path in sorted(SIMULATE_DIR.glob("*.py"))
        for line, expr in private_accesses(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
