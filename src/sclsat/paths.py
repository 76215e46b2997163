"""Valuation paths, the result relation on evaluation trees, path disciplines,
contraction, and norms.

A valuation path is a finite sequence of (atom, value) pairs.  Applying a path
to an evaluation tree descends left on (a, True) and right on (a, False); the
result is the leaf value when the path matches the tree exactly, and undefined
(None) on atom mismatch or when the path is too short or too long.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Iterator, Optional

from .eval_tree import Branch, EvalTree, Leaf
from .formula_core import is_valid_atom

PathEntry = tuple[str, bool]
ValuationPath = tuple[PathEntry, ...]

EMPTY_PATH: ValuationPath = ()


class PathDiscipline(Enum):
    FREE = "free"
    REPETITION_PROOF = "repetition-proof"
    MEMORIZING = "memorizing"


def result(p: ValuationPath, t: EvalTree) -> Optional[bool]:
    """The result of p on t, or None when undefined."""
    node = t
    for atom, value in p:
        if not isinstance(node, Branch) or node.atom != atom:
            return None
        node = node.left if value else node.right
    if isinstance(node, Leaf):
        return node.value
    return None


def is_repetition_proof(p: ValuationPath) -> bool:
    """Adjacent entries with the same atom must carry the same value."""
    for (atom, value), (next_atom, next_value) in zip(p, p[1:]):
        if atom == next_atom and value != next_value:
            return False
    return True


def is_memorizing(p: ValuationPath) -> bool:
    """Every occurrence of an atom must carry the same value."""
    bindings: dict[str, bool] = {}
    for atom, value in p:
        if bindings.setdefault(atom, value) != value:
            return False
    return True


def check_discipline(discipline: PathDiscipline, p: ValuationPath) -> bool:
    if discipline is PathDiscipline.FREE:
        return True
    if discipline is PathDiscipline.REPETITION_PROOF:
        return is_repetition_proof(p)
    return is_memorizing(p)


def contract(p: ValuationPath) -> ValuationPath:
    """Collapse each run of adjacent entries sharing an atom to its first entry."""
    out: list[PathEntry] = []
    for entry in p:
        if not out or out[-1][0] != entry[0]:
            out.append(entry)
    return tuple(out)


def norm(kind: str, p: ValuationPath) -> int:
    """Path norms: 'length' -> |p|, 'contraction' -> |cn(p)|, 'trivial' -> 0."""
    if kind == "length":
        return len(p)
    if kind == "contraction":
        return len(contract(p))
    if kind == "trivial":
        return 0
    raise ValueError(f"unknown norm kind: {kind!r}")


def enumerate_paths(t: EvalTree) -> Iterator[tuple[ValuationPath, bool]]:
    """All root-to-leaf traces of t with their leaf values, true branch first."""
    stack: list[tuple[EvalTree, tuple[PathEntry, ...]]] = [(t, ())]
    while stack:
        node, prefix = stack.pop()
        if isinstance(node, Leaf):
            yield prefix, node.value
        else:
            stack.append((node.right, prefix + ((node.atom, False),)))
            stack.append((node.left, prefix + ((node.atom, True),)))


def render_path(p: ValuationPath) -> str:
    """Text form ``[(a,T),(b,F)]``; the empty path renders as ``[]``."""
    inner = ",".join(f"({atom},{'T' if value else 'F'})" for atom, value in p)
    return f"[{inner}]"


class PathParseError(ValueError):
    pass


# One entry and the comma after it, if any, each with the whitespace after it.
_PATH_ENTRY_RE = re.compile(r"\(\s*([A-Za-z_][A-Za-z0-9_]*)\s*,\s*([TF])\s*\)\s*(?:(,)\s*)?")


def parse_path(text: str) -> ValuationPath:
    """Inverse of render_path.  Error positions count from the start of text."""
    stripped = text.strip()
    if not (stripped.startswith("[") and stripped.endswith("]")):
        raise PathParseError("path must be enclosed in [ ]")
    start, stop = text.index("["), text.rindex("]")
    rest = text[start + 1:stop].lstrip()
    if not rest:
        return EMPTY_PATH
    entries: list[PathEntry] = []
    pos = stop - len(rest)
    while True:
        match = _PATH_ENTRY_RE.match(text, pos, stop)
        if match is None:
            raise PathParseError(f"malformed path entry at position {pos}")
        atom = match.group(1)
        if not is_valid_atom(atom):
            raise PathParseError(f"invalid atom {atom!r}")
        entries.append((atom, match.group(2) == "T"))
        pos = match.end()
        if match.group(3) is None:
            if pos < stop:
                raise PathParseError(f"expected ',' at position {pos}")
            return tuple(entries)
