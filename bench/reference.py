"""Reference semantics for checking sclsat's outputs, written without sclsat.

Formulas are nested tuples:

    ("T",)  ("F",)  ("a", name)  ("!", x)  ("&", x, y)  ("|", x, y)

A trace is a tuple of (atom, value) pairs: the atoms a left-sequential
short-circuit evaluation inspects, with the value each returned.  The trace
set of a formula, with the truth value each trace ends in, is exactly the set
of root-to-leaf paths of its evaluation tree, so every answer, witness, tree
and normal form the program prints can be checked against it.

Every walk here uses an explicit stack, so the deep inputs the benchmark
feeds the program never make the checker itself hit the recursion limit.
"""

from __future__ import annotations

import re

TRUE = ("T",)
FALSE = ("F",)


def atom(name):
    return ("a", name)


def neg(x):
    return ("!", x)


def disj(x, y):
    return ("|", x, y)


def chain(op, items):
    """Left-nested chain, as the parser reads ``x op y op z``."""
    items = list(items)
    out = items[0]
    for item in items[1:]:
        out = (op, out, item)
    return out


# --- text ---------------------------------------------------------------------

def to_text(f) -> str:
    """Fully parenthesised text in sclsat's grammar."""
    out: list[str] = []
    stack: list = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, str):
            out.append(node)
        elif node[0] == "T" or node[0] == "F":
            out.append(node[0])
        elif node[0] == "a":
            out.append(node[1])
        elif node[0] == "!":
            stack.append(node[1])
            stack.append("!")
        else:
            sep = " && " if node[0] == "&" else " || "
            stack.extend((")", node[2], sep, node[1], "("))
    return "".join(out)


_TOKEN = re.compile(r"\s*(&&|\|\||!|\(|\)|[A-Za-z_][A-Za-z0-9_]*)")
_PREC = {"|": 1, "&": 2}


def parse(text: str):
    """Shunting-yard parser: '!' binds tighter than '&&', which binds tighter
    than '||'; both binary operators associate to the left."""
    tokens = []
    pos = 0
    text = text.rstrip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad formula text at {pos}")
        tokens.append(m.group(1))
        pos = m.end()
    operands: list = []
    ops: list[str] = []  # "!", "&", "|", "("

    def reduce_top() -> None:
        op = ops.pop()
        if op == "!":
            operands.append(neg(operands.pop()))
        else:
            right = operands.pop()
            operands.append((op, operands.pop(), right))

    expect_operand = True
    for tok in tokens:
        if expect_operand:
            if tok == "!" or tok == "(":
                ops.append(tok)
            elif tok in ("&&", "||", ")"):
                raise ValueError(f"unexpected {tok!r}")
            else:
                operands.append(TRUE if tok == "T" else FALSE if tok == "F" else atom(tok))
                while ops and ops[-1] == "!":
                    reduce_top()
                expect_operand = False
        elif tok == ")":
            while ops and ops[-1] != "(":
                reduce_top()
            if not ops:
                raise ValueError("unbalanced ')'")
            ops.pop()
            while ops and ops[-1] == "!":
                reduce_top()
        elif tok in ("&&", "||"):
            op = "&" if tok == "&&" else "|"
            while ops and ops[-1] in _PREC and _PREC[ops[-1]] >= _PREC[op]:
                reduce_top()
            ops.append(op)
            expect_operand = True
        else:
            raise ValueError(f"unexpected {tok!r}")
    if expect_operand:
        raise ValueError("formula ends early")
    while ops:
        if ops[-1] == "(":
            raise ValueError("unbalanced '('")
        reduce_top()
    if len(operands) != 1:
        raise ValueError("malformed formula")
    return operands[0]


def node_count(f) -> int:
    count = 0
    stack = [f]
    while stack:
        node = stack.pop()
        count += 1
        stack.extend(node[1:] if node[0] in "!&|" else ())
    return count


# --- traces -----------------------------------------------------------------

def traces(f) -> list[tuple[tuple, bool]]:
    """Every short-circuit trace of f with the value it ends in."""
    results: list = []
    stack: list = [(False, f)]
    while stack:
        built, node = stack.pop()
        kind = node[0]
        if kind == "T" or kind == "F":
            results.append([((), kind == "T")])
        elif kind == "a":
            results.append([(((node[1], True),), True), (((node[1], False),), False)])
        elif not built:
            stack.append((True, node))
            stack.extend((False, child) for child in reversed(node[1:]))
        elif kind == "!":
            results.append([(p, not v) for p, v in results.pop()])
        else:
            right = results.pop()
            left = results.pop()
            go_on = kind == "&"  # the left value that evaluates the right operand
            out = [(p, v) for p, v in left if v != go_on]
            out += [(p + q, w) for p, v in left if v == go_on for q, w in right]
            results.append(out)
    return results[0]


def is_repetition_proof(p) -> bool:
    return all(a != b or v == w for (a, v), (b, w) in zip(p, p[1:]))


def is_memorizing(p) -> bool:
    seen: dict = {}
    return all(seen.setdefault(a, v) == v for a, v in p)


DISCIPLINES = {
    "free": lambda p: True,
    "repetition-proof": is_repetition_proof,
    "memorizing": is_memorizing,
}

LOGIC_DISCIPLINE = {
    "FSCL": "free",
    "RPSCL": "repetition-proof",
    "CSCL": "repetition-proof",
    "MSCL": "memorizing",
    "SSCL": "memorizing",
}


def decide(trace_set, logic: str) -> bool:
    ok = DISCIPLINES[LOGIC_DISCIPLINE[logic]]
    return any(v and ok(p) for p, v in trace_set)


def replay(f, path):
    """Evaluate f along path: the value it ends in when path is exactly one
    of its traces, else None."""
    index = 0
    frames: list = []  # None for a negation, (continue_on, right) for a binary
    node = f
    while True:
        while node[0] in "!&|":
            frames.append(None if node[0] == "!" else (node[0] == "&", node[2]))
            node = node[1]
        if node[0] == "a":
            if index >= len(path) or path[index][0] != node[1]:
                return None
            value = path[index][1]
            index += 1
        else:
            value = node[0] == "T"
        while frames:
            frame = frames.pop()
            if frame is None:
                value = not value
            elif value == frame[0]:
                node = frame[1]
                break
        else:
            return value if index == len(path) else None


def check_witness(f, path, logic: str) -> bool:
    return replay(f, path) is True and DISCIPLINES[LOGIC_DISCIPLINE[logic]](path)


# --- printed paths and trees ------------------------------------------------

_PATH_ENTRY = re.compile(r"\(([A-Za-z_][A-Za-z0-9_]*),([TF])\)")


def parse_path(text: str) -> tuple:
    text = text.strip()
    if not (text.startswith("[") and text.endswith("]")):
        raise ValueError(f"not a path: {text[:40]!r}")
    body = text[1:-1]
    entries = tuple((m.group(1), m.group(2) == "T") for m in _PATH_ENTRY.finditer(body))
    if ",".join(f"({a},{'T' if v else 'F'})" for a, v in entries) != body:
        raise ValueError(f"malformed path: {text[:40]!r}")
    return entries


def path_text(p) -> str:
    return "[" + ",".join(f"({a},{'T' if v else 'F'})" for a, v in p) + "]"


def tree_traces(root) -> list[tuple[tuple, bool]]:
    """Root-to-leaf paths of a tree of ("L", value) / ("B", left, atom, right)."""
    out = []
    stack = [(root, ())]
    while stack:
        node, prefix = stack.pop()
        if node[0] == "L":
            out.append((prefix, node[1]))
        else:
            stack.append((node[3], prefix + ((node[2], False),)))
            stack.append((node[1], prefix + ((node[2], True),)))
    return out


_TREE_TOKEN = re.compile(r"\s*(\(|\)|<|>|[A-Za-z_][A-Za-z0-9_]*)")


def parse_tree_text(text: str):
    """Reads ``(F < b > T) < a > F``: a leaf, or left < atom > right with
    parenthesised branch operands."""
    frames: list[list] = [[]]
    pos = 0
    text = text.rstrip()
    pending_atom = False
    while pos < len(text):
        m = _TREE_TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad tree text at {pos}")
        tok = m.group(1)
        pos = m.end()
        frame = frames[-1]
        if pending_atom:
            if tok in ("(", ")", "<", ">", "T", "F") or len(frame) != 1:
                raise ValueError("expected an atom after '<'")
            frame.append(tok)
            pending_atom = False
        elif tok == "<":
            pending_atom = True
        elif tok == ">":
            if len(frame) != 2:
                raise ValueError("misplaced '>'")
        elif tok == "(":
            frames.append([])
        elif tok == ")":
            if len(frames) < 2:
                raise ValueError("unbalanced ')'")
            item = _close_frame(frames.pop())
            _add_item(frames[-1], item)
        elif tok in ("T", "F"):
            _add_item(frame, ("L", tok == "T"))
        else:
            raise ValueError(f"unexpected {tok!r}")
    if len(frames) != 1 or pending_atom:
        raise ValueError("unbalanced tree text")
    return _close_frame(frames[0])


def _add_item(frame: list, item) -> None:
    if len(frame) not in (0, 2):
        raise ValueError("missing operator in tree text")
    frame.append(item)


def _close_frame(frame: list):
    if len(frame) == 1:
        return frame[0]
    if len(frame) == 3:
        return ("B", frame[0], frame[1], frame[2])
    raise ValueError("incomplete tree text")


_DOT_NODE = re.compile(r'\s*n(\d+) \[shape=(box|ellipse), label="([^"]*)"\];')
_DOT_EDGE = re.compile(r'\s*n(\d+) -> n(\d+) \[label="([TF])"\];')


def parse_dot(text: str):
    """The tree a DOT digraph of atom ellipses and T/F boxes describes."""
    lines = text.strip().splitlines()
    if not lines or not lines[0].startswith("digraph") or lines[-1].strip() != "}":
        raise ValueError("not a DOT digraph")
    labels: dict[int, tuple[str, str]] = {}
    edges: dict[int, dict[str, int]] = {}
    targets: set[int] = set()
    for line in lines[1:-1]:
        if m := _DOT_NODE.fullmatch(line):
            labels[int(m.group(1))] = (m.group(2), m.group(3))
        elif m := _DOT_EDGE.fullmatch(line):
            src, dst = int(m.group(1)), int(m.group(2))
            if m.group(3) in edges.setdefault(src, {}) or dst in targets:
                raise ValueError("DOT graph is not a tree")
            edges[src][m.group(3)] = dst
            targets.add(dst)
        else:
            raise ValueError(f"unexpected DOT line {line[:40]!r}")
    roots = set(labels) - targets
    if len(roots) != 1 or not targets <= set(labels):
        raise ValueError("DOT graph is not a rooted tree")
    built: dict[int, tuple] = {}
    stack = [(False, roots.pop())]
    root_id = stack[0][1]
    while stack:
        done, nid = stack.pop()
        shape, label = labels[nid]
        if shape == "box":
            if nid in edges or label not in ("T", "F"):
                raise ValueError("bad DOT leaf")
            built[nid] = ("L", label == "T")
        elif not done:
            out = edges.get(nid, {})
            if set(out) != {"T", "F"}:
                raise ValueError("DOT branch needs one T and one F edge")
            stack.append((True, nid))
            stack.extend((False, out[k]) for k in ("T", "F"))
        else:
            built[nid] = ("B", built[edges[nid]["T"]], label, built[edges[nid]["F"]])
    if len(built) != len(labels):
        raise ValueError("DOT graph has unreachable nodes")
    return built[root_id]


# --- CNF ----------------------------------------------------------------------
# A clause is a list of non-zero ints: v for atom v true, -v for atom v false.

def cnf_formula(clauses, names):
    """(l || l || l) && (...) && ..., left-nested like the parser reads it."""
    def lit(x):
        return atom(names[x]) if x > 0 else neg(atom(names[-x]))
    return chain("&", [chain("|", [lit(x) for x in clause]) for clause in clauses])


def cnf_text(clauses, names) -> str:
    return " && ".join(
        "(" + " || ".join(("" if x > 0 else "!") + names[abs(x)] for x in clause) + ")"
        for clause in clauses
    )


def cnf_satisfied(clauses, names, sigma: dict) -> bool:
    return all(any(sigma.get(names[abs(x)]) == (x > 0) for x in clause) for clause in clauses)


def cnf_repetition_proof_sat(clauses, names) -> bool:
    """Whether the CNF formula has a repetition-proof true trace.  A true
    trace falsifies a prefix of each clause's literals and then satisfies the
    next; adjacency only couples the last entry of one clause's segment to
    the first of the next, so a pass over the clauses that keeps the set of
    possible last entries decides it."""
    lasts: set | None = None  # None: nothing inspected yet
    for clause in clauses:
        new: set = set()
        for j, x in enumerate(clause):
            seg = [(names[abs(y)], y < 0) for y in clause[:j]] + [(names[abs(x)], x > 0)]
            if not is_repetition_proof(seg):
                continue
            first = seg[0]
            if lasts is None or any(a != first[0] or v == first[1] for a, v in lasts):
                new.add(seg[-1])
        if not new:
            return False
        lasts = new
    return True


def dpll(clauses, num_vars: int) -> dict | None:
    """Plain DPLL over the clause list: unit propagation, then branch on the
    variable occurring most often in the shortest open clauses."""
    def simplify(cls, lit):
        out = []
        for clause in cls:
            if lit in clause:
                continue
            reduced = [x for x in clause if x != -lit]
            if not reduced:
                return None
            out.append(reduced)
        return out

    stack = [(list(map(list, clauses)), {})]
    while stack:
        cls, sigma = stack.pop()
        while cls is not None:
            unit = next((c[0] for c in cls if len(c) == 1), None)
            if unit is None:
                break
            sigma = {**sigma, abs(unit): unit > 0}
            cls = simplify(cls, unit)
        if cls is None:
            continue
        if not cls:
            return sigma
        shortest = min(len(c) for c in cls)
        counts: dict[int, int] = {}
        for c in cls:
            if len(c) == shortest:
                for x in c:
                    counts[x] = counts.get(x, 0) + 1
        lit = max(counts, key=lambda x: (counts[x], -abs(x), x))
        for choice in (-lit, lit):  # lit is tried first
            reduced = simplify(cls, choice)
            if reduced is not None:
                stack.append((reduced, {**sigma, abs(choice): choice > 0}))
    return None


def pigeonhole(holes: int):
    """holes + 1 pigeons in holes holes: unsatisfiable by counting."""
    pigeons = holes + 1
    var = {(i, j): i * holes + j + 1 for i in range(pigeons) for j in range(holes)}
    clauses = [[var[i, j] for j in range(holes)] for i in range(pigeons)]
    for j in range(holes):
        for i in range(pigeons):
            for k in range(i + 1, pigeons):
                clauses.append([-var[i, j], -var[k, j]])
    names = {v: f"p{i}h{j}" for (i, j), v in var.items()}
    return clauses, names
