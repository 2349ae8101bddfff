"""First-order mutation testing of chosen functions, outside the test suite.

    python tools/mutate.py WORKDIR src/sbgkit/oracle.py count_ics _hit_words \
        --tests tests/test_oracle.py

WORKDIR must be a directory outside the checkout; src/, tests/ and what the
tests read besides (demos/ and README.md) are copied into WORKDIR/tree and
each mutant of the module is written there, so the checkout itself is never
changed.  Each mutant changes one site in one of the named functions (a
nested function or method by its dotted name):

- a comparison swapped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``is`` and ``is not``, ``in`` and ``not in``;
- an arithmetic or bitwise operator swapped, in an expression or an
  augmented assignment: ``+`` and ``-``, ``|`` and ``&``, ``<<`` and ``>>``;
- ``and`` and ``or`` swapped;
- an integer constant plus 1.

For each mutant ``pytest -x -q`` runs the given tests (by default all of
tests/), for at most TIMEOUT_FACTOR times as long as they took on the
unmutated module, which runs first.  A mutant the tests fail on, or time
out on, is killed.  One they pass is equivalent when EQUIVALENT lists it,
with the reason no test can tell it from the original, and survived
otherwise: a gap in the tests.  A site is shown as its statement, with
``#i`` after it when the function holds i earlier sites that read
the same.  The exit code is 1 when a mutant survived, 2 when the
unmutated tests already fail.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_FACTOR = 10  # a mutant's tests may take this many times the unmutated run

# the condition of parse_constraint_tokens' shortcut past the relation scan
_FAST_SHAPE = (
    "not (k >= 0 and tokens[k] in _RELATIONS and (tokens[-1] not in _RELATIONS) "
    "and _RELATIONS.isdisjoint(tokens[:k]))"
)

# (module, function, original, occurrence, mutant, reason), each site as
# printed: the mutants no test can kill, because they behave as the original
EQUIVALENT = [
    ("src/sbgkit/oracle.py", "_survivors", "batch, size = ([], 0)", 1, "batch, size = ([], 1)",
     "the reset after a flush, whose leaf is appended next: size counts one "
     "mask too many, so later batches flush one mask early, still hold 1 to "
     "_CHUNK masks and lose none"),
    ("src/sbgkit/oracle.py", "count_ics",
     "good = sig[:, :1].all(axis=1) & (sig[:, 1:] != sig[:, :-1]).all(axis=1)", 0,
     "good = sig[:, :2].all(axis=1) & (sig[:, 1:] != sig[:, :-1]).all(axis=1)",
     "each row is sorted, so its second signature is nonzero whenever its first is"),
    ("src/sbgkit/graph.py", "parse_edge_list", "line = raw.split('#', 1)[0].strip()", 0,
     "line = raw.split('#', 2)[0].strip()",
     "the text before the first '#' is the same whatever the later splits"),
    ("src/sbgkit/graph.py", "parse_edge_list",
     "raise EdgeListError(line_no, f'self-loop at {parts[0]!r}')", 0,
     "raise EdgeListError(line_no, f'self-loop at {parts[1]!r}')",
     "a self-loop line names one node twice: u == v only when parts[0] == parts[1]"),
    ("src/sbgkit/solve.py", "_Search.bound", "low = m & -m", 0, "low = m | -m",
     "m | -m is minus the lowest bit, of the same bit_length; the drop then also "
     "reads occ of the negated literals up to just above the pick's, and no "
     "packable clause holds a negated literal"),
    ("src/sbgkit/solve.py", "_Search.pick_branch",
     "fewest.append((count, (smallest & -smallest).bit_length() - 1))", 0,
     "fewest.append((count, (smallest | -smallest).bit_length() - 1))",
     "smallest | -smallest is minus its lowest bit, and bit_length ignores the sign"),
    ("src/sbgkit/proof.py", "RupChecker._propagate", "slack >= groups[0][0]", 0,
     "slack > groups[0][0]",
     "at slack equal to the largest coefficient no coefficient exceeds the slack, "
     "so the loop that follows forces nothing"),
    ("src/sbgkit/encode.py", "parse_constraint_tokens", _FAST_SHAPE, 0,
     _FAST_SHAPE.replace("k >= 0", "k > 0"),
     "a line of two tokens is then scanned, which finds its one relation at k = 0 too"),
    ("src/sbgkit/encode.py", "parse_constraint_tokens", _FAST_SHAPE, 0,
     _FAST_SHAPE.replace("k >= 0", "k >= 1"),
     "a line of two tokens is then scanned, which finds its one relation at k = 0 too"),
    ("src/sbgkit/encode.py", "parse_constraint_tokens", _FAST_SHAPE, 0,
     _FAST_SHAPE.replace("tokens[-1] not", "tokens[-2] not"),
     "tokens[-2] is tokens[k], a relation, so every line is scanned, and the scan "
     "finds the one relation wherever the shortcut would"),
]

_SWAPS = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
    ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.BitOr: ast.BitAnd,
    ast.BitAnd: ast.BitOr, ast.LShift: ast.RShift, ast.RShift: ast.LShift,
    ast.And: ast.Or, ast.Or: ast.And,
}


def _functions(tree: ast.Module):
    """Every function and method of *tree* by dotted name."""
    found = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    found[name] = child
                walk(child, name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return found


def _mutations(node) -> list:
    """One callable per mutation of *node* alone, each mutating it in place."""
    if isinstance(node, ast.Compare):
        return [
            lambda i=i: node.ops.__setitem__(i, _SWAPS[type(node.ops[i])]())
            for i, op in enumerate(node.ops)
            if type(op) in _SWAPS
        ]
    if isinstance(node, (ast.BinOp, ast.AugAssign, ast.BoolOp)) and type(node.op) in _SWAPS:
        return [lambda: setattr(node, "op", _SWAPS[type(node.op)]())]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [lambda: setattr(node, "value", node.value + 1)]
    return []


def _annotations(func):
    for node in ast.walk(func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            yield node.annotation


def _site(func, node):
    """What a mutant of *node* is shown as: its simple statement, or the
    whole expression it lies in when that heads a compound statement."""
    parents = {c: p for p in ast.walk(func) for c in ast.iter_child_nodes(p)}
    while not isinstance(node, ast.stmt) and not isinstance(
        parents[node], (ast.stmt, ast.excepthandler)
    ):
        node = parents[node]
    parent = parents.get(node)
    if not isinstance(node, ast.stmt) and not hasattr(parent, "body"):
        return parent
    return node


def _occurrence(func, site) -> int:
    """How many nodes of *func* before *site*, in source order, read as it
    does, so that two identical statements are told apart."""
    text = ast.unparse(site)
    return sum(
        1
        for node in ast.walk(func)
        if type(node) is type(site)
        and (node.lineno, node.col_offset) < (site.lineno, site.col_offset)
        and ast.unparse(node) == text
    )


def mutants(source: str, names: list[str]):
    """``(function, original, occurrence, mutated, module source)`` per
    mutant.  Each mutant is made on a fresh parse, its node found again by
    its position in ast.walk order of the function."""
    funcs = _functions(ast.parse(source))
    missing = [name for name in names if name not in funcs]
    if missing:
        raise SystemExit(f"no such function: {', '.join(missing)}")
    for name in names:
        annotations = {id(n) for a in _annotations(funcs[name]) for n in ast.walk(a)}
        for index, node in enumerate(ast.walk(funcs[name])):
            if id(node) in annotations:
                continue  # not evaluated under postponed annotations
            for nth in range(len(_mutations(node))):
                fresh = ast.parse(source)
                func = _functions(fresh)[name]
                target = list(ast.walk(func))[index]
                site = _site(func, target)
                original = ast.unparse(site)
                occurrence = _occurrence(func, site)
                _mutations(target)[nth]()
                yield name, original, occurrence, ast.unparse(site), ast.unparse(fresh)


def run_tests(tree: Path, tests: list[str], timeout: float | None = None) -> str:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return "timeout"
    return "pass" if done.returncode == 0 else "fail"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workdir", type=Path)
    ap.add_argument("module", help="path of the module, relative to the checkout")
    ap.add_argument("functions", nargs="+")
    ap.add_argument("--tests", nargs="+", default=["tests"])
    args = ap.parse_args(argv)

    workdir = args.workdir.resolve()
    if workdir == ROOT or ROOT in workdir.parents:
        raise SystemExit("the work directory must lie outside the checkout")
    tree = workdir / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    for part in ("src", "tests", "demos"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "README.md", tree)
    target = tree / args.module
    source = (ROOT / args.module).read_text()

    start = time.perf_counter()
    if run_tests(tree, args.tests) != "pass":
        print("the unmutated tests do not pass", file=sys.stderr)
        return 2
    timeout = TIMEOUT_FACTOR * (time.perf_counter() - start)
    equivalent = {entry[:5] for entry in EQUIVALENT}
    tally = Counter()
    try:
        for name, original, nth, mutated, text in mutants(source, args.functions):
            target.write_text(text)
            outcome = run_tests(tree, args.tests, timeout)
            if outcome != "pass":
                status = "killed"
            elif (args.module, name, original, nth, mutated) in equivalent:
                status = "equivalent"
            else:
                status = "SURVIVED"
            tally[status] += 1
            tally["timeout"] += outcome == "timeout"
            site = f"{original} #{nth}" if nth else original
            extra = " (timeout)" if outcome == "timeout" else ""
            print(f"{status:10} {name}: {site}  ->  {mutated}{extra}", flush=True)
    finally:
        target.write_text(source)
    print(f"killed {tally['killed']} ({tally['timeout']} by timeout), "
          f"survived {tally['SURVIVED']}, "
          f"equivalent {tally['equivalent']}")
    return 1 if tally["SURVIVED"] else 0


if __name__ == "__main__":
    sys.exit(main())
