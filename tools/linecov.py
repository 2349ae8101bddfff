"""Statement coverage of src/sbgkit under the test suite, outside the suite.

    python tools/linecov.py [PYTEST ARGS ...]

runs pytest in this process (on tests/ when no argument is given) under
sys.settrace and threading.settrace, and prints each statement of
src/sbgkit that never ran, as ``path:line: statement``.  A statement ran
when a line event fired on one of its lines; for a compound statement only
its header counts (``if x:``, ``for ...:``, ``def ...:``).  Statements with
no bytecode (docstrings, ``global``) are not counted, nor a line marked
``pragma: no cover``, with the block it opens.

Tests that run sbgkit in a subprocess (test_startup, test_demos) are not
traced, so what only they run is listed as never run.  Tracing makes the
suite several times slower: about 5 times on a 2-vCPU host.  Nothing is
written into the checkout: no bytecode and no pytest cache.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sbgkit"
PRAGMA = "pragma: no cover"


def _code_lines(code) -> set[int]:
    """The lines that hold bytecode in *code* and the code nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _excluded(source_lines: list[str]) -> set[int]:
    """Lines marked with PRAGMA, and the lines of a block a marked line opens."""
    out = set()
    for i, text in enumerate(source_lines):
        if PRAGMA not in text:
            continue
        out.add(i + 1)
        if text.split("#", 1)[0].rstrip().endswith(":"):
            indent = len(text) - len(text.lstrip())
            for j in range(i + 1, len(source_lines)):
                body = source_lines[j]
                if body.strip() and len(body) - len(body.lstrip()) <= indent:
                    break
                out.add(j + 1)
    return out


def statements(path: Path) -> list[tuple[int, range]]:
    """``(first line, lines whose events count)`` per executable statement."""
    source = path.read_text()
    code = _code_lines(compile(source, str(path), "exec"))
    excluded = _excluded(source.splitlines())
    out = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if body else node.end_lineno
        span = range(first, last + 1)
        if code.intersection(span) and first not in excluded:
            out.append((first, span))
    return sorted(out)


def main(argv: list[str]) -> int:
    sys.dont_write_bytecode = True
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    files = {str(p): p for p in sorted(PACKAGE.glob("*.py"))}
    ran: dict[str, set[int]] = {name: set() for name in files}

    def tracer(frame, event, arg):
        hits = ran.get(frame.f_code.co_filename)
        if hits is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return local

        return local

    import pytest

    os.chdir(ROOT)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", *(argv or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for name, path in files.items():
        source_lines = path.read_text().splitlines()
        for first, span in statements(path):
            if ran[name].isdisjoint(span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{first}: {source_lines[first - 1].strip()}")
    print(f"{missed} statements never ran; subprocess tests are not traced")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
