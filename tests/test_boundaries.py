"""The trust boundaries between sbgkit's routes, read from the source.

The oracle must share nothing with the solver or the verifier, and the
verifier may take only its RUP checker from solve.py, so that a bug in the
solver's search engine cannot make two routes agree wrongly.  The RUP
checker in turn uses neither the solver's engine nor the counting engine
that the tests hold it to.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sbgkit"


def _tree(name):
    return ast.parse((SRC / name).read_text(), filename=name)


def _imports(name):
    """(sbgkit module, imported name) for each import of an sbgkit module.

    ``from .solve import X`` gives ``("solve", "X")``; ``from . import solve``
    and ``import sbgkit.solve`` give ``("solve", None)``.
    """
    out = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "sbgkit" and not module.startswith("sbgkit."):
                    continue
                module = module[len("sbgkit"):].lstrip(".")
            for alias in node.names:
                if module:
                    out.add((module, alias.name))
                else:
                    out.add((alias.name, None))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sbgkit."):
                    out.add((alias.name[len("sbgkit."):], None))
    return out


def _names(node):
    """Every identifier under *node*: names, attributes and imported names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


def _class(name, cls):
    """The definition of class *cls* in module file *name*."""
    (node,) = (
        n for n in ast.walk(_tree(name)) if isinstance(n, ast.ClassDef) and n.name == cls
    )
    return node


def test_the_oracle_imports_nothing_from_solver_encoder_or_verifier():
    modules = {module.split(".")[0] for module, _ in _imports("oracle.py")}
    assert modules, "oracle.py imports graph and ics"
    assert not modules & {"solve", "encode", "proof"}


def test_the_verifier_takes_only_the_rup_checker_from_solve():
    assert {name for module, name in _imports("proof.py") if module == "solve"} == {
        "RupChecker"
    }


def test_only_solve_names_the_search_engine():
    users = sorted(p.name for p in SRC.glob("*.py") if "_Search" in _names(_tree(p.name)))
    assert users == ["solve.py"]


def test_the_rup_checker_uses_neither_the_search_nor_the_reference_engine():
    assert not _names(_class("solve.py", "RupChecker")) & {"_Search", "_Engine"}


def test_the_search_engine_does_not_use_the_rup_checker():
    assert "RupChecker" not in _names(_class("solve.py", "_Search"))
