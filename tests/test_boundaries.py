"""The trust boundaries between sbgkit's routes, read from the source.

The oracle must share nothing with the solver or the verifier, and the
verifier, RUP checker included, takes only the data model and OPB parsing
from encode.py, so that a bug in the solver's search engine cannot make two
routes agree wrongly.  The solver in turn uses nothing of the verifier.
Only the oracle names numpy, and only inside its functions, so the solver
and the verifier run without it.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "sbgkit"


def _tree(name, appended=""):
    return ast.parse((SRC / name).read_text() + appended, filename=name)


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


def _modules(name):
    return {module.split(".")[0] for module, _ in _imports(name)}


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
    """The definition of class *cls* in module file *name*, or None."""
    found = [n for n in ast.walk(_tree(name)) if isinstance(n, ast.ClassDef) and n.name == cls]
    assert len(found) <= 1, (name, cls)
    return found[0] if found else None


def test_the_oracle_imports_nothing_from_solver_encoder_or_verifier():
    assert _modules("oracle.py") == {"graph"}


def test_the_verifier_imports_only_from_encode():
    assert _modules("proof.py") == {"encode"}


def test_the_verifier_reads_tokens_only_through_encodes_readers():
    # proof.py reads integer and literal tokens through encode's cached
    # readers and never names the regexes behind them
    regexes = {"_INT_RE", "_VAR_RE"}
    assert not _names(_tree("proof.py")) & regexes
    for injected in ("from .encode import _VAR_RE\n", "from . import encode\nencode._INT_RE\n"):
        assert _names(_tree("proof.py", injected)) & regexes


def test_the_verifier_takes_only_the_rup_checker_from_solve():
    # the RUP checker, once the one thing proof.py took from solve.py, now
    # lives in proof.py itself, so the verifier takes nothing from solve
    assert _class("proof.py", "RupChecker") is not None
    assert _class("solve.py", "RupChecker") is None
    assert not {name for module, name in _imports("proof.py") if module == "solve"}


def test_the_rup_checker_uses_neither_the_search_nor_the_reference_engine():
    names = _names(_class("proof.py", "RupChecker"))
    assert not names & {"solve", "_Search", "root_fixpoint"}


def test_the_solver_imports_nothing_from_the_verifier():
    assert "proof" not in _modules("solve.py")


def test_only_solve_names_the_search_engine():
    users = sorted(p.name for p in SRC.glob("*.py") if "_Search" in _names(_tree(p.name)))
    assert users == ["solve.py"]


def _numpy_mentions(tree):
    """The nodes of *tree* that import numpy or name ``numpy`` or ``np``."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        elif isinstance(node, ast.Name):
            modules = [node.id]
        elif isinstance(node, ast.Attribute):
            modules = [node.attr]
        else:
            continue
        if any(m in ("numpy", "np") or m.startswith("numpy.") for m in modules):
            out.append(node)
    return out


def _outside_function_bodies(tree):
    """The numpy mentions of *tree* that do not lie in a function body."""
    inside = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inside.update(id(sub) for stmt in node.body for sub in ast.walk(stmt))
    return [node for node in _numpy_mentions(tree) if id(node) not in inside]


def test_only_the_oracle_names_numpy_and_only_inside_functions():
    # importing sbgkit loads no numpy: the solver and proof routes run
    # without it, and the oracle imports it on its first call
    users = sorted(p.name for p in SRC.glob("*.py") if _numpy_mentions(_tree(p.name)))
    assert users == ["oracle.py"]
    assert not _outside_function_bodies(_tree("oracle.py"))
    for injected in (
        "import numpy as np\n",
        "from numpy import uint64\n",
        "def f(words: np.ndarray):\n    pass\n",
        "_ONE = np.uint64(1)\n",
    ):
        assert _outside_function_bodies(_tree("oracle.py", injected)), injected
