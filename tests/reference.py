"""Slow and obvious references that the tests hold sbgkit to.

Nothing in the package uses them.  ``models`` enumerates every assignment,
``root_fixpoint`` applies the propagation rule by rescanning every
constraint, and ``reference_verify`` replays a whole proof, checking each
``u`` step with ``root_fixpoint``.  They share no code with the solver's
search engine or the proof verifier's RUP checker, so a bug in one
propagator cannot make the solver, the checker and their tests agree
wrongly.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from sbgkit.encode import Assignment, LinearConstraint, Literal, PBFormula, evaluate, normalize
from sbgkit.graph import Graph
from sbgkit.proof import ProofStep, VerifyError, _replay_polish


def models(constraints: Sequence[LinearConstraint], n: int) -> set[tuple[int, ...]]:
    """The value tuples of the assignments to x1..xn that satisfy every
    constraint, found by trying all 2**n of them."""
    out = set()
    for values in itertools.product((0, 1), repeat=n):
        a = Assignment.total(values)
        if all(evaluate(c, a) for c in constraints):
            out.add(values)
    return out


def root_fixpoint(constraints: Sequence[LinearConstraint]) -> dict[int, int] | None:
    """What propagation alone forces from *constraints*, as ``{variable: value}``.

    None when it reaches a conflict.  This is the rule itself, applied by
    rescanning every constraint until nothing changes: a constraint's slack
    is the sum of its coefficients over literals that are not false, minus
    its degree.  Negative slack is a conflict; otherwise every free literal
    whose coefficient exceeds the slack is forced true.  The tests hold both
    _Search and proof.RupChecker to it.
    """
    forced: dict[int, int] = {}

    def is_false(lit: Literal) -> bool:
        return forced.get(lit.var) == (1 if lit.negated else 0)

    changed = True
    while changed:
        changed = False
        for c in constraints:
            slack = sum(coef for coef, lit in c.terms if not is_false(lit)) - c.degree
            if slack < 0:
                return None
            for coef, lit in c.terms:
                if coef > slack and lit.var not in forced:
                    forced[lit.var] = 0 if lit.negated else 1
                    changed = True
    return forced


def negation_of(c: LinearConstraint) -> LinearConstraint:
    """The constraint satisfied exactly when *c* is violated: the
    normaliser applied to "c's left side < its degree".  It is the rule the
    tests hold ``RupChecker.derive``'s swapped-bit negation to.
    """
    return normalize(c.terms, "<", c.degree)[0]


def reference_verify(f: PBFormula, steps: Iterable[ProofStep]) -> tuple[int, int]:
    """``(contradiction id, steps checked)`` for a proof that ``verify``
    accepts, or the VerifyError, at the same line and rule, that it raises.

    The live constraints are kept in a dict by id.  ``l`` and ``p`` steps
    are replayed as ``verify`` replays them, and a ``u`` step holds when
    ``root_fixpoint`` over every live constraint plus its negation is None.
    """
    live: dict[int, LinearConstraint] = {}
    ids = itertools.count(1)
    contradiction = None
    checked = 0
    line_no = 1
    for kind, line_no, arg in steps:
        checked += 1
        if kind == "load":
            if not 1 <= arg <= len(f.constraints):
                raise VerifyError(line_no, "l", f"no input constraint {arg}")
            live[next(ids)] = f.constraints[arg - 1]
        elif kind == "rup":
            if root_fixpoint([*live.values(), negation_of(arg)]) is not None:
                raise VerifyError(line_no, "u", f"'{arg}' does not follow by propagation")
            live[next(ids)] = arg
        elif kind == "polish":
            live[next(ids)] = _replay_polish(arg, live, line_no)
        elif kind == "contradiction":
            if arg not in live:
                raise VerifyError(line_no, "reference", f"no constraint {arg}")
            if not live[arg].contradiction:
                raise VerifyError(line_no, "c", f"'{live[arg]}' is not a contradiction")
            contradiction = arg
    if contradiction is None:
        raise VerifyError(line_no, "c", "no contradiction claim")
    return contradiction, checked


def example_graph() -> Graph:
    """Ten-node graph whose four hub nodes form an identifying code.

    Nodes v1..v4 are pairwise nonadjacent; each of v5..v10 is adjacent to a
    distinct pair of hubs, so the signatures under {v1..v4} are the four
    singletons plus all six pairs.
    """
    pairs = [
        (4, 0), (4, 1),
        (5, 0), (5, 2),
        (6, 0), (6, 3),
        (7, 1), (7, 2),
        (8, 1), (8, 3),
        (9, 2), (9, 3),
    ]
    return Graph(10, pairs)
