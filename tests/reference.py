"""Slow and obvious references that the tests hold sbgkit to.

Nothing in the package uses them.  ``models`` enumerates every assignment,
``root_fixpoint`` applies the propagation rule by rescanning every
constraint, and ``reference_verify`` replays a whole proof, checking each
``u`` step with ``root_fixpoint``.  They share no code with the solver's
search engine or the proof verifier's RUP checker, so a bug in one
propagator cannot make the solver, the checker and their tests agree
wrongly.

``truncated_icosahedron_faces`` builds the soccer ball graph from the
icosahedron's coordinates, and ``isomorphisms`` maps one graph onto
another, so the hand-written SBG table is held to geometry rather than to
counts that many graphs share.  ``implied_by_definition`` checks one
encoded constraint against the definition of an identifying code, without
the encoder.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Sequence

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


def truncated_icosahedron_faces() -> Graph:
    """The face graph of the truncated icosahedron: 12 pentagons (nodes
    0..11) and 20 hexagons (nodes 12..31), adjacent when the faces share an
    edge.

    Truncation turns each vertex of the icosahedron into a pentagon and each
    triangle into a hexagon.  The vertices are the cyclic permutations of
    (0, +-1, +-phi), adjacent at squared distance 4; a pentagon meets a
    hexagon when its vertex lies on the triangle, and two hexagons meet
    when their triangles share an edge.
    """
    phi = (1 + 5 ** 0.5) / 2
    verts = [
        base[r:] + base[:r]
        for a, b in itertools.product((1, -1), repeat=2)
        for base in [(0, a, b * phi)]
        for r in range(3)
    ]
    edges = {
        (i, j) for i, j in itertools.combinations(range(12), 2)
        if round(sum((x - y) ** 2 for x, y in zip(verts[i], verts[j]))) == 4
    }
    triangles = [
        t for t in itertools.combinations(range(12), 3)
        if all(pair in edges for pair in itertools.combinations(t, 2))
    ]
    out = [(v, 12 + h) for h, t in enumerate(triangles) for v in t]
    out += [
        (12 + h, 12 + i)
        for (h, s), (i, t) in itertools.combinations(enumerate(triangles), 2)
        if len(set(s) & set(t)) == 2
    ]
    return Graph(12 + len(triangles), out)


def isomorphisms(g: Graph, h: Graph) -> Iterator[tuple[int, ...]]:
    """Every isomorphism of *g* onto *h*, as the tuple of the images of g's
    nodes.

    A backtracking search over adjacency bitmasks: g's nodes are mapped in
    breadth-first order, each to an unused node of h of the same degree
    that is adjacent to exactly the images of its mapped neighbours.
    """
    n = g.n
    if h.n != n:
        return
    order: list[int] = []
    for start in range(n):
        if start not in order:
            order.append(start)
            for u in order:  # read as it grows, so breadth-first
                order += [v for v in range(n) if g.neighbors(u) >> v & 1 and v not in order]
    image = [-1] * n

    def extend(i: int, used: int) -> Iterator[tuple[int, ...]]:
        if i == n:
            yield tuple(image)
            return
        u = order[i]
        cand = sum(1 << w for w in range(n) if h.degree(w) == g.degree(u)) & ~used
        for x in order[:i]:
            near = h.neighbors(image[x])
            cand &= near if g.neighbors(u) >> x & 1 else ~near
        for w in range(n):
            if cand >> w & 1:
                image[u] = w
                yield from extend(i + 1, used | 1 << w)

    yield from extend(0, 0)


def implied_by_definition(
    g: Graph, c: LinearConstraint, budget: int, exact: bool = False
) -> bool:
    """True when *c*, over x1..xn for g's nodes 0..n-1, holds for every
    identifying code of *g* of size at most *budget* (exactly *budget* when
    *exact* is set), by one of three rules read off the definition.

    A clause of plain literals over a node set S holds when S contains
    some N[v] (every node is dominated) or some N[u] ^ N[v] with u != v
    (every pair is separated).  "At most budget" holds as
    ``sum ~x >= n - budget`` over all n variables, and "at least budget",
    its plain mirror, only when *exact* is set.  Anything else is rejected.
    """
    n = g.n
    terms = {(coef, lit.var, lit.negated) for coef, lit in c.terms}
    if terms == {(1, v, True) for v in range(1, n + 1)}:
        return c.degree == n - budget
    if terms == {(1, v, False) for v in range(1, n + 1)} and c.degree == budget:
        return exact
    if c.degree != 1 or any(coef != 1 or negated for coef, _, negated in terms):
        return False
    outside = ~sum(1 << var - 1 for _, var, _ in terms)
    nb = [g.closed_neighborhood(v) for v in range(n)]
    must_hit = nb + [nb[u] ^ nb[v] for u, v in itertools.combinations(range(n), 2)]
    return any(not m & outside for m in must_hit)
