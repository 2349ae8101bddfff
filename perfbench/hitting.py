"""The benchmark's own reasoning about identifying codes, kept independent of
sbgkit's oracle and solver so that it can check their outputs.

A dominating identifying code of a twin-free graph is exactly a node set that
hits every closed neighbourhood and, for every pair of nodes whose closed
neighbourhoods meet (distance at most 2), their symmetric difference.  Farther
pairs are told apart by domination alone.  Everything here works on node
bitmasks built from a plain edge list.

Two searches live here: an exact counter of size-k hitting sets, which gives
the expected counts for the oracle workload, and a chronological DFS refuter
that writes a version-1.0 refutation for the proof workload.
"""

from __future__ import annotations

import hashlib
import math
import random

PROOF_HEADER = "pseudo-Boolean proof version 1.0"


def closed_masks(n: int, edges) -> list[int]:
    masks = [1 << v for v in range(n)]
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def mask_digest(masks) -> str:
    """Digest of a set of code bitmasks, independent of their order."""
    return hashlib.sha256(",".join(map(str, sorted(masks))).encode()).hexdigest()


def random_twin_free(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Edges of a G(n, p) sample with pairwise distinct closed neighbourhoods."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        if len(set(closed_masks(n, edges))) == n:
            return edges


def code_clauses(n: int, edges) -> list[int]:
    """Node sets every dominating identifying code must hit."""
    nb = closed_masks(n, edges)
    out = list(nb)
    for u in range(n):
        for v in range(u + 1, n):
            if nb[u] & nb[v]:
                out.append(nb[u] ^ nb[v])
    return out


def count_codes(clauses: list[int], n: int, k: int) -> int:
    """Number of k-subsets of range(n) that hit every clause mask.

    Branches on the members of a not-yet-hit clause with the fewest open
    nodes, "first chosen member is the i-th", so every subset is counted once.
    """
    full = (1 << n) - 1

    def rec(taken: int, banned: int, size: int) -> int:
        best = None
        best_open = n + 1
        for c in clauses:
            if c & taken:
                continue
            open_ = c & ~banned
            if not open_:
                return 0
            w = open_.bit_count()
            if w < best_open:
                best, best_open = open_, w
                if w == 1:
                    break
        if best is None:
            return math.comb((full & ~taken & ~banned).bit_count(), k - size)
        if size == k:
            return 0
        total = 0
        while best:
            low = best & -best
            best ^= low
            total += rec(taken | low, banned, size + 1)
            banned |= low
        return total

    return rec(0, 0, 0)


# -- refutation proofs ---------------------------------------------------------
#
# A clause is (pos, neg): bitmasks over variable indices 0..n-1 of its positive
# and negated literals.  Cardinality constraints are (mask, bound): at most
# bound of the variables in mask are true.  propagate() is unit propagation
# plus at-most propagation, which reaches a conflict exactly when counting
# propagation over the same constraints does.


def formula_constraints(f) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Split an encoded formula into clauses and at-most constraints."""
    clauses, at_most = [], []
    for c in f.constraints:
        if any(coef != 1 for coef, _ in c.terms):
            raise ValueError(f"unsupported constraint {c}")
        pos = neg = 0
        for _, lit in c.terms:
            if lit.negated:
                neg |= 1 << (lit.var - 1)
            else:
                pos |= 1 << (lit.var - 1)
        if c.degree == 1:
            clauses.append((pos, neg))
        elif pos == 0 and c.degree > 1:
            at_most.append((neg, neg.bit_count() - c.degree))
        else:
            raise ValueError(f"unsupported constraint {c}")
    return clauses, at_most


def propagate(clauses, at_most, true: int, false: int) -> tuple[int, int] | None:
    """Fixpoint of propagation from a partial assignment; None on conflict."""
    changed = True
    while changed:
        changed = False
        if true & false:
            return None
        for mask, bound in at_most:
            hit = (true & mask).bit_count()
            if hit > bound:
                return None
            if hit == bound and mask & ~true & ~false:
                false |= mask & ~true
                changed = True
        for pos, neg in clauses:
            if pos & true or neg & false:
                continue
            open_ = (pos | neg) & ~true & ~false
            if not open_:
                return None
            if open_ & (open_ - 1) == 0:
                if open_ & pos:
                    true |= open_
                else:
                    false |= open_
                changed = True
    return true, false


def refute(clauses, at_most) -> list[tuple[tuple[int, int], ...]] | None:
    """Decision prefixes of an exhausted DFS in post-order, or None if SAT.

    Each prefix is a tuple of (variable index, value).  The clause "not this
    prefix" is RUP with respect to the formula and all earlier prefixes: at a
    leaf propagation alone conflicts, and at an inner node the clauses of its
    two children propagate the branch variable both ways.
    """
    out: list[tuple[tuple[int, int], ...]] = []
    decisions: list[tuple[int, int]] = []

    def dfs(true: int, false: int) -> bool:
        state = propagate(clauses, at_most, true, false)
        if state is None:
            out.append(tuple(decisions))
            return True
        true, false = state
        best = 0
        best_open = None
        for pos, neg in clauses:
            if pos & true or neg & false:
                continue
            open_ = (pos | neg) & ~true & ~false
            if best_open is None or open_.bit_count() < best_open:
                best, best_open = open_, open_.bit_count()
        if best_open is None:
            return False  # every clause holds with the open variables false
        var = (best & -best).bit_length() - 1
        for value in (1, 0):
            decisions.append((var, value))
            refuted = dfs(true | (1 << var), false) if value else dfs(true, false | (1 << var))
            decisions.pop()
            if not refuted:
                return False
        out.append(tuple(decisions))
        return True

    return out if dfs(0, 0) else None


def _clause_of(prefix) -> tuple[int, int]:
    """"Not this prefix": negated literals for true decisions, plain for false."""
    pos = neg = 0
    for var, value in prefix:
        if value:
            neg |= 1 << var
        else:
            pos |= 1 << var
    return pos, neg


def _members(mask: int) -> list[int]:
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _clause_text(pos: int, neg: int) -> str:
    lits = [f"+1 ~x{v + 1}" for v in _members(neg)] + [f"+1 x{v + 1}" for v in _members(pos)]
    return "u " + " ".join(lits + [">= 1 ;"])


def proof_text(num_constraints: int, prefixes) -> str:
    """Load every input constraint, assert each prefix clause, claim the last."""
    lines = [PROOF_HEADER]
    lines += [f"l {i}" for i in range(1, num_constraints + 1)]
    lines += [_clause_text(*_clause_of(p)) for p in prefixes]
    lines.append(f"c {num_constraints + len(prefixes)} 0")
    return "\n".join(lines) + "\n"


def late_mutation(clauses, at_most, prefixes) -> tuple[int, tuple[int, int]]:
    """A late u step and a strengthening of it that is not RUP at that point.

    Walks the steps from the end and tries, for each, the unit clause on each
    of its literals and then the empty clause; returns (step index, clause)
    for the first candidate propagation cannot refute.
    """
    db = clauses + [_clause_of(p) for p in prefixes]
    for i in range(len(prefixes) - 1, -1, -1):
        pos, neg = _clause_of(prefixes[i])
        earlier = db[: len(clauses) + i]
        units = [(1 << v, 0) for v in _members(pos)] + [(0, 1 << v) for v in _members(neg)]
        for cand_pos, cand_neg in units + [(0, 0)]:
            # RUP fails when assuming the clause false (its negated literals
            # true, its plain ones false) propagates without conflict.
            if propagate(earlier, at_most, cand_neg, cand_pos) is not None:
                return i, (cand_pos, cand_neg)
    raise ValueError("no non-RUP strengthening found")


def mutated_proof_text(num_constraints: int, prefixes, step: int, clause) -> tuple[str, int]:
    """Proof text with u step *step* replaced by *clause*, and that line's number."""
    lines = proof_text(num_constraints, prefixes).splitlines()
    line_index = 1 + num_constraints + step
    lines[line_index] = _clause_text(*clause)
    return "\n".join(lines) + "\n", line_index + 1
