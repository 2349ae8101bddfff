"""Complete pseudo-Boolean decision procedure and all-solutions enumeration.

The solver is a chronological backtracking search without clause learning;
instance sizes targeted here (tens of variables) do not need it.  Its engine,
_Search, keeps the assignment as literal bitmasks and each constraint as its
degree plus one literal mask per coefficient, so a constraint's slack, the
largest left-hand side still reachable minus the degree, is a few popcounts.
Negative slack is a conflict; every unassigned literal whose coefficient
exceeds the slack is forced true, all of them in one trail entry.  A trail
entry keeps the assignment from before it, so an undo restores a snapshot.

When a decision or a flip propagates without a conflict, a packing bound
may still refute the node; the root is not checked.  It applies to every at-most
constraint, ``sum ~x >= degree`` with coefficients 1, whose slack is how many
more of its variables may become true: unsatisfied clauses of plain literals
over those variables with pairwise disjoint free literals each need one of
them, so more such clauses than slack is a conflict.  The clauses are picked
greedily, fewest free literals first.  This is the standard lower bound of
hitting-set search.  When exactly slack clauses are picked, they use up the
slack, so every other free variable of the at-most constraint is fixed false
in one trail entry (the "limit lower bound" of covering search); propagation
and the bound then run again until a conflict or nothing new is fixed.  The
two cut the SBG budget-9 refutation from 21,755 decisions to 300.  Each
bound conflict and each fixing is one cutting-planes sum, the at-most
constraint plus the packed clauses, from which propagation derives the
conflict or the fixed literals.  A formula without at-most constraints never
runs it.

Branching picks an unsatisfied constraint with the fewest unassigned
literals and, within it, the literal whose variable appears in the most
unsatisfied constraints, assigning the value that makes the literal true.
Enumeration runs a single search tree: each model found is excluded by
attaching its blocking constraint on the fly and treating the model as a
conflict, so the total work is one refutation of the fully blocked formula.

The proof verifier's reverse-unit-propagation checker, proof.RupChecker,
shares no code with that engine.  root_fixpoint is the propagation rule
itself, applied by rescanning every constraint until nothing changes, kept
slow and obvious.  It is the reference the tests hold both _Search and
RupChecker to, so that a bug in one propagator cannot make the solver and
the checker agree wrongly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .encode import (
    Assignment,
    EncodeError,
    LinearConstraint,
    Literal,
    PBFormula,
    blocking_constraint,
)

DEFAULT_NODE_LIMIT = 10_000_000


class _StopSearch(Exception):
    pass


class SolveError(RuntimeError):
    pass


class SolveLimitReached(SolveError):
    """The decision-node cap was hit; the instance status is unknown."""

    def __init__(self, limit: int, stats: SolveStats):
        super().__init__(f"node limit {limit} reached (inconclusive)")
        self.limit = limit
        self.stats = stats


@dataclass
class SolveStats:
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    bound_conflicts: int = 0  # the part of conflicts the packing bound found
    bound_fixings: int = 0  # trail entries in which the packing bound fixed variables false


@dataclass(frozen=True)
class SolveResult:
    status: str  # "SAT" | "UNSAT"
    witness: Assignment | None
    stats: SolveStats

    @property
    def is_sat(self) -> bool:
        return self.status == "SAT"


class _Search:
    """The solver's search state on literal bitmasks, and its branching.

    Literal ``2 * v + negated`` is bit ``2 * v + negated`` of a literal mask.
    The assignment is three ints: ``false`` holds the false literals,
    ``assigned`` both literals of each assigned variable, and ``sat`` the
    constraints that one true literal satisfies alone.  A constraint is its
    degree and ``[(coef, literal mask)]``, largest coefficient first; one
    whose coefficients all reach its degree is kept as the clause
    ``[(1, mask)]`` of degree 1.  Constraints are indexed in attachment
    order, and bit ``ci`` of a constraint mask stands for constraint ``ci``.
    A trail entry is the mask of the literals it made true plus the three
    ints before it, so an undo restores a snapshot.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.even = sum(1 << 2 * v for v in range(num_vars))  # the plain literals
        self.false = self.assigned = self.sat = 0
        self.trail: list[tuple[int, int, int, int]] = []
        self.head = 0  # trail entries before head have been propagated
        self.stats = SolveStats()
        self.cons: list[tuple[int, list[tuple[int, int]]]] = []  # (degree, groups)
        self.lits: list[list[int]] = []  # literals in term order, for branching
        self.mask: list[int] = []  # the constraint's literals
        self.summed: list[int] = []  # indices of the constraints that are not clauses
        self.occ = [0] * (2 * num_vars)  # the constraints containing a literal
        self.sat_by = [0] * (2 * num_vars)  # the constraints a literal satisfies alone
        self.clauses = 0  # the clauses with coefficients 1, which at-most constraints pack
        self.at_most: list[tuple[int, int]] = []  # (index, plain literals of its variables)
        self.packable: list[int] = []  # per at-most constraint: the clauses over its variables
        # Constraints attached with slack below their largest coefficient,
        # such as a blocking clause at a model: an undo can leave them
        # forcing or falsified without any of their literals falling.
        self.recheck: list[int] = []

    def add_constraint(self, c: LinearConstraint) -> None:
        """Attach *c* under the current assignment; propagate checks it next."""
        if c.trivially_true:
            return
        ci = len(self.cons)
        bit = 1 << ci
        lits = [2 * (lit.var - 1) + lit.negated for _, lit in c.terms]
        mask = satisfying = 0
        by_coef: dict[int, int] = {}
        for (coef, _), l in zip(c.terms, lits):
            mask |= 1 << l
            by_coef[coef] = by_coef.get(coef, 0) | 1 << l
            self.occ[l] |= bit
            if coef >= c.degree:
                satisfying |= 1 << l
                self.sat_by[l] |= bit
        if satisfying == mask:
            self.cons.append((1, [(1, mask)]))
            if c.degree == 1 and by_coef.keys() == {1}:
                self.clauses |= bit
                for i, (_, plain) in enumerate(self.at_most):
                    if not mask & ~plain:
                        self.packable[i] |= bit
        else:
            self.cons.append((c.degree, sorted(by_coef.items(), reverse=True)))
            self.summed.append(ci)
            if by_coef.keys() == {1} and not mask & self.even:
                plain = mask >> 1
                packable = 0
                rest = self.clauses
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if not self.mask[low.bit_length() - 1] & ~plain:
                        packable |= low
                self.at_most.append((ci, plain))
                self.packable.append(packable)
        self.lits.append(lits)
        self.mask.append(mask)
        # sat follows from the assignment, also in the trail's snapshots
        trail = self.trail
        for i, (made, false, assigned, sat) in enumerate(trail):
            if satisfying & assigned & ~false:
                trail[i] = (made, false, assigned, sat | bit)
        if satisfying & self.assigned & ~self.false:
            self.sat |= bit
        if self._tight(ci):
            self.recheck.append(ci)

    def value(self, v: int) -> int:
        """1 or 0 for an assigned variable, -1 for a free one."""
        if not self.assigned >> 2 * v & 1:
            return -1
        return 0 if self.false >> 2 * v & 1 else 1

    def assign(self, v: int, b: int) -> None:
        self._make_true(1 << 2 * v + 1 - b)

    def _make_true(self, lits: int) -> None:
        """Make the free literals in *lits* true in one trail entry."""
        self.trail.append((lits, self.false, self.assigned, self.sat))
        both = ((lits | lits >> 1) & self.even) * 3
        self.assigned |= both
        self.false |= both ^ lits
        sat, sat_by = self.sat, self.sat_by
        while lits:
            low = lits & -lits
            lits ^= low
            sat |= sat_by[low.bit_length() - 1]
        self.sat = sat

    def undo(self, mark: int) -> None:
        """Restore the assignment from before trail entry *mark*."""
        if mark < len(self.trail):
            _, self.false, self.assigned, self.sat = self.trail[mark]
            del self.trail[mark:]
        self.head = min(self.head, mark)
        self.recheck = [ci for ci in self.recheck if self._tight(ci)]

    def _tight(self, ci: int) -> bool:
        """True while *ci* may force or conflict.

        That is while its slack, the largest left-hand side still reachable
        minus the degree, is below its largest coefficient.  An undo only
        raises the slack.
        """
        degree, groups = self.cons[ci]
        open_ = ~self.false
        slack = sum(coef * (m & open_).bit_count() for coef, m in groups) - degree
        return slack < groups[0][0]

    def _force(self, ci: int) -> bool:
        """Force what constraint *ci* implies; False on a conflict."""
        degree, groups = self.cons[ci]
        open_ = ~self.false
        if degree == 1:  # a clause
            nf = groups[0][1] & open_
            if nf & (nf - 1) or nf & self.assigned:
                return True
            if not nf:
                self.stats.conflicts += 1
                return False
            self._make_true(nf)
            self.stats.propagations += 1
            return True
        slack = -degree
        for coef, m in groups:
            slack += coef * (m & open_).bit_count()
        if slack < 0:
            self.stats.conflicts += 1
            return False
        forced = 0
        for coef, m in groups:
            if coef <= slack:
                break
            forced |= m
        forced &= ~self.assigned
        if forced:
            self._make_true(forced)
            self.stats.propagations += forced.bit_count()
        return True

    def _recheck(self) -> bool:
        """Propagate the constraints on the recheck list; False on a conflict.

        A constraint stays on the list while it is tight.
        """
        pending, self.recheck = self.recheck, []
        for i, ci in enumerate(pending):
            if not self._force(ci):
                self.recheck += pending[i:]
                return False
            if self._tight(ci):
                self.recheck.append(ci)
        return True

    def propagate(self) -> bool:
        """Propagate the unprocessed trail to fixpoint; False on a conflict.

        Each trail entry is one batch: the constraints on the literals it
        made false, minus those already satisfied, in index order.
        """
        if self.recheck and not self._recheck():
            return False
        trail, occ = self.trail, self.occ
        while self.head < len(trail):
            made = trail[self.head][0]
            self.head += 1
            touched = 0
            while made:
                low = made & -made
                made ^= low
                touched |= occ[low.bit_length() - 1 ^ 1]
            touched &= ~self.sat
            while touched:
                low = touched & -touched
                touched ^= low
                if not self._force(low.bit_length() - 1):
                    return False
        return True

    def bound(self) -> tuple[tuple[int, ...], int]:
        """The packing bound at a propagation fixpoint: (indices used, literals fixed).

        An at-most constraint ``sum ~x >= degree`` over variables S has slack
        ``popcount(its literals & ~false) - degree``: how many more of S may
        become true.  Every unsatisfied clause of plain literals over S needs
        one of its free variables made true, so clauses with pairwise
        disjoint free literals each use up one unit of slack.  The clauses
        are packed greedily, fewest free literals first (on ties, the lowest
        free-literal mask, then the lowest index).  More picks than slack is
        a conflict.  Exactly slack picks use up the budget, so every free
        variable of S outside the picks' free literals must be false: those
        are fixed false in one trail entry and the bound returns, since the
        next at-most constraint needs the fixing propagated first.
        ``used`` is the at-most constraint's index followed by the picks';
        their sum is a constraint that propagation refutes under the current
        assignment on a conflict, and that forces the fixed literals on a
        fixing, so either is one cutting-planes step.  ``fixed`` is the mask
        of literals made true, 0 on a conflict.  Returns ((), 0) when the
        bound does not fire.
        """
        free = ~self.assigned
        open_ = ~self.sat
        mask, cons = self.mask, self.cons
        for (ai, plain), packable in zip(self.at_most, self.packable):
            degree, [(_, lits)] = cons[ai]
            slack = (lits & ~self.false).bit_count() - degree
            rest = packable & open_
            # each unsatisfied clause has two free literals at a fixpoint, so
            # slack picks leave nothing outside them when S has <= 2 * slack
            if rest.bit_count() < slack or (plain & free).bit_count() <= 2 * slack:
                continue
            found = []
            while rest:
                low = rest & -rest
                rest ^= low
                ci = low.bit_length() - 1
                m = mask[ci] & free
                found.append((m.bit_count(), m, ci))
            found.sort()
            used = 0
            picked = [ai]
            for _, m, ci in found:
                if not m & used:
                    used |= m
                    picked.append(ci)
                    if len(picked) > slack + 1:
                        self.stats.conflicts += 1
                        self.stats.bound_conflicts += 1
                        return tuple(picked), 0
            outside = plain & free & ~used
            if len(picked) == slack + 1 and outside:
                self._make_true(outside << 1)
                self.stats.bound_fixings += 1
                return tuple(picked), outside << 1
        return (), 0

    def _refuted(self) -> bool:
        """Propagate and run the packing bound until it fixes nothing new;
        True on a conflict."""
        while self.propagate():
            if not self.at_most:
                return False
            used, fixed = self.bound()
            if not fixed:
                return bool(used)
        return True

    def pick_branch(self) -> tuple[int, bool] | None:
        """Branch literal, or None when every constraint is satisfied.

        The unsatisfied constraint with the fewest unassigned literals
        (lowest index on ties), and in it the unassigned variable in the
        most unsatisfied constraints (first in term order on ties).  At a
        propagation fixpoint every unsatisfied constraint has at least two
        unassigned literals, so the scan stops at the first with two.
        """
        unsat = ((1 << len(self.cons)) - 1) & ~self.sat
        true = self.assigned & ~self.false
        cons = self.cons
        for ci in self.summed:
            if unsat >> ci & 1:
                need, groups = cons[ci]
                for coef, m in groups:
                    need -= coef * (m & true).bit_count()
                if need <= 0:
                    unsat ^= 1 << ci
        if not unsat:
            return None
        mask = self.mask
        free = ~self.assigned
        best_ci = -1
        best_k = 1 << 30
        rest = unsat
        while rest:
            low = rest & -rest
            rest ^= low
            ci = low.bit_length() - 1
            k = (mask[ci] & free).bit_count()
            if k < best_k:
                best_ci, best_k = ci, k
                if k == 2:
                    break
        occ = self.occ
        best = None
        best_score = -1
        for l in self.lits[best_ci]:
            if free >> l & 1:
                score = ((occ[l] | occ[l ^ 1]) & unsat).bit_count()
                if score > best_score:
                    best_score = score
                    best = (l >> 1, bool(l & 1))
        return best

    def search(self, node_limit: int, on_model, split_vars: tuple[int, ...] = ()) -> None:
        """Exhaust the space, calling on_model for each model found.

        When every constraint is satisfied but some variable in *split_vars*
        is still unassigned, the search splits on it instead of reporting, so
        reported models are total over split_vars (free variables outside it
        are completed with 0).  on_model may attach new constraints, e.g. a
        blocking constraint; after it returns the model is treated as a
        conflict.  Raises SolveLimitReached when the decision cap is hit.
        """
        if not self.propagate():
            return
        dec_stack: list[tuple[int, int, bool, bool]] = []
        conflict = False
        while True:
            if not conflict:
                branch = self.pick_branch()
                if branch is None:
                    for v in split_vars:
                        if self.value(v) == -1:
                            branch = (v, False)
                            break
                if branch is None:
                    model = [max(self.value(v), 0) for v in range(self.num_vars)]
                    on_model(model)
                    conflict = True
                    continue
                if self.stats.decisions >= node_limit:
                    raise SolveLimitReached(node_limit, self.stats)
                v, negated = branch
                self.stats.decisions += 1
                dec_stack.append((len(self.trail), v, negated, False))
                self.assign(v, 0 if negated else 1)
                conflict = self._refuted()
            else:
                if not dec_stack:
                    return
                tlen, v, negated, flipped = dec_stack.pop()
                self.undo(tlen)
                if not flipped:
                    dec_stack.append((tlen, v, negated, True))
                    self.assign(v, 1 if negated else 0)
                    conflict = self._refuted()


def _search_for(f: PBFormula) -> _Search:
    eng = _Search(f.num_vars)
    for c in f.constraints:
        eng.add_constraint(c)
    return eng


def solve(f: PBFormula, node_limit: int = DEFAULT_NODE_LIMIT) -> SolveResult:
    """Decide satisfiability; a SAT witness is rechecked before returning.

    Raises SolveLimitReached when the decision cap is exceeded, which is an
    inconclusive outcome distinct from UNSAT.
    """
    eng = _search_for(f)
    found: list[Assignment] = []

    def on_model(model: list[int]) -> None:
        found.append(Assignment.total(model))
        raise _StopSearch

    try:
        eng.search(node_limit, on_model)
    except _StopSearch:
        witness = found[0]
        if not f.satisfied_by(witness):
            raise SolveError("internal error: witness fails recheck")
        return SolveResult("SAT", witness, eng.stats)
    return SolveResult("UNSAT", None, eng.stats)


def enumerate_all(
    f: PBFormula,
    projection: list[int] | None = None,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> list[Assignment]:
    """All satisfying assignments of *f*, projected onto *projection*.

    Each model found is excluded by a blocking constraint over the projection
    variables and the search continues until unsatisfiable, so the result is
    exactly one assignment per distinct projection.  Every full model is
    validated against the original formula before being reported.  A
    projection that repeats a variable or leaves 1..num_vars raises
    EncodeError.
    """
    proj = tuple(projection) if projection is not None else tuple(
        range(1, f.num_vars + 1)
    )
    if len(set(proj)) != len(proj):
        raise EncodeError("projection variables must be distinct")
    for var in proj:
        if not 1 <= var <= f.num_vars:
            raise EncodeError(f"projection variable x{var} out of range")
    eng = _search_for(f)
    full_models: list[Assignment] = []

    def on_model(model: list[int]) -> None:
        a = Assignment.total(model)
        full_models.append(a)
        eng.add_constraint(blocking_constraint(a, proj))

    eng.search(node_limit, on_model, split_vars=tuple(v - 1 for v in proj))
    out = []
    seen = set()
    for a in full_models:
        if not f.satisfied_by(a):
            raise SolveError("internal error: recorded model fails recheck")
        projected = a.restrict(proj)
        if projected.values in seen:
            raise SolveError("internal error: duplicate projected model")
        seen.add(projected.values)
        out.append(projected)
    return out


# -- the propagation rule, for the tests ---------------------------------------


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
