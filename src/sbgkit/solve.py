"""Complete pseudo-Boolean decision procedure and all-solutions enumeration.

The solver is a chronological backtracking search without clause learning;
instance sizes targeted here (tens of variables) do not need it.  Its engine,
_Search, keeps the assignment as literal bitmasks and each constraint as its
degree plus one literal mask per coefficient, so a constraint's slack, the
largest left-hand side still reachable minus the degree, is a few popcounts.
Negative slack is a conflict; every unassigned literal whose coefficient
exceeds the slack is forced true, all of them in one trail entry.  A trail
entry keeps the assignment from before it, so an undo restores a snapshot.

Clauses, the constraints that any one true literal satisfies, are not
rescanned: each keeps its count of unassigned variables, bit-sliced over
constraint masks (bit i of every clause's count in one int), which each
assignment decrements and each trail entry snapshots.  A few mask operations
then give the open clauses of the least count: count 0 is a conflict, and
every clause of count 1 is a unit, all of them forced in one trail entry.
The packing bound takes its clauses one count at a time from the same
slices, and branching takes the lowest clause of the least count.  A clause
attached mid-search, such as a blocking clause, gets its count in every
snapshot on the trail as well.  The few summed constraints, the rest, are
forced from their slack in every round of propagation, which ends when a
round forces nothing, so an undo or an attachment needs no bookkeeping.

When a decision or a flip propagates without a conflict, a packing bound
may still refute the node; the root is not checked.  It applies to every at-most
constraint, ``sum ~x >= degree`` with coefficients 1, whose slack is how many
more of its variables may become true: unsatisfied clauses of plain literals
over those variables with pairwise disjoint free literals each need one of
them, so more such clauses than slack is a conflict.  The clauses are picked
greedily, fewest free literals first, and each pick drops every clause it
meets.  This is the standard lower bound of hitting-set search.  Every
clause with coefficients 1 over the variables is packable: one containing
another open clause is picked only in place of that one, with the same
free literals, since the smaller sorts no later and a pick that meets the
smaller meets the larger.  When exactly slack clauses are picked, they use up the slack, so
every other free variable of the at-most constraint is fixed false in one
trail entry (the "limit lower bound" of covering search); propagation and
the bound then run again until a conflict or nothing new is fixed.  The
two cut the SBG budget-9 refutation from 21,755 decisions to 300.  Each
bound conflict and each fixing is one cutting-planes sum, the at-most
constraint plus the packed clauses, from which propagation derives the
conflict or the fixed literals.

Branching picks an unsatisfied constraint with the fewest unassigned
literals and, within it, the literal whose variable appears in the most
unsatisfied constraints, assigning the value that makes the literal true.
Enumeration runs a single search tree: the search yields each model, the
caller attaches the model's blocking constraint before it asks for the
next, and the search resumes by treating the model as a conflict, so the
total work is one refutation of the fully blocked formula.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .encode import (
    Assignment,
    EncodeError,
    LinearConstraint,
    PBFormula,
    blocking_constraint,
)

DEFAULT_NODE_LIMIT = 10_000_000


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
    constraints that one true literal satisfies alone.  Constraints are
    indexed in attachment order, and bit ``ci`` of a constraint mask stands
    for constraint ``ci``.  A clause, a constraint whose coefficients all
    reach its degree, is its literal mask alone; the others, the summed
    constraints, also keep their degree and ``[(coef, literal mask)]``,
    largest coefficient first, in ``summed``.

    Each clause's count of unassigned variables is kept bit-sliced in
    ``cnt``, a list of constraint masks: bit ``ci`` of ``cnt[i]`` is bit
    ``i`` of clause ``ci``'s count, and there are as many slices as the
    longest clause's length needs.  ``_make_true`` decrements the counts of
    the clauses on each variable it assigns.  So ``_smallest`` finds the
    open clauses of the least count with one mask operation per slice:
    propagation reads conflicts (count 0) and units (count 1) from it, the
    packing bound takes its clauses one count at a time, and branching
    takes the lowest clause of the least count.  Summed constraints are
    propagated one by one from their slack.

    A trail entry is the mask of the literals it made true plus ``false``,
    ``assigned``, ``sat`` and ``cnt`` from before it, so an undo restores a
    snapshot.  A constraint attached mid-search patches every snapshot: its
    ``sat`` bit where a true literal satisfies it, and a clause its count,
    with a zero slice added to each when the clause is longer than the
    slices can count.
    """

    def __init__(self, num_vars: int):
        self.num_vars = num_vars
        self.even = ((1 << 2 * num_vars) - 1) // 3  # the plain literals
        self.false = self.assigned = self.sat = 0
        self.cnt: list[int] = []  # the clauses' counts of unassigned variables, bit-sliced
        self.trail: list[tuple[int, int, int, int, list[int]]] = []
        self.stats = SolveStats()
        self.lits: list[list[int]] = []  # literals in term order, for branching
        self.mask: list[int] = []  # the constraint's literals
        # the constraints that are not clauses, by index: (degree, groups)
        self.summed: dict[int, tuple[int, list[tuple[int, int]]]] = {}
        self.clause_form = 0  # the constraints that are clauses
        self.occ = [0] * (2 * num_vars)  # the constraints containing a literal
        self.sat_by = [0] * (2 * num_vars)  # the constraints a literal satisfies alone
        self.on_var = [0] * num_vars  # the clauses containing a variable
        self.clauses = 0  # the clauses with coefficients 1, which at-most constraints pack
        self.at_most: list[tuple[int, int]] = []  # (index, plain literals of its variables)
        # per at-most constraint: the clauses with coefficients 1 over its variables
        self.packable: list[int] = []

    def add_constraint(self, c: LinearConstraint) -> None:
        """Attach *c* under the current assignment; propagate checks it next."""
        if c.trivially_true:
            return
        ci = len(self.mask)
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
        self.lits.append(lits)
        self.mask.append(mask)
        clause = satisfying == mask
        if clause:
            self.clause_form |= bit
            for l in lits:
                self.on_var[l >> 1] |= bit
            if c.degree == 1 and by_coef.keys() == {1}:
                self.clauses |= bit
                for i, (_, plain) in enumerate(self.at_most):
                    if not mask & ~plain:
                        self.packable[i] |= bit
        else:
            self.summed[ci] = (c.degree, sorted(by_coef.items(), reverse=True))
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
        # sat and the clause's count follow from the assignment, also in the
        # trail's snapshots
        pad = [0] * (len(lits).bit_length() - len(self.cnt)) if clause else []
        for i, (made, false, assigned, sat, cnt) in enumerate(self.trail):
            if satisfying & assigned & ~false:
                self.trail[i] = (made, false, assigned, sat | bit, cnt)
            if clause:
                self._count(cnt, pad, bit, mask & ~assigned)
        if satisfying & self.assigned & ~self.false:
            self.sat |= bit
        if clause:
            self._count(self.cnt, pad, bit, mask & ~self.assigned)

    @staticmethod
    def _count(cnt: list[int], pad: list[int], bit: int, free: int) -> None:
        """Pad the slices *cnt* and give clause *bit* the count of the literals *free*."""
        cnt += pad
        count = free.bit_count()
        for i in range(count.bit_length()):
            if count >> i & 1:
                cnt[i] |= bit

    def value(self, v: int) -> int:
        """1 or 0 for an assigned variable, -1 for a free one."""
        if not self.assigned >> 2 * v & 1:
            return -1
        return 0 if self.false >> 2 * v & 1 else 1

    def assign(self, v: int, b: int) -> None:
        self._make_true(1 << 2 * v + 1 - b)

    def _make_true(self, lits: int) -> None:
        """Make the free literals in *lits* true in one trail entry, and
        take one off the count of each clause on their variables."""
        self.trail.append((lits, self.false, self.assigned, self.sat, self.cnt))
        both = ((lits | lits >> 1) & self.even) * 3
        self.assigned |= both
        self.false |= both ^ lits
        sat, sat_by, on_var = self.sat, self.sat_by, self.on_var
        cnt = self.cnt[:]
        while lits:
            low = lits & -lits
            lits ^= low
            l = low.bit_length() - 1
            sat |= sat_by[l]
            borrow = on_var[l >> 1]  # subtract 1, slice by slice
            i = 0
            while borrow:
                c = cnt[i]
                cnt[i] = c ^ borrow
                borrow &= ~c
                i += 1
        self.sat = sat
        self.cnt = cnt

    def undo(self, mark: int) -> None:
        """Restore the assignment from before trail entry *mark*."""
        if mark < len(self.trail):
            _, self.false, self.assigned, self.sat, self.cnt = self.trail[mark]
            del self.trail[mark:]

    def _smallest(self, among: int) -> tuple[int, int]:
        """The least count of the clauses in *among*, a nonempty constraint
        mask, and the clauses of that count: one slice at a time from the
        highest, keep the clauses with a 0 there if any."""
        cnt = self.cnt
        count = 0
        for i in range(len(cnt) - 1, -1, -1):
            low = among & ~cnt[i]
            if low:
                among = low
            else:
                count |= 1 << i
        return count, among

    def _force(self, ci: int) -> bool:
        """Force what summed constraint *ci* implies; False on a conflict."""
        degree, groups = self.summed[ci]
        open_ = ~self.false
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

    def propagate(self) -> bool:
        """Propagate to fixpoint; False on a conflict.

        Each round first reads the open clauses from their counts: one of
        count 0 is a conflict, and the units, those of count 1, make their
        free literals true in one trail entry (two units on both literals of
        a variable are a conflict).  Then each summed constraint is forced,
        in index order.  A round that makes nothing true ends it, so no
        constraint needs to be told that it changed, whether by an
        assignment, an undo or an attachment.
        """
        trail, mask = self.trail, self.mask
        while True:
            mark = len(trail)
            open_ = self.clause_form & ~self.sat
            if open_:
                count, units = self._smallest(open_)
                if count == 0:
                    self.stats.conflicts += 1
                    return False
                if count == 1:
                    lits = 0
                    while units:
                        low = units & -units
                        units ^= low
                        lits |= mask[low.bit_length() - 1]
                    lits &= ~self.assigned
                    if lits & lits >> 1 & self.even:
                        self.stats.conflicts += 1
                        return False
                    self._make_true(lits)
                    self.stats.propagations += lits.bit_count()
            for ci in self.summed:
                if not self._force(ci):
                    return False
            if len(trail) == mark:
                return True

    def bound(self) -> tuple[tuple[int, ...], int]:
        """The packing bound at a propagation fixpoint: (indices used, literals fixed).

        An at-most constraint ``sum ~x >= degree`` over variables S has slack
        ``popcount(its literals & ~false) - degree``: how many more of S may
        become true.  Every unsatisfied clause of plain literals over S needs
        one of its free variables made true, so clauses with pairwise
        disjoint free literals each use up one unit of slack.  The clauses
        are packed greedily, fewest free literals first (on ties, the lowest
        free-literal mask, then the lowest index): the clauses of one count
        at a time, from the counts, each sorted, and a pick drops every
        clause on its free literals.  More picks than slack is a conflict.
        Exactly slack picks use up the budget, so every free variable of S
        outside the picks' free literals must be false: those are fixed
        false in one trail entry and the bound returns, since the next
        at-most constraint needs the fixing propagated first.  ``used`` is
        the at-most constraint's index followed by the picks'; their sum is
        a constraint that propagation refutes under the current assignment
        on a conflict, and that forces the fixed literals on a fixing, so
        either is one cutting-planes step.  ``fixed`` is the mask of
        literals made true, 0 on a conflict.  Returns ((), 0) when the bound
        does not fire.
        """
        free = ~self.assigned
        open_ = ~self.sat
        mask, occ, summed = self.mask, self.occ, self.summed
        for (ai, plain), packable in zip(self.at_most, self.packable):
            degree, [(_, lits)] = summed[ai]
            slack = (lits & ~self.false).bit_count() - degree
            rest = packable & open_
            used = 0
            picked = [ai]
            while rest:
                _, size = self._smallest(rest)
                found = []
                while size:
                    low = size & -size
                    size ^= low
                    ci = low.bit_length() - 1
                    found.append((mask[ci] & free, ci))
                found.sort()
                for m, ci in found:
                    if not rest >> ci & 1:  # it meets an earlier pick
                        continue
                    used |= m
                    picked.append(ci)
                    if len(picked) > slack + 1:
                        self.stats.conflicts += 1
                        self.stats.bound_conflicts += 1
                        return tuple(picked), 0
                    while m:  # drop the pick and every clause that meets it
                        low = m & -m
                        m ^= low
                        rest &= ~occ[low.bit_length() - 1]
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
            used, fixed = self.bound()
            if not fixed:
                return bool(used)
        return True

    def pick_branch(self) -> tuple[int, bool] | None:
        """Branch literal, or None when every constraint is satisfied.

        The unsatisfied constraint with the fewest unassigned literals
        (lowest index on ties), and in it the unassigned variable in the
        most unsatisfied constraints (first in term order on ties).  The
        clauses' least count comes from the counts; the few summed
        constraints are counted.
        """
        unsat = ~self.sat
        true = self.assigned & ~self.false
        mask = self.mask
        free = ~self.assigned
        fewest = []  # (unassigned literals, index) of unsatisfied constraints
        open_ = unsat & self.clause_form
        if open_:
            count, smallest = self._smallest(open_)
            fewest.append((count, (smallest & -smallest).bit_length() - 1))
        for ci, (need, groups) in self.summed.items():
            if unsat >> ci & 1:
                for coef, m in groups:
                    need -= coef * (m & true).bit_count()
                if need <= 0:
                    unsat ^= 1 << ci
                else:
                    fewest.append(((mask[ci] & free).bit_count(), ci))
        if not fewest:
            return None
        occ = self.occ
        l = max(  # the first of the best-scored literals
            (l for l in self.lits[min(fewest)[1]] if free >> l & 1),
            key=lambda l: ((occ[l] | occ[l ^ 1]) & unsat).bit_count(),
        )
        return l >> 1, bool(l & 1)

    def search(self, node_limit: int, split_vars: tuple[int, ...] = ()) -> Iterator[list[int]]:
        """Exhaust the space, yielding each model found.

        When every constraint is satisfied but some variable in *split_vars*
        is still unassigned, the search splits on it instead of yielding, so
        models are total over split_vars (free variables outside it are
        completed with 0).  Before it asks for the next model the caller may
        attach constraints, e.g. the model's blocking constraint; the model
        is then treated as a conflict.  Raises SolveLimitReached when the
        decision cap is hit.
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
                    yield [max(self.value(v), 0) for v in range(self.num_vars)]
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
    for model in eng.search(node_limit):
        witness = Assignment.total(model)
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
    variables before the search resumes, and the search continues until
    unsatisfiable, so the result is exactly one assignment per distinct
    projection.  Every full model is rechecked against *f* as it arrives.  A
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
    out = []
    seen = set()
    for model in eng.search(node_limit, split_vars=tuple(v - 1 for v in proj)):
        a = Assignment.total(model)
        eng.add_constraint(blocking_constraint(a, proj))
        if not f.satisfied_by(a):
            raise SolveError("internal error: model fails recheck")
        projected = a.restrict(proj)
        if projected.values in seen:
            raise SolveError("internal error: duplicate projected model")
        seen.add(projected.values)
        out.append(projected)
    return out
