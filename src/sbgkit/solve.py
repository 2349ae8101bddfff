"""Complete pseudo-Boolean decision procedure and all-solutions enumeration.

The solver is a chronological backtracking search without clause learning;
instance sizes targeted here (tens of variables) do not need it.  Its engine,
_Search, propagates each constraint of degree 1 as a clause with two watched
literals, so undoing an assignment costs nothing for clauses.  Only the other
constraints, such as the cardinality budget, keep counting propagation: the
slack, the largest left-hand side still reachable minus the degree, updated
on every assignment to their variables.  Negative slack is a conflict; an
unassigned literal whose coefficient exceeds the slack of its constraint is
forced true.

Branching picks an unsatisfied constraint with the fewest unassigned
literals and, within it, the literal whose variable appears in the most
unsatisfied constraints, assigning the value that makes the literal true.
Enumeration runs a single search tree: each model found is excluded by
attaching its blocking constraint on the fly and treating the model as a
conflict, so the total work is one refutation of the fully blocked formula.

The proof verifier does not share that engine.  _Engine is its own counting
propagation over every constraint, kept slow and obvious so that a bug in
one propagator cannot make the solver and the checker agree wrongly.
RupChecker runs the verifier's reverse-unit-propagation checks on one such
engine for the whole proof; propagates_to_conflict, which builds a fresh
engine per call, is the reference the tests hold both engines to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .encode import (
    Assignment,
    EncodeError,
    LinearConstraint,
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


@dataclass(frozen=True)
class SolveResult:
    status: str  # "SAT" | "UNSAT"
    witness: Assignment | None
    stats: SolveStats

    @property
    def is_sat(self) -> bool:
        return self.status == "SAT"


class _Search:
    """The solver's search state: watched clauses, counted constraints, branching.

    Literal ``2 * v + negated`` is false exactly when ``val[v] == negated``.
    A constraint of degree 1 is a clause, whatever its coefficients; the
    first two entries of its literal list are watched.  Every other
    constraint keeps slack and need counters.  Constraints are indexed in
    attachment order, and bit ``ci`` of a branching mask stands for
    constraint ``ci``.
    """

    def __init__(self, num_vars: int):
        self.val = [-1] * num_vars
        self.trail: list[int] = []
        self.head = 0  # trail entries before head have been propagated
        self.stats = SolveStats()
        # every constraint, for branching
        self.terms: list[list[tuple[int, int, bool]]] = []  # (coef, var0, negated)
        self.var_mask: list[int] = []  # the constraint's variables
        self.occ_mask = [0] * num_vars  # the constraints on a variable
        self.clause_mask = 0
        self.sat_mask = [[0, 0] for _ in range(num_vars)]  # clauses a value satisfies
        self.counted: list[int] = []  # indices of the counted constraints
        # clauses; None for a counted constraint
        self.lits: list[list[int] | None] = []
        self.watches: list[list[int]] = [[] for _ in range(2 * num_vars)]
        # counted constraints; zeros for a clause
        self.maxcoef: list[int] = []
        self.slack: list[int] = []
        self.need: list[int] = []  # degree minus satisfied mass; <= 0 means satisfied
        # per variable and assigned value: counted entries falsified/satisfied
        self.fal: list[tuple[list, list]] = [([], []) for _ in range(num_vars)]
        self.sat: list[tuple[list, list]] = [([], []) for _ in range(num_vars)]
        # Constraints to check at the next propagate: counted ones, and
        # clauses with a false watch, which an undo can leave unit or
        # falsified without a watched literal falling.
        self.recheck: list[int] = []

    def add_constraint(self, c: LinearConstraint) -> None:
        """Attach *c* under the current assignment; propagate checks it next."""
        if c.trivially_true:
            return
        ci = len(self.terms)
        terms = [(coef, lit.var - 1, lit.negated) for coef, lit in c.terms]
        self.terms.append(terms)
        mask = 0
        for _, v, _ in terms:
            mask |= 1 << v
            self.occ_mask[v] |= 1 << ci
        self.var_mask.append(mask)
        val = self.val
        if c.degree == 1:
            self.clause_mask |= 1 << ci
            for _, v, negated in terms:
                self.sat_mask[v][1 - negated] |= 1 << ci
            # Watch non-false literals first, then the false ones assigned
            # latest.  An undo unassigns the latest assignments first, so
            # while a watch is false every unwatched literal is false too.
            when = {v: i for i, v in enumerate(self.trail)}
            lits = sorted(
                (2 * v + negated for _, v, negated in terms),
                key=lambda l: (1, -when[l >> 1]) if val[l >> 1] == l & 1 else (0, 0),
            )
            if len(lits) >= 2:
                self.watches[lits[0]].append(ci)
                self.watches[lits[1]].append(ci)
            self.lits.append(lits)
            slack = need = maxcoef = 0
        else:
            slack = -c.degree
            need = c.degree
            for coef, v, negated in terms:
                true_value = 0 if negated else 1
                self.sat[v][true_value].append((ci, coef))
                self.fal[v][1 - true_value].append((ci, coef))
                if val[v] == -1:
                    slack += coef
                elif val[v] == true_value:
                    slack += coef
                    need -= coef
            self.lits.append(None)
            self.counted.append(ci)
            maxcoef = max((coef for coef, _, _ in terms), default=0)
        self.maxcoef.append(maxcoef)
        self.slack.append(slack)
        self.need.append(need)
        if not self._watched_open(ci):
            self.recheck.append(ci)

    def assign(self, v: int, b: int) -> None:
        self.val[v] = b
        self.trail.append(v)
        slack, need = self.slack, self.need
        for ci, coef in self.fal[v][b]:
            slack[ci] -= coef
        for ci, coef in self.sat[v][b]:
            need[ci] -= coef

    def undo(self, mark: int) -> None:
        """Unassign the trail back to length *mark*."""
        trail, val, fal, sat = self.trail, self.val, self.fal, self.sat
        slack, need = self.slack, self.need
        while len(trail) > mark:
            v = trail.pop()
            b = val[v]
            val[v] = -1
            for ci, coef in fal[v][b]:
                slack[ci] += coef
            for ci, coef in sat[v][b]:
                need[ci] += coef
        self.head = min(self.head, mark)
        self.recheck = [ci for ci in self.recheck if not self._watched_open(ci)]

    def _watched_open(self, ci: int) -> bool:
        """True iff *ci* is a clause whose two watched literals are non-false.

        No undo can then make it unit or falsified, and every falsification
        of a watched literal is propagated, so it needs no recheck.
        """
        c, val = self.lits[ci], self.val
        return (
            c is not None and len(c) >= 2
            and val[c[0] >> 1] != c[0] & 1 and val[c[1] >> 1] != c[1] & 1
        )

    def _force_counted(self, ci: int) -> bool:
        """Force what counted constraint *ci* implies; False on a conflict."""
        s = self.slack[ci]
        if s < 0:
            self.stats.conflicts += 1
            return False
        if s < self.maxcoef[ci] and self.need[ci] > 0:
            val = self.val
            for coef, v, negated in self.terms[ci]:
                if val[v] == -1 and coef > s:
                    self.assign(v, 0 if negated else 1)
                    self.stats.propagations += 1
        return True

    def _recheck(self) -> bool:
        """Propagate the constraints on the recheck list; False on a conflict.

        A counted constraint leaves the list once its slack reaches its
        largest coefficient, since an undo only raises the slack; a clause
        leaves it in ``undo``, once both watched literals are non-false.
        """
        val, lits = self.val, self.lits
        pending, self.recheck = self.recheck, []
        for i, ci in enumerate(pending):
            c = lits[ci]
            if c is None:
                if not self._force_counted(ci):
                    self.recheck += pending[i:]
                    return False
                if self.slack[ci] < self.maxcoef[ci]:
                    self.recheck.append(ci)
                continue
            self.recheck.append(ci)
            # a watch is false, so every unwatched literal is false
            open_ = [l for l in c[:2] if val[l >> 1] != l & 1]
            if not open_:
                self.stats.conflicts += 1
                self.recheck += pending[i + 1:]
                return False
            if val[open_[0] >> 1] == -1:
                self.assign(open_[0] >> 1, 1 - (open_[0] & 1))
                self.stats.propagations += 1
        return True

    def propagate(self) -> bool:
        """Propagate the unprocessed trail to fixpoint; False on a conflict."""
        if self.recheck and not self._recheck():
            return False
        trail, val, lits, watches, fal = self.trail, self.val, self.lits, self.watches, self.fal
        stats = self.stats
        while self.head < len(trail):
            v = trail[self.head]
            self.head += 1
            b = val[v]
            false_lit = 2 * v + b
            ws = watches[false_lit]
            i = j = 0
            end = len(ws)
            while i < end:
                ci = ws[i]
                i += 1
                c = lits[ci]
                if c[0] == false_lit:
                    c[0], c[1] = c[1], false_lit
                first = c[0]
                fv = val[first >> 1]
                if fv != -1 and fv != first & 1:  # satisfied by the other watch
                    ws[j] = ci
                    j += 1
                    continue
                for k in range(2, len(c)):
                    lk = c[k]
                    if val[lk >> 1] != lk & 1:
                        c[1], c[k] = lk, false_lit
                        watches[lk].append(ci)
                        break
                else:
                    ws[j] = ci
                    j += 1
                    if fv != -1:
                        stats.conflicts += 1
                        ws[j:i] = []
                        return False
                    self.assign(first >> 1, 1 - (first & 1))
                    stats.propagations += 1
            del ws[j:]
            for ci, _ in fal[v][b]:
                if not self._force_counted(ci):
                    return False
        return True

    def pick_branch(self) -> tuple[int, bool] | None:
        """Branch literal, or None when every constraint is satisfied.

        The unsatisfied constraint with the fewest unassigned literals
        (lowest index on ties), and in it the unassigned variable in the
        most unsatisfied constraints (first in term order on ties).
        """
        val, sat_mask = self.val, self.sat_mask
        satisfied = assigned = 0
        for v in self.trail:
            satisfied |= sat_mask[v][val[v]]
            assigned |= 1 << v
        unsat = self.clause_mask & ~satisfied
        need = self.need
        for ci in self.counted:
            if need[ci] > 0:
                unsat |= 1 << ci
        if not unsat:
            return None
        var_mask = self.var_mask
        free = ~assigned
        best_ci = -1
        best_k = 1 << 30
        rest = unsat
        while rest:
            low = rest & -rest
            rest ^= low
            ci = low.bit_length() - 1
            k = (var_mask[ci] & free).bit_count()
            if k < best_k:
                best_ci, best_k = ci, k
        occ_mask = self.occ_mask
        best = None
        best_score = -1
        for _, v, negated in self.terms[best_ci]:
            if val[v] == -1:
                score = (occ_mask[v] & unsat).bit_count()
                if score > best_score:
                    best_score = score
                    best = (v, negated)
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
                        if self.val[v] == -1:
                            branch = (v, False)
                            break
                if branch is None:
                    model = [x if x != -1 else 0 for x in self.val]
                    on_model(model)
                    conflict = True
                    continue
                if self.stats.decisions >= node_limit:
                    raise SolveLimitReached(node_limit, self.stats)
                v, negated = branch
                self.stats.decisions += 1
                dec_stack.append((len(self.trail), v, negated, False))
                self.assign(v, 0 if negated else 1)
                conflict = not self.propagate()
            else:
                if not dec_stack:
                    return
                tlen, v, negated, flipped = dec_stack.pop()
                self.undo(tlen)
                if not flipped:
                    dec_stack.append((tlen, v, negated, True))
                    self.assign(v, 1 if negated else 0)
                    conflict = not self.propagate()


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


# -- the proof verifier's propagation -------------------------------------------


class _Engine:
    """Counting propagation for the proof verifier; never searches."""

    def __init__(self, num_vars: int):
        self.terms: list[list[tuple[int, int, bool]]] = []  # (coef, var0, negated)
        self.maxcoef: list[int] = []
        self.slack: list[int] = []
        self.need: list[int] = []  # degree minus satisfied mass; <= 0 means satisfied
        self.val: list[int] = []
        # per variable and assigned value: constraint entries falsified/satisfied
        self.fal: list[tuple[list, list]] = []
        self.sat: list[tuple[list, list]] = []
        self.trail: list[int] = []
        self.grow(num_vars)

    def grow(self, num_vars: int) -> None:
        """Make room for variables up to *num_vars*, all unassigned."""
        extra = num_vars - len(self.val)
        self.val += [-1] * extra
        self.fal += [([], []) for _ in range(extra)]
        self.sat += [([], []) for _ in range(extra)]

    def add_constraint(self, c: LinearConstraint) -> None:
        """Attach a constraint, with slack computed under the current assignment."""
        if c.trivially_true:
            return
        ci = len(self.terms)
        compiled = [(coef, lit.var - 1, lit.negated) for coef, lit in c.terms]
        self.terms.append(compiled)
        self.maxcoef.append(max((coef for coef, _, _ in compiled), default=0))
        slack = -c.degree
        need = c.degree
        for coef, v, negated in compiled:
            true_value = 0 if negated else 1
            self.sat[v][true_value].append((ci, coef))
            self.fal[v][1 - true_value].append((ci, coef))
            if self.val[v] == -1:
                slack += coef
            elif self.val[v] == true_value:
                slack += coef
                need -= coef
        self.slack.append(slack)
        self.need.append(need)

    def remove_last(self) -> None:
        """Detach the constraint attached last; its entries end every list."""
        for _, v, negated in self.terms.pop():
            true_value = 0 if negated else 1
            self.sat[v][true_value].pop()
            self.fal[v][1 - true_value].pop()
        self.maxcoef.pop()
        self.slack.pop()
        self.need.pop()

    def assign(self, v: int, b: int) -> None:
        self.val[v] = b
        self.trail.append(v)
        slack, need = self.slack, self.need
        for ci, coef in self.fal[v][b]:
            slack[ci] -= coef
        for ci, coef in self.sat[v][b]:
            need[ci] -= coef

    def unassign(self, v: int) -> None:
        b = self.val[v]
        self.val[v] = -1
        slack, need = self.slack, self.need
        for ci, coef in self.fal[v][b]:
            slack[ci] += coef
        for ci, coef in self.sat[v][b]:
            need[ci] += coef

    def undo(self, mark: int) -> None:
        """Unassign the trail back to length *mark*."""
        trail = self.trail
        while len(trail) > mark:
            self.unassign(trail.pop())

    def force(self, entries) -> bool:
        """Force the literals that the constraints in *entries* imply.

        *entries* yields ``(ci, _)`` pairs; False on a negative-slack conflict.
        """
        val, slack, need = self.val, self.slack, self.need
        terms, maxcoef = self.terms, self.maxcoef
        for ci, _ in entries:
            s = slack[ci]
            if s < 0:
                return False
            if s < maxcoef[ci] and need[ci] > 0:
                for coef, v, negated in terms[ci]:
                    if val[v] == -1 and coef > s:
                        self.assign(v, 0 if negated else 1)
        return True

    def propagate(self, start: int) -> bool:
        """Counting propagation to fixpoint from trail position *start*."""
        trail, val, fal = self.trail, self.val, self.fal
        qi = start
        while qi < len(trail):
            v = trail[qi]
            qi += 1
            if not self.force(fal[v][val[v]]):
                return False
        return True

    def root_propagate(self) -> bool:
        """Forcing pass over every constraint, then fixpoint."""
        return self.force(enumerate(self.terms)) and self.propagate(0)


def propagates_to_conflict(
    constraints: list[LinearConstraint], num_vars: int
) -> bool:
    """True iff counting propagation alone refutes the constraint set.

    This is the verifier's counting propagation, not the solver's, run to
    fixpoint with no decisions on a fresh engine; it is the reference that
    the tests hold RupChecker's verdicts and the solver's propagation to.
    """
    eng = _Engine(num_vars)
    for c in constraints:
        eng.add_constraint(c)
    return not eng.root_propagate()


class RupChecker:
    """Reverse-unit-propagation checks against a growing set of constraints.

    One engine holds the stored constraints at their root propagation
    fixpoint.  ``refutes`` attaches the assumption, propagates from the
    trail mark, then undoes the trail and detaches the assumption, so a
    check costs the propagation it triggers, not a rebuild over every
    stored constraint.  Its verdict equals ``propagates_to_conflict`` over
    the stored constraints plus the assumption.
    """

    def __init__(self) -> None:
        self._eng = _Engine(0)
        # Once the stored constraints conflict, every assumption is refuted:
        # a fresh propagation over more constraints still reaches a conflict.
        self._conflict = False

    def store(self, c: LinearConstraint) -> None:
        """Keep *c* for every later check."""
        if not self._conflict and not c.trivially_true:
            self._conflict = not self._attach(c)

    def refutes(self, assumption: LinearConstraint) -> bool:
        """True iff propagation refutes the stored constraints plus *assumption*."""
        if self._conflict:
            return True
        if assumption.trivially_true:
            return False
        mark = len(self._eng.trail)
        refuted = not self._attach(assumption)
        self._eng.undo(mark)
        self._eng.remove_last()
        return refuted

    def _attach(self, c: LinearConstraint) -> bool:
        """Attach *c* and propagate what it forces; False on a conflict."""
        eng = self._eng
        mark = len(eng.trail)
        eng.grow(c.max_var())
        eng.add_constraint(c)
        return eng.force([(len(eng.terms) - 1, None)]) and eng.propagate(mark)
