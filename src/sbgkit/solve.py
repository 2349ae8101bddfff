"""Complete pseudo-Boolean decision procedure and all-solutions enumeration.

The engine is a chronological backtracking search with counting propagation:
for each constraint it tracks the slack, the largest left-hand side still
reachable minus the degree, under the current partial assignment.  Negative
slack is a conflict; an unassigned literal whose coefficient exceeds the
slack of its constraint is forced true.  No clause learning is performed;
instance sizes targeted here (tens of variables) do not need it.

Branching picks an unsatisfied constraint with the fewest unassigned
literals and, within it, the literal whose variable appears in the most
unsatisfied constraints, assigning the value that makes the literal true.
Enumeration runs a single search tree: each model found is excluded by
attaching its blocking constraint on the fly and treating the model as a
conflict, so the total work is one refutation of the fully blocked formula.

RupChecker runs the proof verifier's reverse-unit-propagation checks on one
engine for the whole proof; propagates_to_conflict, which builds a fresh
engine per call, is the reference the tests hold it to.
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


class _Engine:
    """Search state over compiled constraints; supports on-the-fly additions."""

    def __init__(self, num_vars: int):
        self.terms: list[list[tuple[int, int, bool]]] = []  # (coef, var0, negated)
        self.maxcoef: list[int] = []
        self.slack: list[int] = []
        self.need: list[int] = []  # degree minus satisfied mass; <= 0 means satisfied
        self.unassigned: list[int] = []
        self.val: list[int] = []
        # per variable and assigned value: constraint entries falsified/satisfied
        self.fal: list[tuple[list, list]] = []
        self.sat: list[tuple[list, list]] = []
        self.occ: list[list[int]] = []
        self.trail: list[int] = []
        self.stats = SolveStats()
        self.grow(num_vars)

    def grow(self, num_vars: int) -> None:
        """Make room for variables up to *num_vars*, all unassigned."""
        extra = num_vars - len(self.val)
        self.val += [-1] * extra
        self.fal += [([], []) for _ in range(extra)]
        self.sat += [([], []) for _ in range(extra)]
        self.occ += [[] for _ in range(extra)]

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
        una = 0
        for coef, v, negated in compiled:
            true_value = 0 if negated else 1
            self.sat[v][true_value].append((ci, coef))
            self.fal[v][1 - true_value].append((ci, coef))
            self.occ[v].append(ci)
            if self.val[v] == -1:
                una += 1
                slack += coef
            elif self.val[v] == true_value:
                slack += coef
                need -= coef
        self.slack.append(slack)
        self.need.append(need)
        self.unassigned.append(una)

    def remove_last(self) -> None:
        """Detach the constraint attached last; its entries end every list."""
        for _, v, negated in self.terms.pop():
            true_value = 0 if negated else 1
            self.sat[v][true_value].pop()
            self.fal[v][1 - true_value].pop()
            self.occ[v].pop()
        self.maxcoef.pop()
        self.slack.pop()
        self.need.pop()
        self.unassigned.pop()

    def assign(self, v: int, b: int) -> None:
        self.val[v] = b
        self.trail.append(v)
        slack, need, unassigned = self.slack, self.need, self.unassigned
        for ci, coef in self.fal[v][b]:
            slack[ci] -= coef
        for ci, coef in self.sat[v][b]:
            need[ci] -= coef
        for ci in self.occ[v]:
            unassigned[ci] -= 1

    def unassign(self, v: int) -> None:
        b = self.val[v]
        self.val[v] = -1
        slack, need, unassigned = self.slack, self.need, self.unassigned
        for ci, coef in self.fal[v][b]:
            slack[ci] += coef
        for ci, coef in self.sat[v][b]:
            need[ci] += coef
        for ci in self.occ[v]:
            unassigned[ci] += 1

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
                self.stats.conflicts += 1
                return False
            if s < maxcoef[ci] and need[ci] > 0:
                for coef, v, negated in terms[ci]:
                    if val[v] == -1 and coef > s:
                        self.assign(v, 0 if negated else 1)
                        self.stats.propagations += 1
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

    def pick_branch(self) -> tuple[int, bool] | None:
        """Branch literal, or None when every constraint is satisfied."""
        need, unassigned = self.need, self.unassigned
        best_ci = -1
        best_k = 1 << 30
        for ci in range(len(self.terms)):
            if need[ci] > 0 and unassigned[ci] < best_k:
                best_k = unassigned[ci]
                best_ci = ci
        if best_ci == -1:
            return None
        val, occ = self.val, self.occ
        best = None
        best_score = -1
        for _, v, negated in self.terms[best_ci]:
            if val[v] == -1:
                score = 0
                for cj in occ[v]:
                    if need[cj] > 0:
                        score += 1
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
        if not self.root_propagate():
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
                conflict = not self.propagate(len(self.trail) - 1)
            else:
                if not dec_stack:
                    return
                tlen, v, negated, flipped = dec_stack.pop()
                self.undo(tlen)
                if not flipped:
                    dec_stack.append((tlen, v, negated, True))
                    self.assign(v, 1 if negated else 0)
                    conflict = not self.propagate(len(self.trail) - 1)


def _engine_for(num_vars: int, constraints) -> _Engine:
    eng = _Engine(num_vars)
    for c in constraints:
        eng.add_constraint(c)
    return eng


def solve(f: PBFormula, node_limit: int = DEFAULT_NODE_LIMIT) -> SolveResult:
    """Decide satisfiability; a SAT witness is rechecked before returning.

    Raises SolveLimitReached when the decision cap is exceeded, which is an
    inconclusive outcome distinct from UNSAT.
    """
    eng = _engine_for(f.num_vars, f.constraints)
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
    eng = _engine_for(f.num_vars, f.constraints)
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


def propagates_to_conflict(
    constraints: list[LinearConstraint], num_vars: int
) -> bool:
    """True iff counting propagation alone refutes the constraint set.

    This is the same propagation loop the solver uses, run to fixpoint with
    no decisions on a fresh engine; it is the reference that the tests hold
    RupChecker's verdicts to.
    """
    return not _engine_for(num_vars, constraints).root_propagate()


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
