import importlib
import itertools
import random
import time

import numpy as np
import pytest

from reference import models, negation_of, root_fixpoint
from sbgkit.encode import (
    LinearConstraint,
    Literal,
    PBFormula,
    encode_ics,
    normalize,
    parse_opb,
    pos,
)
from sbgkit.fixtures import EXAMPLE_UNSAT_OPB
from sbgkit.graph import build_sbg
from sbgkit.proof import RupChecker, add
from sbgkit.solve import (
    SolveLimitReached,
    _Search,
    _search_for,
    enumerate_all,
    solve,
)


def random_formula(rng, n, m):
    cons = []
    for _ in range(m):
        terms = [
            (rng.randint(1, 3), Literal(rng.randint(1, n), rng.random() < 0.5))
            for _ in range(rng.randint(1, 4))
        ]
        cons.extend(normalize(terms, rng.choice([">=", "<=", "="]), rng.randint(0, 4)))
    return PBFormula(n, tuple(cons))


def test_single_positive_unit():
    f = PBFormula(1, (LinearConstraint(((1, pos(1)),), 1),))
    res = solve(f)
    assert res.is_sat
    assert res.witness.values == (1,)


def test_example_formula_unsat():
    f = parse_opb(EXAMPLE_UNSAT_OPB)
    res = solve(f)
    assert res.status == "UNSAT"
    assert models(f.constraints, f.num_vars) == set()


def test_empty_formula_is_sat():
    f = PBFormula(3, ())
    assert solve(f).is_sat


def test_contradictory_constraint():
    f = PBFormula(2, (LinearConstraint((), 1),))
    assert solve(f).status == "UNSAT"


def test_witness_satisfies_all_constraints():
    rng = random.Random(5)
    for _ in range(80):
        f = random_formula(rng, rng.randint(1, 8), rng.randint(1, 6))
        try:
            res = solve(f)
        except SolveLimitReached:
            pytest.fail("limit on a tiny instance")
        if res.is_sat:
            assert f.satisfied_by(res.witness)


def test_agrees_with_brute_force_up_to_12_vars():
    rng = random.Random(6)
    for trial in range(60):
        n = rng.randint(1, 12) if trial % 3 else 12
        f = random_formula(rng, n, rng.randint(1, 10))
        res = solve(f)
        assert res.is_sat == bool(models(f.constraints, n))


def test_enumerate_two_var_clause():
    f = PBFormula(2, (LinearConstraint(((1, pos(1)), (1, pos(2))), 1),))
    sols = enumerate_all(f)
    assert {a.values for a in sols} == {(0, 1), (1, 0), (1, 1)}


def test_enumerate_unconstrained_variables():
    # a variable not mentioned by any constraint still enumerates both ways
    f = PBFormula(2, (LinearConstraint(((1, pos(1)),), 1),))
    sols = enumerate_all(f)
    assert {a.values for a in sols} == {(1, 0), (1, 1)}


def test_enumerate_matches_brute_force():
    rng = random.Random(8)
    for _ in range(60):
        f = random_formula(rng, 4, rng.randint(1, 6))
        sols = enumerate_all(f)
        assert {a.values for a in sols} == models(f.constraints, 4)
        assert len({a.values for a in sols}) == len(sols)


def test_enumerate_projection():
    rng = random.Random(9)
    for _ in range(40):
        f = random_formula(rng, 5, rng.randint(1, 6))
        proj = sorted(rng.sample(range(1, 6), rng.randint(1, 4)))
        sols = enumerate_all(f, projection=proj)
        expected = {
            tuple(values[v - 1] for v in proj)
            for values in models(f.constraints, 5)
        }
        got = {tuple(a.value(v) for v in proj) for a in sols}
        assert got == expected
        for a in sols:
            assert set(a.assigned_vars()) == set(proj)


def test_enumerate_any_projection_matches_brute_force():
    # projections that leave decided variables out, and the empty projection;
    # a blocking constraint attached at a model must still be propagated when
    # backtracking leaves it unit or falsified
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 7)
        f = random_formula(rng, n, rng.randint(1, 8))
        proj = sorted(rng.sample(range(1, n + 1), rng.randint(0, n)))
        got = [tuple(a.value(v) for v in proj) for a in enumerate_all(f, projection=proj)]
        expected = {tuple(values[v - 1] for v in proj) for values in models(f.constraints, n)}
        assert sorted(got) == sorted(expected)


def test_enumeration_is_order_independent():
    rng = random.Random(10)
    for _ in range(20):
        f = random_formula(rng, 5, 5)
        base = {a.values for a in enumerate_all(f)}
        shuffled = list(f.constraints)
        rng.shuffle(shuffled)
        again = {a.values for a in enumerate_all(PBFormula(5, tuple(shuffled)))}
        assert base == again


def test_node_limit_signals_inconclusive():
    # xor-ish pair: no root propagation, so any search needs a decision
    f = PBFormula(
        2,
        (
            LinearConstraint(((1, pos(1)), (1, pos(2))), 1),
            LinearConstraint(((1, Literal(1, True)), (1, Literal(2, True))), 1),
        ),
    )
    with pytest.raises(SolveLimitReached):
        solve(f, node_limit=0)
    assert solve(f).is_sat


def test_limit_propagates_through_enumeration():
    f = PBFormula(3, ())
    with pytest.raises(SolveLimitReached):
        enumerate_all(f, node_limit=1)


def test_sbg_budget_10_search_tree():
    # a change in these counts is a change of search, or for propagations of
    # what propagation forces before each conflict, not a faster propagation
    res = solve(encode_ics(build_sbg(), 10))
    assert res.is_sat
    stats = res.stats
    assert (
        stats.decisions, stats.propagations, stats.conflicts,
        stats.bound_conflicts, stats.bound_fixings,
    ) == (37, 108, 30, 15, 56)


# The order in which the search finds its models; a change here is a change of
# search, since every test above compares sets.
SBG_EXACT_10_ORDER = [
    2148993592, 2080374846, 2149400718, 1665140108, 2161232136, 1184891736,
    2149286172, 2148471858, 224396976, 2172885520, 832570054, 448791906,
    2149458022, 2183950402, 71065793, 1108227137, 278104833, 948033537,
    475064321, 1896003585, 1711568897, 554114561, 2198223904, 1277751297,
    140099969, 2155405444,
]


def test_sbg_models_arrive_in_a_fixed_order():
    sbg = build_sbg()
    codes = enumerate_all(encode_ics(sbg, 10, exact=True))
    assert [a.code_mask() for a in codes] == SBG_EXACT_10_ORDER
    assert solve(encode_ics(sbg, 10)).witness.code_mask() == SBG_EXACT_10_ORDER[0]


def test_the_projection_order_sets_the_split_order():
    f = PBFormula(2, ())
    assert [a.values for a in enumerate_all(f)] == [(1, 1), (1, 0), (0, 1), (0, 0)]
    got = [(a.value(1), a.value(2)) for a in enumerate_all(f, projection=[2, 1])]
    assert got == [(1, 1), (0, 1), (1, 0), (0, 0)]


def test_stats_populated():
    f = parse_opb(EXAMPLE_UNSAT_OPB)
    res = solve(f)
    assert res.stats.conflicts > 0
    assert res.stats.propagations > 0


# -- the propagation rule that both engines are tested against -----------------


def test_propagation_finds_direct_conflict():
    cons = [
        LinearConstraint(((1, pos(1)),), 1),
        LinearConstraint(((1, Literal(1, True)),), 1),
    ]
    assert root_fixpoint(cons) is None


def test_propagation_is_incomplete_without_decisions():
    # x1 + x2 >= 1 with both allowed: no forcing, no conflict
    cons = [LinearConstraint(((1, pos(1)), (1, pos(2))), 1)]
    assert root_fixpoint(cons) == {}


def test_propagation_chains_through_cardinality():
    # x1 forced, then x2 forced by the pair constraint, contradicting ~x2
    cons = [
        LinearConstraint(((1, pos(1)),), 1),
        LinearConstraint(((1, Literal(1, True)), (1, pos(2))), 1),
        LinearConstraint(((1, Literal(2, True)),), 1),
    ]
    assert root_fixpoint(cons) is None
    assert root_fixpoint(cons[:2]) == {1: 1, 2: 1}


# -- the solver's engine against the propagation rule --------------------------


def mixed_constraints(rng, n, m):
    """random_formula's constraints plus clauses (degree 1) with coefficients
    up to 3 and mixed signs, some of them unit and, rarely, empty."""
    cons = list(random_formula(rng, n, m).constraints)
    for _ in range(rng.randint(0, 3)):
        width = 0 if rng.random() < 0.05 else rng.randint(1, min(n, 4))
        terms = tuple(
            (rng.randint(1, 3), Literal(v, rng.random() < 0.5))
            for v in rng.sample(range(1, n + 1), width)
        )
        cons.append(LinearConstraint(terms, 1))
    rng.shuffle(cons)
    return cons


def _decision(v, b):
    return LinearConstraint(((1, Literal(v + 1, b == 0)),), 1)


def _unsatisfied(c, value):
    return sum(coef for coef, lit in c.terms if value(lit.var - 1) == 1 - lit.negated) < c.degree


def _reference_branch(cons, value):
    """pick_branch's rule by a full scan of the attached constraints."""
    attached = [c for c in cons if not c.trivially_true]
    unsat = [i for i, c in enumerate(attached) if _unsatisfied(c, value)]
    if not unsat:
        return None

    def free(i):
        return [lit for _, lit in attached[i].terms if value(lit.var - 1) == -1]

    best = min(unsat, key=lambda i: (len(free(i)), i))
    lit = max(  # the first of the best-scored literals
        free(best),
        key=lambda lit: sum(lit.var in tuple(t.var for _, t in attached[i].terms) for i in unsat),
    )
    return (lit.var - 1, lit.negated)


def test_root_fixpoint_agrees_with_brute_force():
    # a conflict means no model; otherwise every model takes the forced values
    rng = random.Random(13)
    outcomes = {True: 0, False: 0}
    forcing_with_models = 0
    for _ in range(2000):
        n = rng.randint(1, 6)
        cons = mixed_constraints(rng, n, rng.randint(0, 3))
        fix = root_fixpoint(cons)
        found = models(cons, n)
        if fix is None:
            assert not found, cons
        else:
            for values in found:
                assert all(values[v - 1] == b for v, b in fix.items()), (cons, fix)
            forcing_with_models += bool(fix and found)
        outcomes[fix is None] += 1
    assert min(outcomes.values()) > 800 and forcing_with_models > 500, (
        outcomes, forcing_with_models
    )


def _counts_hold(eng):
    """Each clause's count read from the bit slices is its number of
    unassigned variables, in the live state and in every trail snapshot; a
    summed constraint's count is 0, and the slices can count every clause."""
    for _, _, assigned, _, cnt in eng.trail + [(0, 0, eng.assigned, 0, eng.cnt)]:
        assert len(cnt) == eng.num_vars.bit_length()
        for ci in range(len(eng.mask)):
            count = sum(1 << i for i, s in enumerate(cnt) if s >> ci & 1)
            clause = eng.clause_form >> ci & 1
            assert count == (eng.mask[ci] & ~assigned).bit_count() * clause


def test_the_plain_literal_mask_is_in_closed_form():
    for n in range(9):
        assert _Search(n).even == sum(1 << 2 * v for v in range(n))
    # the sum took seconds at this size, as it is quadratic in n
    start = time.perf_counter()
    _Search(300_000)
    assert time.perf_counter() - start < 0.5


def test_search_engine_propagates_like_a_fresh_counting_engine():
    # random decide / undo / attach sequences; at every fixpoint the bitmask
    # engine's verdict and assigned literals equal root_fixpoint's over the
    # same constraints plus the decisions as unit constraints, and its
    # branch equals a full scan's; after every step each clause's count
    # equals a recount, in the live state and in every trail snapshot
    rng = random.Random(12)
    fixpoints = attached_at_total = 0
    for _ in range(1500):
        n = rng.randint(1, 6)
        cons = mixed_constraints(rng, n, rng.randint(0, 3))
        eng = _Search(n)
        for c in cons:
            eng.add_constraint(c)
        decisions = []  # (trail mark, unit constraint)

        def at_fixpoint():
            _counts_hold(eng)
            ok = eng.propagate()
            _counts_hold(eng)
            ref = root_fixpoint(cons + [unit for _, unit in decisions])
            assert ok == (ref is not None)
            if ok:
                assigned = {(v, eng.value(v)) for v in range(n) if eng.value(v) != -1}
                # each trail entry makes its literals true once, for free variables
                assert sum(entry[0].bit_count() for entry in eng.trail) == len(assigned)
                assert assigned == {(v - 1, b) for v, b in ref.items()}
                # no unsatisfied constraint is left with fewer than two free
                # variables
                for c in cons:
                    if _unsatisfied(c, eng.value):
                        assert sum(eng.value(lit.var - 1) == -1 for _, lit in c.terms) >= 2
                assert eng.pick_branch() == _reference_branch(cons, eng.value)
            return ok

        ok = at_fixpoint()
        for _ in range(20):
            free = [v for v in range(n) if eng.value(v) == -1]
            roll = rng.random()
            if not ok or (decisions and roll < 0.3):
                if not decisions:
                    break
                k = rng.randrange(len(decisions))
                eng.undo(decisions[k][0])
                del decisions[k:]
            elif free and roll < 0.75:
                v, b = rng.choice(free), rng.randint(0, 1)
                decisions.append((len(eng.trail), _decision(v, b)))
                eng.assign(v, b)
            else:
                if free:
                    c = rng.choice(mixed_constraints(rng, n, 1) or [LinearConstraint((), 1)])
                else:
                    # a blocking clause of the total assignment, as at a model
                    block = rng.sample(range(n), rng.randint(1, n))
                    c = LinearConstraint(tuple(
                        (rng.randint(1, 2), Literal(v + 1, eng.value(v) == 1)) for v in block
                    ), 1)
                    attached_at_total += 1
                cons.append(c)
                eng.add_constraint(c)
            ok = at_fixpoint()
            fixpoints += 1
    assert fixpoints > 6000 and attached_at_total > 800


# -- the packing bound on at-most constraints -----------------------------------


def hitting_set_formula(rng, n):
    """Clauses of two or three plain literals and one or two at-most
    constraints over n >= 4 variables, sometimes an at-least constraint and
    clauses of mixed signs."""
    variables = range(1, n + 1)
    cons = [
        LinearConstraint(tuple(
            (1, pos(v)) for v in sorted(rng.sample(variables, rng.randint(2, 3)))
        ), 1)
        for _ in range(rng.randint(n, 3 * n))
    ]
    for _ in range(rng.randint(1, 2)):
        support = variables if rng.random() < 0.6 else rng.sample(variables, rng.randint(3, n))
        cons.extend(normalize([(1, pos(v)) for v in support], "<=", rng.randint(1, len(support) // 2)))
    if rng.random() < 0.3:
        cons.extend(normalize([(1, pos(v)) for v in variables], ">=", rng.randint(1, n // 2)))
    for _ in range(rng.randint(1, 2) if rng.random() < 0.3 else 0):
        cons.append(LinearConstraint(tuple(
            (1, Literal(v, rng.random() < 0.5)) for v in sorted(rng.sample(variables, rng.randint(1, 3)))
        ), 1))
    rng.shuffle(cons)
    return PBFormula(n, tuple(cons))


def watch_bound(monkeypatch, on_fire):
    """Make the solver call on_fire(engine, used, fixed) each time the packing
    bound fires, where used are the constraints it returned, the at-most one
    first, and fixed the literals it made true, [] on a conflict; the engine's
    assignment is the one the bound saw, without fixed.  engine.attached lists
    the constraints attached so far, by index."""

    class Watched(_Search):
        def __init__(self, num_vars):
            super().__init__(num_vars)
            self.attached = []

        def add_constraint(self, c):
            if not c.trivially_true:
                self.attached.append(c)
            super().add_constraint(c)

        def bound(self):
            mark = len(self.trail)
            used, fixed = super().bound()
            if used:
                made = self.trail[mark:]
                self.undo(mark)  # show on_fire the assignment the bound saw
                on_fire(self, [self.attached[ci] for ci in used], _literals(fixed))
                for lits, *_ in made:
                    self._make_true(lits)
            return used, fixed

    monkeypatch.setattr(importlib.import_module("sbgkit.solve"), "_Search", Watched)


def _literals(mask):
    """The literals of a literal mask, bit 2 * v + negated for x_{v+1}."""
    return [Literal(l // 2 + 1, bool(l & 1)) for l in range(mask.bit_length()) if mask >> l & 1]


def _true_literals(eng):
    return [Literal(v + 1, eng.value(v) == 0) for v in range(eng.num_vars) if eng.value(v) != -1]


def test_packing_bound_is_sound_against_brute_force(monkeypatch):
    # every time the bound fires, no assignment that satisfies the attached
    # constraints (the formula, plus the blocking constraints of the models
    # found so far) extends the current partial assignment on a conflict, or
    # extends it with a fixed variable true on a fixing
    table = None  # every assignment of the current formula's variables, one per row
    holds = {}  # each constraint's truth value on the rows of table
    fired = []  # the number of packed clauses at each conflict
    fixings = []  # the number of variables fixed at each fixing

    def models_of(cons):
        """The rows of table that satisfy every constraint in cons."""
        out = np.ones(len(table), dtype=bool)
        for c in cons:
            if c not in holds:
                lhs = np.zeros(len(table), dtype=np.int64)
                for coef, lit in c.terms:
                    column = table[:, lit.var - 1]
                    lhs += coef * (1 - column if lit.negated else column)
                holds[c] = lhs >= c.degree
            out &= holds[c]
        return out

    def check(eng, used, fixed):
        at_most, *packing = used
        support = {lit.var for _, lit in at_most.terms}
        assert at_most.degree >= 2 and all(coef == 1 and lit.negated for coef, lit in at_most.terms)
        free = []
        for c in packing:
            assert c.degree == 1 and all(coef == 1 and not lit.negated for coef, lit in c.terms)
            assert {lit.var for _, lit in c.terms} <= support
            assert all(eng.value(lit.var - 1) == 0 for _, lit in c.terms if eng.value(lit.var - 1) != -1)
            free.append({lit.var for _, lit in c.terms if eng.value(lit.var - 1) == -1})
        assert all(not a & b for a, b in itertools.combinations(free, 2))
        true_count = sum(eng.value(v - 1) == 1 for v in support)
        slack = len(support) - at_most.degree - true_count

        extends = models_of(eng.attached)
        for lit in _true_literals(eng):
            extends &= table[:, lit.var - 1] == (0 if lit.negated else 1)
        if not fixed:
            assert len(packing) > slack
            assert not extends.any(), (eng.attached, _true_literals(eng))
            fired.append(len(packing))
            return
        # a fixing: exactly slack picks, and the free variables of the
        # at-most constraint outside them all made false
        assert len(packing) == slack
        outside = {v for v in support if eng.value(v - 1) == -1} - set().union(*free)
        assert all(lit.negated for lit in fixed)
        assert {lit.var for lit in fixed} == outside
        for lit in fixed:
            assert not (extends & (table[:, lit.var - 1] == 1)).any(), (eng.attached, lit)
        fixings.append(len(fixed))

    watch_bound(monkeypatch, check)
    rng = random.Random(21)
    for _ in range(600):
        n = rng.randint(4, 12)
        table = np.arange(1 << n)[:, None] >> np.arange(n) & 1  # row r is x_{v+1} = bit v of r
        holds.clear()
        f = hitting_set_formula(rng, n)
        truth = {tuple(row.tolist()) for row in table[models_of(f.constraints)]}
        res = solve(f)
        assert res.is_sat == bool(truth)
        assert {a.values for a in enumerate_all(f)} == truth
    assert len(fired) > 300 and max(fired) >= 4, (len(fired), max(fired))
    assert len(fixings) > 300 and max(fixings) >= 4, (len(fixings), max(fixings))


def _sum_refutes(used, true):
    """The sum of the at-most constraint and its packing, stored alone in a
    fresh RUP checker, refutes the true literals: it derives their negation."""
    total = used[0]
    for c in used[1:]:
        total = add(total, c)
    checker = RupChecker()
    checker.store(total)
    return checker.derive(negation_of(LinearConstraint(tuple((1, lit) for lit in true), len(true))))


def test_each_bound_leaf_is_one_cutting_planes_sum(monkeypatch):
    leaves = []

    def on_fire(eng, used, fixed):
        if not fixed:
            leaves.append(_sum_refutes(used, _true_literals(eng)))

    watch_bound(monkeypatch, on_fire)
    rng = random.Random(21)
    for _ in range(600):
        f = hitting_set_formula(rng, rng.randint(4, 12))
        solve(f)
        enumerate_all(f)
    assert len(leaves) > 300 and all(leaves)

    leaves.clear()
    res = solve(encode_ics(build_sbg(), 9))
    assert len(leaves) == res.stats.bound_conflicts == 229 and all(leaves)


def test_each_bound_fixing_is_one_cutting_planes_sum(monkeypatch):
    # the same sum forces every fixed literal: with any one fixed variable
    # made true instead, propagation refutes it
    fixings = []  # per fixing: (fixed literals, each refuted)

    def on_fire(eng, used, fixed):
        if fixed:
            true = _true_literals(eng)
            fixings.append((len(fixed), all(_sum_refutes(used, true + [~lit]) for lit in fixed)))

    watch_bound(monkeypatch, on_fire)
    rng = random.Random(21)
    for _ in range(600):
        f = hitting_set_formula(rng, rng.randint(4, 12))
        solve(f)
        enumerate_all(f)
    assert len(fixings) > 300 and all(ok for _, ok in fixings)

    # on the SBG: budget 9, and the exact-10 enumeration through its models
    fixings.clear()
    res = solve(encode_ics(build_sbg(), 9))
    assert res.stats.decisions == 300  # watching changes no search
    assert len(fixings) == res.stats.bound_fixings == 315 and all(ok for _, ok in fixings)
    assert sum(n for n, _ in fixings) == 2279
    fixings.clear()
    assert len(enumerate_all(encode_ics(build_sbg(), 10, exact=True))) == 26
    assert len(fixings) == 1690 and all(ok for _, ok in fixings)
    assert sum(n for n, _ in fixings) == 10751


def test_a_decision_that_uses_up_the_slack_fixes_the_rest_false():
    # x1 + ... + x7 <= 3 with clauses x1 | x2 and x3 | x4: at the root the two
    # clauses cannot use up the slack of 3, but after x5 = 1 they use up the
    # slack of 2, so x6 and x7 must be false
    eng = _Search(7)
    eng.add_constraint(normalize([(1, pos(v)) for v in range(1, 8)], "<=", 3)[0])
    eng.add_constraint(LinearConstraint(((1, pos(1)), (1, pos(2))), 1))
    eng.add_constraint(LinearConstraint(((1, pos(3)), (1, pos(4))), 1))
    assert eng.propagate() and eng.bound() == ((), 0)
    eng.assign(4, 1)
    assert eng.propagate()
    x6_x7_false = 1 << 2 * 5 + 1 | 1 << 2 * 6 + 1
    assert eng.bound() == ((0, 1, 2), x6_x7_false)
    assert [eng.value(v) for v in range(7)] == [-1, -1, -1, -1, 1, 0, 0]
    assert eng.trail[-1][0] == x6_x7_false  # one trail entry
    # the fixing propagates; the bound then finds nothing more
    assert not eng._refuted()
    assert eng.stats.bound_fixings == 1 and eng.stats.bound_conflicts == 0


def test_units_on_both_literals_of_a_variable_are_one_conflict():
    # x1 + x2 >= 1 and ~x1 + x2 >= 1: x2 = 0 makes both units, on x1 and
    # on ~x1, which is one conflict and forces neither
    eng = _Search(2)
    eng.add_constraint(LinearConstraint(((1, pos(1)), (1, pos(2))), 1))
    eng.add_constraint(LinearConstraint(((1, Literal(1, True)), (1, pos(2))), 1))
    assert eng.propagate()
    eng.assign(1, 0)
    assert not eng.propagate()
    assert (eng.stats.conflicts, eng.stats.propagations, len(eng.trail)) == (1, 0, 1)


def test_a_clause_with_larger_coefficients_is_not_packed():
    # x1 + ... + x4 <= 1 with x1 + x2 >= 1 and 2 x3 + 2 x4 >= 1: only
    # clauses with coefficients 1 are packed, so that the at-most constraint
    # plus the picks is one cutting-planes sum; the one pick x1 + x2 uses up
    # the slack of 1 and fixes x3 and x4 false, and propagation refutes
    eng = _Search(4)
    eng.add_constraint(normalize([(1, pos(v)) for v in range(1, 5)], "<=", 1)[0])
    eng.add_constraint(LinearConstraint(((1, pos(1)), (1, pos(2))), 1))
    eng.add_constraint(LinearConstraint(((2, pos(3)), (2, pos(4))), 1))
    assert eng.clauses == 0b010
    assert eng.propagate()
    assert eng.bound() == ((0, 1), 1 << 2 * 2 + 1 | 1 << 2 * 3 + 1)
    assert not eng.propagate()


def _clauses_over(eng, plain):
    """The indices of the engine's packable-kind clauses whose literals lie in *plain*."""
    return [
        ci for ci in range(len(eng.mask))
        if eng.clauses >> ci & 1 and not eng.mask[ci] & ~plain
    ]


def test_the_bound_packs_every_clause_over_the_variables():
    # each at-most constraint packs every clause with coefficients 1 over its
    # variables, whichever was attached first, the at-most constraint or the
    # clauses
    def check(f):
        eng = _search_for(f)
        for (_, plain), packable in zip(eng.at_most, eng.packable):
            assert packable == sum(1 << ci for ci in _clauses_over(eng, plain))
        return eng

    rng = random.Random(5)
    for _ in range(300):
        check(hitting_set_formula(rng, rng.randint(4, 12)))
    f9 = encode_ics(build_sbg(), 9)
    for f in (f9, PBFormula(f9.num_vars, f9.constraints[::-1])):  # at-most last, then first
        eng = check(f)
        assert len(eng.at_most) == 1 and eng.packable[0].bit_count() == 272
