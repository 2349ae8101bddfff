import copy
import itertools
import random
import tracemalloc
from collections import Counter

import pytest

import sbgkit.encode as encode_module
import sbgkit.proof as proof_module
from sbgkit.encode import (
    Assignment,
    LinearConstraint,
    Literal,
    evaluate,
    parse_opb,
    neg,
    pos,
)
from sbgkit.fixtures import EXAMPLE_UNSAT_OPB, EXAMPLE_UNSAT_PROOF
from sbgkit.proof import (
    ProofParseError,
    RupChecker,
    VerifyError,
    add,
    axiom_literal,
    divide,
    multiply,
    negation_of,
    parse_proof,
    saturate,
    verify,
)
from sbgkit.solve import root_fixpoint


def random_constraint(rng, n_vars, max_terms=5):
    variables = rng.sample(range(1, n_vars + 1), rng.randint(1, min(max_terms, n_vars)))
    terms = tuple(
        (rng.randint(1, 5), Literal(v, rng.random() < 0.5)) for v in variables
    )
    return LinearConstraint(terms, rng.randint(-3, 6))


def models(c, n):
    out = set()
    for values in itertools.product((0, 1), repeat=n):
        a = Assignment.total(values)
        if evaluate(c, a):
            out.add(values)
    return out


# -- axioms and rules ------------------------------------------------------------


def test_literal_axioms():
    assert axiom_literal(pos(3)) == LinearConstraint(((1, pos(3)),), 0)
    assert axiom_literal(neg(3)) == LinearConstraint(((1, neg(3)),), 0)
    # the two axioms for one variable cancel to the trivial 0 >= -1
    both = add(axiom_literal(pos(3)), axiom_literal(neg(3)))
    assert both == LinearConstraint((), -1)
    assert both.trivially_true


def test_add_cancels_to_worked_values():
    la = LinearConstraint(((2, pos(1)), (1, pos(3)), (2, pos(4))), 3)
    merged = add(la, axiom_literal(neg(3)))
    assert merged == LinearConstraint(((2, pos(1)), (2, pos(4))), 2)


def test_add_unit_chain():
    i8 = LinearConstraint(((1, neg(2)), (1, neg(3))), 2)
    assert add(i8, axiom_literal(pos(3))) == LinearConstraint(((1, neg(2)),), 1)


def test_add_identity():
    c = LinearConstraint(((3, pos(1)), (1, neg(2))), 2)
    assert add(c, LinearConstraint((), 0)) == c


def test_add_commutes():
    rng = random.Random(2)
    for _ in range(100):
        a = random_constraint(rng, 6)
        b = random_constraint(rng, 6)
        assert add(a, b) == add(b, a)


def test_multiply_examples():
    c = LinearConstraint(((1, pos(1)), (1, pos(4))), 1)
    assert multiply(c, 2) == LinearConstraint(((2, pos(1)), (2, pos(4))), 2)
    assert multiply(c, 1) == c
    with pytest.raises(ValueError):
        multiply(c, 0)


def test_divide_examples():
    c = LinearConstraint(((2, pos(1)), (2, pos(4))), 2)
    assert divide(c, 2) == LinearConstraint(((1, pos(1)), (1, pos(4))), 1)
    assert divide(c, 1) == c
    c = LinearConstraint(((3, pos(1)), (1, pos(2))), 2)
    assert divide(c, 2) == LinearConstraint(((2, pos(1)), (1, pos(2))), 1)
    with pytest.raises(ValueError):
        divide(c, -1)


def test_saturate_examples():
    c = LinearConstraint(((5, pos(1)), (1, pos(2))), 2)
    assert saturate(c) == LinearConstraint(((2, pos(1)), (1, pos(2))), 2)
    already = LinearConstraint(((2, pos(1)), (1, pos(2))), 2)
    assert saturate(already) == already
    degenerate = LinearConstraint(((4, pos(1)),), -1)
    assert saturate(degenerate) == LinearConstraint((), -1)


def test_multiply_preserves_models():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 8)
        c = random_constraint(rng, n)
        assert models(c, n) == models(multiply(c, rng.randint(1, 4)), n)


def test_saturate_preserves_models():
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(1, 8)
        c = random_constraint(rng, n)
        assert models(c, n) == models(saturate(c), n)


def test_rules_are_sound():
    # premise models always satisfy the conclusion, for every rule
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 8)
        a = random_constraint(rng, n)
        b = random_constraint(rng, n)
        universe = models(LinearConstraint((), 0), n)
        assert models(a, n) & models(b, n) <= models(add(a, b), n)
        assert models(a, n) <= models(divide(a, rng.randint(1, 4)), n)
        assert models(a, n) <= models(multiply(a, rng.randint(1, 4)), n)
        assert models(a, n) <= models(saturate(a), n)
        assert universe == models(axiom_literal(Literal(1, rng.random() < 0.5)), n)


def test_negation_of():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randint(1, 7)
        c = random_constraint(rng, n)
        flipped = models(negation_of(c), n)
        assert flipped == models(LinearConstraint((), 0), n) - models(c, n)


def test_negation_of_a_trivially_true_constraint_has_no_models():
    for c in (
        LinearConstraint(((2, pos(1)), (1, neg(2))), 0),
        LinearConstraint(((1, pos(1)),), -3),
        LinearConstraint((), 0),
    ):
        assert c.trivially_true
        assert models(negation_of(c), 2) == set()


def test_negation_of_the_empty_contradiction_is_trivially_true():
    negation = negation_of(LinearConstraint((), 1))
    assert negation == LinearConstraint((), 0)
    assert negation.trivially_true


def test_negation_of_twice_keeps_the_models():
    rng = random.Random(12)
    for _ in range(100):
        n = rng.randint(1, 6)
        c = random_constraint(rng, n)
        assert models(negation_of(negation_of(c)), n) == models(c, n)


# -- proof parsing -----------------------------------------------------------------


def test_parse_fixture_steps():
    steps = parse_proof(EXAMPLE_UNSAT_PROOF)
    assert len(steps) == 16
    kinds = [s.kind for s in steps]
    assert kinds == (
        ["header", "rup"] + ["load"] * 7 + ["polish"] * 6 + ["contradiction"]
    )
    assert steps[9].arg == (
        ("id", 8), ("id", 4), ("lit", neg(3)), ("+", None), ("d", 2), ("+", None)
    )
    assert steps[-1].arg == 14


def test_parse_skips_blank_and_comment_lines():
    spaced = "* before the header\n\n" + EXAMPLE_UNSAT_PROOF.replace("\n", "\n\n  * note\n")
    steps = parse_proof(spaced)
    assert [s[::2] for s in steps] == [s[::2] for s in parse_proof(EXAMPLE_UNSAT_PROOF)]
    assert steps[1].line_no == 6


def test_parse_requires_header():
    with pytest.raises(ProofParseError, match="expected header"):
        parse_proof("l 1\n")
    with pytest.raises(ProofParseError, match="missing header") as err:
        parse_proof("")
    assert err.value.line_no == 1


def test_parse_rejects_malformed_rpn():
    head = "pseudo-Boolean proof version 1.0\n"
    with pytest.raises(ProofParseError, match="two stack entries"):
        parse_proof(head + "p 1 + 0\n")
    with pytest.raises(ProofParseError, match="leaves 2 stack entries"):
        parse_proof(head + "p 1 2 0\n")
    with pytest.raises(ProofParseError, match="'d' with empty stack"):
        parse_proof(head + "p 1 d 0\n")
    with pytest.raises(ProofParseError, match="without preceding integer"):
        parse_proof(head + "p 1 2 + d 0\n")
    with pytest.raises(ProofParseError, match="must end with 0"):
        parse_proof(head + "p 1 2 +\n")
    with pytest.raises(ProofParseError, match="unknown token"):
        parse_proof(head + "p 1 2 & 0\n")


def test_parse_rejects_unsupported_rules_loudly():
    head = "pseudo-Boolean proof version 1.0\n"
    for directive in ("del 3", "red +1 x1 >= 1 ;", "f 7", "d 3 0"):
        with pytest.raises(ProofParseError, match="unsupported rule"):
            parse_proof(head + directive + "\n")
    with pytest.raises(ProofParseError, match="unknown directive"):
        parse_proof(head + "q 1\n")


def test_parse_error_line_numbers():
    text = "pseudo-Boolean proof version 1.0\nl 1\nl x\n"
    with pytest.raises(ProofParseError) as err:
        parse_proof(text)
    assert err.value.line_no == 3


# -- verification ------------------------------------------------------------------


@pytest.fixture()
def example():
    return parse_opb(EXAMPLE_UNSAT_OPB)


def test_verify_fixture(example):
    outcome = verify(example, parse_proof(EXAMPLE_UNSAT_PROOF))
    assert outcome.contradiction_id == 14
    final = outcome.constraints[14]
    assert final == LinearConstraint((), 1)
    # id numbering: the opening rup line is 1, loads are 2..8
    assert outcome.constraints[2] == example.constraints[0]
    assert outcome.constraints[8] == example.constraints[6]
    assert outcome.constraints[9] == LinearConstraint(((1, neg(2)), (1, neg(3))), 2)
    assert outcome.constraints[10] == LinearConstraint(((1, neg(2)),), 1)


def test_verify_requires_contradiction_claim(example):
    steps = parse_proof("pseudo-Boolean proof version 1.0\n")
    with pytest.raises(VerifyError, match="without a contradiction"):
        verify(example, steps)
    # the error names the last step's line, and line 1 when there is none
    for steps, line in ((parse_proof("pseudo-Boolean proof version 1.0\nl 1\nl 2\n"), 3), ([], 1)):
        with pytest.raises(VerifyError, match="without a contradiction") as err:
            verify(example, steps)
        assert err.value.line_no == line


def test_verify_rejects_claim_on_satisfiable_constraint(example):
    text = EXAMPLE_UNSAT_PROOF.replace("c 14 0", "c 2 0")
    with pytest.raises(VerifyError, match="not a contradiction"):
        verify(example, parse_proof(text))


def test_verify_rup_failure(example):
    # a constraint not derivable by propagation alone from nothing
    text = "pseudo-Boolean proof version 1.0\nu +1 x1 >= 1 ;\n"
    with pytest.raises(VerifyError, match="propagation does not refute"):
        verify(example, parse_proof(text))


def test_verify_load_out_of_range(example):
    text = "pseudo-Boolean proof version 1.0\nl 8\n"
    with pytest.raises(VerifyError, match="out of range"):
        verify(example, parse_proof(text))


MUTATIONS = [
    # (name, original line, replacement, failing line, message fragment)
    ("wrong id", "p 7 10 + 0", "p 7 99 + 0", 13, "not assigned"),
    ("wrong divisor", "p 8 4 ~x3 + 2 d + 0", "p 8 4 ~x3 + 0 d + 0", 10, "divisor"),
    ("wrong literal", "p 9 x3 + 0", "p 9 x4 + 0", 16, "not a contradiction"),
    ("missing step", "p 9 x3 + 0\n", "", 14, "not assigned"),
    ("wrong claim", "c 14 0", "c 13 0", 16, "not a contradiction"),
]


@pytest.mark.parametrize("name,old,new,line,fragment", MUTATIONS)
def test_verify_rejects_mutations(example, name, old, new, line, fragment):
    text = EXAMPLE_UNSAT_PROOF.replace(old, new)
    assert text != EXAMPLE_UNSAT_PROOF
    with pytest.raises(VerifyError) as err:
        verify(example, parse_proof(text))
    assert err.value.line_no == line, name
    assert fragment in str(err.value)


def test_verify_stores_a_saturated_derivation(example):
    # p 3 x4 + s 0: (x2 + 2 x3 + 3 x4 >= 3) + (x4 >= 0) has 4 x4, capped at 3
    text = EXAMPLE_UNSAT_PROOF.replace("c 14 0", "p 3 x4 + s 0\nc 14 0")
    outcome = verify(example, parse_proof(text))
    assert outcome.contradiction_id == 14
    summed = add(example.constraints[1], axiom_literal(pos(4)))
    assert outcome.constraints[15] == saturate(summed) != summed
    assert dict((lit, coef) for coef, lit in outcome.constraints[15].terms)[pos(4)] == 3


def test_parse_rejects_saturation_of_an_empty_stack():
    with pytest.raises(ProofParseError, match="'s' with empty stack") as err:
        parse_proof("pseudo-Boolean proof version 1.0\nl 1\np s 0\n")
    assert err.value.line_no == 3


@pytest.mark.parametrize("step,message", [
    ("l +1", "'l' expects a 1-based index, got '+1'"),
    ("c +1 0", "'c' expects '<id> 0'"),
    ("c 00 0", "'c' expects a 1-based id, got '00'"),
    ("p +1 0", "bad constraint id '+1'"),
    ("p -1 0", "bad constraint id '-1'"),
    ("p 0 0", "bad constraint id '0'"),
    ("p 1 +2 * 0", "bad multiplier '+2'"),
    ("p 1 -2 * 0", "bad multiplier '-2'"),
    ("p 1 +2 d 0", "bad divisor '+2'"),
    ("p 1 -2 d 0", "bad divisor '-2'"),
])
def test_parse_reads_constraint_ids_as_unsigned_digits(step, message):
    # a signed id is malformed in every step that names one, and so is a
    # signed multiplier or divisor
    with pytest.raises(ProofParseError) as err:
        parse_proof(f"pseudo-Boolean proof version 1.0\nl 1\n{step}\n")
    assert str(err.value) == f"line 3: {message}"


def test_parse_takes_id_1_in_every_step():
    steps = parse_proof("pseudo-Boolean proof version 1.0\nl 1\np 1 0\nc 1 0\n")
    assert [s.arg for s in steps[1:]] == [1, (("id", 1),), 1]


def test_verify_rejects_multiplication_by_zero(example):
    # 0 * C is trivially sound, but the rule allows only positive multipliers
    with pytest.raises(VerifyError, match="multiplier must be positive, got 0") as err:
        verify(example, parse_proof("pseudo-Boolean proof version 1.0\nl 1\np 1 0 * 0\n"))
    assert err.value.line_no == 3
    assert err.value.rule == "*"


def test_verified_fixture_is_actually_unsat(example):
    # independent spot check: the verified formula has no models at all
    for values in itertools.product((0, 1), repeat=example.num_vars):
        assert not example.satisfied_by(Assignment.total(values))


# -- the incremental RUP checker ---------------------------------------------------


def random_clause(rng, n_vars, max_terms=3):
    variables = rng.sample(range(1, n_vars + 1), rng.randint(1, min(max_terms, n_vars)))
    return LinearConstraint(tuple((1, Literal(v, rng.random() < 0.5)) for v in variables), 1)


def _mixed(rng, n):
    return random_constraint(rng, n, max_terms=4)


def _path_counting_checker():
    """A RupChecker subclass and a Counter of its checks: "attached" when
    the assumption was attached for propagation, "unattached" when not.  The
    counts live outside the checker, whose state some tests compare."""
    paths, flips = Counter(), []

    class PathCountingChecker(RupChecker):
        def _flip(self, *args):
            flips.append(args)
            super()._flip(*args)

        def _refutes(self, *args):
            flips.clear()
            refuted = super()._refutes(*args)
            paths["attached" if flips else "unattached"] += 1
            return refuted

    return PathCountingChecker, paths


def _agreement_with_root_fixpoint(
    seed, ids_for, draw=_mixed, sizes=(1, 7), lengths=(1, 8), p_store=0.4
):
    # random store / u sequences of draw(rng, n) over variables ids_for(rng, n);
    # every verdict against root_fixpoint, which sees the same ids as the
    # checker; each u step is checked by refutes on its negation, then by
    # derive, which checks the step's swapped-bit negation and keeps the step
    rng = random.Random(seed)
    checker_type, paths = _path_counting_checker()
    verdicts = {True: 0, False: 0}
    root_conflicts = 0
    for _ in range(1500):
        n = rng.randint(*sizes)
        ids = ids_for(rng, n)

        def mapped(c):
            terms = tuple((coef, Literal(ids[lit.var - 1], lit.negated)) for coef, lit in c.terms)
            return LinearConstraint(terms, c.degree)

        checker = checker_type()
        stored = []
        for _ in range(rng.randint(*lengths)):
            c = mapped(draw(rng, n))
            if rng.random() < p_store:
                checker.store(c)
                stored.append(c)
                continue
            negation = negation_of(c)
            verdict = checker.refutes(negation)
            assert verdict == (root_fixpoint(stored + [negation]) is None), (stored, c)
            assert checker.derive(c) == verdict, (stored, c)
            # once the stored constraints conflict, refutes answers True
            # without propagating, so only the checks before that count
            if root_fixpoint(stored) is not None:
                verdicts[verdict] += 1
            if verdict:
                stored.append(c)
        root_conflicts += root_fixpoint(stored) is None
    return verdicts, root_conflicts, paths


def test_rup_checker_agrees_with_fresh_propagation():
    verdicts, root_conflicts, paths = _agreement_with_root_fixpoint(
        7, lambda rng, n: range(1, n + 1)
    )
    assert min(verdicts.values()) > 1000, verdicts
    assert root_conflicts > 50, root_conflicts
    assert min(paths["attached"], paths["unattached"]) > 300, paths


def test_rup_checker_agrees_on_sparse_huge_variable_ids():
    # as above, with the variables mapped through a random injection into
    # 1..10**12; the dict-based reference sees the huge ids directly
    verdicts, root_conflicts, paths = _agreement_with_root_fixpoint(
        8, lambda rng, n: rng.sample(range(1, 10**12 + 1), n)
    )
    assert min(verdicts.values()) > 1000, verdicts
    assert root_conflicts > 50, root_conflicts
    assert min(paths["attached"], paths["unattached"]) > 300, paths


def test_rup_checker_agrees_with_fresh_propagation_on_clauses():
    # longer sequences of short clauses over few variables: a checker that
    # misreads which literals a false negated literal makes true withholds
    # forced literals here, which the mixed sequences above almost never show;
    # the negation of a clause leaves no literal free, so none is attached
    verdicts, root_conflicts, paths = _agreement_with_root_fixpoint(
        9, lambda rng, n: range(1, n + 1), draw=random_clause,
        sizes=(3, 6), lengths=(4, 16), p_store=0.7,
    )
    assert min(verdicts.values()) > 1000, verdicts
    assert root_conflicts > 300, root_conflicts
    assert paths["attached"] == 0 and paths["unattached"] > 300, paths


def test_rup_through_a_false_negated_literal():
    # ~x1 makes x1 false at the root; assuming x3, ~x3 + ~x2 makes x2 false
    # and x1 + ~x3 + x2 then has no true literal left
    clauses = [
        LinearConstraint(((1, neg(3)), (1, neg(1))), 1),
        LinearConstraint(((1, pos(1)), (1, neg(3)), (1, pos(2))), 1),
        LinearConstraint(((1, pos(1)), (1, pos(3)), (1, pos(2))), 1),
        LinearConstraint(((1, neg(3)), (1, neg(2))), 1),
        LinearConstraint(((1, neg(1)),), 1),
    ]
    checker = RupChecker()
    for c in clauses:
        checker.store(c)
    negation = negation_of(LinearConstraint(((1, neg(3)),), 1))
    assert root_fixpoint(clauses + [negation]) is None
    assert checker.refutes(negation)


def _visits(checker):
    """The constraint indices the checker reads from now on, in order."""
    visits = []

    class CountingList(list):
        def __getitem__(self, index):
            visits.append(index)
            return super().__getitem__(index)

    checker._cons = CountingList(checker._cons)
    return visits


def test_rup_propagates_the_newest_constraint_first():
    # 200 clauses x1 + x_i, then x1 + x2 and x1 + ~x2: assuming ~x1, the
    # check visits the two newest clauses, which conflict, and none of the
    # 200 older clauses that x1 false also wakes; the assumption, the
    # negation of a clause, fires at the snapshot and is never visited
    checker = RupChecker()
    for i in range(3, 203):
        checker.store(LinearConstraint(((1, pos(1)), (1, pos(i))), 1))
    checker.store(LinearConstraint(((1, pos(1)), (1, pos(2))), 1))
    checker.store(LinearConstraint(((1, pos(1)), (1, neg(2))), 1))
    visits = _visits(checker)
    assert checker.refutes(negation_of(LinearConstraint(((1, pos(1)),), 1)))
    assert visits == [201, 200]


def test_rup_skips_a_constraint_that_a_true_literal_satisfies():
    # assuming x2 and ~x3, x3 false does not wake x2 + x3 >= 1, which x2
    # alone satisfies
    checker = RupChecker()
    checker.store(LinearConstraint(((1, pos(2)), (1, pos(3))), 1))
    visits = _visits(checker)
    assert not checker.refutes(LinearConstraint(((1, pos(2)), (1, neg(3))), 2))
    assert visits == []


def test_rup_attaches_an_assumption_that_keeps_a_free_literal():
    # 2 x1 + x2 + x3 >= 3 forces x1 and leaves x2 and x3 free, so it is
    # attached: x1 makes x3 false, which wakes it to force x2, and then
    # ~x1 + ~x2 has no true literal left
    checker_type, paths = _path_counting_checker()
    checker = checker_type()
    stored = [
        LinearConstraint(((1, neg(1)), (1, neg(2))), 1),
        LinearConstraint(((1, neg(1)), (1, neg(3))), 1),
    ]
    for c in stored:
        checker.store(c)
    assumption = LinearConstraint(((2, pos(1)), (1, pos(2)), (1, pos(3))), 3)
    visits = _visits(checker)
    assert checker.refutes(assumption)
    assert root_fixpoint(stored + [assumption]) is None
    assert visits == [1, 2, 0] and paths == {"attached": 1}
    # alone it forces x1 and propagates to a fixpoint, still attached, and
    # is not visited again since none of its literals becomes false
    alone = checker_type()
    visits = _visits(alone)
    assert not alone.refutes(assumption)
    assert root_fixpoint([assumption]) is not None
    assert visits == [] and paths == {"attached": 2}
    # 2 x1 + x3 >= 2 with x3 true at the root forces x1 and leaves no literal
    # free, so it is not attached
    alone.store(LinearConstraint(((1, pos(3)),), 1))
    assert not alone.refutes(LinearConstraint(((2, pos(1)), (1, pos(3))), 2))
    assert paths == {"attached": 2, "unattached": 1}
    # the negation of x1 + x2 + x3 >= 2 forces nothing, so it is not
    # attached either: the snapshot stays a fixpoint
    c = LinearConstraint(((1, pos(1)), (1, pos(2)), (1, pos(3))), 2)
    assert not checker_type().derive(c)
    assert root_fixpoint([negation_of(c)]) is not None
    assert paths == {"attached": 2, "unattached": 2}


def test_refutes_leaves_the_checker_as_it_was():
    # whatever the verdict and the path, and also when the assumption names
    # variables that no stored constraint has, a check changes none of the
    # state; so does a failed derive of the assumption's negation, which a
    # copy of the checker runs
    rng = random.Random(11)
    checker_type, paths = _path_counting_checker()
    verdicts = {True: 0, False: 0}
    new_variables = failed_derives = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        checker = checker_type()
        for _ in range(rng.randint(0, 5)):
            checker.store(random_constraint(rng, n, max_terms=4))
        for _ in range(3):
            assumption = random_constraint(rng, n + 2, max_terms=4)
            before = copy.deepcopy(vars(checker))
            verdict = checker.refutes(assumption)
            verdicts[verdict] += 1
            assert vars(checker) == before
            new_variables += assumption.max_var() > n
            trial = copy.deepcopy(checker)
            assert trial.derive(negation_of(assumption)) == verdict
            if not verdict:
                assert vars(trial) == before
                failed_derives += assumption.max_var() > n
    assert min(verdicts.values()) > 300 and new_variables > 500, (verdicts, new_variables)
    assert failed_derives > 300, failed_derives
    assert min(paths["attached"], paths["unattached"]) > 60, paths


# the fixture proof with two u steps after the contradiction at id 14 is derived
LATE_RUP_PROOF = EXAMPLE_UNSAT_PROOF.replace(
    "c 14 0", "u +1 x1 >= 1 ;\nu +1 x2 +1 ~x4 +1 x6 >= 1 ;\nc 14 0"
)


def test_verify_builds_one_rup_checker(example, monkeypatch):
    built = []

    class CountingChecker(RupChecker):
        def __init__(self):
            built.append(self)
            super().__init__()

    monkeypatch.setattr(proof_module, "RupChecker", CountingChecker)
    assert verify(example, parse_proof(LATE_RUP_PROOF)).contradiction_id == 14
    assert len(built) == 1


def test_rup_after_root_conflict_is_accepted(example):
    # once the stored constraints conflict, any u step is accepted, as a
    # fresh propagation over the same constraints accepts it
    outcome = verify(example, parse_proof(LATE_RUP_PROOF))
    constraints = outcome.constraints
    assert len(constraints) == 16
    for cid in (15, 16):
        earlier = [constraints[i] for i in range(1, cid)]
        assert root_fixpoint(earlier + [negation_of(constraints[cid])]) is None


def test_rup_and_polish_beyond_formula_variables(example):
    # the formula has x1..x4; the checker grows with the constraints it sees
    head = "pseudo-Boolean proof version 1.0\nl 1\np 1 x9 + 0\n"
    wide_rup = "u +1 x1 +1 x2 +1 x3 +1 x12 >= 1 ;\n"
    refutation = "l 5\nl 6\nl 7\np 4 5 + 6 + 0\nc 7 0\n"
    outcome = verify(example, parse_proof(head + wide_rup + refutation))
    assert [outcome.constraints[i].max_var() for i in (2, 3)] == [9, 12]
    with pytest.raises(VerifyError) as err:
        verify(example, parse_proof(head + "u +1 x9 >= 1 ;\n"))
    assert err.value.line_no == 4
    assert "propagation does not refute" in str(err.value)


def test_rup_on_a_huge_variable_id_costs_two_bits(example):
    # the checker numbers variables densely, so x4000000000 takes two literal
    # bits, not a mask as wide as its id
    text = (
        "pseudo-Boolean proof version 1.0\nl 1\n"
        "u +1 x1 +1 x2 +1 x3 +1 x4000000000 >= 1 ;\n"
        "l 5\nl 6\nl 7\np 3 4 + 5 + 0\nc 6 0\n"
    )
    tracemalloc.start()
    try:
        outcome = verify(example, parse_proof(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert outcome.contradiction_id == 6
    assert outcome.constraints[2].max_var() == 4_000_000_000
    assert peak < 1 << 20, peak


def test_parsing_many_variables_keeps_the_token_caches_bounded():
    # 100,000 distinct variable ids and coefficients, in u and p steps
    lines = ["pseudo-Boolean proof version 1.0"]
    for start in range(1, 75_001, 150):
        terms = " ".join(f"+{v} ~x{v}" for v in range(start, start + 150))
        lines.append(f"u {terms} >= 1 ;")
    lines.extend(f"p x{v} ~x{v + 1} + 0" for v in range(75_001, 100_001, 2))
    assert len(parse_proof("\n".join(lines))) == 1 + 500 + 12_500
    caches = {
        encode_module._literal: encode_module._LITERAL_CACHE_SIZE,
        encode_module._read_int: encode_module._TOKEN_CACHE_SIZE,
        encode_module._read_literal: encode_module._TOKEN_CACHE_SIZE,
    }
    for cache, bound in caches.items():
        info = cache.cache_info()
        assert info.maxsize == bound
        assert info.currsize <= bound
