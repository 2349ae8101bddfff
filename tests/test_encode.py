import itertools
import random

import pytest

from conftest import random_graph
from reference import implied_by_definition, models
from sbgkit.encode import (
    Assignment,
    EncodeError,
    LinearConstraint,
    Literal,
    OpbError,
    PBFormula,
    PartialAssignmentError,
    blocking_constraint,
    encode_ics,
    evaluate,
    neg,
    normalize,
    parse_constraint_tokens,
    parse_opb,
    pos,
    write_opb,
)
from sbgkit.graph import Graph, mask_of
from sbgkit.ics import is_ics
from sbgkit.proof import PROOF_HEADER, ProofParseError, parse_proof


def random_raw(rng, n_vars, n_terms):
    terms = [
        (rng.randint(-4, 4), Literal(rng.randint(1, n_vars), rng.random() < 0.5))
        for _ in range(n_terms)
    ]
    relation = rng.choice(["=", "<=", ">=", "<", ">"])
    rhs = rng.randint(-6, 6)
    return terms, relation, rhs


# -- literals and constraints -----------------------------------------------------


def test_literal_negation_involution():
    lit = pos(3)
    assert ~lit == neg(3)
    assert ~~lit == lit
    assert str(neg(7)) == "~x7"


def test_pos_and_neg_are_interned_with_the_parsers_literals():
    # one object per literal, shared with what the OPB parser reads
    (c,) = parse_opb("* #variable= 5 #constraint= 1\n+1 x4 +1 ~x5 >= 1 ;\n").constraints
    assert pos(4) is pos(4) is c.terms[0][1]
    assert neg(5) is neg(5) is c.terms[1][1]
    assert ~pos(5) is neg(5) and ~neg(4) is pos(4)
    assert pos(4) == Literal(4) and neg(5) == Literal(5, True)


def test_literal_requires_positive_var():
    for make in (Literal, pos, neg):
        # twice: the interning cache of pos/neg stores no exception
        for _ in range(2):
            with pytest.raises(EncodeError):
                make(0)


def test_constraint_rejects_repeated_variable():
    with pytest.raises(EncodeError):
        LinearConstraint(((1, pos(1)), (2, pos(1))), 1)


def test_constraint_rejects_non_positive_coefficients():
    for coef in (0, -2):
        with pytest.raises(EncodeError, match=f"positive, got {coef}"):
            LinearConstraint(((1, pos(1)), (coef, pos(2))), 1)


def test_constraint_factory_merges_opposite_literals():
    (c,) = normalize([(2, pos(1)), (1, neg(1)), (1, pos(2))], ">=", 1)
    # 2 x1 + (1 - x1) + x2 >= 1  ->  x1 + x2 >= 0
    assert c == LinearConstraint(((1, pos(1)), (1, pos(2))), 0)
    assert c.trivially_true


# -- normalize --------------------------------------------------------------------


def test_normalize_negated_budget():
    (c,) = normalize([(-1, pos(1)), (-1, pos(2))], ">=", -9)
    assert c == LinearConstraint(((1, neg(1)), (1, neg(2))), -7)
    assert c.trivially_true


def test_normalize_cardinality_budget():
    (c,) = normalize([(1, pos(v)) for v in range(1, 33)], "<=", 9)
    assert c.degree == 23
    assert all(lit.negated and coef == 1 for coef, lit in c.terms)
    assert len(c.terms) == 32


def test_normalize_equality_splits():
    lo, hi = normalize([(1, pos(1)), (1, pos(2))], "=", 1)
    assert lo == LinearConstraint(((1, pos(1)), (1, pos(2))), 1)
    assert hi == LinearConstraint(((1, neg(1)), (1, neg(2))), 1)


def test_normalize_drops_zero_coefficients():
    (c,) = normalize([(0, pos(1)), (1, pos(2))], ">=", 1)
    assert tuple(lit.var for _, lit in c.terms) == (2,)


def test_normalize_strict_relations():
    (c,) = normalize([(1, pos(1))], ">", 0)
    assert c == LinearConstraint(((1, pos(1)),), 1)
    (c,) = normalize([(1, pos(1))], "<", 1)
    assert c == LinearConstraint(((1, neg(1)),), 1)


def test_normalize_rejects_an_unknown_relation():
    for relation in ("!=", "=>", ""):
        with pytest.raises(EncodeError, match="unknown relation"):
            normalize([(1, pos(1))], relation, 1)


def test_normalize_preserves_satisfying_set():
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(1, 6)
        terms, relation, rhs = random_raw(rng, n, rng.randint(0, 5))
        cons = normalize(terms, relation, rhs)
        raw = set()
        for values in models([], n):
            lhs = 0
            for coef, lit in terms:
                v = values[lit.var - 1]
                lhs += coef * ((1 - v) if lit.negated else v)
            if {
                "=": lhs == rhs, "<=": lhs <= rhs, ">=": lhs >= rhs,
                "<": lhs < rhs, ">": lhs > rhs,
            }[relation]:
                raw.add(values)
        assert models(cons, n) == raw


# -- assignments and formulas ------------------------------------------------------


def test_assignment_rejects_bad_values():
    with pytest.raises(EncodeError, match="length"):
        Assignment(2, (0,))
    for bad in (2, -1, 0.5, "1"):
        with pytest.raises(EncodeError, match="0/1/None"):
            Assignment(2, (0, bad))
    a = Assignment.total([1, 0])
    assert (a.value(1), a.value(2)) == (1, 0)
    for var in (0, 3):
        with pytest.raises(EncodeError, match=f"x{var} out of range"):
            a.value(var)


def test_formula_rejects_foreign_variables_and_bad_names():
    with pytest.raises(EncodeError, match="x3 beyond num_vars=2"):
        PBFormula(2, (LinearConstraint(((1, pos(3)),), 1),))
    for names in (("a",), ("a", "b", "c")):
        with pytest.raises(EncodeError, match="names length"):
            PBFormula(2, (), names)
    assert PBFormula(2, (), ("a", "b")).names == ("a", "b")


# -- evaluate ---------------------------------------------------------------------


def test_evaluate_simple():
    c = LinearConstraint(((1, pos(1)), (1, pos(2))), 1)
    assert evaluate(c, Assignment.total([0, 1]))
    assert not evaluate(c, Assignment.total([0, 0]))


def test_evaluate_worked_example():
    c = LinearConstraint(((1, pos(2)), (2, pos(3)), (3, pos(4))), 3)
    a = Assignment(4, (None, 1, 1, 0))
    assert evaluate(c, a)  # 1 + 2 >= 3


def test_evaluate_trivial_degree():
    c = LinearConstraint(((1, neg(1)),), -7)
    assert models([c], 1) == models([], 1) == {(0,), (1,)}


def test_evaluate_requires_support_assigned():
    c = LinearConstraint(((1, pos(2)),), 1)
    with pytest.raises(PartialAssignmentError):
        evaluate(c, Assignment(2, (1, None)))


# -- encode_ics -------------------------------------------------------------------


def test_encode_sbg_budget9_sizes(sbg):
    f = encode_ics(sbg, 9)
    assert len(f.constraints) == 273
    alo = f.constraints[:32]
    unique = f.constraints[32:272]
    budget = f.constraints[272]
    assert len(unique) == 240
    for v, c in enumerate(alo):
        assert c.degree == 1
        assert mask_of(lit.var - 1 for _, lit in c.terms) == sbg.closed_neighborhood(v)
    assert budget.degree == 32 - 9
    assert all(lit.negated for _, lit in budget.terms)


def test_encode_single_node():
    g = Graph(1, [])
    f = encode_ics(g, 1)
    assert len(f.constraints) == 2
    assert f.constraints[0] == LinearConstraint(((1, pos(1)),), 1)
    assert f.constraints[1] == LinearConstraint(((1, neg(1)),), 0)


def test_encode_emits_empty_constraint_for_twins():
    g = Graph(3, [(0, 1), (0, 2), (1, 2)])  # triangle: all pairs are twins
    f = encode_ics(g, 3)
    empties = [c for c in f.constraints if not c.terms and c.degree >= 1]
    assert len(empties) == 3
    assert models(f.constraints, 3) == set()


def test_encode_exact_budget(sbg):
    f = encode_ics(sbg, 10, exact=True)
    assert len(f.constraints) == 274
    lower = f.constraints[-1]
    assert lower.degree == 10
    assert not any(lit.negated for _, lit in lower.terms)


def test_encode_matches_brute_force():
    rng = random.Random(23)
    for _ in range(60):
        n = rng.randint(1, 7)
        g = random_graph(rng, n, p=rng.uniform(0.1, 0.9))
        budget = rng.randint(0, n)
        f = encode_ics(g, budget)
        sat = models(f.constraints, n)
        expected = set()
        for code_bits in itertools.product((0, 1), repeat=n):
            code = mask_of(v for v in range(n) if code_bits[v])
            if code.bit_count() <= budget and is_ics(g, code):
                expected.add(code_bits)
        assert sat == expected


# -- blocking constraints ------------------------------------------------------------


def test_blocking_two_vars():
    a = Assignment.total([1, 0])
    c = blocking_constraint(a)
    assert c == LinearConstraint(((1, neg(1)), (1, pos(2))), 1)


def test_blocking_excludes_exactly_one_assignment():
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(1, 6)
        a = Assignment.total([rng.randint(0, 1) for _ in range(n)])
        c = blocking_constraint(a)
        assert not evaluate(c, a)
        assert models([c], n) == models([], n) - {a.values}


def test_blocking_single_bit_flips():
    a = Assignment.total([1, 1, 0, 1])
    c = blocking_constraint(a)
    for var in range(1, 5):
        flipped = list(a.values)
        flipped[var - 1] ^= 1
        assert evaluate(c, Assignment.total(flipped))


def test_blocking_requires_the_projection_assigned():
    a = Assignment(3, (1, None, 0))
    assert blocking_constraint(a) == LinearConstraint(((1, neg(1)), (1, pos(3))), 1)
    with pytest.raises(PartialAssignmentError, match="x2 is unassigned"):
        blocking_constraint(a, variables=[1, 2])


def test_blocking_restricted_to_projection():
    a = Assignment.total([1, 0, 1])
    c = blocking_constraint(a, variables=[1, 3])
    assert tuple(lit.var for _, lit in c.terms) == (1, 3)


# -- OPB round trip ---------------------------------------------------------------


def test_write_opb_simple():
    f = PBFormula(2, (LinearConstraint(((1, pos(1)), (1, pos(2))), 1),))
    text = write_opb(f)
    assert text.splitlines()[0] == "* #variable= 2 #constraint= 1"
    assert "+1 x1 +1 x2 >= 1 ;" in text


def test_write_opb_negated_literals_signed():
    f = PBFormula(2, (LinearConstraint(((1, neg(1)), (2, neg(2))), 1),))
    assert "-1 x1 -2 x2 >= -2 ;" in write_opb(f)


def test_opb_round_trip_sbg(sbg):
    f = encode_ics(sbg, 9)
    text = write_opb(f)
    again = parse_opb(text)
    assert again == f
    assert write_opb(again) == text


def test_opb_round_trip_random():
    rng = random.Random(41)
    for _ in range(100):
        n = rng.randint(1, 9)
        cons = []
        for _ in range(rng.randint(0, 6)):
            terms, relation, rhs = random_raw(rng, n, rng.randint(0, 5))
            cons.extend(normalize(terms, relation, rhs))
        f = PBFormula(n, tuple(cons))
        text = write_opb(f)
        again = parse_opb(text)
        assert again == f
        assert write_opb(again) == text


def test_opb_parse_errors():
    with pytest.raises(OpbError, match="line 2: missing terminating"):
        parse_opb("* #variable= 2 #constraint= 1\n+1 x1 >= 1\n")
    with pytest.raises(OpbError, match="line 2: .*x9 exceeds"):
        parse_opb("* #variable= 2 #constraint= 1\n+1 x9 >= 1 ;\n")
    with pytest.raises(OpbError, match="line 2: bad variable token"):
        parse_opb("* #variable= 2 #constraint= 1\n+1 y1 >= 1 ;\n")
    with pytest.raises(OpbError, match="missing OPB header"):
        parse_opb("")
    with pytest.raises(OpbError, match="declares 2 constraints but 1"):
        parse_opb("* #variable= 1 #constraint= 2\n+1 x1 >= 1 ;\n")


def test_opb_skips_blank_lines():
    f = parse_opb("\n* #variable= 2 #constraint= 2\n\n+1 x1 >= 1 ;\n  \n+1 x2 >= 1 ;\n\n")
    assert f == parse_opb("* #variable= 2 #constraint= 2\n+1 x1 >= 1 ;\n+1 x2 >= 1 ;\n")


def test_opb_rejects_an_incomplete_name_table():
    with pytest.raises(OpbError, match="^line 1: incomplete variable name table$"):
        parse_opb("* #variable= 2 #constraint= 0\n* name x1 a\n")
    with pytest.raises(OpbError, match="incomplete variable name table"):
        parse_opb("* #variable= 1 #constraint= 0\n* name x1 a\n* name x2 b\n")


def test_opb_ignores_name_lines_of_no_variable():
    head = "* #variable= 1 #constraint= 0\n"
    assert parse_opb(head + "* name x01 foo\n* name x1 a\n").names == ("a",)
    assert parse_opb(head + "* name x01 foo\n").names is None


def test_the_sbg_encoding_is_implied_by_the_definition(sbg):
    for budget, exact, size in [(9, False, 273), (10, True, 274)]:
        f = parse_opb(write_opb(encode_ics(sbg, budget, exact=exact)))
        assert len(f.constraints) == size
        assert all(implied_by_definition(sbg, c, budget, exact) for c in f.constraints)


def test_the_definition_check_rejects_a_mutated_encoding(sbg):
    f = encode_ics(sbg, 10, exact=True)
    first, at_most, at_least = f.constraints[0], f.constraints[-2], f.constraints[-1]
    assert len(first.terms) == 6  # N[P1_1]
    for i in range(6):
        dropped = LinearConstraint(first.terms[:i] + first.terms[i + 1:], 1)
        assert not implied_by_definition(sbg, dropped, 10, True), i
    for c in at_most, at_least:
        for shift in (-1, 1):
            assert not implied_by_definition(sbg, LinearConstraint(c.terms, c.degree + shift), 10, True)
    assert not implied_by_definition(sbg, at_least, 10, False)
    extra = LinearConstraint(tuple((1, pos(v)) for v in (1, 2, 3)), 1)
    assert not implied_by_definition(sbg, extra, 10, True)


def test_opb_name_table_round_trip(sbg):
    f = encode_ics(sbg, 9)
    again = parse_opb(write_opb(f))
    assert again.names == sbg.names()


def test_opb_rejects_nonlinear_products():
    # constraints are linear only; a variable-product term is a parse error,
    # so the idempotence rewrite x*x = x can never be needed downstream
    with pytest.raises(OpbError, match="alternate coefficient and variable"):
        parse_opb("* #variable= 2 #constraint= 1\n+1 x1 x2 >= 1 ;\n")
    with pytest.raises(OpbError, match="bad coefficient"):
        parse_opb("* #variable= 2 #constraint= 1\nx1 x2 >= 1 ;\n")


def test_repeated_variable_merges_on_parse():
    f = parse_opb("* #variable= 1 #constraint= 1\n+1 x1 +2 x1 >= 2 ;\n")
    assert f.constraints[0] == LinearConstraint(((3, pos(1)),), 2)


# -- constraint parser messages ------------------------------------------------------

# decimal integers past Python's integer-string limit (4300 digits)
BIG = "9" * 5000
PARSER_ERRORS = [
    # (case, constraint body without ';', message, raised by parse_opb too)
    ("no relation", "+1 x1 1", "expected exactly one relational operator", True),
    ("two relations", "+1 x1 >= 1 >= 1", "expected exactly one relational operator", True),
    ("adjacent relations", "+1 x1 >= >= 1", "expected exactly one relational operator", True),
    ("relation for a degree", "+1 x1 >= >=", "expected exactly one relational operator", True),
    ("unsupported relation", "+1 x1 <= 1", "unsupported relation '<='", True),
    ("strict relation", "+1 x1 > 0", "unsupported relation '>'", True),
    ("equality", "+1 x1 = 1", "equality not allowed here", False),
    ("no degree", "+1 x1 >=", "expected a single integer degree after the relation", True),
    ("two degrees", "+1 x1 >= 1 2", "expected a single integer degree after the relation", True),
    ("bad degree", "+1 x1 >= y", "bad degree 'y'", True),
    ("non-ASCII degree", "+1 x1 >= ١", "bad degree '١'", True),
    ("odd terms", "+1 x1 x1 >= 1", "terms must alternate coefficient and variable", True),
    ("bad coefficient", "x1 +1 >= 1", "bad coefficient 'x1'", True),
    ("bad variable token", "+1 y1 >= 1", "bad variable token 'y1'", True),
    ("zero variable id", "+1 x0 >= 1", "bad variable token 'x0'", True),
    ("over-long degree", f"+1 x1 >= {BIG}", "integer of 5000 characters is too long", True),
    ("over-long coefficient", f"+{BIG} x1 >= 1", "integer of 5001 characters is too long", True),
    ("over-long variable id", f"+1 x{BIG} >= 1", "integer of 5000 characters is too long", True),
    ("over-long negated id", f"+1 ~x{BIG} >= 1", "integer of 5000 characters is too long", True),
]


@pytest.mark.parametrize(
    "body,message,in_opb", [c[1:] for c in PARSER_ERRORS], ids=[c[0] for c in PARSER_ERRORS]
)
def test_constraint_parser_messages(body, message, in_opb):
    # the same parser reads OPB lines and proof u steps, with the same text
    opb = f"* #variable= 1 #constraint= 1\n{body} ;\n"
    if in_opb:
        with pytest.raises(OpbError) as err:
            parse_opb(opb)
        assert str(err.value) == f"line 2: {message}"
    else:
        parse_opb(opb)
    with pytest.raises(ProofParseError) as err:
        parse_proof(f"{PROOF_HEADER}\nu {body} ;\n")
    assert str(err.value) == f"line 2: bad 'u' constraint: {message}"


# -- the one-pass parser against normalize -----------------------------------------


def _random_coefficient(rng):
    kind = rng.random()
    if kind < 0.1:
        return "0"
    if kind < 0.2:  # a 50-digit integer
        return rng.choice("+-") + str(rng.randrange(10**49, 10**50))
    value = rng.randint(-5, 5)
    return f"{value:+d}" if rng.random() < 0.8 else str(value)


def _random_constraint_tokens(rng):
    n_vars = rng.randint(1, 6)
    tokens = []
    for _ in range(rng.randint(0, 7)):
        # few variables, so literals repeat and opposite ones cancel
        tokens += [_random_coefficient(rng), f"{rng.choice(['', '~'])}x{rng.randint(1, n_vars)}"]
    relation = rng.choice([">=", "="])
    return tokens + [relation, _random_coefficient(rng)]


def test_one_pass_parser_equals_normalize():
    rng = random.Random("one-pass parser")
    for _ in range(3000):
        tokens = _random_constraint_tokens(rng)
        *body, relation, rhs = tokens
        terms = [
            (int(coef), Literal(int(var.lstrip("~x")), var.startswith("~")))
            for coef, var in zip(body[::2], body[1::2])
        ]
        expected = normalize(terms, relation, int(rhs))
        assert parse_constraint_tokens(tokens, 1, allow_equality=True) == expected, tokens


def test_interned_literals_equal_fresh_ones():
    (c,) = parse_constraint_tokens(["+2", "~x3", "-1", "x5", ">=", "1"], 1)
    (again,) = parse_constraint_tokens(["+1", "~x3", ">=", "1"], 1)
    fresh = [Literal(3, True), Literal(5, True)]
    assert [lit for _, lit in c.terms] == fresh
    assert [hash(lit) for _, lit in c.terms] == [hash(lit) for lit in fresh]
    assert again.terms[0][1] is c.terms[0][1]  # one shared object
