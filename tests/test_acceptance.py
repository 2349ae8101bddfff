"""Acceptance suite: every headline requirement, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see one PASS line per
criterion; the asserts enforce the exact expected values and the stated
wall-clock budgets.
"""

import itertools
import random
import time

import numpy as np
import pytest

from conftest import random_graph
from sbgkit.encode import (
    Assignment,
    LinearConstraint,
    Literal,
    PBFormula,
    encode_ics,
    normalize,
    parse_opb,
    write_opb,
)
from sbgkit.fixtures import EXAMPLE_UNSAT_OPB, EXAMPLE_UNSAT_PROOF
from sbgkit.graph import build_sbg, mask_of, parse_edge_list, write_edge_list
from sbgkit.ics import classify_solutions, color_table, is_ics
from sbgkit.oracle import count_ics, min_ics_size
from sbgkit.proof import VerifyError, add, divide, multiply, parse_proof, saturate, verify
from sbgkit.solve import SolveLimitReached, enumerate_all, solve


def report(criterion, message):
    print(f"\nACCEPTANCE {criterion}: PASS - {message}")


@pytest.fixture(scope="module")
def sbg():
    return build_sbg()


@pytest.fixture(scope="module")
def oracle_counts(sbg):
    counts = {}
    for k in (8, 9, 10):
        t = time.time()
        count, sols = count_ics(sbg, k, collect=(k == 10))
        counts[k] = (count, sols, time.time() - t)
    return counts


def test_criterion_1_sbg_structure(sbg):
    t = time.time()
    degrees = sorted(sbg.degree(v) for v in range(sbg.n))
    elapsed = time.time() - t
    assert sbg.n == 32
    assert sbg.edge_count == 90
    assert degrees == [5] * 12 + [6] * 20
    assert elapsed < 1.0
    report(1, "32 nodes, 90 edges, 12 of degree 5 and 20 of degree 6")


# Color strings per node for the two-ring injection, with * marking the
# injected color; letters A..E belong to H2_1..H2_5 and F..J to H5_1..H5_5.
RING_TABLE = {
    "P1_1": "ABCDE", "H2_1": "A*BE", "H2_2": "AB*C", "H2_3": "BC*D",
    "H2_4": "CD*E", "H2_5": "DE*A", "H3_1": "A", "P3_1": "AB",
    "H3_2": "B", "P3_2": "BC", "H3_3": "C", "P3_3": "CD",
    "H3_4": "D", "P3_4": "DE", "H3_5": "E", "P3_5": "AE",
    "P4_1": "JF", "H4_1": "F", "P4_2": "FG", "H4_2": "G",
    "P4_3": "GH", "H4_3": "H", "P4_4": "HI", "H4_4": "I",
    "P4_5": "IJ", "H4_5": "J", "H5_1": "JF*G", "H5_2": "FG*H",
    "H5_3": "GH*I", "H5_4": "HI*J", "H5_5": "IJ*F", "P6_1": "FGHIJ",
}


def parse_cell(cell):
    colors, starred = set(), set()
    for i, ch in enumerate(cell):
        if ch == "*":
            starred.add(cell[i - 1])
        else:
            colors.add(ch)
    return colors, starred


def test_criterion_2_ring_coloring_table(sbg):
    t = time.time()
    ring = mask_of(
        [sbg.node_id(f"H2_{j}") for j in range(1, 6)]
        + [sbg.node_id(f"H5_{j}") for j in range(1, 6)]
    )
    rows = dict(color_table(sbg, ring))
    elapsed = time.time() - t
    assert set(rows) == set(RING_TABLE)
    for name, expected_cell in RING_TABLE.items():
        assert parse_cell(rows[name]) == parse_cell(expected_cell), name
    assert elapsed < 1.0
    report(2, "all 32 rows of the two-ring coloring match, stars included")


def test_criterion_3_encoding_size(sbg):
    t = time.time()
    f = encode_ics(sbg, 9)
    elapsed = time.time() - t
    assert len(f.constraints) == 273  # 32 coverage + 240 pairs + 1 budget
    text = write_opb(f)
    assert text.splitlines()[0] == "* #variable= 32 #constraint= 273"
    assert elapsed < 1.0
    report(3, "budget-9 encoding has exactly 273 constraints")


def test_criterion_4_lower_bound(sbg, oracle_counts):
    c8, _, t8 = oracle_counts[8]
    c9, _, t9 = oracle_counts[9]
    assert (c8, c9) == (0, 0)
    assert t8 + t9 < 300
    t = time.time()
    res = solve(encode_ics(sbg, 9))
    solver_time = time.time() - t
    assert res.status == "UNSAT"
    # the search tree: a change in these counts is a change of search, or for
    # propagations of what propagation forces before each conflict
    stats = res.stats
    assert (
        stats.decisions, stats.propagations, stats.conflicts,
        stats.bound_conflicts, stats.bound_fixings,
    ) == (300, 1_017, 301, 229, 315)
    assert solver_time < 300
    report(4, f"no code of size 8 or 9; solver refutes budget 9 in {solver_time:.1f}s")


def test_criterion_5_upper_bound_and_count(sbg, oracle_counts):
    c10, sols, t10 = oracle_counts[10]
    assert c10 == 26
    assert t10 < 900
    assert min_ics_size(sbg, 12) == 10

    t = time.time()
    # the search tree: 1,390 decisions exhaust it, one fewer does not
    exact = enumerate_all(encode_ics(sbg, 10, exact=True), node_limit=1_390)
    enum_time = time.time() - t
    assert enum_time < 600
    assert len(exact) == 26
    with pytest.raises(SolveLimitReached) as exc:
        enumerate_all(encode_ics(sbg, 10, exact=True), node_limit=1_389)
    assert exc.value.stats.decisions == 1_389
    assert sorted(a.code_mask() for a in exact) == sorted(sols)

    # the plain <=10 budget must coincide: no smaller code exists
    relaxed = enumerate_all(encode_ics(sbg, 10))
    assert sorted(a.code_mask() for a in relaxed) == sorted(sols)
    report(5, f"exactly 26 codes of size 10; enumeration agrees in {enum_time:.1f}s")


def test_criterion_6_class_histogram(oracle_counts):
    _, sols, _ = oracle_counts[10]
    hist = classify_solutions(sols)
    assert hist.counts == {"I": 1, "II": 10, "III": 10, "IV": 5}
    assert hist.unmatched == []
    report(6, "histogram I:1 II:10 III:10 IV:5 with zero unmatched")


MUTATIONS = [
    ("wrong id", "p 7 10 + 0", "p 7 99 + 0", 13),
    ("wrong divisor", "p 8 4 ~x3 + 2 d + 0", "p 8 4 ~x3 + 0 d + 0", 10),
    ("wrong literal", "p 9 x3 + 0", "p 9 x4 + 0", 16),
    ("missing step", "p 9 x3 + 0\n", "", 14),
    ("wrong contradiction claim", "c 14 0", "c 13 0", 16),
]


def test_criterion_7_proof_verification():
    t = time.time()
    f = parse_opb(EXAMPLE_UNSAT_OPB)
    outcome = verify(f, parse_proof(EXAMPLE_UNSAT_PROOF))
    assert outcome.contradiction_id == 14
    assert outcome.constraints[14] == LinearConstraint((), 1)  # 0 >= 1
    for name, old, new, expected_line in MUTATIONS:
        mutated = EXAMPLE_UNSAT_PROOF.replace(old, new)
        assert mutated != EXAMPLE_UNSAT_PROOF, name
        start = time.time()
        with pytest.raises(VerifyError) as err:
            verify(f, parse_proof(mutated))
        assert err.value.line_no == expected_line, name
        assert time.time() - start < 1.0
    assert time.time() - t < 6.0
    report(7, "fixture proof verifies; all five mutations rejected at the right step")


def assignment_matrix(nv):
    rows = np.arange(1 << nv, dtype=np.uint32)
    return (rows[:, None] >> np.arange(nv, dtype=np.uint32)[None, :]) & 1


def sat_vector(c, A):
    lhs = np.zeros(len(A), dtype=np.int64)
    for coef, lit in c.terms:
        col = A[:, lit.var - 1]
        lhs += coef * ((1 - col) if lit.negated else col)
    return lhs >= c.degree


def random_constraint(rng, nv):
    variables = rng.sample(range(1, nv + 1), rng.randint(1, nv))
    terms = tuple(
        (rng.randint(1, 6), Literal(v, rng.random() < 0.5)) for v in variables
    )
    return LinearConstraint(terms, rng.randint(-4, 10))


def test_criterion_8_rule_soundness_properties():
    t = time.time()
    rng = random.Random(2024)
    nv = 10
    A = assignment_matrix(nv)
    trials = 10_000
    for _ in range(trials):
        a = random_constraint(rng, nv)
        b = random_constraint(rng, nv)
        premise = sat_vector(a, A) & sat_vector(b, A)
        assert not (premise & ~sat_vector(add(a, b), A)).any()
    for rule in (
        lambda c: multiply(c, rng.randint(1, 5)),
        lambda c: divide(c, rng.randint(1, 5)),
        saturate,
    ):
        for _ in range(trials):
            c = random_constraint(rng, nv)
            premise = sat_vector(c, A)
            assert not (premise & ~sat_vector(rule(c), A)).any()
    elapsed = time.time() - t
    assert elapsed < 60
    report(8, f"4 x {trials} randomized rule-soundness trials in {elapsed:.1f}s")


def test_criterion_9_encoding_correctness_property():
    t = time.time()
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 8)
        g = random_graph(rng, n, p=rng.uniform(0.05, 0.95))
        budget = rng.randint(0, n)
        f = encode_ics(g, budget)
        satisfying = set()
        for values in itertools.product((0, 1), repeat=n):
            a = Assignment.total(values)
            if f.satisfied_by(a):
                satisfying.add(values)
        expected = set()
        for values in itertools.product((0, 1), repeat=n):
            code = mask_of(v for v in range(n) if values[v])
            if code.bit_count() <= budget and is_ics(g, code):
                expected.add(values)
        assert satisfying == expected
    elapsed = time.time() - t
    assert elapsed < 120
    report(9, f"200 random encodings match the brute-force code sets in {elapsed:.1f}s")


def test_criterion_10_round_trips():
    t = time.time()
    rng = random.Random(99)
    for _ in range(100):
        n = rng.randint(1, 9)
        cons = []
        for _ in range(rng.randint(0, 6)):
            terms = [
                (rng.randint(-4, 4), Literal(rng.randint(1, n), rng.random() < 0.5))
                for _ in range(rng.randint(0, 4))
            ]
            cons.extend(normalize(terms, rng.choice(["=", "<=", ">=", "<", ">"]), rng.randint(-5, 5)))
        f = PBFormula(n, tuple(cons))
        text = write_opb(f)
        assert parse_opb(text) == f
        assert write_opb(parse_opb(text)) == text
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 14), p=rng.uniform(0, 0.7))
        assert parse_edge_list(write_edge_list(g)) == g
    elapsed = time.time() - t
    assert elapsed < 10
    report(10, f"100 OPB and 100 edge-list round trips in {elapsed:.1f}s")
