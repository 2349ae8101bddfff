import random

import pytest

from conftest import random_graph
from reference import example_graph
from sbgkit.graph import Graph, GraphError, bits, mask_of, sbg_node
from sbgkit.ics import (
    _mirror_permutation,
    _rotation_permutation,
    classify_solutions,
    color_table,
    is_ics,
    motif_class_sets,
    signatures,
)


def P(i, j=1):
    return sbg_node("P", i, j)


def H(i, j):
    return sbg_node("H", i, j)


RING_CODE = mask_of([H(2, j) for j in range(1, 6)] + [H(5, j) for j in range(1, 6)])


def by_name(g, sigs):
    return {
        g.node_name(v): frozenset(g.node_name(u) for u in bits(sig))
        for v, sig in enumerate(sigs)
    }


# -- signatures ----------------------------------------------------------------


def test_example_graph_signatures():
    g = example_graph()
    hubs = mask_of(range(4))
    table = by_name(g, signatures(g, hubs))
    assert table == {
        "v1": {"v1"}, "v2": {"v2"}, "v3": {"v3"}, "v4": {"v4"},
        "v5": {"v1", "v2"}, "v6": {"v1", "v3"}, "v7": {"v1", "v4"},
        "v8": {"v2", "v3"}, "v9": {"v2", "v4"}, "v10": {"v3", "v4"},
    }
    assert is_ics(g, hubs)


def test_empty_code_signatures(sbg):
    assert all(sig == 0 for sig in signatures(sbg, 0))
    assert not is_ics(sbg, 0)


def test_is_ics_empty_code_on_tiny_graph():
    assert not is_ics(Graph(2, [(0, 1)]), 0)


def test_ring_code_identifies_sbg(sbg):
    assert is_ics(sbg, RING_CODE)


def test_full_injection_identifies_sbg(sbg):
    assert is_ics(sbg, (1 << 32) - 1)


def test_signatures_reject_foreign_nodes():
    g = Graph(2, [(0, 1)])
    with pytest.raises(Exception):
        signatures(g, 1 << 5)


def test_domination_flag():
    # on a 1-node graph the empty code gives the one node no color: rejected
    g = Graph(1, [])
    assert not is_ics(g, 0)


def test_monotonicity_random():
    rng = random.Random(11)
    trials = 0
    while trials < 60:
        g = random_graph(rng, rng.randint(2, 9))
        code = mask_of(v for v in range(g.n) if rng.random() < 0.5)
        if not is_ics(g, code):
            continue
        trials += 1
        bigger = code | mask_of(
            v for v in range(g.n) if rng.random() < 0.3
        )
        assert is_ics(g, bigger)


def test_single_injection_colors_closed_neighborhood(sbg):
    v = sbg.node_id("H3_2")
    sigs = signatures(sbg, 1 << v)
    colored = mask_of(u for u, sig in enumerate(sigs) if sig)
    assert colored == sbg.closed_neighborhood(v)
    assert all(sig in (0, 1 << v) for sig in sigs)


# -- the ring coloring, star notation -------------------------------------------


def test_ring_coloring_top_pentagon(sbg):
    rows = dict(color_table(sbg, RING_CODE))
    assert rows["P1_1"] == "ABCDE"


def test_star_notation_has_26_letters(sbg):
    assert len(color_table(sbg, (1 << 26) - 1)) == 32
    with pytest.raises(GraphError, match="at most 26 injected nodes"):
        color_table(sbg, (1 << 27) - 1)


def test_star_marks_injected_nodes(sbg):
    rows = dict(color_table(sbg, RING_CODE))
    assert rows["H2_1"] == "A*BE"
    assert rows["H5_1"] == "F*GJ"
    assert "*" not in rows["P3_2"]


# -- motif families ---------------------------------------------------------------


def test_motif_family_shape():
    motifs = motif_class_sets()
    assert len(motifs) == 26
    assert len({m.members for m in motifs}) == 26
    tally = {}
    for m in motifs:
        tally[m.family] = tally.get(m.family, 0) + 1
        assert m.members.bit_count() == 10
    assert tally == {"I": 1, "II": 10, "III": 10, "IV": 5}


# (family, variant, shift, members) of the 26 codes, in catalogue order
PINNED_MOTIFS = [
    ("I", "", 0, 2080374846),
    ("II", "A", 1, 554114561),
    ("II", "A", 2, 1108227137),
    ("II", "A", 3, 71065793),
    ("II", "A", 4, 140099969),
    ("II", "A", 5, 278104833),
    ("II", "B", 1, 2183950402),
    ("II", "B", 2, 2198223904),
    ("II", "B", 3, 2172885520),
    ("II", "B", 4, 2161232136),
    ("II", "B", 5, 2155405444),
    ("III", "A", 1, 1896003585),
    ("III", "A", 2, 1711568897),
    ("III", "A", 3, 1277751297),
    ("III", "A", 4, 475064321),
    ("III", "A", 5, 948033537),
    ("III", "B", 1, 2149458022),
    ("III", "B", 2, 2148471858),
    ("III", "B", 3, 2148993592),
    ("III", "B", 4, 2149286172),
    ("III", "B", 5, 2149400718),
    ("IV", "", 1, 1665140108),
    ("IV", "", 2, 1184891736),
    ("IV", "", 3, 224396976),
    ("IV", "", 4, 448791906),
    ("IV", "", 5, 832570054),
]


def test_motif_catalogue_is_pinned():
    assert [(m.family, m.variant, m.shift, m.members) for m in motif_class_sets()] == PINNED_MOTIFS


def test_every_motif_is_an_identifying_code(sbg):
    for m in motif_class_sets():
        assert is_ics(sbg, m.members), m.tag


def test_family_one_is_the_hexagon_rings():
    (ring,) = [m for m in motif_class_sets() if m.family == "I"]
    assert ring.members == RING_CODE


def test_family_four_first_translate(sbg):
    # the j=1 member of family IV: two five-hexagon motifs
    (m,) = [x for x in motif_class_sets() if x.family == "IV" and x.shift == 1]
    expected = mask_of(
        [H(2, 2), H(2, 3), H(3, 2), H(3, 3), H(4, 2)]
        + [H(3, 5), H(4, 4), H(4, 5), H(5, 4), H(5, 5)]
    )
    assert m.members == expected


def test_mirror_is_an_automorphism(sbg):
    perm = _mirror_permutation()
    assert sorted(perm) == list(range(32))
    assert all(perm[perm[v]] == v for v in range(32))
    edge_set = {frozenset(e) for e in sbg.edges}
    assert {frozenset((perm[u], perm[v])) for u, v in sbg.edges} == edge_set
    # the rotation j -> j + 1 is one too, of order 5
    rot = _rotation_permutation()
    assert sorted(rot) == list(range(32))
    assert {frozenset((rot[u], rot[v])) for u, v in sbg.edges} == edge_set
    power = list(range(32))
    for order in range(1, 6):
        power = [rot[v] for v in power]
        assert (power == list(range(32))) == (order == 5)


def test_class_two_seepage_table(sbg):
    # frozen per-node signature table for the family II-A, j=1 injection;
    # dominance of every row and pairwise distinctness are what make it a
    # valid identifying code
    (m,) = [x for x in motif_class_sets() if x.tag == "II-A j=1"]
    assert m.members == mask_of(
        [P(1), P(3, 1), P(3, 2), P(4, 1), P(4, 2), P(4, 3)]
        + [H(3, 4), H(3, 5), H(4, 4), H(5, 4)]
    )
    table = by_name(sbg, signatures(sbg, m.members))
    assert table == {
        "P1_1": {"P1_1"},
        "H2_1": {"P1_1", "P3_1"},
        "H2_2": {"P1_1", "P3_1", "P3_2"},
        "H2_3": {"P1_1", "P3_2"},
        "H2_4": {"P1_1", "H3_4"},
        "H2_5": {"P1_1", "H3_5"},
        "H3_1": {"P3_1", "P4_1"},
        "P3_1": {"P3_1"},
        "H3_2": {"P3_1", "P3_2", "P4_2"},
        "P3_2": {"P3_2"},
        "H3_3": {"P3_2", "P4_3"},
        "P3_3": {"H3_4"},
        "H3_4": {"H3_4", "H4_4"},
        "P3_4": {"H3_4", "H4_4", "H3_5"},
        "H3_5": {"H3_5", "H4_4"},
        "P3_5": {"H3_5"},
        "P4_1": {"P4_1"},
        "H4_1": {"P3_1", "P4_1", "P4_2"},
        "P4_2": {"P4_2"},
        "H4_2": {"P3_2", "P4_2", "P4_3"},
        "P4_3": {"P4_3"},
        "H4_3": {"P4_3", "H3_4"},
        "P4_4": {"H3_4", "H4_4", "H5_4"},
        "H4_4": {"H4_4", "H3_4", "H3_5", "H5_4"},
        "P4_5": {"H3_5", "H4_4", "H5_4"},
        "H4_5": {"P4_1", "H3_5"},
        "H5_1": {"P4_1", "P4_2"},
        "H5_2": {"P4_2", "P4_3"},
        "H5_3": {"P4_3", "H5_4"},
        "H5_4": {"H5_4", "H4_4"},
        "H5_5": {"P4_1", "H5_4"},
        "P6_1": {"H5_4"},
    }
    values = list(table.values())
    assert all(values) and len(set(values)) == 32


def test_classify_empty():
    hist = classify_solutions([])
    assert hist.counts == {}
    assert hist.unmatched == []


def test_classify_flags_strays(sbg):
    stray = mask_of(range(10))
    hist = classify_solutions([stray])
    assert hist.unmatched == [stray]
    assert hist.counts == {}


def test_classify_motif_members():
    motifs = motif_class_sets()
    hist = classify_solutions([m.members for m in motifs])
    assert hist.counts == {"I": 1, "II": 10, "III": 10, "IV": 5}
    assert hist.unmatched == []
    assert hist.matched[motifs[0].members].family == "I"
