import random

import pytest

from conftest import random_graph
from sbgkit.graph import (
    EdgeListError,
    Graph,
    GraphError,
    bits,
    mask_of,
    parse_edge_list,
    sbg_node,
    write_edge_list,
)


def names_of(g, mask):
    return frozenset(g.node_name(v) for v in bits(mask))


# -- construction -------------------------------------------------------------


def test_sbg_size(sbg):
    assert sbg.n == 32
    assert sbg.edge_count == 90


def test_sbg_degrees(sbg):
    degrees = [sbg.degree(v) for v in range(sbg.n)]
    pent = [v for v in range(sbg.n) if sbg.node_name(v).startswith("P")]
    hexa = [v for v in range(sbg.n) if sbg.node_name(v).startswith("H")]
    assert len(pent) == 12 and all(degrees[v] == 5 for v in pent)
    assert len(hexa) == 20 and all(degrees[v] == 6 for v in hexa)


def test_sbg_top_pentagon_neighbors(sbg):
    v = sbg.node_id("P1_1")
    assert sbg.degree(v) == 5
    assert names_of(sbg, sbg.neighbors(v)) == {f"H2_{j}" for j in range(1, 6)}


def test_sbg_edge_groups(sbg):
    # reconstruct the 17 construction rules independently and check they
    # partition the edge set: fifteen groups of 5 plus the two rings of 5
    def pos(k):
        return (k - 1) % 5 + 1

    def P(i, j=1):
        return sbg.node_id(f"P{i}_{pos(j) if i in (3, 4) else 1}")

    def H(i, j):
        return sbg.node_id(f"H{i}_{pos(j)}")

    groups = []
    for rule in (
        lambda j: (P(1), H(2, j)),
        lambda j: (P(6), H(5, j)),
        lambda j: (H(2, j), H(2, j + 1)),
        lambda j: (H(5, j), H(5, j + 1)),
        lambda j: (H(3, j), P(3, j)),
        lambda j: (P(3, j), H(3, j + 1)),
        lambda j: (H(4, j), P(4, j + 1)),
        lambda j: (P(4, j), H(4, j)),
        lambda j: (H(2, j), H(3, j)),
        lambda j: (H(2, j), P(3, j - 1)),
        lambda j: (H(2, j), P(3, j)),
        lambda j: (H(3, j), P(4, j)),
        lambda j: (H(3, j), H(4, j - 1)),
        lambda j: (H(3, j), H(4, j)),
        lambda j: (P(3, j), H(4, j)),
        lambda j: (H(4, j), H(5, j)),
        lambda j: (P(4, j), H(5, j)),
        lambda j: (P(4, j), H(5, j - 1)),
    ):
        groups.append({frozenset(rule(j)) for j in range(1, 6)})
    assert all(len(gr) == 5 for gr in groups)
    union = set().union(*groups)
    assert sum(len(gr) for gr in groups) == 90
    assert len(union) == 90
    assert union == {frozenset(e) for e in sbg.edges}


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError, match="duplicate"):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError, match="out of range"):
        Graph(3, [(0, 5)])


def test_graph_rejects_bad_node_counts_and_names():
    with pytest.raises(GraphError, match="nonnegative"):
        Graph(-1, [])
    with pytest.raises(GraphError, match="expected 2 names, got 1"):
        Graph(2, [], names=["a"])
    with pytest.raises(GraphError, match="distinct"):
        Graph(2, [], names=["a", "a"])


def test_graph_repr(sbg):
    assert repr(sbg) == "Graph(n=32, edges=90)"


def test_graph_equality_and_hash():
    g, again = Graph(2, [(0, 1)], names=["a", "b"]), Graph(2, [(1, 0)], names=["a", "b"])
    assert g == again and hash(g) == hash(again) and len({g, again}) == 1
    assert g != Graph(2, [], names=["a", "b"]) and g != Graph(2, [(0, 1)])
    # a non-Graph defers to the other operand, so equality falls back to identity
    assert g.__eq__((2, g.edges)) is NotImplemented
    assert g != (2, g.edges)


# -- neighborhoods -------------------------------------------------------------


def test_closed_neighborhood_sbg(sbg):
    v = sbg.node_id("P1_1")
    assert names_of(sbg, sbg.closed_neighborhood(v)) == {
        "P1_1", "H2_1", "H2_2", "H2_3", "H2_4", "H2_5",
    }


def test_closed_neighborhood_isolated():
    g = Graph(1, [])
    assert g.closed_neighborhood(0) == 1


def test_closed_neighborhood_h31(sbg):
    # union of the six construction rules that touch H3_1
    v = sbg.node_id("H3_1")
    assert names_of(sbg, sbg.closed_neighborhood(v)) == {
        "H3_1", "P3_1", "P3_5", "H2_1", "P4_1", "H4_5", "H4_1",
    }


def test_two_neighborhood_path():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.closed_two_neighborhood(0) == mask_of([0, 1, 2])


def test_two_neighborhood_contains_closed(sbg):
    for v in range(sbg.n):
        one = sbg.closed_neighborhood(v)
        assert sbg.closed_two_neighborhood(v) & one == one


def test_two_neighborhood_p11(sbg):
    reach = names_of(sbg, sbg.closed_two_neighborhood(sbg.node_id("P1_1")))
    expected = {"P1_1"}
    expected |= {f"H2_{j}" for j in range(1, 6)}
    expected |= {f"H3_{j}" for j in range(1, 6)}
    expected |= {f"P3_{j}" for j in range(1, 6)}
    assert reach == expected
    assert len(reach) == 16


def test_distinguishing_set_twins():
    # adjacent twins: same closed neighborhood, empty distinguishing set
    g = Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])
    assert g.distinguishing_set(0, 1) == 0


def test_distinguishing_set_path_ends():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.distinguishing_set(0, 2) == mask_of([0, 2])


def test_distinguishing_set_h2_pair(sbg):
    u, v = sbg.node_id("H2_1"), sbg.node_id("H2_2")
    ds = sbg.distinguishing_set(u, v)
    assert ds != 0
    expected = sbg.closed_neighborhood(u) ^ sbg.closed_neighborhood(v)
    assert ds == expected
    assert names_of(sbg, ds) == {"H2_5", "H3_1", "P3_5", "H2_3", "H3_2", "P3_2"}


def test_distinguishing_set_rejects_equal_nodes(sbg):
    with pytest.raises(GraphError):
        sbg.distinguishing_set(3, 3)


def test_out_of_range_queries(sbg):
    with pytest.raises(GraphError):
        sbg.closed_neighborhood(32)
    with pytest.raises(GraphError):
        sbg.closed_two_neighborhood(-1)


# -- properties over random graphs ----------------------------------------------


def test_random_graph_properties():
    rng = random.Random(52)
    for _ in range(50):
        g = random_graph(rng, rng.randint(1, 12))
        for v in range(g.n):
            assert g.closed_neighborhood(v) >> v & 1
        for u in range(g.n):
            for v in range(u + 1, g.n):
                assert g.distinguishing_set(u, v) == g.distinguishing_set(v, u)


def bfs_distance(g, src):
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for w in bits(g.neighbors(u)):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def test_overlapping_neighborhoods_imply_distance_two():
    rng = random.Random(99)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 10))
        for u in range(g.n):
            dist = bfs_distance(g, u)
            reach = g.closed_two_neighborhood(u)
            for v in range(g.n):
                if u == v:
                    continue
                if g.closed_neighborhood(u) & g.closed_neighborhood(v):
                    assert dist.get(v, 99) <= 2
                # and the two-step BFS agrees with true distances
                assert (reach >> v & 1) == (dist.get(v, 99) <= 2)


# -- edge-list round trip --------------------------------------------------------


def test_edge_list_round_trip_sbg(sbg):
    assert parse_edge_list(write_edge_list(sbg)) == sbg


def test_edge_list_round_trip_random():
    rng = random.Random(7)
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 14), p=rng.uniform(0.0, 0.8))
        assert parse_edge_list(write_edge_list(g)) == g


def test_edge_list_errors_carry_line_numbers():
    with pytest.raises(EdgeListError, match="line 2: .*self-loop"):
        parse_edge_list("a b\nc c\n")
    with pytest.raises(EdgeListError, match="line 3: duplicate"):
        parse_edge_list("a b\nb c\nb a\n")
    with pytest.raises(EdgeListError, match="line 1: expected"):
        parse_edge_list("a b c\n")


def test_edge_list_reports_the_first_malformed_line():
    # the duplicate on line 3 comes before the self-loop on line 4
    with pytest.raises(EdgeListError, match="^line 3: duplicate edge$"):
        parse_edge_list("a b\nb c\na b\nc c\n")


def test_unknown_node_name_is_rejected(sbg):
    assert sbg.node_id("P6_1") == 31
    with pytest.raises(GraphError, match="unknown node name 'NOPE'"):
        sbg.node_id("NOPE")
    with pytest.raises(GraphError, match="unknown node name 'NOPE'"):
        sbg.parse_node_set("P1_1,NOPE")


def test_sbg_node_lookup():
    assert sbg_node("P", 1) == 0
    assert sbg_node("H", 2, 6) == sbg_node("H", 2, 1)  # positions wrap mod 5
    with pytest.raises(GraphError):
        sbg_node("P", 2, 1)
