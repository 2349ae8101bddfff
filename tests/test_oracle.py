import functools
import itertools
import math
import operator
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from conftest import random_graph
from reference import example_graph
from sbgkit import oracle
from sbgkit.encode import encode_ics
from sbgkit.graph import Graph, bits, mask_of
from sbgkit.ics import is_ics
from sbgkit.oracle import (
    OracleError,
    _colex_blocks,
    _hit_words,
    _leaves,
    _level,
    _meet_rest,
    _must_hit_sets,
    _scan_order,
    _byte_tables,
    _survivors,
    count_ics,
    min_ics_size,
)
from sbgkit.solve import enumerate_all, solve


def brute_count(g, k):
    hits = [
        mask_of(sub)
        for sub in itertools.combinations(range(g.n), k)
        if is_ics(g, mask_of(sub))
    ]
    return len(hits), hits


def test_count_matches_definition_on_random_graphs():
    rng = random.Random(13)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), p=rng.uniform(0.1, 0.9))
        for k in (0, rng.randint(0, g.n)):
            expected_count, expected = brute_count(g, k)
            count, sols = count_ics(g, k, collect=True)
            assert count == expected_count
            assert sorted(sols) == sorted(expected)


def test_count_full_subset():
    rng = random.Random(14)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8))
        count, _ = count_ics(g, g.n)
        assert count == (1 if is_ics(g, (1 << g.n) - 1) else 0)


def test_level_masks_are_all_subsets_in_colex_order(monkeypatch):
    # at the default _CHUNK no level of n <= 12 is split; the small chunks
    # make the leaves recurse on their top element and share cached levels.
    # With no filters nothing can be pruned, so every subset is scanned
    rng = random.Random(18)
    for chunk in (oracle._CHUNK, 1, 3, 17):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        for n in range(13):
            seq = rng.sample(range(n), n)
            units = np.array([1 << j for j in range(n)], dtype=np.uint32)
            for k in range(n + 1):
                subsets = sorted(
                    itertools.combinations(range(n), k), key=lambda c: c[::-1]
                )
                assert _level(units, k).tolist() == [mask_of(c) for c in subsets]
                blocks = list(_colex_blocks(k, seq, [0] * n, 0, np.uint32))
                assert all(len(masks) <= chunk for masks, *_ in blocks)
                assert [
                    int(m) | prefix for masks, _, prefix, _ in blocks for m in masks
                ] == [mask_of(seq[j] for j in c) for c in subsets]


def test_leaves_hold_every_subset_that_meets_every_filter(monkeypatch):
    # random hit words over a few filters: the scan holds each subset whose
    # words OR to full once, in colex order of the scan positions, with its
    # true hit word; every subset it skips misses some filter, and every
    # leaf of nonempty subsets it reads could meet them all
    rng = random.Random(22)
    skipped = 0
    for chunk in (oracle._CHUNK, 1, 3, 17):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        for n in range(13):
            seq = rng.sample(range(n), n)
            width = rng.randint(1, 5)
            full = (1 << width) - 1
            hw = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(n)]
            for k in range(n + 1):
                subsets = sorted(
                    itertools.combinations(range(n), k), key=lambda c: c[::-1]
                )
                rank = {mask_of(seq[j] for j in c): i for i, c in enumerate(subsets)}
                hit = [functools.reduce(operator.or_, (hw[j] for j in c), 0)
                       for c in subsets]
                blocks = list(_colex_blocks(k, seq, hw, full, np.uint32))
                assert all(len(masks) <= chunk for masks, *_ in blocks)
                # no leaf is read whose subsets together miss a filter
                assert all(
                    int(np.bitwise_or.reduce(hits)) | prefix_hit == full
                    for masks, hits, _, prefix_hit in blocks
                    if masks[0]
                )
                scanned = [
                    (rank[int(m) | prefix], int(h) | prefix_hit)
                    for masks, hits, prefix, prefix_hit in blocks
                    for m, h in zip(masks, hits)
                ]
                order = [i for i, _ in scanned]
                assert order == sorted(set(order))
                assert all(hit[i] == h for i, h in scanned)
                left_out = set(range(len(subsets))) - set(order)
                assert all(hit[i] != full for i in left_out)
                skipped += len(left_out)
    assert skipped > 10_000, skipped


def _relabelled(mask, perm):
    return mask_of(perm[j] for j in bits(mask))


def test_count_is_invariant_under_relabelling(sbg):
    # the scan order follows the filters, so a relabelled graph is scanned
    # in another order; its codes are the relabelled ones, in mask order
    rng = random.Random(23)
    cases = [(sbg, 10)] * 2
    while len(cases) < 40:
        g = random_graph(rng, rng.randint(1, 10), p=rng.uniform(0.1, 0.9))
        cases.append((g, rng.randint(0, g.n)))
    counts = []
    for g, k in cases:
        perm = rng.sample(range(g.n), g.n)
        h = Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        count, sols = count_ics(g, k, collect=True)
        relabelled = count_ics(h, k, collect=True)
        assert relabelled == (count, sorted(_relabelled(m, perm) for m in sols))
        counts.append(count)
    assert counts[:2] == [26, 26] and 0 in counts and max(counts[2:]) > 0


def test_small_chunk_changes_no_count(monkeypatch):
    # split leaves of several sizes, each reading a prefix of its cached
    # level, and survivors gathered across leaves in batches of 1 to chunk
    # masks before the later words, which may empty a batch
    batches = []
    meet_rest = oracle._meet_rest

    def recorded(cand, tables, fulls):
        batches.append(len(cand))
        return meet_rest(cand, tables, fulls)

    monkeypatch.setattr(oracle, "_meet_rest", recorded)
    for chunk in (1, 2, 5, 17):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        rng = random.Random(17)
        start = len(batches)
        for _ in range(40):
            g = random_graph(rng, rng.randint(1, 9), p=rng.uniform(0.1, 0.9))
            k = rng.randint(0, g.n)
            expected_count, expected = brute_count(g, k)
            count, sols = count_ics(g, k, collect=True)
            assert count == expected_count
            assert sols == sorted(expected)  # colex order is increasing mask order
            assert all(type(m) is int for m in sols)  # not numpy scalars
            assert all(len(cand) <= chunk for cand in _survivors(g, k, np.uint32))
        assert all(0 < size <= chunk for size in batches[start:])
    assert len(batches) > 200, len(batches)


def must_hit_pool(g):
    """The closed neighborhoods and the distinguishing sets of the pairs
    within distance two, which _must_hit_sets sorts."""
    return [g.closed_neighborhood(v) for v in range(g.n)] + [
        g.distinguishing_set(u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if g.closed_two_neighborhood(u) >> v & 1
    ]


def assert_keeps_the_smallest(g, filters):
    pool = Counter(must_hit_pool(g))
    kept = Counter(filters)
    assert kept <= pool
    assert len(filters) == min(64, pool.total())
    dropped = pool - kept
    if dropped:
        assert max(f.bit_count() for f in filters) <= min(
            f.bit_count() for f in dropped
        )


def test_prefilters_are_sound_and_the_hit_word_exact():
    rng = random.Random(19)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 10), p=rng.uniform(0.1, 0.9))
        pool = _must_hit_sets(g)
        assert Counter(pool) == Counter(must_hit_pool(g))
        filters = pool[: oracle._PREFILTER_CAP]
        assert_keeps_the_smallest(g, filters)
        for k in range(g.n + 1):
            for code in brute_count(g, k)[1]:
                assert all(code & f for f in pool)
        hw = _hit_words(filters, g.n)
        full = (1 << len(filters)) - 1
        for sub in range(1 << g.n):
            hit = functools.reduce(
                operator.or_, (hw[j] for j in range(g.n) if sub >> j & 1), 0
            )
            assert (hit == full) == all(sub & f for f in filters)
    for n in (40, 64):  # more sets than the cap keeps
        g = random_graph(rng, n)
        pool = _must_hit_sets(g)
        assert Counter(pool) == Counter(must_hit_pool(g))
        assert [f.bit_count() for f in pool] == sorted(f.bit_count() for f in pool)
        assert_keeps_the_smallest(g, pool[: oracle._PREFILTER_CAP])


def test_a_graph_with_twins_counts_zero_at_every_k():
    rng = random.Random(21)
    for _ in range(12):
        g = random_graph(rng, rng.randint(1, 9), p=rng.uniform(0.1, 0.9))
        v = rng.randrange(g.n)
        # a new node joined to v and to v's neighbors is v's closed twin
        twin = Graph(
            g.n + 1, list(g.edges) + [(u, g.n) for u in bits(g.closed_neighborhood(v))]
        )
        assert _must_hit_sets(twin)[0] == 0  # the empty distinguishing set sorts first
        for k in range(twin.n + 1):
            assert count_ics(twin, k, collect=True) == (0, [])
            assert brute_count(twin, k)[0] == 0


def test_the_exact_step_decides_alone(monkeypatch):
    # with the pool cut short, across the scan and the later words alike,
    # domination and distinctness rest on the exact check
    whole_pool = oracle._must_hit_sets
    for cap in (0, 1, 5, 64):
        monkeypatch.setattr(oracle, "_must_hit_sets", lambda g: whole_pool(g)[:cap])
        rng = random.Random(20)
        for _ in range(60):
            g = random_graph(rng, rng.randint(1, 9), p=rng.uniform(0.1, 0.9))
            k = rng.randint(0, g.n)
            expected_count, expected = brute_count(g, k)
            assert count_ics(g, k, collect=True) == (expected_count, sorted(expected))


def twin_free_graph(rng, n, p):
    while True:
        g = random_graph(rng, n, p)
        if len({g.closed_neighborhood(v) for v in range(n)}) == n:
            return g


@pytest.mark.parametrize("cap", [0, 5, 64])
def test_the_whole_pool_leaves_only_codes(monkeypatch, cap):
    # on a twin-free graph a dominating set that separates every pair within
    # distance two is a code (farther pairs have disjoint neighborhoods), so
    # the exact check rejects none of the final survivors; a small cap on
    # the scan's sets leaves the rest of the pool to the later words, and a
    # small chunk makes them filter many batches, each flushed in the loop
    monkeypatch.setattr(oracle, "_PREFILTER_CAP", cap)
    rng = random.Random(24)
    cases = []
    for _ in range(40):
        g = twin_free_graph(rng, rng.randint(1, 10), rng.uniform(0.1, 0.9))
        cases += [(g, k, sorted(brute_count(g, k)[1])) for k in range(1, g.n + 1)]
    for chunk in (oracle._CHUNK, 1, 5, 17):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        for g, k, codes in cases:
            found = [int(m) for cand in _survivors(g, k, np.uint32) for m in cand]
            assert sorted(found) == codes


def word_or(tables, mask):
    return functools.reduce(
        operator.or_, (int(t[mask >> 8 * b & 255]) for b, t in enumerate(tables)), 0
    )


def assert_words_are_exact(sets, n, masks, dtype):
    # each word's tables OR to the OR of the nodes' hit words, and a mask
    # passes every word exactly when it meets every set
    tables, fulls = _byte_tables(sets, n)
    assert len(tables) == len(fulls) == -(-len(sets) // 64)
    for i, table in enumerate(tables):
        hw = _hit_words(sets[64 * i : 64 * i + 64], n)
        assert int(fulls[i]) == (1 << len(sets[64 * i : 64 * i + 64])) - 1
        for m in masks:
            assert word_or(table, m) == functools.reduce(
                operator.or_, (hw[j] for j in bits(m)), 0
            )
    passed = _meet_rest(np.array(masks, dtype=dtype), tables, fulls).tolist()
    assert passed == [m for m in masks if all(m & f for f in sets)]
    return len(passed)


def test_byte_tables_are_exact_on_every_subset():
    # sets drawn from the pool: no word, one word partly or wholly used, and
    # several words of which the last is partly or wholly used
    rng = random.Random(25)
    for count in (0, 1, 63, 64, 65, 128, 150) * 6:
        g = random_graph(rng, rng.randint(1, 10), p=rng.uniform(0.1, 0.9))
        sets = rng.choices(must_hit_pool(g), k=count)
        assert_words_are_exact(sets, g.n, list(range(1 << g.n)), np.uint32)


@pytest.mark.parametrize("n", [33, 40, 64])
def test_byte_tables_are_exact_on_uint64_masks(n):
    # the later words of the real pool, over 5 to 8 byte tables; at n = 33
    # the last byte holds one node
    rng = random.Random(n)
    g = random_graph(rng, n)
    rest = _must_hit_sets(g)[oracle._PREFILTER_CAP :]
    assert len(rest) > 64
    masks = [
        functools.reduce(operator.or_, (1 << j for j in range(n) if rng.random() < p), 0)
        for p in (0.3, 0.7, 0.95, 1.0)
        for _ in range(200)
    ]
    assert 0 < assert_words_are_exact(rest, n, masks, np.uint64) < len(masks)


def scan_work(g, ks):
    """Per k: leaves, subsets scanned, survivors of the scan's hit word, and
    survivors of the later words."""
    filters = _must_hit_sets(g)[: oracle._PREFILTER_CAP]
    seq = _scan_order(g.n, filters)
    hw = [_hit_words(filters, g.n)[j] for j in seq]
    reach = list(itertools.accumulate(hw, operator.or_, initial=0))
    full = (1 << len(filters)) - 1
    work = {}
    for k in ks:
        leaves = sum(1 for _ in _leaves(g.n, k, seq, hw, reach, full))
        scanned = survivors = 0
        for _, hits, _, prefix_hit in _colex_blocks(k, seq, hw, full, np.uint32):
            scanned += len(hits)
            survivors += int(((hits | np.uint64(prefix_hit)) == np.uint64(full)).sum())
        final = sum(len(cand) for cand in _survivors(g, k, np.uint32))
        work[k] = leaves, scanned, survivors, final
    return work


def test_sbg_scan_work_is_pinned(sbg):
    # leaves, subsets scanned and the survivors of both stages: leaves that
    # split again, a weaker prune or a weaker stage fail here, not only in a
    # timing; on the SBG the later words leave exactly the codes
    assert scan_work(sbg, (8, 9, 10)) == {
        8: (374, 5_929_893, 0, 0),
        9: (939, 16_767_410, 86, 0),
        10: (2093, 41_111_602, 3817, 26),
    }


def test_random_scan_work_is_pinned():
    # a twin-free G(30, 0.22) like the benchmark's, with k* = 8 and 22 codes
    g = twin_free_graph(random.Random(30), 30, 0.22)
    assert min_ics_size(g, 8) == 8
    assert scan_work(g, (7, 8, 9)) == {
        7: (24, 325_520, 50, 0),
        8: (69, 1_043_950, 2319, 22),
        9: (157, 2_765_180, 47_519, 4350),
    }
    assert [count_ics(g, k)[0] for k in (8, 9)] == [22, 4350]


def test_count_builds_no_level_it_never_reads():
    # the scan at k=22 reads the C(24, 21) = 2,024 masks of level 21; the
    # middle level C(24, 12) alone would be 10 MiB of masks
    path = Graph(24, [(v, v + 1) for v in range(23)])
    tracemalloc.start()
    try:
        count, _ = count_ics(path, 22)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == brute_count(path, 22)[0]
    assert peak < 1 << 20


def test_sbg_scan_memory_is_bounded_by_the_block(sbg):
    # the whole C(32, 9) level alone would be 107 MiB of masks
    tracemalloc.start()
    try:
        count, sols = count_ics(sbg, 10, collect=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == len(sols) == 26
    assert peak < 4 << 20


def test_count_rejects_bad_k(sbg):
    with pytest.raises(OracleError):
        count_ics(sbg, 33)
    with pytest.raises(OracleError):
        count_ics(sbg, -1)


@pytest.mark.parametrize("n", [33, 40, 64])
def test_count_matches_definition_on_uint64_graphs(n):
    # 33 to 64 nodes take the uint64 masks; near k = n the brute force is
    # cheap, and a sparse graph makes some of those subsets fail
    assert oracle._mask_dtype(n) is np.uint64
    g = random_graph(random.Random(n), n, p=0.08)
    for k in range(n - 2, n + 1):
        count, sols = count_ics(g, k, collect=True)
        expected, hits = brute_count(g, k)
        assert count == expected and sorted(sols) == sorted(hits), k
    assert 0 < count_ics(g, n - 2)[0] < math.comb(n, 2)


def test_count_rejects_oversized_graphs():
    with pytest.raises(OracleError):
        count_ics(Graph(65, []), 1)


def test_monotone_threshold():
    rng = random.Random(15)
    checked = 0
    while checked < 25:
        g = random_graph(rng, rng.randint(2, 8))
        k = rng.randint(1, g.n - 1)
        count, _ = count_ics(g, k)
        if count == 0:
            continue
        checked += 1
        above, _ = count_ics(g, k + 1)
        assert above > 0


def test_oracle_agrees_with_solver_enumeration():
    rng = random.Random(16)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 8), p=rng.uniform(0.2, 0.8))
        k = rng.randint(0, g.n)
        _, sols = count_ics(g, k, collect=True)
        f = encode_ics(g, k, exact=True)
        models = enumerate_all(f)
        assert sorted(sols) == sorted(a.code_mask() for a in models)


def test_oracle_agrees_with_the_solver_where_the_bound_prunes():
    # twin-free graphs beyond the 8 nodes above, where the solver's packing
    # bound cuts the search: nothing below k* is found, and at k* and k*+1
    # the exact and the at-most enumerations give the oracle's codes
    rng = random.Random(17)
    graphs = bound_conflicts = bound_fixings = 0
    while graphs < 12:
        g = random_graph(rng, rng.randint(9, 12), p=rng.uniform(0.2, 0.6))
        if len({g.closed_neighborhood(v) for v in range(g.n)}) < g.n:
            continue
        graphs += 1
        k = min_ics_size(g, g.n)
        res = solve(encode_ics(g, k - 1))
        assert res.status == "UNSAT"
        bound_conflicts += res.stats.bound_conflicts
        bound_fixings += res.stats.bound_fixings
        codes = []
        for size in range(k, min(k + 1, g.n) + 1):
            _, sols = count_ics(g, size, collect=True)
            codes += sols
            exact = enumerate_all(encode_ics(g, size, exact=True))
            assert sorted(a.code_mask() for a in exact) == sorted(sols)
            at_most = enumerate_all(encode_ics(g, size))
            assert sorted(a.code_mask() for a in at_most) == sorted(codes)
    # fixings do part of the bound's work that conflicts did without them
    assert bound_conflicts + bound_fixings > 20 and bound_fixings > 0, (
        bound_conflicts, bound_fixings
    )


def test_min_size_trivia():
    # the empty code identifies the empty graph, and only it
    assert count_ics(Graph(0, []), 0, collect=True) == (1, [0])
    assert min_ics_size(Graph(1, []), 3) == 1
    assert min_ics_size(Graph(3, [(0, 1), (0, 2), (1, 2)]), 3) is None  # twins
    assert min_ics_size(example_graph(), 4) <= 4


def test_min_size_none_when_cap_too_small():
    g = example_graph()
    floor = min_ics_size(g, g.n)
    assert floor is not None
    assert min_ics_size(g, floor - 1) is None
