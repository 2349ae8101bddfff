import itertools
import random
import tracemalloc

import numpy as np
import pytest

from conftest import random_graph
from sbgkit import oracle
from sbgkit.encode import encode_ics
from sbgkit.fixtures import example_graph
from sbgkit.graph import Graph, mask_of
from sbgkit.ics import is_ics, motif_class_sets
from sbgkit.oracle import (
    OracleError,
    _colex_blocks,
    _level_masks,
    classify_solutions,
    count_ics,
    min_ics_size,
)
from sbgkit.solve import enumerate_all


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
        k = rng.randint(0, g.n)
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
    # make the blocks recurse on their top element
    for chunk in (oracle._CHUNK, 1, 3, 17):
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
        for n in range(13):
            for k in range(n + 1):
                colex = [mask_of(c) for c in sorted(
                    itertools.combinations(range(n), k), key=lambda c: c[::-1]
                )]
                assert _level_masks(n, k, np.uint32).tolist() == colex
                blocks = list(_colex_blocks(n, k, np.uint32))
                assert all(len(b) <= chunk for b in blocks)
                assert np.concatenate(blocks).tolist() == colex


def test_small_chunk_changes_no_count(monkeypatch):
    # split blocks, and blocks the prefilters empty before the last group
    monkeypatch.setattr(oracle, "_CHUNK", 5)
    rng = random.Random(17)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 9), p=rng.uniform(0.1, 0.9))
        k = rng.randint(0, g.n)
        expected_count, expected = brute_count(g, k)
        count, sols = count_ics(g, k, collect=True)
        assert count == expected_count
        assert sols == sorted(expected)  # colex order is increasing mask order


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
    assert peak < 32 << 20


def test_count_rejects_bad_k(sbg):
    with pytest.raises(OracleError):
        count_ics(sbg, 33)
    with pytest.raises(OracleError):
        count_ics(sbg, -1)


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


def test_min_size_trivia():
    assert min_ics_size(Graph(1, []), 3) == 1
    assert min_ics_size(Graph(3, [(0, 1), (0, 2), (1, 2)]), 3) is None  # twins
    assert min_ics_size(example_graph(), 4) <= 4


def test_min_size_none_when_cap_too_small():
    g = example_graph()
    floor = min_ics_size(g, g.n)
    assert floor is not None
    assert min_ics_size(g, floor - 1) is None


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
