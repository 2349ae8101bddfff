"""Exhaustive ground truth for identifying code counts, independent of the
solver and of the PB encoding.

Every k-subset of the nodes is enumerated in colexicographic order as a
bitmask; a subset qualifies when all per-node signatures ``N+(v) & subset``
are nonempty and pairwise distinct.  The scan is vectorized with numpy, with
a sound prefilter (small distinguishing sets and the domination masks must
all be hit) discarding almost all candidates before the exact distinctness
check.

The subsets arrive as blocks of at most ``_CHUNK`` masks, built by splitting
the level on its top element until each part fits, so no level is ever held
whole.  The prefilters are applied smallest set first, in groups of
``_FILTER_GROUP``; after each group only the surviving candidates are kept,
so later filters and the exact check see only those.  Memory is therefore
bounded by the block size: the block and the arrays that build and filter
it, plus the exact check's n-column signature matrix over the block's
survivors (n times the block if the prefilters discard nothing).  On the 32-node soccer ball
graph at k=10 the largest block holds 888,030 masks and the whole scan peaks
at about 13 MiB of numpy allocations (tracemalloc); the C(32, 10) level
held whole would be 246 MiB of masks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, bits
from .ics import MotifSet, motif_class_sets

_CHUNK = 1 << 20
_PREFILTER_CAP = 48
_FILTER_GROUP = 8


class OracleError(ValueError):
    pass


def _mask_dtype(n: int):
    if n <= 32:
        return np.uint32
    if n <= 64:
        return np.uint64
    raise OracleError(f"bitmask oracle supports at most 64 nodes, got {n}")


def _level_masks(n: int, k: int, dtype) -> np.ndarray:
    """All k-subset masks of range(n) in colex order.

    Built level by level: the k-subsets with maximum element j are exactly
    the (k-1)-subsets of range(j), which in colex order are a prefix of the
    previous level.  Level i is built only over range(n - k + i), the part
    the later levels read.
    """
    cur = np.zeros(1, dtype=dtype)
    for level in range(1, k + 1):
        parts = [
            cur[: math.comb(j, level - 1)] | dtype(1 << j)
            for j in range(level - 1, n - k + level)
        ]
        cur = np.concatenate(parts) if parts else np.zeros(0, dtype=dtype)
    return cur


def _colex_blocks(n: int, k: int, dtype, prefix: int = 0):
    """All k-subset masks of range(n), OR'd with *prefix*, in colex order,
    as consecutive blocks of at most _CHUNK masks.

    The k-subsets with maximum element top are the (k-1)-subsets of
    range(top) plus top, so a level too large for one block is split on its
    top element until each part fits.
    """
    if math.comb(n, k) <= _CHUNK:
        yield _level_masks(n, k, dtype) | dtype(prefix)
        return
    for top in range(k - 1, n):
        yield from _colex_blocks(top, k - 1, dtype, prefix | 1 << top)


def _prefilters(g: Graph) -> list[int]:
    """Node sets every dominating identifying code must intersect.

    The closed neighborhoods (domination) plus the smallest distinguishing
    sets of pairs within distance two; an empty distinguishing set means no
    code of any size works.  Sorted smallest first: a small set is missed by
    the most subsets, so it discards the most candidates.
    """
    masks = [g.closed_neighborhood(v) for v in range(g.n)]
    ds = []
    for u in range(g.n):
        reach = g.closed_two_neighborhood(u)
        for v in bits(reach >> (u + 1) << (u + 1)):
            ds.append(g.distinguishing_set(u, v))
    ds.sort(key=lambda m: m.bit_count())
    masks.extend(ds[: max(0, _PREFILTER_CAP - len(masks))])
    masks.sort(key=int.bit_count)
    return masks


def count_ics(
    g: Graph, k: int, collect: bool = False
) -> tuple[int, list[int] | None]:
    """Exact number of size-k dominating identifying codes of *g*.

    Returns ``(count, solutions)`` where solutions is the full list of code
    bitmasks in colex order when *collect* is set, else None.
    """
    n = g.n
    if not 0 <= k <= n:
        raise OracleError(f"k must be in 0..{n}, got {k}")
    dtype = _mask_dtype(max(n, 1))
    nb = np.array([g.closed_neighborhood(v) for v in range(n)], dtype=dtype)
    solutions: list[int] | None = [] if collect else None

    if n == 0 or k == 0:
        # the empty code identifies nothing unless the graph is empty
        count = 1 if n == 0 else 0
        if solutions is not None and count:
            solutions.append(0)
        return count, solutions

    filters = _prefilters(g)
    if any(m == 0 for m in filters):
        return 0, solutions
    filter_arr = np.array(filters, dtype=dtype)

    total = 0
    for block in _colex_blocks(n, k, dtype):
        cand = block
        for lo in range(0, len(filter_arr), _FILTER_GROUP):
            alive = np.ones(len(cand), dtype=bool)
            for m in filter_arr[lo : lo + _FILTER_GROUP]:
                alive &= (cand & m) != 0
            cand = cand[alive]
            if len(cand) == 0:
                break
        else:  # every group left survivors
            sig = cand[:, None] & nb[None, :]
            sig.sort(axis=1)
            good = (np.diff(sig, axis=1) != 0).all(axis=1)
            total += int(good.sum())
            if solutions is not None:
                solutions.extend(int(m) for m in cand[good])
    return total, solutions


def min_ics_size(g: Graph, k_max: int) -> int | None:
    """Smallest k <= k_max admitting a dominating identifying code, if any."""
    for k in range(0, min(k_max, g.n) + 1):
        count, _ = count_ics(g, k)
        if count > 0:
            return k
    return None


@dataclass(frozen=True)
class ClassHistogram:
    """Family counts for a batch of size-10 SBG codes, plus any strays."""

    counts: dict[str, int]
    matched: dict[int, MotifSet]
    unmatched: list[int]


def classify_solutions(solutions: list[int]) -> ClassHistogram:
    """Match each code against the named SBG families (I, II, III, IV)."""
    by_mask = {m.members: m for m in motif_class_sets()}
    counts: dict[str, int] = {}
    matched: dict[int, MotifSet] = {}
    unmatched: list[int] = []
    for mask in solutions:
        motif = by_mask.get(mask)
        if motif is None:
            unmatched.append(mask)
        else:
            matched[mask] = motif
            counts[motif.family] = counts.get(motif.family, 0) + 1
    return ClassHistogram(counts, matched, unmatched)
