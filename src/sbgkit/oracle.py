"""Exhaustive ground truth for identifying code counts, independent of the
solver and of the PB encoding.

The k-subsets of the nodes are enumerated as bitmasks, in colexicographic
order of their scan positions; a subset qualifies when all per-node
signatures ``N+(v) & subset`` are nonempty and pairwise distinct.  The scan
is vectorized with numpy, with a sound prefilter (the 64 smallest of the
closed neighborhoods and the distinguishing sets must all be hit) discarding
almost all candidates before the exact check, which tests the whole
definition.

numpy is imported inside the functions that use it, so importing sbgkit
loads no numpy and the solver and proof routes run without it; the first
``count_ics`` call in a process pays the import (about 0.1 s).

Each node has a 64-bit hit word whose bit i says the node lies in filter i,
so a subset meets every filter exactly when the OR of its nodes' hit words is
all ones: one compare per subset for all (at most 64) filters.

The nodes are scanned in an order taken from the filters: the nodes of the
smallest filters take the highest positions.  The level is cut into leaves
of at most ``_CHUNK`` subsets, each the r-subsets of some range(m) plus a
fixed prefix: the k-subsets of the largest range(t) that fits form one leaf,
and the rest is split on its top element.  A leaf whose prefix and range
together miss a filter holds no code and is skipped whole.  The masks and
hit words of the r-subsets are built once per r, and every leaf of size r
reads a prefix of that cached level.  Memory is therefore bounded by
``_CHUNK``: at most one cached level per leaf size, each at most ``_CHUNK``
masks plus as many hit words, and the exact check's n-column signature
matrix over one leaf's survivors.  On the 32-node soccer ball graph at k=10
the scan reads 565 leaves and 44,361,866 of the 64,512,240 subsets; the
four cached levels it reads, of sizes 5 to 8, hold 423,927 subsets, and the
whole scan peaks at about 6 MiB of numpy allocations (tracemalloc), where
the C(32, 10) level held whole would be 246 MiB of masks.
"""

from __future__ import annotations

import itertools
import math
import operator

from .graph import Graph, bits

_CHUNK = 1 << 17
_PREFILTER_CAP = 64  # one uint64 hit word holds every filter


class OracleError(ValueError):
    pass


def _mask_dtype(n: int):
    import numpy as np

    if n <= 32:
        return np.uint32
    if n <= 64:
        return np.uint64
    raise OracleError(f"bitmask oracle supports at most 64 nodes, got {n}")


def _level(words, k: int):
    """The OR of ``words[j]`` over each k-subset of range(len(words)), in
    colex order.  With ``words[j] = 1 << j`` these are the subset masks.

    Built level by level: the k-subsets with maximum element j are exactly
    the (k-1)-subsets of range(j), which in colex order are a prefix of the
    previous level.  Level i is built only over range(n - k + i), the part
    the later levels read.  *words* is a numpy array, and so is the result.
    """
    import numpy as np

    n = len(words)
    cur = np.zeros(1, dtype=words.dtype)
    for level in range(1, k + 1):
        parts = [
            cur[: math.comb(j, level - 1)] | words[j]
            for j in range(level - 1, n - k + level)
        ]
        cur = np.concatenate(parts) if parts else np.zeros(0, dtype=words.dtype)
    return cur


def _leaves(
    n: int, k: int, seq: list[int], hw: list[int], reach: list[int], full: int,
    prefix: int = 0, prefix_hit: int = 0,
):
    """The k-subsets of positions range(n), OR'd with *prefix*, in colex
    order, as leaves ``(m, r, prefix, prefix_hit)``: the at most _CHUNK
    r-subsets of range(m), each OR'd with *prefix*, whose hit words
    *prefix_hit* joins.  Position j scans node ``seq[j]`` with hit word
    ``hw[j]``; *prefix* is a node mask, in the caller's labels.

    A range whose hit words, all of them together with *prefix_hit*, still
    miss a filter holds no subset that meets them all, so it yields
    nothing: ``reach[m]`` is the OR of ``hw[:m]``.

    A level too large for one leaf first yields the k-subsets of range(t)
    whole, for the largest t whose level fits.  The k-subsets with maximum
    element top are the (k-1)-subsets of range(top) plus top, so the rest
    is split on the tops t..n-1 until each part fits.
    """
    if reach[n] | prefix_hit != full:
        return
    if math.comb(n, k) <= _CHUNK:
        yield n, k, prefix, prefix_hit
        return
    t = k
    while math.comb(t + 1, k) <= _CHUNK:
        t += 1
    if reach[t] | prefix_hit == full:
        yield t, k, prefix, prefix_hit
    for top in range(t, n):
        yield from _leaves(
            top, k - 1, seq, hw, reach, full,
            prefix | 1 << seq[top], prefix_hit | hw[top],
        )


def _colex_blocks(k: int, seq: list[int], hw: list[int], full: int, dtype):
    """Per leaf of ``_leaves(len(seq), k, ...)``: ``(masks, hits, prefix,
    prefix_hit)``, with the node masks and hit words of its r-subsets of
    positions range(m).

    Both are prefixes of one level per r, built over range(M_r) for the
    largest M_r <= n - k + r (a leaf of size r lies below k - r distinct top
    elements) whose level fits in _CHUNK: in colex order the r-subsets of
    range(m) come first among those of range(M_r).  One leaf alone has size
    k, so its level is dropped once that leaf is read.
    """
    import numpy as np

    n = len(seq)
    units = np.array([1 << j for j in seq], dtype=dtype)
    words = np.array(hw, dtype=np.uint64)
    reach = list(itertools.accumulate(hw, operator.or_, initial=0))
    levels = {}
    for m, r, prefix, prefix_hit in _leaves(n, k, seq, hw, reach, full):
        if r not in levels:
            top = n - k + r
            while math.comb(top, r) > _CHUNK:
                top -= 1
            levels[r] = _level(units[:top], r), _level(words[:top], r)
        masks, hits = levels[r] if r < k else levels.pop(r)
        c = math.comb(m, r)
        yield masks[:c], hits[:c], prefix, prefix_hit


def _prefilters(g: Graph) -> list[int]:
    """The _PREFILTER_CAP smallest node sets every dominating identifying
    code must intersect.

    The pool is the closed neighborhoods (domination) and the distinguishing
    sets of pairs within distance two; smaller sets cut more candidates.  An
    empty distinguishing set (twins) means no code of any size works, and
    it sorts first.  Any neighborhood may fall outside the cap, so the exact
    check in ``count_ics`` tests domination itself.
    """
    nb = [g.closed_neighborhood(v) for v in range(g.n)]
    pool = list(nb)
    for u in range(g.n):
        reach = g.closed_two_neighborhood(u)
        pool.extend(nb[u] ^ nb[v] for v in bits(reach >> (u + 1) << (u + 1)))
    pool.sort(key=int.bit_count)
    return pool[:_PREFILTER_CAP]


def _hit_words(filters: list[int], n: int) -> list[int]:
    """Bit i of word j is set when node j is in filter i, so a subset meets
    every filter exactly when the OR of its nodes' words is all ones."""
    hw = [0] * n
    for i, f in enumerate(filters):
        for j in bits(f):
            hw[j] |= 1 << i
    return hw


def _scan_order(n: int, filters: list[int]) -> list[int]:
    """Nodes in scan order: those in no filter first, then the nodes of the
    filters, smallest filter first, reversed, so that the nodes of the
    smallest filters take the highest positions.  A leaf below such a node
    whose prefix misses its filter then holds no code, and is skipped."""
    collected = dict.fromkeys(j for f in filters for j in bits(f))
    return [j for j in range(n) if j not in collected] + list(collected)[::-1]


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

    import numpy as np

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
    seq = _scan_order(n, filters)
    hw = _hit_words(filters, n)
    full = (1 << len(filters)) - 1

    blocks = _colex_blocks(k, seq, [hw[j] for j in seq], full, dtype)
    total = 0
    for masks, hits, prefix, prefix_hit in blocks:
        cand = masks[(hits | np.uint64(prefix_hit)) == np.uint64(full)] | dtype(prefix)
        sig = cand[:, None] & nb[None, :]
        sig.sort(axis=1)
        # nonempty and pairwise distinct, whatever the prefilter held
        good = (sig[:, 0] != 0) & (sig[:, 1:] != sig[:, :-1]).all(axis=1)
        total += int(good.sum())
        if solutions is not None:
            solutions.extend(cand[good].tolist())
    if solutions is not None:
        solutions.sort()  # colex order is increasing mask order
    return total, solutions


def min_ics_size(g: Graph, k_max: int) -> int | None:
    """Smallest k <= k_max admitting a dominating identifying code, if any."""
    for k in range(0, min(k_max, g.n) + 1):
        count, _ = count_ics(g, k)
        if count > 0:
            return k
    return None
