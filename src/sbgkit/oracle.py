"""Exhaustive ground truth for identifying code counts, independent of the
solver and of the PB encoding.

The k-subsets of the nodes are enumerated as bitmasks, in colexicographic
order of their scan positions; a subset qualifies when all per-node
signatures ``N+(v) & subset`` are nonempty and pairwise distinct.  The work
is vectorized with numpy and has two stages of sound filters before the
exact check, which tests the whole definition:

1. The scan keeps the subsets that hit the 64 smallest of the sets every
   code must hit (the closed neighborhoods and the distinguishing sets of
   pairs within distance two).
2. The survivors, gathered across leaves in batches of at most ``_CHUNK``,
   are tested against the rest of that pool, 64 sets per word, and each
   word drops the batch's misses before the next one runs.

On a twin-free graph a dominating set that separates every pair within
distance two separates all pairs, whose closed neighborhoods are otherwise
disjoint, so only codes reach the exact check; it still runs on every
survivor, and no count rests on that argument.

numpy is imported inside the functions that use it, so importing sbgkit
loads no numpy and the solver and proof routes run without it; the first
``count_ics`` call in a process pays the import (about 0.1 s).

Each node has a 64-bit hit word per 64 sets whose bit i says the node lies
in set i, so a subset meets every set of a word exactly when the OR of its
nodes' hit words is all ones: one compare per subset for 64 sets.  The scan
ORs its word level by level.  The later words are ORed by byte: per
byte b of a node mask, a table of 256 entries gives the OR of the hit words
of the nodes of that byte, so a word costs one lookup per byte.

The nodes are scanned in an order taken from the filters: the nodes of the
smallest filters take the highest positions.  The level is cut into leaves
of at most ``_CHUNK`` subsets, each the r-subsets of some range(m) plus a
fixed prefix: the k-subsets of the largest range(t) that fits form one leaf,
and the rest is split on its top element.  A leaf whose prefix and range
together miss a filter holds no code and is skipped whole.  The masks and
hit words of the r-subsets are built once per r, and every leaf of size r
reads a prefix of that cached level.  Memory is therefore bounded by
``_CHUNK``: at most one cached level per leaf size, each at most ``_CHUNK``
masks plus as many hit words; one batch of at most ``_CHUNK`` survivors with
one 64-bit hit word each; and the exact check's n-column signature matrix
over the batch's final survivors.

``_CHUNK`` is 2^15 so that a leaf's working set fits in a 2 MiB L2 cache:
its hit words (256 KiB) and masks (128 KiB or 256 KiB), the OR of the hit
words (256 KiB) and the compare's booleans (32 KiB), about 0.66 MiB with
32-bit masks.  Smaller leaves save little more memory and pay numpy's
per-call cost more often.  On the 32-node soccer ball graph at k=10 the
scan reads 2,093 leaves and 41,111,602 of the 64,512,240 subsets, 3,817 of
them survive the scan and exactly the 26 codes survive the later words;
the four cached levels it reads, of sizes 4 to 7, hold 14,950 + 26,334 +
27,132 + 31,824 = 100,240 subsets, 1.1 MiB of masks and hit words.  The
scans at k=8, 9 and 10 peak at 1.1, 1.6 and 1.6 MiB of numpy allocations
(tracemalloc), where the C(32, 10) level held whole would be 246 MiB of
masks.
"""

from __future__ import annotations

import itertools
import math
import operator

from .graph import Graph, bits

_CHUNK = 1 << 15
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
        cur = np.concatenate(parts)
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


def _must_hit_sets(g: Graph) -> list[int]:
    """Every node set that every dominating identifying code must intersect,
    smallest first.

    The pool is the closed neighborhoods (domination) and the distinguishing
    sets of pairs within distance two; smaller sets cut more candidates.  An
    empty distinguishing set (twins) means no code of any size works; it
    sorts first, no node's hit word holds its bit, and the scan reads no
    leaf.  The scan tests the first _PREFILTER_CAP sets and
    ``_meet_rest`` the others; whatever the pool holds, the exact check in
    ``count_ics`` tests the whole definition.
    """
    nb = [g.closed_neighborhood(v) for v in range(g.n)]
    pool = list(nb)
    for u in range(g.n):
        reach = g.closed_two_neighborhood(u)
        pool.extend(nb[u] ^ nb[v] for v in bits(reach >> (u + 1) << (u + 1)))
    pool.sort(key=int.bit_count)
    return pool


def _hit_words(filters: list[int], n: int) -> list[int]:
    """Bit i of word j is set when node j is in filter i, so a subset meets
    every filter exactly when the OR of its nodes' words is all ones.  At
    most 64 filters, each a node mask of at most 64 nodes."""
    import numpy as np

    member = np.array(filters, dtype=np.uint64)[:, None] >> np.arange(
        n, dtype=np.uint64
    ) & np.uint64(1)
    shift = np.arange(len(filters), dtype=np.uint64)[:, None]
    return np.bitwise_or.reduce(member << shift, axis=0).tolist()


def _byte_tables(sets: list[int], n: int):
    """*sets* in words of 64, as ``(tables, fulls)``: ``tables[w][b][octet]``
    is the OR of word w's hit words of the nodes 8b + t for the bits t set in
    *octet*, so the OR of a node mask's hit words is the OR of one entry per
    byte of the mask, and ``fulls[w]`` is word w's all-ones value.

    Each table doubles once per node of its byte: the entries whose bit t is
    set are the earlier ones OR'd with node 8b + t's hit word.
    """
    import numpy as np

    groups = [sets[i : i + 64] for i in range(0, len(sets), 64)]
    size = -(-n // 8)
    cols = np.zeros((len(groups), size * 8), dtype=np.uint64)
    cols[:, :n] = np.array(
        [_hit_words(group, n) for group in groups], dtype=np.uint64
    ).reshape(len(groups), n)
    cols = cols.reshape(len(groups), size, 8)
    tables = np.zeros((len(groups), size, 1), dtype=np.uint64)
    for t in range(8):
        tables = np.concatenate([tables, tables | cols[:, :, t, None]], axis=2)
    return tables, [np.uint64((1 << len(group)) - 1) for group in groups]


def _meet_rest(cand, tables, fulls):
    """The masks in *cand* whose nodes meet every set of each word of
    ``_byte_tables``: the OR of their entries is that word's *full*."""
    import numpy as np

    for table, full in zip(tables, fulls):
        octets = cand.astype(f"<u{cand.itemsize}", copy=False).view(np.uint8)
        octets = octets.reshape(len(cand), cand.itemsize)
        hit = np.take(table[0], octets[:, 0])
        for b in range(1, len(table)):
            hit |= np.take(table[b], octets[:, b])
        cand = cand[hit == full]
    return cand


def _scan_order(n: int, filters: list[int]) -> list[int]:
    """Nodes in scan order: those in no filter first, then the nodes of the
    filters, smallest filter first, reversed, so that the nodes of the
    smallest filters take the highest positions.  A leaf below such a node
    whose prefix misses its filter then holds no code, and is skipped."""
    collected = dict.fromkeys(j for f in filters for j in bits(f))
    return [j for j in range(n) if j not in collected] + list(collected)[::-1]


def _survivors(g: Graph, k: int, dtype):
    """The k-subsets of the nodes that meet every set of ``_must_hit_sets``,
    as node masks in batches of at most _CHUNK, in colex order of their
    scan positions.

    The scan's hit word keeps the subsets that meet the first
    _PREFILTER_CAP sets; they are gathered across leaves, and each batch is
    tested against the rest of the pool, 64 sets per word.
    """
    import numpy as np

    n = g.n
    pool = _must_hit_sets(g)
    filters, rest = pool[:_PREFILTER_CAP], pool[_PREFILTER_CAP:]
    seq = _scan_order(n, filters)
    hw = _hit_words(filters, n)
    full = (1 << len(filters)) - 1
    tables, fulls = _byte_tables(rest, n)

    batch, size = [], 0
    for masks, hits, prefix, prefix_hit in _colex_blocks(
        k, seq, [hw[j] for j in seq], full, dtype
    ):
        cand = masks[(hits | np.uint64(prefix_hit)) == np.uint64(full)]
        if not len(cand):
            continue
        if size + len(cand) > _CHUNK:
            yield _meet_rest(np.concatenate(batch), tables, fulls)
            batch, size = [], 0
        batch.append(cand | dtype(prefix))
        size += len(cand)
    if batch:
        yield _meet_rest(np.concatenate(batch), tables, fulls)


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

    dtype = _mask_dtype(n)
    nb = np.array([g.closed_neighborhood(v) for v in range(n)], dtype=dtype)
    total, found = 0, [np.zeros(0, dtype=dtype)]
    for cand in _survivors(g, k, dtype):
        sig = cand[:, None] & nb[None, :]
        sig.sort(axis=1)
        # nonempty and pairwise distinct, whatever the pool held (with no
        # nodes, the empty code identifies the empty graph)
        good = sig[:, :1].all(axis=1) & (sig[:, 1:] != sig[:, :-1]).all(axis=1)
        total += int(good.sum())
        if collect:
            found.append(cand[good])
    # colex order is increasing mask order; tolist() gives Python ints
    return total, np.sort(np.concatenate(found)).tolist() if collect else None


def min_ics_size(g: Graph, k_max: int) -> int | None:
    """Smallest k <= k_max admitting a dominating identifying code, if any."""
    for k in range(0, min(k_max, g.n) + 1):
        count, _ = count_ics(g, k)
        if count > 0:
            return k
    return None
