"""Identifying code sets: signatures, the seepage-coloring view, and the
named families of size-10 codes on the soccer ball graph.

A code set is a node bitmask.  The signature of node ``v`` under code ``C``
is ``N+(v) & C``: the code members whose injected color reaches ``v``.  A
code is an identifying code set when all signatures are pairwise distinct
(and, in the dominating variant used throughout, nonempty).
"""

from __future__ import annotations

import string
from dataclasses import dataclass

from .graph import Graph, GraphError, bits, mask_of, sbg_node, _SBG_ID, _SBG_NODES


def signatures(g: Graph, code: int) -> tuple[int, ...]:
    """Per-node signatures ``N+(v) & code``, indexed by node id.

    These are also the seepage colors: the colors reaching each node when
    distinct colors are injected at the members of *code*.
    """
    if code >> g.n:
        raise GraphError("code set contains nodes outside the graph")
    return tuple(g.closed_neighborhood(v) & code for v in range(g.n))


def is_ics(g: Graph, code: int) -> bool:
    """Decide whether *code* identifies every node of *g*.

    Every node must also receive at least one color: the code dominates.
    """
    seen = set()
    for sig in signatures(g, code):
        if sig == 0:
            return False
        if sig in seen:
            return False
        seen.add(sig)
    return True


def color_table(g: Graph, injected: int) -> list[tuple[str, str]]:
    """Render a seepage coloring as ``(node name, color string)`` rows.

    Injected nodes get single-letter colors A, B, C, ... in node-id order.
    A node's string lists its colors alphabetically; a ``*`` after a letter
    marks the color as injected at that node (rather than seeped into it).
    An empty signature renders as ``-``.
    """
    members = list(bits(injected))
    if len(members) > len(string.ascii_uppercase):
        raise GraphError("star notation supports at most 26 injected nodes")
    letter = {v: string.ascii_uppercase[i] for i, v in enumerate(members)}
    rows = []
    for v, sig in enumerate(signatures(g, injected)):
        cell = "".join(
            letter[u] + ("*" if u == v else "") for u in bits(sig)
        )
        rows.append((g.node_name(v), cell or "-"))
    return rows


# -- the 26 size-10 code families on the soccer ball graph -------------------


@dataclass(frozen=True)
class MotifSet:
    """One member of a named family of size-10 codes on the SBG.

    ``family`` is one of I, II, III, IV; families II and III split into an A
    variant and its B mirror image; ``shift`` is the cyclic translation
    index 1..5 (0 for the unique family-I set).
    """

    family: str
    variant: str
    shift: int
    members: int

    @property
    def tag(self) -> str:
        base = f"{self.family}{'-' + self.variant if self.variant else ''}"
        return base if self.shift == 0 else f"{base} j={self.shift}"


def _mirror_permutation() -> tuple[int, ...]:
    """The top/bottom reflection automorphism of the SBG.

    Layers map 1<->6, 2<->5, 3<->4 with cyclic positions reflected as
    j -> 5 - j (mod 5).  The map is an involution and preserves adjacency.
    """
    return tuple(sbg_node(kind, 7 - layer, 5 - j) for kind, layer, j in _SBG_NODES)


def _rotation_permutation() -> tuple[int, ...]:
    """The rotation j -> j + 1 (mod 5) about the P1-P6 axis, of order 5."""
    return tuple(sbg_node(kind, layer, j + 1) for kind, layer, j in _SBG_NODES)


def _apply(perm: tuple[int, ...], mask: int) -> int:
    return mask_of(perm[v] for v in bits(mask))


def _code(names: str) -> int:
    return mask_of(_SBG_ID[name] for name in names.split())


def _turns(mask: int) -> list[int]:
    """*mask* and its images under the rotation, for shifts j = 1..5."""
    rotation = _rotation_permutation()
    out = [mask]
    for _ in range(4):
        out.append(_apply(rotation, out[-1]))
    return out


def motif_class_sets() -> tuple[MotifSet, ...]:
    """The 26 size-10 identifying code sets of the SBG, by family.

    Family I is the two hexagon rings (layers 2 and 5).  Families II and III
    pair a six-node pentagon motif with a four-node hexagon motif; each
    j = 1 seed turns to five sets, and mirroring top-to-bottom yields the B
    variants.  Family IV uses two five-node hexagon motifs and is closed
    under mirroring, giving five sets.
    """
    mirror = _mirror_permutation()
    out = [MotifSet("I", "", 0, _code("H2_1 H2_2 H2_3 H2_4 H2_5 H5_1 H5_2 H5_3 H5_4 H5_5"))]
    for family, seed in (
        ("II", "P1_1 P3_1 P3_2 P4_1 P4_2 P4_3 H3_4 H3_5 H4_4 H5_4"),
        ("III", "P1_1 P3_1 P3_2 P3_3 P3_5 P4_2 H4_4 H5_3 H5_4 H5_5"),
    ):
        turns = _turns(_code(seed))
        out += [MotifSet(family, "A", j, m) for j, m in enumerate(turns, 1)]
        out += [MotifSet(family, "B", j, _apply(mirror, m)) for j, m in enumerate(turns, 1)]
    seed = "H2_2 H2_3 H3_2 H3_3 H4_2 H3_5 H4_4 H4_5 H5_4 H5_5"
    out += [MotifSet("IV", "", j, m) for j, m in enumerate(_turns(_code(seed)), 1)]
    return tuple(out)


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
