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

from .graph import Graph, GraphError, bits, mask_of, sbg_node, _SBG_LABELS


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
    return tuple(sbg_node(lab.kind, 7 - lab.layer, 5 - lab.position) for lab in _SBG_LABELS)


def _apply(perm: tuple[int, ...], mask: int) -> int:
    return mask_of(perm[v] for v in bits(mask))


def motif_class_sets() -> tuple[MotifSet, ...]:
    """The 26 size-10 identifying code sets of the SBG, by family.

    Family I is the two hexagon rings (layers 2 and 5).  Families II and III
    pair a six-node pentagon motif with a four-node hexagon motif; each motif
    pair translates cyclically to five sets, and mirroring top-to-bottom
    yields the B variants.  Family IV uses two five-node hexagon motifs and
    is closed under mirroring, giving five sets.
    """

    def P(i, j=1):
        return sbg_node("P", i, j)

    def H(i, j):
        return sbg_node("H", i, j)

    mirror = _mirror_permutation()
    out = [
        MotifSet(
            "I", "", 0,
            mask_of([H(2, j) for j in range(1, 6)] + [H(5, j) for j in range(1, 6)]),
        )
    ]
    for j in range(1, 6):
        pentas = [P(1), P(3, j), P(3, j + 1), P(4, j), P(4, j + 1), P(4, j + 2)]
        hexas = [H(3, j + 3), H(3, j + 4), H(4, j + 3), H(5, j + 3)]
        out.append(MotifSet("II", "A", j, mask_of(pentas + hexas)))
    for j in range(1, 6):
        out.append(MotifSet("II", "B", j, _apply(mirror, out[j].members)))
    for j in range(1, 6):
        pentas = [P(1), P(3, j), P(3, j + 1), P(3, j + 2), P(3, j + 4), P(4, j + 1)]
        hexas = [H(4, j + 3), H(5, j + 2), H(5, j + 3), H(5, j + 4)]
        out.append(MotifSet("III", "A", j, mask_of(pentas + hexas)))
    for j in range(1, 6):
        out.append(MotifSet("III", "B", j, _apply(mirror, out[10 + j].members)))
    for j in range(1, 6):
        ring_top = [H(2, j + 1), H(2, j + 2), H(3, j + 1), H(3, j + 2), H(4, j + 1)]
        ring_bot = [H(3, j + 4), H(4, j + 3), H(4, j + 4), H(5, j + 3), H(5, j + 4)]
        out.append(MotifSet("IV", "", j, mask_of(ring_top + ring_bot)))
    return tuple(out)
