"""Immutable undirected graphs with bitmask adjacency, and the soccer ball graph.

Node sets everywhere in this package are plain Python ints used as bitmasks:
bit ``v`` is set iff node ``v`` is in the set.  For graphs with at most 64
nodes these fit in a machine word; larger graphs fall back transparently to
Python's arbitrary-precision ints.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


class GraphError(ValueError):
    """Invalid graph construction or query."""


class EdgeListError(GraphError):
    """Malformed edge-list text; carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of *mask* in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(nodes: Iterable[int]) -> int:
    """Bitmask with exactly the given node indices set."""
    out = 0
    for v in nodes:
        out |= 1 << v
    return out


class Graph:
    """Immutable simple undirected graph over nodes ``0..n-1``.

    Adjacency is stored as one bitmask per node.  Construction rejects
    self-loops, duplicate edges and out-of-range endpoints; the adjacency is
    symmetric by construction.  Instances are safe to share between threads
    and processes.
    """

    __slots__ = ("n", "_adj", "_names", "_name_to_id")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]],
        names: Sequence[str] | None = None,
    ):
        if n < 0:
            raise GraphError(f"node count must be nonnegative, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if adj[u] >> v & 1:
                raise GraphError(f"duplicate edge ({min(u, v)}, {max(u, v)})")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        names = tuple(f"v{i + 1}" for i in range(n)) if names is None else tuple(names)
        if len(names) != n:
            raise GraphError(f"expected {n} names, got {len(names)}")
        if len(set(names)) != n:
            raise GraphError("node names must be distinct")
        self.n = n
        self._adj = tuple(adj)
        self._names = names
        self._name_to_id = {name: i for i, name in enumerate(names)}

    # -- basic queries ----------------------------------------------------

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        out = []
        for u in range(self.n):
            rest = self._adj[u] >> (u + 1) << (u + 1)
            out.extend((u, v) for v in bits(rest))
        return tuple(out)

    @property
    def edge_count(self) -> int:
        return sum(a.bit_count() for a in self._adj) // 2

    def _check(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise GraphError(f"node {v} out of range for n={self.n}")

    def neighbors(self, v: int) -> int:
        """Open neighborhood of *v* as a bitmask (excludes *v*)."""
        self._check(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check(v)
        return self._adj[v].bit_count()

    def closed_neighborhood(self, v: int) -> int:
        """``{v} | N(v)`` as a bitmask."""
        self._check(v)
        return self._adj[v] | (1 << v)

    def closed_two_neighborhood(self, v: int) -> int:
        """All nodes at distance <= 2 from *v*, by a two-step BFS."""
        self._check(v)
        one = self._adj[v] | (1 << v)
        two = one
        for u in bits(self._adj[v]):
            two |= self._adj[u]
        return two

    def distinguishing_set(self, u: int, v: int) -> int:
        """Symmetric difference of the closed neighborhoods of *u* and *v*."""
        nu, nv = self.closed_neighborhood(u), self.closed_neighborhood(v)
        if u == v:
            raise GraphError("distinguishing set requires two distinct nodes")
        return nu ^ nv

    # -- names -------------------------------------------------------------

    def node_name(self, v: int) -> str:
        self._check(v)
        return self._names[v]

    def node_id(self, name: str) -> int:
        try:
            return self._name_to_id[name]
        except KeyError:
            raise GraphError(f"unknown node name {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return self._names

    def parse_node_set(self, selector: str | Iterable[str]) -> int:
        """Bitmask for a comma-separated string (or iterable) of node names."""
        if isinstance(selector, str):
            selector = [s for s in (part.strip() for part in selector.split(",")) if s]
        return mask_of(self.node_id(name) for name in selector)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self._adj == other._adj
            and self._names == other._names
        )

    def __hash__(self) -> int:
        return hash((self.n, self._adj, self._names))


# -- soccer ball graph -----------------------------------------------------


# (kind, layer, position) of each node in canonical order: P for a
# pentagonal patch, H for a hexagonal one; layers 1 and 6 hold one pentagon.
_SBG_NODES = (
    ("P", 1, 1),
    *[
        (kind, layer, j)
        for kind, layer in (("H", 2), ("H", 3), ("P", 3), ("P", 4), ("H", 4), ("H", 5))
        for j in range(1, 6)
    ],
    ("P", 6, 1),
)
_SBG_ID = {f"{kind}{layer}_{j}": i for i, (kind, layer, j) in enumerate(_SBG_NODES)}


def sbg_node(kind: str, layer: int, j: int = 1) -> int:
    """Canonical node id of P/H node at (layer, position), position wrapped to 1..5."""
    p = 1 if layer in (1, 6) else (j - 1) % 5 + 1
    try:
        return _SBG_ID[f"{kind}{layer}_{p}"]
    except KeyError:
        raise GraphError(f"no SBG node {kind}{layer}_{p}") from None


def build_sbg() -> Graph:
    """Construct the soccer ball graph: 32 nodes, 90 edges.

    Nodes are the 12 pentagonal and 20 hexagonal patches of a truncated
    icosahedron, arranged in six layers; two nodes are adjacent iff their
    patches share a boundary.  The canonical node order is P1_1, H2_1..H2_5,
    H3_1..H3_5, P3_1..P3_5, P4_1..P4_5, H4_1..H4_5, H5_1..H5_5, P6_1.
    """

    def P(i, j=1):
        return sbg_node("P", i, j)

    def H(i, j):
        return sbg_node("H", i, j)

    edges = []
    for j in range(1, 6):
        edges.append((P(1), H(2, j)))              # top pentagon to layer 2
        edges.append((P(6), H(5, j)))              # bottom pentagon to layer 5
        edges.append((H(2, j), H(2, j + 1)))       # layer-2 ring
        edges.append((H(5, j), H(5, j + 1)))       # layer-5 ring
        edges.append((H(3, j), P(3, j)))
        edges.append((P(3, j), H(3, j + 1)))
        edges.append((H(4, j), P(4, j + 1)))
        edges.append((P(4, j), H(4, j)))
        edges.append((H(2, j), H(3, j)))
        edges.append((H(2, j), P(3, j - 1)))
        edges.append((H(2, j), P(3, j)))
        edges.append((H(3, j), P(4, j)))
        edges.append((H(3, j), H(4, j - 1)))
        edges.append((H(3, j), H(4, j)))
        edges.append((P(3, j), H(4, j)))
        edges.append((H(4, j), H(5, j)))
        edges.append((P(4, j), H(5, j)))
        edges.append((P(4, j), H(5, j - 1)))
    return Graph(32, edges, tuple(_SBG_ID))


def is_sbg(g: Graph) -> bool:
    """True iff *g* is the canonical soccer ball graph (same names, same edges)."""
    return g == build_sbg()


# -- edge-list text format ---------------------------------------------------
#
# One edge per line as two whitespace-separated node names; a line with a
# single name declares a node without adding an edge; '#' starts a comment.
# Node ids are assigned densely in order of first appearance, so a file that
# declares every node up front is its own name table and round-trips exactly.


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format into a Graph, checking each line as it
    is read, so that an error names the first malformed line."""
    ids: dict[str, int] = {}
    edges: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) > 2:
            raise EdgeListError(line_no, f"expected 'u v', got {raw.strip()!r}")
        for name in parts:
            ids.setdefault(name, len(ids))
        if len(parts) == 1:
            continue
        u, v = sorted(ids[name] for name in parts)
        if u == v:
            raise EdgeListError(line_no, f"self-loop at {parts[0]!r}")
        if (u, v) in edges:
            raise EdgeListError(line_no, "duplicate edge")
        edges.add((u, v))
    return Graph(len(ids), edges, tuple(ids))


def write_edge_list(g: Graph) -> str:
    """Render a Graph in the edge-list text format.

    All nodes are declared first, in id order, so that parse_edge_list
    reconstructs the same node numbering: parse(write(g)) == g.
    """
    lines = [f"# {g.n} nodes, {g.edge_count} edges"]
    lines.extend(g.node_name(v) for v in range(g.n))
    lines.extend(f"{g.node_name(u)} {g.node_name(v)}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
