"""Fusing k-hypergraphs, 3-sunflower cores, and small graph predicates."""

from __future__ import annotations

from dataclasses import dataclass

from .core import AssociationScheme, DEFAULT_TOL, Tolerance
from .errors import WrongUniformity
# fuse_direct is unused here; bench/selftest.py looks the binding up in this module
from .fusion import _dual_merges, _triples_through, enumerate_fusing_tuples, fuse_direct

__all__ = [
    "UniformHypergraph",
    "SunflowerCore",
    "build_fusing_hypergraph",
    "sunflower_cores",
    "graph_shape",
    "GraphShape",
    "to_dot",
    "to_edge_list",
]


@dataclass(frozen=True)
class UniformHypergraph:
    """k-uniform hypergraph on class or idempotent indices 1..d."""

    k: int
    vertices: tuple[int, ...]
    edges: frozenset
    side: str = "relations"  # or "idempotents"

    def __post_init__(self):
        for e in self.edges:
            if len(e) != self.k or not set(e) <= set(self.vertices) or list(e) != sorted(set(e)):
                raise ValueError(f"edge {e} is not a sorted {self.k}-subset of the vertex set")

    def sorted_edges(self) -> list[tuple[int, ...]]:
        return sorted(self.edges)

    def is_complete(self) -> bool:
        from math import comb
        return len(self.edges) == comb(len(self.vertices), self.k)


@dataclass(frozen=True)
class SunflowerCore:
    core: tuple[int, ...]


def build_fusing_hypergraph(scheme: AssociationScheme, k: int,
                            side: str = "relations",
                            tol: Tolerance = DEFAULT_TOL) -> UniformHypergraph:
    """Edges are the fusing k-tuples, streamed from one fusion pass.

    On the relation side a tuple is an edge if merging exactly it yields a
    fusion scheme; on the idempotent side, if some fusion scheme's dual
    partition merges exactly it and keeps the other idempotents singleton
    (:func:`~amorphic.fusion._dual_merges`).  There is no limit on d.
    """
    if k not in (2, 3):
        raise WrongUniformity(f"k must be 2 or 3, got {k}")
    if side == "relations":
        edges = enumerate_fusing_tuples(scheme, k, tol=tol)
    elif side == "idempotents":
        edges = _dual_merges(scheme, k, tol)
    else:
        raise ValueError(f"unknown side {side!r}")
    return UniformHypergraph(k=k, vertices=tuple(range(1, scheme.d + 1)),
                             edges=frozenset(edges), side=side)


def sunflower_cores(H: UniformHypergraph) -> list[SunflowerCore]:
    """All 2-sets C, ascending, such that C + {w} is an edge for every other vertex w.

    Each such C is the core of a 3-sunflower subhypergraph whose edge union
    is the whole vertex set; distinct cores count as different sunflowers.
    """
    if H.k != 3:
        raise WrongUniformity(f"sunflower cores need k=3, got k={H.k}")
    return [SunflowerCore(core=C) for C in _cores(_triples_through(H.edges), len(H.vertices))]


def _cores(through: dict, n: int) -> list[tuple[int, int]]:
    """The 2-subsets in n - 2 of the 3-edges on n vertices grouped in ``through``."""
    return sorted(C for C, edges in through.items() if len(edges) == n - 2)


@dataclass(frozen=True)
class GraphShape:
    connected: bool
    is_path: bool


def graph_shape(H: UniformHypergraph) -> GraphShape:
    """Connectivity, and whether the graph is a simple path spanning all
    vertices (a spanning tree with maximum degree 2)."""
    if H.k != 2:
        raise WrongUniformity(f"graph shape needs k=2, got k={H.k}")
    n = len(H.vertices)
    adj = {u: set() for u in H.vertices}
    for a, b in H.edges:
        adj[a].add(b)
        adj[b].add(a)
    if n == 0:
        return GraphShape(connected=True, is_path=True)
    seen = {H.vertices[0]}
    stack = [H.vertices[0]]
    while stack:
        u = stack.pop()
        for w in adj[u] - seen:
            seen.add(w)
            stack.append(w)
    connected = len(seen) == n
    is_path = (connected and len(H.edges) == n - 1
               and all(len(adj[u]) <= 2 for u in H.vertices))
    return GraphShape(connected=connected, is_path=is_path)


def to_dot(H: UniformHypergraph) -> str:
    """DOT text for a k=2 hypergraph, deterministic vertex/edge order."""
    if H.k != 2:
        raise WrongUniformity("DOT export is for k=2 graphs")
    lines = ["graph fusing {"]
    for u in H.vertices:
        lines.append(f"  {u};")
    for a, b in H.sorted_edges():
        lines.append(f"  {a} -- {b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_edge_list(H: UniformHypergraph) -> str:
    """One sorted tuple per line, e.g. "1 2 3"."""
    return "".join(" ".join(str(i) for i in e) + "\n" for e in H.sorted_edges())
