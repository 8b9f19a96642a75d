"""Random rational plumbing trees for fuzz verification.

Rejection sampling: draw a labelled tree, decorate with Euler numbers, keep
it only if the form is negative definite and the Artin criterion holds.
Euler numbers at most -2 do not guarantee definiteness (a four-legged star
of -2 vertices is degenerate), so the definiteness check is essential.  An
optional cap on the discriminant-group order keeps the counting machinery's
tables small; chains of very negative vertices are rational but can have
orders in the tens of thousands.
"""

from __future__ import annotations

import random

from .cycles import RationalCycle
from .graphs import (GraphError, NotNegativeDefiniteError, ResolutionGraph,
                     artin_rationality)


def _random_tree_edges(rng: random.Random, n: int) -> list[tuple[int, int]]:
    if n == 1:
        return []
    if n == 2:
        return [(1, 2)]
    # Pruefer sequence decode over ids 1..n
    seq = [rng.randint(1, n) for _ in range(n - 2)]
    degree = {v: 1 for v in range(1, n + 1)}
    for v in seq:
        degree[v] += 1
    edges = []
    import heapq
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    u, w = sorted(leaves)
    edges.append((u, w))
    return edges


def random_rational_graph(rng: random.Random, max_vertices: int = 6,
                          euler_range: tuple[int, int] = (-7, -1),
                          order_cap: int | None = 60,
                          max_tries: int = 4000) -> ResolutionGraph:
    """A random negative definite, Artin-rational tree."""
    lo, hi = euler_range
    for _ in range(max_tries):
        n = rng.randint(1, max_vertices)
        edges = _random_tree_edges(rng, n)
        eulers = {v: rng.randint(lo, hi) for v in range(1, n + 1)}
        try:
            graph = ResolutionGraph.build(eulers, edges)
        except (NotNegativeDefiniteError, GraphError):
            continue
        if order_cap is not None and graph.det_abs > order_cap:
            continue
        if not artin_rationality(graph)[1]:
            continue
        return graph
    raise RuntimeError("could not sample a rational graph within the try budget")


def random_antinef(rng: random.Random, graph: ResolutionGraph,
                   max_coeff: int = 2) -> RationalCycle:
    """Random small element of the anti-nef cone (dual-basis combination)."""
    return graph.dual_combination([rng.randint(0, max_coeff) for _ in range(graph.n)])


def random_class(rng: random.Random, graph: ResolutionGraph) -> tuple[int, ...]:
    return tuple(rng.randrange(m) for m in graph.group.invariant_factors)


def random_positions(rng: random.Random, graph: ResolutionGraph,
                     allow_full: bool = True) -> tuple[int, ...]:
    top = graph.n if allow_full else graph.n - 1
    size = rng.randint(1, max(1, top))
    return tuple(sorted(rng.sample(range(graph.n), size)))


def random_unit_arrows(rng: random.Random, graph: ResolutionGraph,
                       max_arrows: int = 3) -> ResolutionGraph:
    """Copy of the graph with one to ``max_arrows`` unit arrows placed."""
    k = rng.randint(1, min(max_arrows, graph.n))
    chosen = rng.sample(list(graph.ids), k)
    return ResolutionGraph(
        ids=graph.ids, eulers=graph.eulers, edges=graph.edges,
        arrows=tuple(1 if v in chosen else 0 for v in graph.ids))
