"""Plumbing trees, their intersection lattices, and lattice-level invariants.

A resolution graph here is a decorated tree: vertices carry Euler numbers
(self-intersections, at most -1) and optional arrow multiplicities recording
transversal curve attachments.  The tree spans a negative definite lattice L
with dual lattice L'; this module provides the exact arithmetic on both:
dual cycles, the canonical cycle, the Riemann-Roch quadratic chi, the
discriminant group L'/L, anti-nef saturation, the Artin rationality test and
full-subtree projections.

The form A is its stars: ``IntersectionForm.stars`` keeps each vertex's
Euler number and neighbours, built once from the edges, so a product, a
pairing, a saturation step and a component walk cost O(edges), not O(n^2).
Dense rows are built from the stars only for the one Bareiss pass, which
checks negative definiteness and whose last leading minor is |det|, and for
the Smith form.  The dual cycles come from the tree as well: |det|·E*_c is a
product of subtree determinants, worked out by one rooted recursion per
column in O(n) (``ResolutionGraph._scaled_duals``).  A dual-basis sum is one
integer product over |det| (``ResolutionGraph.dual_combination``).  The
Smith form U·A·V = diag(d_k) (``IntersectionForm.smith``) serves the group
only: a class of L'/L is U·a mod diag for the dual-basis coordinates a, and
the representative of a class is -V·diag^{-1}·coords.

Vertex genera are implicitly zero throughout; the link of any graph accepted
here is a rational homology sphere, and nothing else is representable.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

from .cycles import RationalCycle
from .snf import leading_principal_minors, smith_normal_form


class GraphError(ValueError):
    """Base class for invalid graph input."""


class InternalCheckError(AssertionError):
    """A mandatory internal cross-check failed.  Raised explicitly, so the
    check also runs under ``python -O``, where ``assert`` is stripped."""


class GraphSyntaxError(GraphError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class NotATreeError(GraphError):
    pass


class NotNegativeDefiniteError(GraphError):
    def __init__(self, order: int, minor: int):
        super().__init__(
            f"intersection form is not negative definite: "
            f"leading principal minor of order {order} equals {minor}, "
            f"expected sign {'-' if order % 2 else '+'}"
        )
        self.order = order
        self.minor = minor


@dataclass(frozen=True)
class IntersectionForm:
    """Symmetric integer matrix (E_u, E_v) of a negative definite tree: Euler
    numbers on the diagonal, one for each tree edge, zero elsewhere.  The
    form is its ``stars``, per vertex its Euler number and the indices of
    its neighbours in increasing order, so every product reads O(edges)
    entries.  The dense ``rows`` are built from them only for the Bareiss
    pass and the Smith form."""

    stars: tuple[tuple[int, tuple[int, ...]], ...]

    @cached_property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The dense n x n matrix, for ``det`` and ``smith`` alone."""
        n = len(self.stars)
        return tuple(tuple(e if w == v else int(w in nbrs) for w in range(n))
                     for v, (e, nbrs) in enumerate(self.stars))

    @cached_property
    def _edges(self) -> tuple[tuple[int, int], ...]:
        """Each edge once, as the index pair (v, w) with v < w."""
        return tuple((v, w) for v, (_, nbrs) in enumerate(self.stars) for w in nbrs if v < w)

    @cached_property
    def det(self) -> int:
        """The last leading principal minor of the one Bareiss pass that
        checks every minor of order k has sign (-1)^k; a form that is not
        negative definite raises ``NotNegativeDefiniteError``."""
        minors = leading_principal_minors(self.rows)
        for k, m in enumerate(minors, start=1):
            if m == 0 or (m > 0) != (k % 2 == 0):
                raise NotNegativeDefiniteError(k, m)
        return minors[-1]

    @property
    def det_abs(self) -> int:
        return abs(self.det)

    @cached_property
    def smith(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...],
                             tuple[tuple[int, ...], ...]]:
        """``(diag, U, V)`` with U·A·V = diag(d_k): the factorisation the
        discriminant group and its representatives are read from.  The
        invariant factors are checked to multiply to |det|."""
        diag, u, v = smith_normal_form([list(r) for r in self.rows])
        if math.prod(diag) != self.det_abs:
            raise InternalCheckError("invariant factors do not multiply to |det|")
        return tuple(diag), tuple(map(tuple, u)), tuple(map(tuple, v))

    def pair_basis(self, x: RationalCycle, v: int) -> Fraction:
        """(x, E_v) for the v-th basis vector, as an exact rational."""
        e, nbrs = self.stars[v]
        num = x.num
        return Fraction(e * num[v] + sum(num[w] for w in nbrs), x.den)

    def apply_scaled(self, scaled: Sequence[int]) -> list[int]:
        """Matrix-vector product on a scaled integer vector, over the edges."""
        out = [e * a for (e, _), a in zip(self.stars, scaled)]
        for v, w in self._edges:
            out[v] += scaled[w]
            out[w] += scaled[v]
        return out


def _dual_column(stars: Sequence[tuple[int, tuple[int, ...]]], c: int) -> list[int]:
    """|det|·E*_c on the tree of ``stars``, in O(n).

    The entry at u is the product of det(-A) over the components of the tree
    less the path from u to c.  Root the tree at c and let P_u be det(-A) on
    the subtree at u, positive by definiteness, and Q_u the product of P
    over u's children.  Expanding along u's row, P_u = -e_u Q_u - sum_w Q_w
    prod_{w' != w} P_w' over u's children w.  Then the entry at c is Q_c,
    and the entry at u is its parent's times Q_u / P_u: the path grows by u,
    whose subtree component gives way to its children's.  The division is
    exact, since P_u divides the parent's entry.
    """
    parent = [-1] * len(stars)
    order = [c]  # each vertex after its parent
    for u in order:  # the loop reaches every vertex appended as it runs
        for w in stars[u][1]:
            if w != parent[u]:
                parent[w] = u
                order.append(w)
    pdet, below = [0] * len(stars), [1] * len(stars)
    for u in reversed(order):
        e, nbrs = stars[u]
        prod, cross = 1, 0
        for w in nbrs:
            if w != parent[u]:
                cross = cross * pdet[w] + below[w] * prod
                prod *= pdet[w]
        below[u], pdet[u] = prod, -e * prod - cross
    col = [0] * len(stars)
    col[c] = below[c]
    for u in order[1:]:
        col[u] = col[parent[u]] * below[u] // pdet[u]
    return col


def _components(stars: Sequence[tuple[int, tuple[int, ...]]],
                keep: Sequence[int]) -> list[list[int]]:
    """Connected components of the tree of ``stars`` restricted to the
    vertex indices ``keep`` (increasing), each sorted, in the order of their
    first vertex."""
    left = set(keep)
    components: list[list[int]] = []
    for v in keep:
        if v in left:
            left.remove(v)
            comp = [v]
            for u in comp:  # the loop reaches every vertex appended as it runs
                for w in stars[u][1]:
                    if w in left:
                        left.remove(w)
                        comp.append(w)
            components.append(sorted(comp))
    return components


class KeyedEquality:
    """Equality and hash over ``_fields()``, the owner contract of
    ``counting``'s store: every lookup hashes its owner and compares it with
    the stored one, so the hash is worked out once and an owner equals itself
    at once.  Inherit it with ``@dataclass(eq=False)``, or the ``__eq__``
    that ``dataclass`` writes hides this one."""

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._fields() == other._fields()

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash(self._fields())


@dataclass(frozen=True, eq=False)
class ResolutionGraph(KeyedEquality):
    """Decorated plumbing tree.

    ``ids`` are the sorted vertex identifiers; ``eulers`` and ``arrows`` are
    aligned with them.  Edges are canonically ordered id pairs.  Construction
    validates the tree structure and negative definiteness; every derived
    object (form, dual cycles, canonical cycle, discriminant group) is cached
    and immutable, so instances are safe to share across threads.
    """

    ids: tuple[int, ...]
    eulers: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    arrows: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.ids:
            raise GraphError("graph needs at least one vertex")
        if list(self.ids) != sorted(set(self.ids)):
            raise GraphError("vertex ids must be distinct")
        if any(i <= 0 for i in self.ids):
            raise GraphError("vertex ids must be positive integers")
        if any(e > -1 for e in self.eulers):
            raise GraphError("Euler numbers must be <= -1")
        if any(a < 0 for a in self.arrows):
            raise GraphError("arrow multiplicities must be >= 0")
        idset = set(self.ids)
        seen = set()
        for a, b in self.edges:
            if a == b:
                raise GraphError(f"self-edge at vertex {a}")
            if a not in idset or b not in idset:
                raise GraphError(f"edge ({a},{b}) touches an undeclared vertex")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise GraphError(f"duplicate edge ({a},{b})")
            seen.add(key)
        if len(self.edges) != len(self.ids) - 1:
            raise NotATreeError(
                f"{len(self.ids)} vertices need {len(self.ids) - 1} edges to form a tree, "
                f"got {len(self.edges)}")
        if len(_components(self.form.stars, range(self.n))) != 1:
            raise NotATreeError("edge set is not connected")
        self.form.det  # the Bareiss pass behind it checks negative definiteness

    @classmethod
    def build(cls, eulers: dict[int, int], edges: Iterable[tuple[int, int]],
              arrows: dict[int, int] | None = None) -> "ResolutionGraph":
        ids = tuple(sorted(eulers))
        arr = arrows or {}
        unknown = set(arr) - set(ids)
        if unknown:
            raise GraphError(f"arrow on undeclared vertex {min(unknown)}")
        return cls(
            ids=ids,
            eulers=tuple(eulers[i] for i in ids),
            edges=tuple(sorted((min(a, b), max(a, b)) for a, b in edges)),
            arrows=tuple(arr.get(i, 0) for i in ids),
        )

    def _fields(self) -> tuple:
        return (self.ids, self.eulers, self.edges, self.arrows)

    @property
    def n(self) -> int:
        return len(self.ids)

    @cached_property
    def index(self) -> dict[int, int]:
        return {v: i for i, v in enumerate(self.ids)}

    @cached_property
    def valences(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for _, nbrs in self.form.stars)

    @cached_property
    def form(self) -> IntersectionForm:
        """The form's stars, built once from the edges, each vertex's
        neighbours in increasing index order."""
        nbrs: list[list[int]] = [[] for _ in self.ids]
        for a, b in self.edges:
            nbrs[self.index[a]].append(self.index[b])
            nbrs[self.index[b]].append(self.index[a])
        return IntersectionForm(tuple((e, tuple(sorted(ws)))
                                      for e, ws in zip(self.eulers, nbrs)))

    @property
    def det_abs(self) -> int:
        return self.form.det_abs

    @cached_property
    def _scaled_duals(self) -> tuple[tuple[int, ...], ...]:
        """|det|·E*_v for every v, one rooted recursion over the tree per
        column (``_dual_column``), O(n) each.

        Negative definiteness of a connected tree forces every entry to be
        strictly positive, and A·(|det|·E*_v) must be -|det|·e_v; both are
        checked, on the edges.
        """
        d, stars = self.det_abs, self.form.stars
        cols = tuple(tuple(_dual_column(stars, c)) for c in range(self.n))
        for c, col in enumerate(cols):
            if not all(a > 0 for a in col):
                raise InternalCheckError("dual cycle with a nonpositive entry")
            if self.form.apply_scaled(col) != [-d if w == c else 0 for w in range(self.n)]:
                raise InternalCheckError("dual cycle does not invert the form")
        return cols

    @cached_property
    def duals(self) -> tuple[RationalCycle, ...]:
        """E*_v for every vertex: the unique cycles with (E*_u, E_v) = -delta_uv,
        each one column of the integer matrix |det|·(-A^{-1}) worked out on
        the tree (see ``_scaled_duals``), over |det|."""
        return tuple(RationalCycle(col, self.det_abs) for col in self._scaled_duals)

    def dual_combination(self, coeffs: Sequence[int]) -> RationalCycle:
        """sum_v c_v E*_v for integer coefficients: one integer product over |det|."""
        cols = self._scaled_duals
        return RationalCycle(
            tuple(sum(c * col[w] for c, col in zip(coeffs, cols, strict=True))
                  for w in range(self.n)), self.det_abs)

    def dual(self, vertex_id: int) -> RationalCycle:
        return self.duals[self.index[vertex_id]]

    @cached_property
    def unit_cycle(self) -> RationalCycle:
        return RationalCycle((1,) * self.n, 1)

    @cached_property
    def sum_duals(self) -> RationalCycle:
        return self.dual_combination((1,) * self.n)

    @cached_property
    def canonical(self) -> RationalCycle:
        """The canonical cycle, via the valence formula, cross-checked against
        the adjunction relations it must solve: (Z_K, E_v) = e_v + 2."""
        zk = self.unit_cycle + self.dual_combination([val - 2 for val in self.valences])
        if self.form.apply_scaled(zk.num) != [(e + 2) * zk.den for e in self.eulers]:
            raise InternalCheckError("canonical cycle fails adjunction")
        return zk

    @cached_property
    def group(self) -> "DiscriminantGroup":
        return DiscriminantGroup._from_graph(self)

    def residue(self, x: RationalCycle) -> tuple[int, ...]:
        """Scaled coordinates of x modulo the integral lattice; two cycles of
        L' lie in the same discriminant class iff their residues agree."""
        d = self.det_abs
        return tuple(a % d for a in x.scaled(d))

    def in_lipman_cone(self, x: RationalCycle) -> bool:
        return all(p <= 0 for p in self.form.apply_scaled(x.num))


# ---------------------------------------------------------------------------
# parsing

def parse_graph(text: str) -> ResolutionGraph:
    """Parse the line-oriented graph grammar.

    ``v <id> <euler>`` declares a vertex, ``e <id> <id>`` an edge,
    ``a <id> [mult]`` an arrow (default multiplicity 1); ``#`` starts a
    comment.  Duplicate declarations are rejected.
    """
    eulers: dict[int, int] = {}
    edges: list[tuple[int, int]] = []
    edge_seen: set[tuple[int, int]] = set()
    arrows: dict[int, int] = {}
    decl_lines: dict[int, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        try:
            nums = [int(t) for t in args]
        except ValueError:
            raise GraphSyntaxError(line_no, f"expected integer arguments in {raw!r}")
        if kind == "v":
            if len(nums) != 2:
                raise GraphSyntaxError(line_no, "vertex line needs: v <id> <euler>")
            vid, e = nums
            if vid in eulers:
                raise GraphSyntaxError(line_no, f"duplicate vertex {vid} (first declared on line {decl_lines[vid]})")
            if vid <= 0:
                raise GraphSyntaxError(line_no, "vertex ids must be positive")
            eulers[vid] = e
            decl_lines[vid] = line_no
        elif kind == "e":
            if len(nums) != 2:
                raise GraphSyntaxError(line_no, "edge line needs: e <id> <id>")
            a, b = nums
            key = (min(a, b), max(a, b))
            if key in edge_seen:
                raise GraphSyntaxError(line_no, f"duplicate edge ({a},{b})")
            edge_seen.add(key)
            edges.append((a, b))
        elif kind == "a":
            if len(nums) not in (1, 2):
                raise GraphSyntaxError(line_no, "arrow line needs: a <id> [mult]")
            vid = nums[0]
            mult = nums[1] if len(nums) == 2 else 1
            if vid in arrows:
                raise GraphSyntaxError(line_no, f"duplicate arrow declaration for vertex {vid}")
            if mult < 0:
                raise GraphSyntaxError(line_no, "arrow multiplicity must be >= 0")
            arrows[vid] = mult
        else:
            raise GraphSyntaxError(line_no, f"unknown directive {kind!r}")
    if not eulers:
        raise GraphError("no vertices declared")
    return ResolutionGraph.build(eulers, edges, arrows)


# ---------------------------------------------------------------------------
# lattice operations

def chi(graph: ResolutionGraph, x: RationalCycle) -> Fraction:
    """Riemann-Roch quadratic: chi(x) = -(x, x - Z_K)/2, as one integer sum.

    With x = a / L, the adjunction relations (Z_K, E_v) = e_v + 2 give
    (x, Z_K) = sum_v a_v (e_v + 2) / L, and the tree gives (x, x) =
    (sum_v e_v a_v^2 + 2 sum_{edges uv} a_u a_v) / L^2, so Z_K is never formed:
    chi(x) = (L sum_v a_v (e_v + 2) - (x, x) L^2) / 2 L^2, one pass over the
    vertices and one over the edges.
    """
    a, den = x.num, x.den
    total = sum(av * ((e + 2) * den - e * av)
                for av, e in zip(a, graph.eulers, strict=True))
    total -= 2 * sum(a[v] * a[w] for v, w in graph.form._edges)
    return Fraction(total, 2 * den * den)


@dataclass(frozen=True)
class DiscriminantGroup:
    """The finite quotient L'/L presented by invariant factors.

    Classes are labelled by tuples modulo the nontrivial invariant factors
    (the empty tuple for the trivial group).  ``class_of`` reads the label of
    any cycle of L'; ``frac_rep`` returns the unique representative with all
    coordinates in [0, 1).  Both read the form's one Smith form
    U·A·V = diag(d_k): the label of x is U·a mod diag for its dual-basis
    coordinates a, at the positions of the nontrivial factors.
    """

    invariant_factors: tuple[int, ...]
    order: int
    _form: IntersectionForm = field(repr=False)
    _positions: tuple[int, ...] = field(repr=False)  # indices of nontrivial factors
    _reps: dict = field(default_factory=dict, compare=False, repr=False)  # class -> frac_rep

    @classmethod
    def _from_graph(cls, graph: ResolutionGraph) -> "DiscriminantGroup":
        diag = graph.form.smith[0]
        positions = tuple(i for i, x in enumerate(diag) if x > 1)
        grp = cls(
            invariant_factors=tuple(diag[i] for i in positions),
            order=graph.det_abs,
            _form=graph.form,
            _positions=positions,
        )
        if grp.class_of(graph.unit_cycle) != grp.zero:
            raise InternalCheckError("integral cycle with nonzero class")
        return grp

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.invariant_factors)

    def dual_coordinates(self, x: RationalCycle) -> list[int]:
        """Coordinates of x in the dual-cycle basis: a_v = -(x, E_v), one
        integer product and one divmod per vertex."""
        out = []
        for p in self._form.apply_scaled(x.num):
            a, rem = divmod(-p, x.den)
            if rem:
                raise ValueError("cycle does not pair integrally with the lattice")
            out.append(a)
        return out

    def class_of(self, x: RationalCycle) -> tuple[int, ...]:
        a = self.dual_coordinates(x)
        u = self._form.smith[1]
        return tuple(sum(r * b for r, b in zip(u[p], a)) % m
                     for p, m in zip(self._positions, self.invariant_factors))

    def sub(self, h1: tuple[int, ...], h2: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((a - b) % m for a, b, m in zip(h1, h2, self.invariant_factors, strict=True))

    def elements(self) -> list[tuple[int, ...]]:
        return [tuple(t) for t in itertools.product(*(range(m) for m in self.invariant_factors))]

    def representative(self, h: tuple[int, ...]) -> RationalCycle:
        """Some cycle of L' whose class is h: -V·diag^{-1}·coords, with coords
        the label h placed at the nontrivial factors, read off the Smith form
        U·A·V = diag(d_k) as one cycle over |det|.  It is the dual-basis
        combination with coefficients U^{-1}·coords."""
        diag, _u, v = self._form.smith
        scaled = [(p, x * (self.order // diag[p]))
                  for x, p in zip(h, self._positions, strict=True)]
        return RationalCycle(tuple(-sum(vw[p] * x for p, x in scaled) for vw in v),
                             self.order)

    def frac_rep(self, h: tuple[int, ...]) -> RationalCycle:
        """The reduced representative of h: all coordinates in [0, 1).  Built
        and checked against ``class_of`` once per class, then served from the
        group's memo; the cycle is immutable, so sharing it is safe."""
        r = self._reps.get(h)
        if r is None:
            r = self.representative(h).frac_part()
            if self.class_of(r) != h:
                raise InternalCheckError(f"reduced representative misses class {h}")
            self._reps[h] = r
        return r


def laufer_saturate(graph: ResolutionGraph, x0: RationalCycle) -> RationalCycle:
    """Minimal anti-nef cycle dominating x0 within x0 + L_{>=0}.

    Incremental saturation: while some basis pairing is positive, add that
    basis vector.  The result is independent of the choice of violating
    vertex; this walk picks the smallest index.  Adding E_v moves the
    pairings at v and its neighbours only, so a step updates those and the
    next scan starts at the smallest of them: every pairing before it is
    still nonpositive.  The iteration cap is a safety net against internal
    bugs, not a user error.
    """
    d = graph.det_abs
    if d % x0.den:
        raise ValueError("saturation input must lie in the dual lattice")
    num = list(x0.scaled(d))
    n, stars = graph.n, graph.form.stars
    pair_scaled = graph.form.apply_scaled(num)
    # no a-priori step bound is known; allow the lattice distance the walk
    # must climb plus a definiteness-scaled margin before declaring a bug:
    # the displacement is the sum of max(0, -a) over num, over d, and the
    # Euler numbers are all negative
    displacement = (sum(map(abs, num)) - sum(num)) // 2 // d
    cap = -d * sum(graph.eulers) * n * n + 2 * displacement + n + 64
    start = 0
    for _ in range(cap):
        for v in range(start, n):
            if pair_scaled[v] > 0:
                break
        else:
            return RationalCycle(tuple(num), d)
        e, nbrs = stars[v]
        num[v] += d
        pair_scaled[v] += e * d
        for w in nbrs:
            pair_scaled[w] += d
        start = min((v, *nbrs))
    raise InternalCheckError("anti-nef saturation exceeded its iteration cap")


def min_antinef_rep(graph: ResolutionGraph, h: tuple[int, ...]) -> RationalCycle:
    """Minimal Lipman-cone element in class h (saturation of the reduced rep)."""
    return laufer_saturate(graph, graph.group.frac_rep(h))


def fundamental_cycle(graph: ResolutionGraph) -> RationalCycle:
    return laufer_saturate(graph, graph.unit_cycle)


def artin_rationality(graph: ResolutionGraph) -> tuple[RationalCycle, bool]:
    """Artin's criterion: rational iff chi of the fundamental cycle is 1."""
    zmin = fundamental_cycle(graph)
    return zmin, chi(graph, zmin) == 1


def strict_interior_cycle(graph: ResolutionGraph) -> RationalCycle:
    """A small integral cycle pairing at most -1 with every basis vector,
    so it lies strictly inside the Lipman cone.  Public API; no periodic
    constant route uses it.

    As (sum of E*_u, E_v) = -1, a cycle does so exactly when subtracting the
    dual sum leaves it anti-nef: a saturation shifted by the dual sum.
    """
    return laufer_saturate(graph, graph.unit_cycle - graph.sum_duals) + graph.sum_duals


# ---------------------------------------------------------------------------
# subtree projections

@dataclass(frozen=True)
class SubgraphComponent:
    """A connected full subtree together with the dual projection onto it.

    The projection rewrites a cycle in the dual basis of the ambient tree and
    keeps only the coordinates of the component, re-expanded in the
    component's own dual basis.  It sends the ambient canonical cycle to the
    component's canonical cycle (checked at construction).  Of the ambient
    tree it keeps only the component's vertices, each with its ambient
    index, Euler number and neighbours, so a cached component does not keep
    the ambient graph alive and a projection pairs on the edges.
    """

    graph: ResolutionGraph
    stars: tuple[tuple[int, int, tuple[int, ...]], ...]  # ambient (v, e_v, neighbours)

    def project(self, x: RationalCycle) -> RationalCycle:
        coeffs, num = [], x.num
        for v, e, nbrs in self.stars:
            a, rem = divmod(-e * num[v] - sum(num[w] for w in nbrs), x.den)
            if rem:
                raise ValueError("projection input must lie in the dual lattice")
            coeffs.append(a)
        return self.graph.dual_combination(coeffs)


def subgraph_components(graph: ResolutionGraph,
                        removed: Iterable[int]) -> list[SubgraphComponent]:
    """Connected full subtrees on the complement of ``removed``, in the
    order of their first vertex."""
    removed = set(removed)
    unknown = removed - set(graph.ids)
    if unknown:
        raise GraphError(f"unknown vertex id {min(unknown)}")
    ids, stars = graph.ids, graph.form.stars
    out = []
    for comp in _components(stars, [i for i, v in enumerate(ids) if v not in removed]):
        sub = ResolutionGraph.build(
            {ids[v]: stars[v][0] for v in comp},
            [(ids[v], ids[w]) for v in comp for w in stars[v][1]
             if v < w and ids[w] not in removed],  # a kept neighbour is in comp
        )
        piece = SubgraphComponent(graph=sub, stars=tuple((v, *stars[v]) for v in comp))
        if piece.project(graph.canonical) != sub.canonical:
            raise InternalCheckError(
                "canonical cycle does not project to the subtree canonical cycle")
        out.append(piece)
    return out
