"""Faces of the cellular diagonal, their counts, and vertex decompositions.

A face of the diagonal on n+1 leaves is a pair (f, g) of Schröder trees
with max_tree(f) <= min_tree(g) in the Tamari order.  Faces are generated
through interval fibers — for every interval (s, t), contract any subset
of descent edges of s to get f and any subset of ascent edges of t to get
g — never by filtering all pairs of Schröder trees, which is quadratically
infeasible past small n.  Each tree's contractions are built once, and a
fiber is the product of the lower tree's descent contractions and the
upper tree's ascent contractions.  These faces are the test oracle of
`table face-dims`, which reads them by dimensions off series.canopy_rows.

Every f-vector here is a polynomial in z, built with polys.ZPolynomial:
a tally of face dimensions is sum_d z^d, and the diagonal's f-vector is
the interval histogram shifted to z + 1.

Internality is computed two independent ways that the tests compare:

  * the per-interval edge classification: an interval with `free` free
    edges, `tied` tied edges and `cons` constrained pairs has internal
    faces z^(tied+cons)·(z+2)^cons·(1+z)^free by dimension, the class
    product internal_fvector sums.  It reads the classes off span
    bitmasks (trees.span_masks, computed once per tree), three popcounts
    per interval; classify_edges, on frozensets of spans, is its oracle;
    and
  * the direct criterion: (f, g) touches the boundary iff f and g lie in
    a common facet.  A face lies in a proper face of the associahedron iff
    it lies in a facet; a facet is a Schröder tree with two internal
    nodes, named by the leaf span of its inner node, and the facets
    containing f are named by the spans of f's internal edges.  So f and
    g share a facet iff they share an internal edge span.
"""
from __future__ import annotations

from collections import Counter
from typing import Iterable, Iterator, NamedTuple

from .formulas import face_count_formula
from .lattice import _interval_walk, interval_histogram
from .paths import within_budget
from .polys import ZPolynomial
from .trees import (
    SchroederTree,
    ascent_spans,
    contract_spans,
    descent_spans,
    internal_edge_spans,
    max_tree,
    min_tree,
    serialize,
    span_masks,
)


class DiagonalFace(NamedTuple):
    """A face (f, g) of the diagonal; dim = dim(f) + dim(g)."""

    f: SchroederTree
    g: SchroederTree
    dim: int


class EdgeClassification(NamedTuple):
    """Counts of edge roles for one interval (s, t).

    The relevant edges are the descent edges of s and the ascent edges of
    t.  An s-descent is tied if its leaf span is also a descent span of t,
    constrained if it is an ascent span of t, free otherwise; symmetrically
    for t-ascents against s.  Constrained edges come in matched pairs and
    are counted once per pair, so free + tied + 2·constrained equals
    des(s) + asc(t).
    """

    free: int
    tied: int
    constrained: int


# ===================================================================
# face generation through interval fibers
# ===================================================================

def _contractions(t: SchroederTree, spans) -> list:
    """[(contraction of t, its dimension)] per subset of the sorted spans,
    subsets in bit order."""
    spans = sorted(spans)
    out = []
    for mask in range(1 << len(spans)):
        chosen = [span for b, span in enumerate(spans) if mask >> b & 1]
        out.append((contract_spans(t, chosen), len(chosen)))
    return out


def _fiber_sides(t: SchroederTree) -> tuple:
    """(contractions of descent edges, contractions of ascent edges)."""
    return (_contractions(t, descent_spans(t)),
            _contractions(t, ascent_spans(t)))


def diagonal_faces(n: int, budget=None) -> Iterator[DiagonalFace]:
    """Every face of the diagonal exactly once.

    The fiber over an interval (s, t) has size 2^(des(s)+asc(t)); the
    budget is checked against the face count sum_k b(n, k) up front.
    """
    if n < 1:
        raise ValueError("diagonal_faces() requires n >= 1")
    within_budget(f"diagonal_faces({n})", face_count_formula(n), budget)
    for (lower, _), (_, upper), _, _ in _interval_walk(n, budget,
                                                       _fiber_sides):
        for f, f_dim in lower:
            for g, g_dim in upper:
                yield DiagonalFace(f, g, f_dim + g_dim)


def _dims_tally(dims: Iterable[int]) -> ZPolynomial:
    """sum_d z^d over the dimensions d."""
    return ZPolynomial.from_pairs(Counter(dims).items())


def _fvector(p: ZPolynomial, n: int) -> list:
    """The coefficients of p, padded with zeros to the n dimensions
    0..n-1; a longer p is returned whole, so a wrong count shows."""
    return list(p.coeffs) + [0] * (n - len(p.coeffs))


def diagonal_fvector(n: int, budget=None) -> list:
    """Face counts by dimension: entry k = sum over intervals of C(k', k)
    with k' = des(s)+asc(t): the interval histogram as a polynomial in z,
    shifted to z + 1."""
    if n < 1:
        raise ValueError("diagonal_fvector() requires n >= 1")
    return _fvector(ZPolynomial(interval_histogram(n, budget)).shift_z(1), n)


def diagonal_fvector_direct(n: int, budget=None) -> list:
    """Face counts by dimension, tallied face by face (slow cross-check)."""
    return _fvector(_dims_tally(
        face.dim for face in diagonal_faces(n, budget)), n)


# ===================================================================
# internal faces
# ===================================================================

def classify_edges(s, t) -> EdgeClassification:
    """Free/tied/constrained edge counts for an interval (s, t)."""
    s_descents = descent_spans(s)
    s_ascents = ascent_spans(s)
    t_descents = descent_spans(t)
    t_ascents = ascent_spans(t)
    if s_ascents & t_descents:
        raise ValueError("not an interval: an ascent span of the lower tree "
                         "reappears as a descent span of the upper tree")
    constrained_pairs = s_descents & t_ascents
    tied = len(s_descents & t_descents) + len(t_ascents & s_ascents)
    constrained = len(constrained_pairs)
    free = (len(s_descents) + len(t_ascents) - tied - 2 * constrained)
    return EdgeClassification(free=free, tied=tied, constrained=constrained)


def _classify_masks(lower: tuple, upper: tuple) -> tuple:
    """(free, tied, constrained) from the span_masks of s and of t.

    The same classification as classify_edges.  A tree's descent and
    ascent spans are disjoint, so each count is one popcount.  Only the
    interval walk feeds it, so a pair that is no interval is a failed
    self-check, a RuntimeError.
    """
    s_descents, s_ascents = lower
    t_descents, t_ascents = upper
    if s_ascents & t_descents:
        raise RuntimeError("not an interval: an ascent span of the lower "
                           "tree reappears as a descent span of the upper "
                           "tree")
    free = ((s_descents ^ t_ascents) & ~(t_descents | s_ascents)).bit_count()
    tied = ((s_descents & t_descents) | (s_ascents & t_ascents)).bit_count()
    return free, tied, (s_descents & t_ascents).bit_count()


def internal_fvector(n: int, budget=None) -> list:
    """Internal face counts by dimension, by the classification formula:

    the interval (s, t) with (free, tied, cons) edge classes has internal
    faces z^(tied+cons)·(z+2)^cons·(1+z)^free by dimension: each tied
    edge is contracted, each free edge is contracted or not, and each
    constrained pair has both of its edges contracted or one of the two,
    z^2 + 2z.  Intervals are tallied by their class triple first, so the
    product is built once per triple.
    """
    if n < 1:
        raise ValueError("internal_fvector() requires n >= 1")
    triples = Counter(_classify_masks(lower, upper) for lower, upper, _, _
                      in _interval_walk(n, budget, span_masks))
    return _fvector(sum((ZPolynomial.monomial(tied + cons, count)
                         * ZPolynomial.monomial(cons).shift_z(2)
                         * ZPolynomial.monomial(free).shift_z(1)
                         for (free, tied, cons), count in triples.items()),
                        ZPolynomial.zero()), n)


def is_internal_face(f: SchroederTree, g: SchroederTree) -> bool:
    """Direct criterion for two trees on the same leaves: no common facet,
    that is, no common internal edge span."""
    return internal_edge_spans(f).isdisjoint(internal_edge_spans(g))


def internal_fvector_direct(n: int, budget=None) -> list:
    """Internal face counts by dimension, tested face by face."""
    return _fvector(_dims_tally(
        face.dim for face in diagonal_faces(n, budget)
        if is_internal_face(face.f, face.g)), n)


# ===================================================================
# vertex-assignment decompositions
# ===================================================================

DECOMPOSITION_MODES = ("min-min", "max-min", "min-max", "max-max")


def _assign_vertices(face: DiagonalFace, mode: str) -> tuple:
    f_vertex = min_tree(face.f) if mode.startswith("min") else max_tree(face.f)
    g_vertex = min_tree(face.g) if mode.endswith("min") else max_tree(face.g)
    return (f_vertex, g_vertex)


def _is_boolean_fiber(dims: list) -> bool:
    """True iff the dimension polynomial sum_d z^d is z^d0 (1+z)^r."""
    base, tally = min(dims), _dims_tally(dims)
    return (ZPolynomial(tally.coeffs[base:])
            == ZPolynomial.monomial(tally.degree() - base).shift_z(1))


def decomposition_report(n: int, mode: str, budget=None) -> dict:
    """Group faces by their assigned vertex pair and analyze each fiber.

    For the three modes min-min, max-min, max-max every fiber is boolean:
    its dimension-generating polynomial is x^d0 (1+x)^r.  The min-max mode
    has non-boolean fibers (reported, not asserted against).
    """
    if mode not in DECOMPOSITION_MODES:
        raise ValueError(f"unknown mode {mode!r}; "
                         f"expected one of {DECOMPOSITION_MODES}")
    fibers: dict = {}
    for face in diagonal_faces(n, budget):
        key = tuple(serialize(v) for v in _assign_vertices(face, mode))
        fibers.setdefault(key, []).append(face.dim)
    non_boolean = [
        {"vertices": list(key),
         "dims": {str(d): c for d, c
                  in enumerate(_dims_tally(fibers[key]).coeffs) if c}}
        for key in sorted(fibers) if not _is_boolean_fiber(fibers[key])]
    return {
        "n": n,
        "mode": mode,
        "fvector": _fvector(_dims_tally(
            d for dims in fibers.values() for d in dims), n),
        "fiber_count": len(fibers),
        "all_boolean": not non_boolean,
        "non_boolean_fibers": non_boolean,
    }

