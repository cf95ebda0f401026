"""Faces of the cellular diagonal of the associahedron.

Core claims:
    - faces are exactly the pairs (f, g) with max_tree(f) <= min_tree(g),
      generated once each through interval fibers
    - the f-vector matches the closed b-formula, the direct filter, and
      frozen rows; vertices are the intervals; Euler characteristic is 1
    - table face-dims, the (dim f, dim g) table read off the canopy
      series, matches frozen blocks, is symmetric, folds back to the
      f-vector, and is the faces tallied one by one (n <= 5)
    - edge classification: free + tied + 2·constrained = des(s) + asc(t);
      an ascent span of the lower tree never reappears as a descent span
      of the upper tree on intervals, and classify_edges rejects pairs
      violating that; the span-bitmask route internal_fvector reads gives
      the same classification and refuses the same pairs as a failed
      self-check (RuntimeError), since only the interval walk feeds it
    - internal faces by the classification formula agree with the direct
      shared-facet filter (n <= 6, n = 7 extended) and frozen rows; the
      direct filter, by internal edge spans, equals the test for a shared
      two-node contraction; face generation builds each tree's
      contractions once; the internal Euler
      characteristic alternates; internal vertices are the new intervals;
      at n = 9, 10 (extended) the vertex count, the Euler characteristic
      and the top entry still hold
    - the closed rows of formulas.internal_rows equal the golden table
      for n <= 7 and the statistic formula at n = 8 (n = 9, 10 extended)
    - a fiber is boolean iff its dimension polynomial is z^d0 (1+z)^r;
      vertex-assignment decompositions: min-min, max-min, max-max have
      boolean fibers; max-min fibers are the interval fibers themselves;
      min-max fails booleanness first at n = 2 with a known witness
"""

from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    all_schroeder_trees,
    dimension,
    interval_pairs,
    left_comb,
    right_comb,
    schroeder_count,
)
from tamari.diagonal import (
    DECOMPOSITION_MODES,
    DiagonalFace,
    EdgeClassification,
    _classify_masks,
    _is_boolean_fiber,
    classify_edges,
    decomposition_report,
    diagonal_faces,
    diagonal_fvector,
    diagonal_fvector_direct,
    internal_fvector,
    internal_fvector_direct,
    is_internal_face,
)
from tamari.cli import TABLES
from tamari.formulas import (
    b_formula,
    face_count_formula,
    internal_rows,
    interval_count_formula,
    new_interval_formula,
)
from tamari.lattice import BudgetExceeded, interval_count
from tamari.trees import (
    asc,
    contract_spans,
    des,
    internal_edge_spans,
    max_tree,
    min_tree,
    parse_tree,
    span_masks,
    tamari_leq,
)

B_ROWS = {
    1: [1],
    2: [3, 2],
    3: [13, 18, 6],
    4: [68, 144, 99, 22],
    5: [399, 1140, 1197, 546, 91],
    6: [2530, 9108, 12903, 8976, 3060, 408],
}

INTERNAL_ROWS = {
    1: [1],
    2: [1, 2],
    3: [3, 8, 6],
    4: [12, 42, 51, 22],
    5: [56, 244, 406, 308, 91],
    6: [288, 1504, 3171, 3384, 1836, 408],
    7: [1584, 9648, 24606, 33680, 26145, 10944, 1938],
    8: [9152, 63712, 190564, 317670, 319044, 193292, 65527, 9614],
}

GOLDEN_INTERNAL = (Path(__file__).resolve().parent.parent / "golden"
                   / "table_internal.csv")

# enough for the 6,369,883 intervals at n = 10
EXTENDED_BUDGET = 10_000_000

# (dim f, dim g) blocks: rows p, columns q, staircase p+q <= n-1
BY_DIMS_ROWS = {
    3: {0: [13, 9, 1], 1: [9, 4], 2: [1]},
    4: {0: [68, 72, 19, 1], 1: [72, 61, 10], 2: [19, 10], 3: [1]},
    5: {0: [399, 570, 246, 34, 1], 1: [570, 705, 239, 20],
        2: [246, 239, 49], 3: [34, 20], 4: [1]},
}


# == face generation ================================================

class TestFaces:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_pair_criterion(self, n):
        # every generated face satisfies the order criterion, exactly once
        seen = set()
        for face in diagonal_faces(n):
            assert isinstance(face, DiagonalFace)
            assert tamari_leq(max_tree(face.f), min_tree(face.g))
            assert (face.f, face.g) not in seen
            seen.add((face.f, face.g))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_generation_is_exhaustive(self, n):
        # oracle route: filter all Schröder tree pairs by the criterion
        pool = all_schroeder_trees(n + 1)
        expected = {(f, g) for f in pool for g in pool
                    if tamari_leq(max_tree(f), min_tree(g))}
        got = {(face.f, face.g) for face in diagonal_faces(n)}
        assert got == expected

    @pytest.mark.parametrize("n", range(1, 5))
    def test_dims(self, n):
        for face in diagonal_faces(n):
            assert face.dim == dimension(face.f) + dimension(face.g)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_vertices_are_intervals(self, n):
        vertices = {(face.f, face.g) for face in diagonal_faces(n)
                    if face.dim == 0}
        assert vertices == set(interval_pairs(n))

    def test_each_tree_is_contracted_once_per_subset(self, monkeypatch):
        # a binary tree on 6 leaves has one contraction per subset of its
        # descent edges and one per subset of its ascent edges; summed
        # over the trees, each side counts the Schröder trees once
        calls = []

        def counting(f, spans):
            calls.append(1)
            return contract_spans(f, spans)

        monkeypatch.setattr("tamari.diagonal.contract_spans", counting)
        assert sum(1 for _ in diagonal_faces(5)) == sum(B_ROWS[5])
        assert len(calls) <= 2 * schroeder_count(6)


# == f-vectors ======================================================

class TestFvector:
    @pytest.mark.parametrize("n", sorted(B_ROWS))
    def test_frozen_and_formula(self, n):
        fvector = diagonal_fvector(n)
        assert fvector == B_ROWS[n]
        assert fvector == [b_formula(n, k) for k in range(n)]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_fast_equals_direct(self, n):
        direct = diagonal_fvector_direct(n)
        assert diagonal_fvector(n) == direct
        assert face_count_formula(n) == sum(direct)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_euler_characteristic(self, n):
        assert sum((-1) ** k * c
                   for k, c in enumerate(diagonal_fvector(n))) == 1

    @pytest.mark.parametrize("n", range(1, 7))
    def test_vertex_count(self, n):
        assert diagonal_fvector(n)[0] == interval_count(n)

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            diagonal_fvector(7, budget=10000)

    def test_face_budget_refuses_before_the_engine(self, no_engine):
        # enough for the 68 intervals at n = 4, not for their 333 faces
        faces = sum(b_formula(4, k) for k in range(4))
        with pytest.raises(BudgetExceeded) as info:
            next(diagonal_faces(4, interval_count_formula(4)))
        assert info.value.required == faces


# == the (dim f, dim g) refinement ==================================

@lru_cache(maxsize=None)
def face_dims() -> dict:
    """{(n, dim f, dim g): count} of table face-dims to n = 6, nonzero
    cells only."""
    builder, _ = TABLES["face-dims"]
    _, rows = builder(nmax=6, budget=None)
    return {(n, p, q): count for n, p, *cells in rows
            for q, count in enumerate(cells) if count}


def by_dims(n: int) -> dict:
    """Row n of table face-dims: {(dim f, dim g): count}."""
    return {(p, q): count for (m, p, q), count in face_dims().items()
            if m == n}


class TestByDims:
    @pytest.mark.parametrize("n", sorted(BY_DIMS_ROWS))
    def test_frozen_blocks(self, n):
        table = by_dims(n)
        for p, row in BY_DIMS_ROWS[n].items():
            assert [table.get((p, q), 0) for q in range(len(row))] == row
            for q in range(len(row), n):
                assert (p, q) not in table

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric(self, n):
        table = by_dims(n)
        for (p, q), count in table.items():
            assert table[q, p] == count

    @pytest.mark.parametrize("n", range(1, 7))
    def test_folds_to_fvector(self, n):
        fold: dict = {}
        for (p, q), count in by_dims(n).items():
            fold[p + q] = fold.get(p + q, 0) + count
        assert [fold.get(k, 0) for k in range(n)] == diagonal_fvector(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_against_direct_enumeration(self, n):
        cells: dict = {}
        for face in diagonal_faces(n):
            key = (dimension(face.f), dimension(face.g))
            cells[key] = cells.get(key, 0) + 1
        assert by_dims(n) == cells


# == edge classification and internal faces =========================

class TestClassification:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_counts_close_up(self, n):
        for s, t in interval_pairs(n):
            classes = classify_edges(s, t)
            assert classes.free >= 0 and classes.tied >= 0
            assert classes.constrained >= 0
            assert classes.free + classes.tied + 2 * classes.constrained \
                == des(s) + asc(t)

    def test_extreme_intervals(self):
        # full interval: the lower tree has no descents and the upper no
        # ascents, so its fiber is a single vertex
        assert classify_edges(left_comb(4), right_comb(4)) == \
            EdgeClassification(free=0, tied=0, constrained=0)
        # singleton interval: every relevant edge is tied to itself
        t = parse_tree("((,),(,))")
        assert classify_edges(t, t) == \
            EdgeClassification(free=0, tied=2, constrained=0)
        # singleton right comb: n-1 tied descents, fiber spans all dims
        rc = right_comb(4)
        assert classify_edges(rc, rc) == \
            EdgeClassification(free=0, tied=3, constrained=0)

    def test_rejects_forbidden_span_pattern(self):
        # (1,2) is an ascent span of s and a descent span of t: such a
        # pair can never be an interval, and classify_edges says why; the
        # mask route, fed only by the interval walk, fails its self-check
        s = parse_tree("(,((,),))")
        t = parse_tree("((,(,)),)")
        assert not tamari_leq(s, t)
        with pytest.raises(ValueError):
            classify_edges(s, t)
        with pytest.raises(RuntimeError, match="not an interval"):
            _classify_masks(span_masks(s), span_masks(t))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7).flatmap(
        lambda n: st.sampled_from(_interval_pairs(n))))
    def test_span_masks_match_frozensets(self, pair):
        # the bitmask route of internal_fvector against its oracle
        s, t = pair
        assert EdgeClassification(*_classify_masks(span_masks(s),
                                                   span_masks(t))) \
            == classify_edges(s, t)


@lru_cache(maxsize=None)
def _interval_pairs(n):
    return tuple(interval_pairs(n))


@lru_cache(maxsize=None)
def _internal_row(n):
    return internal_fvector(n, EXTENDED_BUDGET)


class TestInternal:
    @pytest.mark.parametrize("n", sorted(INTERNAL_ROWS))
    def test_frozen(self, n):
        assert internal_fvector(n) == INTERNAL_ROWS[n]

    @pytest.mark.parametrize(
        "n", [*range(1, 7), pytest.param(7, marks=pytest.mark.extended)])
    def test_formula_equals_direct(self, n):
        # dual route: classification formula vs shared-facet filter
        assert internal_fvector(n) == internal_fvector_direct(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_alternating_sum(self, n):
        assert sum((-1) ** k * c
                   for k, c in enumerate(internal_fvector(n))) \
            == (-1) ** (n - 1)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_internal_vertices_are_new_intervals(self, n):
        assert internal_fvector(n)[0] == new_interval_formula(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_top_faces_all_internal(self, n):
        # dimension n-1 faces: corolla pairs, never on the boundary
        assert internal_fvector(n)[n - 1] == diagonal_fvector(n)[n - 1]

    def test_closed_rows_equal_enumeration(self):
        # the face-rows recursion against the golden table (its k cells,
        # without the n and total columns) and the statistic formula
        golden = [[int(cell) for cell in line.split(",")[1:-1] if cell]
                  for line in GOLDEN_INTERNAL.read_text().splitlines()[1:]]
        rows = internal_rows(8)
        assert rows[:7] == golden
        assert rows[7] == internal_fvector(8)

    @pytest.mark.extended
    @pytest.mark.parametrize("n", [9, 10])
    def test_extended_rows(self, n):
        row = _internal_row(n)
        assert row == internal_rows(10)[n - 1]
        assert row[0] == new_interval_formula(n)
        assert sum((-1) ** k * c for k, c in enumerate(row)) \
            == (-1) ** (n - 1)
        assert row[n - 1] == diagonal_fvector(n, EXTENDED_BUDGET)[n - 1]

    def test_criterion_spot_checks(self):
        corolla3 = parse_tree("(,,)")
        lc = parse_tree("((,),)")
        rc = parse_tree("(,(,))")
        assert is_internal_face(lc, rc)       # the middle vertex at n = 2
        assert is_internal_face(lc, corolla3)
        assert is_internal_face(corolla3, rc)
        assert not is_internal_face(lc, lc)   # shares a facet with itself
        assert not is_internal_face(rc, rc)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_criterion_is_the_shared_facet_test(self, n):
        # the definition the span test stands for: f and g share no
        # facet, a tree's facets being its contractions of every
        # internal edge but one
        def facets(f):
            spans = internal_edge_spans(f)
            return {contract_spans(f, spans - {keep}) for keep in spans}

        for face in diagonal_faces(n):
            assert is_internal_face(face.f, face.g) == \
                facets(face.f).isdisjoint(facets(face.g))


# == vertex-assignment decompositions ===============================

class TestDecompositions:
    @pytest.mark.parametrize("mode", DECOMPOSITION_MODES)
    @pytest.mark.parametrize("n", range(1, 5))
    def test_report_shape(self, n, mode):
        report = decomposition_report(n, mode)
        assert report["n"] == n and report["mode"] == mode
        assert report["fvector"] == diagonal_fvector(n)
        assert report["all_boolean"] == (not report["non_boolean_fibers"])

    @pytest.mark.parametrize("mode", ["min-min", "max-min", "max-max"])
    @pytest.mark.parametrize("n", range(1, 5))
    def test_boolean_modes(self, n, mode):
        report = decomposition_report(n, mode)
        assert report["all_boolean"], report["non_boolean_fibers"]

    @pytest.mark.parametrize("n", range(1, 5))
    def test_max_min_fibers_are_interval_fibers(self, n):
        # assigning (max f, min g) recovers the generating interval, so
        # there is one fiber per interval, of size 2^(des+asc)
        report = decomposition_report(n, "max-min")
        assert report["fiber_count"] == interval_count(n)
        sizes: dict = {}
        for face in diagonal_faces(n):
            key = (max_tree(face.f), min_tree(face.g))
            sizes[key] = sizes.get(key, 0) + 1
        for (s, t), size in sizes.items():
            assert size == 2 ** (des(s) + asc(t))

    def test_min_max_witness(self):
        # smallest failure, frozen: at n = 2 the comb pair collects one
        # vertex and both edges -- dimension polynomial 1 + 2x, which is
        # not of the boolean shape x^d (1+x)^r
        report = decomposition_report(2, "min-max")
        assert not report["all_boolean"]
        assert report["non_boolean_fibers"] == [{
            "vertices": ["((,),)", "(,(,))"],
            "dims": {"0": 1, "1": 2},
        }]

    def test_min_max_fibers_at_three(self):
        report = decomposition_report(3, "min-max")
        assert not report["all_boolean"]
        fibers = report["non_boolean_fibers"]
        assert len(fibers) == 6
        assert fibers[0] == {"vertices": ["(((,),),)", "((,(,)),)"],
                             "dims": {"0": 1, "1": 2}}
        # the comb-pair fiber swallows 9 faces across three dimensions
        assert {"vertices": ["(((,),),)", "(,(,(,)))"],
                "dims": {"0": 1, "1": 4, "2": 4}} in fibers

    @pytest.mark.parametrize("dims, boolean", [
        ([0], True),                        # 1
        ([3], True),                        # z^3
        ([0, 1], True),                     # 1 + z
        ([2, 1, 1, 0], True),               # (1 + z)^2, in any order
        ([2, 3, 3, 3, 4, 4, 4, 5], True),   # z^2 (1 + z)^3
        ([0, 1, 1, 1, 2], False),           # 1 + 3z + z^2
        ([0, 2], False),                    # 1 + z^2
        ([0, 1, 1], False),                 # 1 + 2z: the min-max witness
        ([1, 1], False),                    # 2z
    ])
    def test_boolean_fiber_cases(self, dims, boolean):
        assert _is_boolean_fiber(dims) is boolean

    def test_min_max_boolean_at_one(self):
        assert decomposition_report(1, "min-max")["all_boolean"]

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            decomposition_report(3, "best-best")

