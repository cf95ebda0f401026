"""Binary and Schröder tree primitives.

Core claims:
    - node/leaf counts, combs, corolla shapes
    - des + asc = n - 1 on every nonempty binary tree
    - rotations move exactly one edge; up- and down-rotations are inverse
    - the bracket-vector comparison equals rotation reachability (oracle)
    - the order is a partial order (reflexive, antisymmetric, transitive)
    - canopy entries match three independent characterizations; entry
      counts are asc/des; '-' < '+' regardless of ASCII order
    - canopies are monotone along the order and shared entries count
      asc(t) / des(s) on intervals
    - ell counts left-branch edges; left_branch_pieces/graft round-trip;
      interval decomposition splits into ell(t)+1 component intervals;
      splitting off the root component is a bijection behind the
      catalytic identity A_u = A*_u + uz·A*_u·A_u (n <= 6)
    - leaf spans: descent/ascent span counts equal des/asc; contraction
      by spans is dimension-additive; contracting every internal edge
      but one leaves the two-node tree named by the kept edge's span
    - min_tree/max_tree bound every face; serialize/parse round-trips
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LEAF,
    SINGLE_NODE,
    agree,
    binary_trees,
    corolla,
    decompose_interval,
    dimension,
    graft_left,
    internal_node_count,
    interval_pairs,
    is_binary_tree,
    is_schroeder_tree,
    leaf_count,
    left_branch_pieces,
    left_comb,
    node_count,
    nonempty_binary_trees,
    right_comb,
    schroeder_trees,
    tree_pool,
)
from tamari.formulas import catalan
from tamari.lattice import rotation_down_set
from tamari.trees import (
    asc,
    ascent_spans,
    bracket_vector,
    canopy,
    contract_spans,
    des,
    descent_spans,
    edge_spans,
    ell,
    internal_edge_spans,
    max_tree,
    min_tree,
    parse_tree,
    rotations_down,
    rotations_up,
    serialize,
    tamari_leq,
)


# == basic shapes ===================================================

class TestShapes:
    def test_constants(self):
        assert LEAF is None
        assert SINGLE_NODE == (None, None)
        assert is_binary_tree(LEAF) and is_binary_tree(SINGLE_NODE)

    @pytest.mark.parametrize("n", range(6))
    def test_combs(self, n):
        lc, rc = left_comb(n), right_comb(n)
        assert node_count(lc) == node_count(rc) == n
        if n:
            assert des(lc) == 0 and asc(lc) == n - 1
            assert des(rc) == n - 1 and asc(rc) == 0
            assert ell(lc) == n - 1 and ell(rc) == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_corolla(self, n):
        f = corolla(n)  # sized like the n-node binary trees
        assert is_schroeder_tree(f)
        assert leaf_count(f) == n + 1
        assert internal_node_count(f) == 1
        assert dimension(f) == n - 1

    @given(binary_trees())
    def test_counts_consistent(self, t):
        assert leaf_count(t) == node_count(t) + 1

    @given(nonempty_binary_trees())
    def test_des_plus_asc(self, t):
        assert des(t) + asc(t) == node_count(t) - 1

    @given(schroeder_trees())
    def test_dimension_is_contraction_count(self, f):
        assert dimension(f) == leaf_count(f) - 1 - internal_node_count(f)


# == rotations and the order ========================================

class TestRotations:
    def test_single_node_has_no_rotations(self):
        assert rotations_up(SINGLE_NODE) == frozenset()
        assert rotations_down(SINGLE_NODE) == frozenset()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_up_down_inverse(self, n):
        for t in tree_pool(n):
            for u in rotations_up(t):
                assert t in rotations_down(u)
            for d in rotations_down(t):
                assert t in rotations_up(d)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_degrees_match_statistics(self, n):
        # one up-rotation per left edge, one down-rotation per right edge
        for t in tree_pool(n):
            assert len(rotations_up(t)) == asc(t)
            assert len(rotations_down(t)) == des(t)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_comparison_equals_reachability(self, n):
        # dual route: bracket-vector criterion vs explicit rotation search
        pool = tree_pool(n)
        for t in pool:
            below = rotation_down_set(t)
            for s in pool:
                assert tamari_leq(s, t) == (s in below), \
                    (serialize(s), serialize(t))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_partial_order_axioms(self, n):
        pool = tree_pool(n)
        below = {t: [s for s in pool if tamari_leq(s, t)] for t in pool}
        for t in pool:
            assert t in below[t]  # reflexive
        for t in pool:
            for s in below[t]:
                if s != t:
                    assert t not in below[s]  # antisymmetric
        for t in pool:
            for s in below[t]:
                for r in below[s]:
                    assert r in below[t]  # transitive

    @pytest.mark.parametrize("n", range(1, 7))
    def test_combs_are_extremes(self, n):
        for t in tree_pool(n):
            assert tamari_leq(left_comb(n), t)
            assert tamari_leq(t, right_comb(n))

    def test_bracket_vector_frozen_examples(self):
        assert bracket_vector(left_comb(3)) == (1, 2, 3)
        assert bracket_vector(right_comb(3)) == (3, 3, 3)
        assert bracket_vector(left_comb(4)) == (1, 2, 3, 4)
        assert bracket_vector(right_comb(4)) == (4, 4, 4, 4)

    @given(nonempty_binary_trees())
    def test_covers_strictly_increase(self, t):
        for u in rotations_up(t):
            assert tamari_leq(t, u) and not tamari_leq(u, t)


# == canopy =========================================================

def _canopy_by_leaf_orientation(t):
    """Independent route: entry j is '-' iff leaf j+1 is a right leaf."""
    sides = []

    def walk(node, side):
        if node is None:
            sides.append(side)
            return
        walk(node[0], "L")
        walk(node[1], "R")

    walk(t, "L")  # the root's leftmost leaf; its side label is unused
    interior = sides[1:-1]
    return "".join("-" if side == "R" else "+" for side in interior)


def _canopy_by_left_subtree(t):
    """Independent route: entry j is '-' iff node j+2 (1-indexed in
    inorder) has a nonempty left subtree."""
    nodes = []

    def inorder(node):
        if node is None:
            return
        inorder(node[0])
        nodes.append(node)
        inorder(node[1])

    inorder(t)
    return "".join("-" if nodes[j + 1][0] is not None else "+"
                   for j in range(len(nodes) - 1))


def canopy_leq(cs: str, ct: str) -> bool:
    """Componentwise comparison under the sign order - <= +."""
    if len(cs) != len(ct):
        raise ValueError("canopy lengths differ")
    return all(not (a == "+" and b == "-") for a, b in zip(cs, ct))


class TestCanopy:
    def test_not_ascii_order(self):
        # '-' is below '+' in the canopy order even though '+' < '-' in
        # ASCII; a lexicographic shortcut would get this backwards
        assert canopy_leq("-", "+")
        assert not canopy_leq("+", "-")
        assert canopy_leq("-+", "-+")
        assert not canopy_leq("+-", "-+")

    @pytest.mark.parametrize("n", range(1, 8))
    def test_three_characterizations_agree(self, n):
        for t in tree_pool(n):
            word = canopy(t)
            assert word == _canopy_by_leaf_orientation(t)
            assert word == _canopy_by_left_subtree(t)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_entry_counts(self, n):
        for t in tree_pool(n):
            word = canopy(t)
            assert len(word) == n - 1
            assert word.count("-") == asc(t)
            assert word.count("+") == des(t)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_monotone_and_shared_entries(self, n):
        for s, t in interval_pairs(n):
            cs, ct = canopy(s), canopy(t)
            assert canopy_leq(cs, ct)
            both_minus = sum(1 for a, b in zip(cs, ct) if a == b == "-")
            both_plus = sum(1 for a, b in zip(cs, ct) if a == b == "+")
            assert both_minus == asc(t)
            assert both_plus == des(s)
            assert agree(s, t) == both_minus + both_plus

    def test_agreement_on_combs(self):
        assert agree(left_comb(4), right_comb(4)) == 0
        assert agree(left_comb(4), left_comb(4)) == 3


# == grafting and interval decomposition ============================

class TestGrafting:
    def test_graft_left_example(self):
        # grafting the single node onto the leftmost leaf of (,(,))
        assert graft_left(SINGLE_NODE, (None, (None, None))) == \
            ((None, None), (None, None))

    @given(nonempty_binary_trees(5), nonempty_binary_trees(5))
    def test_graft_counts(self, a, b):
        assert node_count(graft_left(a, b)) == node_count(a) + node_count(b)
        assert ell(graft_left(a, b)) == ell(a) + ell(b) + 1

    @given(nonempty_binary_trees())
    def test_left_branch_pieces_roundtrip(self, t):
        pieces = left_branch_pieces(t)
        assert len(pieces) == ell(t) + 1
        assert all(piece[0] is None for piece in pieces)
        acc = pieces[0]
        for piece in pieces[1:]:
            acc = graft_left(acc, piece)
        assert acc == t

    @pytest.mark.parametrize("n", range(1, 6))
    def test_interval_decomposition(self, n):
        for s, t in interval_pairs(n):
            components = decompose_interval(s, t)
            assert len(components) == ell(t) + 1
            acc_s = acc_t = None
            for s_i, t_i in components:
                assert node_count(s_i) == node_count(t_i)
                assert tamari_leq(s_i, t_i)
                assert ell(t_i) == 0
                acc_s = s_i if acc_s is None else graft_left(acc_s, s_i)
                acc_t = t_i if acc_t is None else graft_left(acc_t, t_i)
            assert acc_s == s and acc_t == t

    @pytest.mark.parametrize("n,size", [
        (2, 1), (3, 5), (4, 27), (5, 159), (6, 1002)])
    def test_catalytic_identity_bijectively(self, n, size):
        # A_u = A*_u + uz·A*_u·A_u, u marking ell(s), z marking
        # des(s) + asc(t): an interval with ell(t) >= 1 splits one-to-one
        # into its root component (ell = 0 on top, counted by A*_u) and
        # the regrafted rest (any interval, counted by A_u); the graft
        # adds one to each statistic
        image = set()
        for s, t in interval_pairs(n):
            if ell(t) == 0:
                continue
            *rest, (root_s, root_t) = decompose_interval(s, t)
            rest_s, rest_t = rest[0]
            for s_i, t_i in rest[1:]:
                rest_s = graft_left(rest_s, s_i)
                rest_t = graft_left(rest_t, t_i)
            assert ell(s) == ell(root_s) + ell(rest_s) + 1
            assert des(s) + asc(t) == \
                des(root_s) + asc(root_t) + des(rest_s) + asc(rest_t) + 1
            image.add(((root_s, root_t), (rest_s, rest_t)))
        assert len(image) == size == \
            sum(1 for _, t in interval_pairs(n) if ell(t) > 0)
        assert image == {
            (root, rest)
            for a in range(1, n)
            for root in interval_pairs(a) if ell(root[1]) == 0
            for rest in interval_pairs(n - a)}

    def test_decompose_rejects_non_interval(self):
        with pytest.raises(ValueError):
            decompose_interval(right_comb(3), left_comb(3))


# == leaf spans and contractions ====================================

class TestSpans:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_span_counts(self, n):
        for t in tree_pool(n):
            spans = edge_spans(t)
            assert len(spans) == n - 1  # one per internal edge
            assert len(descent_spans(t)) == des(t)
            assert len(ascent_spans(t)) == asc(t)
            assert descent_spans(t).isdisjoint(ascent_spans(t))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_contract_nothing_and_everything(self, n):
        for t in tree_pool(n):
            assert contract_spans(t, frozenset()) == t
            all_spans = descent_spans(t) | ascent_spans(t)
            assert contract_spans(t, all_spans) == corolla(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_contraction_dimension(self, n):
        for t in tree_pool(n):
            spans = sorted(descent_spans(t) | ascent_spans(t))
            for take in range(len(spans) + 1):
                chosen = frozenset(spans[:take])
                f = contract_spans(t, chosen)
                assert is_schroeder_tree(f)
                assert dimension(f) == take
                assert leaf_count(f) == n + 1

    def test_two_node_contraction_shape(self):
        # keep the edge over leaves 1..2 of (·, ((·, ·), ·)), contract the
        # edge over leaves 1..3
        f = contract_spans(parse_tree("(,((,),))"), {(1, 3)})
        assert f == parse_tree("(,(,),)")
        assert leaf_count(f) == 4
        assert internal_node_count(f) == 2
        assert internal_edge_spans(f) == frozenset({(1, 2)})

    def test_corolla_has_no_internal_edges(self):
        assert internal_edge_spans(corolla(5)) == frozenset()

    @pytest.mark.parametrize("n", range(2, 6))
    def test_two_node_contractions_via_contract_spans(self, n):
        # contracting all internal edges but one lands on a tree with two
        # internal nodes whose one internal edge span is the kept one
        for t in tree_pool(n):
            spans = descent_spans(t) | ascent_spans(t)
            assert internal_edge_spans(t) == spans
            facets = set()
            for keep in spans:
                f = contract_spans(t, spans - {keep})
                assert internal_node_count(f) == 2
                assert internal_edge_spans(f) == {keep}
                facets.add(f)
            assert len(facets) == n - 1  # binary: all spans distinct


# == face bounds ====================================================

class TestFaceBounds:
    @given(nonempty_binary_trees())
    def test_binary_trees_are_their_own_bounds(self, t):
        assert min_tree(t) == t
        assert max_tree(t) == t

    @pytest.mark.parametrize("n", range(1, 7))
    def test_corolla_bounds_are_combs(self, n):
        assert min_tree(corolla(n)) == left_comb(n)
        assert max_tree(corolla(n)) == right_comb(n)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_contraction_bounds_are_comparable(self, n):
        for t in tree_pool(n):
            spans = sorted(descent_spans(t) | ascent_spans(t))
            for take in range(len(spans) + 1):
                f = contract_spans(t, frozenset(spans[:take]))
                assert tamari_leq(min_tree(f), max_tree(f))
                assert tamari_leq(min_tree(f), t)
                assert tamari_leq(t, max_tree(f))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_descent_contractions_keep_max(self, n):
        # contracting descent edges spreads a face downward: the tree
        # itself stays the Tamari-maximal refinement
        for t in tree_pool(n):
            spans = sorted(descent_spans(t))
            for take in range(len(spans) + 1):
                f = contract_spans(t, frozenset(spans[:take]))
                assert max_tree(f) == t
        # and symmetrically for ascents and the minimum
        for t in tree_pool(n):
            spans = sorted(ascent_spans(t))
            for take in range(len(spans) + 1):
                f = contract_spans(t, frozenset(spans[:take]))
                assert min_tree(f) == t


# == serialization ==================================================

class TestSerialization:
    def test_frozen_forms(self):
        assert serialize(LEAF) == "·"
        assert serialize(SINGLE_NODE) == "(,)"
        assert serialize(corolla(2)) == "(,,)"
        assert serialize(left_comb(2)) == "((,),)"
        assert serialize(right_comb(2)) == "(,(,))"

    def test_parse_aliases_and_errors(self):
        assert parse_tree(".") is None
        assert parse_tree("·") is None
        with pytest.raises(ValueError):
            parse_tree("(")
        with pytest.raises(ValueError):
            parse_tree("()")
        with pytest.raises(ValueError):
            parse_tree("(,),")

    @given(schroeder_trees())
    def test_roundtrip(self, f):
        assert parse_tree(serialize(f)) == f

    @settings(max_examples=30)
    @given(st.integers(1, 6))
    def test_catalan_many_distinct_serializations(self, n):
        pool = tree_pool(n)
        assert len({serialize(t) for t in pool}) == catalan(n)
