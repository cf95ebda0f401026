"""Shared test helpers: hypothesis strategies, exhaustive pools (the
Schröder trees among them), tree shapes, sizes and builders, face
dimensions, the canopy agreement count of two trees, the grafting
decomposition of a Tamari interval, and the closed count formulas
written out in binomials and factorials, the oracle of the Gamma-factor
lists in tamari.formulas, and a Sylvester resultant that derives the
quartic of tamari.equations."""

from functools import cache
from math import comb, factorial

import pytest
from hypothesis import strategies as st

from tamari.lattice import all_trees, intervals
from tamari.paths import within_budget
from tamari.polys import MonomialPolynomial
from tamari.trees import canopy, tamari_leq

LEAF = None
SINGLE_NODE = (None, None)


def _quotient(numerator: int, denominator: int) -> int:
    quotient, remainder = divmod(numerator, denominator)
    assert remainder == 0, (numerator, denominator)
    return quotient


def oracle_a(n: int, k: int) -> int:
    """a(n, k) = 2 C(n+1, k+2) C(3n, k) / (n(n+1)), 0 off 0 <= k < n."""
    if not 0 <= k < n:
        return 0
    return _quotient(2 * comb(n + 1, k + 2) * comb(3 * n, k),
                     n * (n + 1))


def oracle_b(n: int, k: int) -> int:
    """b(n, k) = 2 C(n-1, k) C(4n+1-k, n+1) / ((3n+1)(3n+2))."""
    if not 0 <= k < n:
        return 0
    return _quotient(2 * comb(n - 1, k) * comb(4 * n + 1 - k, n + 1),
                     (3 * n + 1) * (3 * n + 2))


def oracle_refined(n: int, i: int) -> int:
    """At j = i+2: (j-1)·(4n-2j+1)!/((3n-j+2)!(n-j+1)!)·C(2j, j)."""
    if not 0 <= i < n:
        return 0
    j = i + 2
    return _quotient((j - 1) * factorial(4 * n - 2 * j + 1) * comb(2 * j, j),
                     factorial(3 * n - j + 2) * factorial(n - j + 1))


def oracle_separated(n: int, p: int) -> int:
    """At q = p+1: (n+q-1)!(2n-q)!/(q!(n+1-q)!(2q-1)!(2n-2q+1)!)."""
    if not 0 <= p < n:
        return 0
    q = p + 1
    return _quotient(factorial(n + q - 1) * factorial(2 * n - q),
                     factorial(q) * factorial(n + 1 - q)
                     * factorial(2 * q - 1) * factorial(2 * n - 2 * q + 1))


def oracle_one_disagreement(n: int, p: int) -> int:
    """Intervals of size n, des(lower) = p, whose canopies disagree at one
    place, as fitted (not proved):
    separated(n, p)·3(2n-1)(n-1-p)(n-p)/(2(2n-1-p)(2p+3))."""
    if not 0 <= p <= n - 2:
        return 0
    return _quotient(oracle_separated(n, p) * 3 * (2 * n - 1) * (n - 1 - p)
                     * (n - p), 2 * (2 * n - 1 - p) * (2 * p + 3))


def resultant(f: MonomialPolynomial, g: MonomialPolynomial,
              var: int) -> MonomialPolynomial:
    """Res_var(f, g): the determinant of the Sylvester matrix of f and g
    in variable var, by cofactor expansion down its rows, memoised on the
    columns left, so with no division."""
    def coefficients(p):
        # the coefficient of each power of var, highest first
        by_power: dict = {}
        for expo, c in p.terms.items():
            rest = expo[:var] + (0,) + expo[var + 1:]
            by_power.setdefault(expo[var], {})[rest] = c
        return [MonomialPolynomial(p.nvars, by_power.get(d))
                for d in range(max(by_power), -1, -1)]

    a, b = coefficients(f), coefficients(g)
    m, n = len(a) - 1, len(b) - 1
    zero = MonomialPolynomial(f.nvars)
    rows = ([[zero] * i + a + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * i + b + [zero] * (m - 1 - i) for i in range(m)])

    @cache
    def minor(columns: tuple) -> MonomialPolynomial:
        # the determinant of the last len(columns) rows on these columns
        if not columns:
            return MonomialPolynomial.constant(f.nvars, 1)
        row = rows[len(rows) - len(columns)]
        total = zero
        for place, column in enumerate(columns):
            if row[column].terms:
                term = row[column] * minor(columns[:place]
                                           + columns[place + 1:])
                total = total - term if place % 2 else total + term
        return total

    return minor(tuple(range(m + n)))


def oracle_m_intervals(m: int, n: int) -> int:
    """(m+1)/(n(mn+1))·C((m+1)²n+m, n-1), n >= 1."""
    return _quotient((m + 1) * comb((m + 1) ** 2 * n + m, n - 1),
                     n * (m * n + 1))


def binary_trees(max_nodes: int = 9):
    """Random binary trees as nested pairs, None for the empty tree."""
    return st.recursive(
        st.none(),
        lambda kids: st.tuples(kids, kids),
        max_leaves=max_nodes + 1,
    )


def nonempty_binary_trees(max_nodes: int = 9):
    return binary_trees(max_nodes).filter(lambda t: t is not None)


def schroeder_trees(max_leaves: int = 10):
    """Random Schröder trees: every internal node has >= 2 children."""
    return st.recursive(
        st.none(),
        lambda kids: st.lists(kids, min_size=2, max_size=4).map(tuple),
        max_leaves=max_leaves,
    ).filter(lambda f: f is not None)


def schroeder_count(nleaves: int) -> int:
    """Number of Schröder trees with the given number of leaves."""
    if nleaves < 1:
        raise ValueError("a tree has at least one leaf")
    counts = [0, 1]
    for size in range(2, nleaves + 1):
        # forests[j] = ordered sequences of >= 1 trees with j leaves total,
        # restricted to trees of size < `size` (enough: children are smaller)
        forests = [0] * (size + 1)
        forests[0] = 1
        for j in range(1, size + 1):
            forests[j] = sum(counts[i] * forests[j - i]
                             for i in range(1, min(j, size - 1) + 1))
        # parts are capped below `size`, so every counted forest has >= 2
        # trees and concatenating them under a new root is a bijection
        counts.append(forests[size])
    return counts[nleaves]


def all_schroeder_trees(nleaves: int, budget=None) -> list:
    """All Schröder trees with the given number of leaves."""
    within_budget(f"all_schroeder_trees({nleaves})",
                  schroeder_count(nleaves), budget)
    by_leaves: list = [None, [None]]
    for size in range(2, nleaves + 1):
        # ordered forests with `size` leaves, every part of size < `size`
        forests: list = [[()]] + [[] for _ in range(size)]
        for j in range(1, size + 1):
            for i in range(1, min(j, size - 1) + 1):
                for tree in by_leaves[i]:
                    for rest in forests[j - i]:
                        forests[j].append((tree,) + rest)
        by_leaves.append([f for f in forests[size] if len(f) >= 2])
    return by_leaves[nleaves]


def is_binary_tree(t) -> bool:
    """True iff t is None or a nested pair structure."""
    if t is None:
        return True
    return (isinstance(t, tuple) and len(t) == 2
            and is_binary_tree(t[0]) and is_binary_tree(t[1]))


def is_schroeder_tree(f) -> bool:
    """True iff f is None or every node has at least two children."""
    if f is None:
        return True
    return (isinstance(f, tuple) and len(f) >= 2
            and all(is_schroeder_tree(c) for c in f))


def node_count(t) -> int:
    """Number of internal nodes of a binary tree."""
    if t is None:
        return 0
    return 1 + node_count(t[0]) + node_count(t[1])


def leaf_count(f) -> int:
    """Number of leaves (binary or Schröder)."""
    if f is None:
        return 1
    return sum(leaf_count(c) for c in f)


def internal_node_count(f) -> int:
    if f is None:
        return 0
    return 1 + sum(internal_node_count(c) for c in f)


def dimension(f) -> int:
    """Dimension of the associahedron face labeled by f.

    A Schröder tree with L leaves labels a face of the (L-2)-dimensional
    associahedron; its dimension is L - 1 - #internal nodes, so binary
    trees are vertices and the corolla is the full polytope.
    """
    if f is None:
        raise ValueError("empty tree has no face dimension")
    return leaf_count(f) - 1 - internal_node_count(f)


def left_comb(n: int):
    """The Tamari minimum: every node is a left child."""
    return None if n == 0 else (left_comb(n - 1), None)


def right_comb(n: int):
    """The Tamari maximum: every node is a right child."""
    return None if n == 0 else (None, right_comb(n - 1))


def corolla(n: int) -> tuple:
    """The Schröder tree with a single internal node and n+1 leaves."""
    return (None,) * (n + 1)


def agree(s, t) -> int:
    """Number of positions where the canopies of s and t coincide.

    For s <= t this equals des(s) + asc(t): agreements split into both-plus
    positions (the descents of s) and both-minus positions (the ascents
    of t).
    """
    cs, ct = canopy(s), canopy(t)
    if len(cs) != len(ct):
        raise ValueError("tree sizes differ")
    return sum(a == b for a, b in zip(cs, ct))


def graft_left(s, s2):
    """Graft the root of s onto the leftmost leaf of s2."""
    return s if s2 is None else (graft_left(s, s2[0]), s2[1])


def left_branch_pieces(t) -> list:
    """Cut every edge of the left branch: ell(t) + 1 pieces, bottom-up,
    each with an empty left subtree; grafting each onto the next gives t."""
    pieces = []
    while t is not None:
        pieces.insert(0, (None, t[1]))
        t = t[0]
    return pieces


def decompose_interval(s, t) -> list:
    """Split a Tamari interval s <= t into its grafting components.

    Pairs (s_i, t_i), bottom first: the t_i are the left-branch pieces of
    t, and each s_i regrafts the next left-branch pieces of s, of total
    size n(t_i).
    """
    if not tamari_leq(s, t):
        raise ValueError("not a Tamari interval: s is not below t")
    s_pieces = left_branch_pieces(s)
    components = []
    for t_piece in left_branch_pieces(t):
        s_i = s_pieces.pop(0)
        while node_count(s_i) < node_count(t_piece):
            s_i = graft_left(s_i, s_pieces.pop(0))
        components.append((s_i, t_piece))
    assert not s_pieces
    return components


def tree_pool(n: int) -> list:
    return all_trees(n)


def interval_pairs(n: int) -> list:
    return [(s, t) for s, t, _, _ in intervals(n)]


@pytest.fixture
def no_engine(monkeypatch):
    """Fail the test if any ballot word or cover is generated: both come
    from the one generating pass, _ballot_lattice."""
    def refuse(*args):
        raise AssertionError("the engine started before the budget check")

    monkeypatch.setattr("tamari.paths.m_tamari_elements", refuse)
    monkeypatch.setattr("tamari.paths._ballot_lattice", refuse)
