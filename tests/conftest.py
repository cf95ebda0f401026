"""Shared test helpers: hypothesis strategies, exhaustive pools (the
Schröder trees among them), tree shapes, sizes and builders, face
dimensions, and the grafting decomposition of a Tamari interval."""

import pytest
from hypothesis import strategies as st

from tamari.lattice import all_trees, intervals
from tamari.paths import within_budget
from tamari.trees import tamari_leq

LEAF = None
SINGLE_NODE = (None, None)


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
