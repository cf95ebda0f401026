"""Shared test helpers: hypothesis strategies and exhaustive pools."""

import pytest
from hypothesis import strategies as st

from tamari.lattice import all_trees, intervals


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


def tree_pool(n: int) -> list:
    return all_trees(n)


def interval_pairs(n: int) -> list:
    return [(s, t) for s, t, _, _ in intervals(n)]


@pytest.fixture
def no_engine(monkeypatch):
    """Fail the test if any ballot word or cover is generated."""
    def refuse(*args):
        raise AssertionError("the engine started before the budget check")

    monkeypatch.setattr("tamari.paths.m_tamari_elements", refuse)
    monkeypatch.setattr("tamari.paths.m_tamari_covers", refuse)
    monkeypatch.setattr("tamari.paths._ballot_words", refuse)
    monkeypatch.setattr("tamari.paths._covers", refuse)
