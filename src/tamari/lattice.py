"""Exhaustive tree generators, and Tamari intervals with their statistics.

The Tamari lattice is the slope-1 ballot lattice of tamari.paths, whose
engine streams the interval down-set masks; this module reads it in
terms of trees.  A tree's ballot word is its Dyck word, des counts its
lower covers, asc its upper covers, and ell the interior contacts of the
word.  Only the interval walk behind intervals(), the mask scan of
tamari.paths read in trees, rebuilds trees, once per element and for the
length of the walk; it can hand each tree to a per-element statistic and
yield that instead of the tree.  The tally by contacts, contact_cells, is
written once: the refined table sums it, and `verify catalytic` hands its
rows to tamari.series, which enumerates nothing.  The rotation-search route
(rotation_down_set) is independent of the engine and is the ground truth
that it and trees.tamari_leq are tested against.  Budgets: see
tamari.paths.
"""
from __future__ import annotations

from typing import Iterator

from .formulas import catalan
from .paths import (
    BudgetExceeded,
    StatTable,
    _ballot_tree,
    _slope_one_ell,
    _tally,
    _walk,
    m_tamari_interval_count,
    m_tamari_interval_stats,
    within_budget,
)
from .trees import BinaryTree, rotations_down


# ===================================================================
# generators
# ===================================================================

def all_trees(n: int, budget=None) -> list:
    """All binary trees with n nodes, deterministic order, Catalan(n) many."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    within_budget(f"all_trees({n})", catalan(n), budget)
    by_size: list = [[None]]
    for m in range(1, n + 1):
        by_size.append([(left, right)
                        for i in range(m)
                        for left in by_size[i]
                        for right in by_size[m - 1 - i]])
    return by_size[n]


def rotation_down_set(t: BinaryTree) -> frozenset:
    """All trees below t, by a search over left rotations (oracle route)."""
    seen = {t}
    stack = [t]
    while stack:
        x = stack.pop()
        for y in rotations_down(x):
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


# ===================================================================
# intervals and their statistics (views of the slope-1 engine)
# ===================================================================

def _interval_walk(n: int, budget, element) -> Iterator[tuple]:
    """Every Tamari interval once, as (element(s), element(t), des(s), asc(t)).

    element is called once per tree, not once per interval, so a per-tree
    statistic (a bitmask, say) is paid for C_n times.
    """
    return _walk(1, n, budget, lambda word: element(_ballot_tree(1, word)))


def intervals(n: int, budget=None) -> Iterator[tuple]:
    """Every Tamari interval once, as (s, t, des(s), asc(t))."""
    yield from _interval_walk(n, budget, lambda t: t)


def interval_count(n: int, budget=None) -> int:
    return m_tamari_interval_count(1, n, budget)


def interval_histogram(n: int, budget=None) -> list:
    """Number of intervals with des(s) + asc(t) = k, for k = 0..n-1."""
    table = m_tamari_interval_stats(1, n, budget)
    return [table.value(k) for k in range(n)]


def contact_cells(n: int, budget=None) -> dict:
    """{((ell(s), des(s)), (asc(t), ell(t) == 0)): intervals s <= t}, one
    tally of the slope-1 engine that reads each tree's ell once: the rows
    series.catalytic_equation_check takes, and interval_stats_refined sums."""
    def key(word, des, asc):
        ell = _slope_one_ell(word)
        return (ell, des), (asc, ell == 0)
    return _tally(1, n, budget, key)


def interval_stats_refined(n: int, budget=None) -> StatTable:
    """Intervals counted by (ell(s), des(s) + asc(t)), summed from
    contact_cells.  The (des(s), asc(t)) table is paths.cover_table(1, n)."""
    by_ell: dict = {}
    cells = contact_cells(n, budget)
    for ((ell_s, des_s), (asc_t, _)), count in cells.items():
        key = (ell_s, des_s + asc_t)
        by_ell[key] = by_ell.get(key, 0) + count
    return StatTable(n, ("ell_lower", "cover_statistic"), by_ell)
