"""Dyck paths, the tree bijection, and m-ballot lattices.

Core claims:
    - tree_to_dyck/dyck_to_tree are mutually inverse bijections; each
      refused word gets its own message, and the one-pass reader's tree
      of every slope-m word on a grid gives back its Dyck word
    - the bijection transports (asc, des, ell) to
      (valleys, double falls, interior contacts)
    - read with each N as m U's, every slope-m ballot word is a tree
      of T_{mn}: at slope 1 the words are the trees' Dyck words; at
      every slope the engine's upper covers are the rotations of the
      words' trees, and for m <= 6 with C^2 <= 2e4 the intervals are
      exactly the pairs whose bracket vectors trees.tamari_leq's rule
      orders
    - m_tamari_elements counts are the Fuss-Catalan numbers
    - the slope-1 ballot lattice is the Tamari lattice: same interval
      counts and same cover-statistic histogram; cover_table counts the
      intervals by the trees' (des(s), asc(t))
    - the engine's element order is a linear extension: every cover of
      a word comes after it; the covers resolved while the words are
      generated are the rotations of the words' trees
    - the covers ranked by ballot completion counts are those a dict
      from every word to its index resolves (conftest), for every
      m <= 6 with C <= 60,000 (250,000 under extended)
    - the engine's build leaves no garbage cycle behind, and its words,
      cover counts and flat cover array hold under 80 bytes a word;
      generating the slope-3 words at n = 7 peaks under 5 MB, where a
      dict from every word to its index peaked at 8.2 MB
    - the engine streams its masks: one interval count holds well under
      the bytes of all down-set masks at once, and with eight windows a
      table holds under a quarter of them; the slope-3 count at n = 7
      (extended) holds under a quarter of C masks of its window's width;
      the n = 12 count (extended) equals the closed formula in a child
      process under 40 MB
    - the engine splits the words into equal windows of at most
      WINDOW_BITS, halved while C masks of the width would pass
      WINDOW_BYTES (4,096 bits through n = 13, 2,048 at n = 14); with
      the width or the byte cap patched down, every tally equals the
      pairwise oracle walked in one window, every count the formula, and
      the walk yields the intervals of the default width; every window's
      rows are, by value, those of a push loop that stores a fresh union
      at each push, and equal rows below their window are mostly one
      object
    - m-interval counts match the closed formula; the cover-statistic
      tables match rows frozen from independent tabulation, and every
      slope-m row up to 3e6 intervals (m = 2..4) runs over k = 0..2n-2
      with m·n(n-1) at k = 1 and the slope-(m-2) count at the top
    - the interval walk reads every set bit of every down-set mask, in
      upper-major, ascending order, with the engine's cover counts; at
      slope 1 it yields the intervals of lattice.intervals in its order
    - the carry-save tally counts the intervals pair by pair: per-word
      cells, one counter carried through log2 C planes, and the cover
      counts, with upper classes of 1-7 rows in a window (masks waiting
      for a block of eight), exactly 8 and 16, and 17 or more, at every
      width; one table holds under the bytes of all masks; at the
      benchmark's sizes and at n = 12 (extended) it matches the closed
      formulas and the canopy-pair series (series.canopy_cells)
    - bad parameters and blown budgets raise, every tally view before
      any word is generated
"""

import gc
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given

from conftest import (
    indexed_ballot_lattice,
    left_comb,
    nonempty_binary_trees,
    right_comb,
    tree_pool,
)
from tamari import paths
from tamari.formulas import (
    a_formula,
    catalan,
    fuss_catalan,
    interval_count_formula,
    m_tamari_intervals_formula,
    separated_formula,
)
from tamari.lattice import (
    BudgetExceeded,
    contact_cells,
    interval_histogram,
    interval_stats_refined,
    intervals,
)
from tamari.paths import (
    WINDOW_BITS,
    _ballot_lattice,
    _ballot_tree,
    _m_engine,
    _render,
    _tally,
    _walk,
    _window_width,
    contacts,
    cover_table,
    double_falls,
    dyck_to_tree,
    m_tamari_elements,
    m_tamari_interval_count,
    m_tamari_interval_stats,
    m_tamari_intervals,
    tree_to_dyck,
    valleys,
)
from tamari.series import canopy_cells, canopy_rows
from tamari.trees import (
    _bracket_leq,
    asc,
    bracket_vector,
    des,
    ell,
    rotations_up,
    serialize,
)

# the (m, n) on which the engine is checked word by word
ENGINE_GRID = ([(1, n) for n in range(1, 8)]
               + [(2, n) for n in range(1, 6)]
               + [(3, n) for n in range(1, 5)])

# every slope m <= 6 with n whose C^2 pairs of words number at most 2e4
ORDER_GRID = [(m, n) for m in range(1, 7) for n in range(1, 8)
              if fuss_catalan(m, n) ** 2 <= 2 * 10**4]

# every slope m <= 6 with n whose C words number at most 60,000, and up to
# 250,000 under extended
RANK_GRID = [pytest.param(m, n, id=f"{m}-{n}", marks=(
                 [pytest.mark.extended] if fuss_catalan(m, n) > 60_000
                 else []))
             for m in range(1, 7) for n in range(1, 13)
             if fuss_catalan(m, n) <= 250_000]

# window widths that split every engine above into several windows
NARROW_WIDTHS = [1, 5, 64]

# the default width and twice it: every engine above is one window at
# either
WIDE_WIDTHS = [WINDOW_BITS, 2 * WINDOW_BITS]
WIDE = [pytest.param(("WINDOW_BITS", width), id=str(width))
        for width in WIDE_WIDTHS]

# a cap on one window's mask bytes low enough that the engine halves its
# own width: to 4 bits at 429 words, 8 at 132, 128 at 14
NARROW_CAP = 256

# (setting, value) pairs that narrow the windows of _m_engine: each narrow
# WINDOW_BITS, and WINDOW_BYTES at NARROW_CAP
NARROW = ([pytest.param(("WINDOW_BITS", width), id=str(width))
           for width in NARROW_WIDTHS]
          + [pytest.param(("WINDOW_BYTES", NARROW_CAP),
                          id=f"cap{NARROW_CAP}")])

# interval counts by (m, n), frozen from independent tabulation
M_INTERVAL_COUNTS = {
    (1, 4): 68, (2, 4): 703, (3, 4): 3685, (4, 4): 13390,
    (5, 4): 38591, (6, 4): 94738,
    (1, 5): 399, (2, 5): 9729, (3, 5): 91881,
    (1, 6): 2530, (2, 6): 146916,
    (1, 7): 16965, (1, 8): 118668,
}

# cover-statistic rows by (m, n), k = 0..2(n-1)
M_STATS_ROWS = {
    (2, 2): [1, 4, 1],
    (2, 3): [1, 12, 30, 14, 1],
    (2, 4): [1, 24, 150, 306, 189, 32, 1],
    (3, 3): [1, 18, 72, 66, 13],
    (3, 4): [1, 36, 351, 1196, 1437, 596, 68],
    (4, 3): [1, 24, 132, 180, 58],
    (5, 3): [1, 30, 210, 380, 170],
    (6, 4): [1, 72, 1458, 10942, 32115, 36760, 13390],
}


def _whole_masks(m, n, budget=None):
    # (t, word, lower covers, upper covers, mask) per word, where each
    # whole down-set mask is the OR of its window masks shifted into place
    words, lower, upper, windows = _m_engine(m, n, budget)
    masks = [0] * len(words)
    for lo, _, rows in windows:
        for t, mask in rows:
            masks[t] |= mask << lo
    for t, mask in enumerate(masks):
        yield t, words[t], lower[t], upper[t], mask


def _upper_covers(m, n):
    # (words, above): the generator's words, and each word's own block of
    # its flat cover array, which holds every block once, in index order
    words, upper, covers = _ballot_lattice(m, n)
    assert len(words) == len(upper) and sum(upper) == len(covers)
    return words, [covers[end - k:end]
                   for k, end in zip(upper, accumulate(upper))]


def _as_int(word):
    # a ballot word as the engine's int, N = 1, first letter most
    # significant
    return int(word.replace("N", "1").replace("E", "0"), 2)


def _pushed_rows(upper, covers, lo, hi):
    # the rows of window [lo, hi) from the push loop that stores a fresh
    # union in the slot at every push: the value oracle of paths._window
    gathering = [0] * len(upper)
    end = sum(upper[:lo])
    for t in range(lo, len(upper)):
        start = end
        end += upper[t]
        mask = gathering[t]
        gathering[t] = 0
        if t < hi:
            mask |= 1 << (t - lo)
        if mask:
            for c in covers[start:end]:
                gathering[c] |= mask
            yield t, mask


def _mask_bytes(m, n, budget):
    # the bytes of every whole down-set mask, as if all were held at once
    return sum(sys.getsizeof(mask) for *_, mask in _whole_masks(m, n, budget))


# == the bijection ==================================================

class TestBijection:
    def test_frozen_words(self):
        assert tree_to_dyck(None) == ""
        assert tree_to_dyck((None, None)) == "UD"
        assert tree_to_dyck(left_comb(2)) == "UDUD"
        assert tree_to_dyck(right_comb(3)) == "UUUDDD"

    @given(nonempty_binary_trees())
    def test_roundtrip(self, t):
        word = tree_to_dyck(t)
        assert len(word) == 2 * sum(1 for c in word if c == "U")
        assert dyck_to_tree(word) == t

    @pytest.mark.parametrize("n", range(1, 7))
    def test_roundtrip_exhaustive_and_injective(self, n):
        pool = tree_pool(n)
        words = {tree_to_dyck(t) for t in pool}
        assert len(words) == catalan(n)
        for t in pool:
            assert dyck_to_tree(tree_to_dyck(t)) == t

    REFUSALS = {"UDD": "negative height", "DU": "negative height",
                "UUD": "unbalanced", "UDX": "bad letter 'X'",
                "uudd": "bad letter 'u'"}

    @pytest.mark.parametrize("bad", REFUSALS)
    def test_rejects_non_dyck(self, bad):
        with pytest.raises(ValueError,
                           match=f"^not a Dyck word: {self.REFUSALS[bad]}$"):
            dyck_to_tree(bad)

    @pytest.mark.parametrize("m,n", [(m, n) for m, top in
                                     ((1, 9), (2, 6), (3, 5), (4, 4))
                                     for n in range(1, top + 1)])
    def test_ballot_tree_round_trip(self, m, n):
        # tree_to_dyck shares no code with the one-pass reader
        for word in m_tamari_elements(m, n):
            dyck = word.replace("N", "U" * m).replace("E", "D")
            assert tree_to_dyck(_ballot_tree(m, word)) == dyck


# == statistics transport ===========================================

class TestStatistics:
    def test_pairwise_counting(self):
        # double falls overlap inside runs: DDD holds two, not one
        assert double_falls("UUUDDD") == 2
        assert double_falls("UUDDUD") == 1
        assert valleys("UDUD") == 1
        assert contacts("UD") == 0
        assert contacts("UDUD") == 1
        assert contacts("UUDD") == 0

    @pytest.mark.parametrize("n", range(1, 7))
    def test_transport_exhaustive(self, n):
        for t in tree_pool(n):
            word = tree_to_dyck(t)
            assert valleys(word) == asc(t), serialize(t)
            assert double_falls(word) == des(t), serialize(t)
            assert contacts(word) == ell(t), serialize(t)

    @given(nonempty_binary_trees())
    def test_transport_random(self, t):
        word = tree_to_dyck(t)
        assert (valleys(word), double_falls(word), contacts(word)) == \
            (asc(t), des(t), ell(t))


# == cover transport and the slope-1 lattice ========================

class TestSlopeOne:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_cover_transport(self, n):
        # rotations above t == the engine's covers of t's word, as trees
        words, above = _upper_covers(1, n)
        trees = [_ballot_tree(1, _render(word)) for word in words]
        covers = {trees[t]: {trees[c] for c in cs}
                  for t, cs in enumerate(above)}
        for t in tree_pool(n):
            assert covers[t] == rotations_up(t)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_elements_are_translated_dyck_words(self, n):
        words = m_tamari_elements(1, n)
        assert {_ballot_tree(1, w) for w in words} == set(tree_pool(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_interval_count_matches_trees(self, n):
        assert m_tamari_interval_count(1, n) == interval_count_formula(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_histogram_matches_trees(self, n):
        table = m_tamari_interval_stats(1, n)
        row = [table.value(k) for k in range(n)]
        assert row == interval_histogram(n)
        assert table.total == interval_count_formula(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_cover_table_is_the_refined_des_asc_table(self, n):
        # the word-level cover counts are des(s) and asc(t) of the trees
        cells: dict = {}
        for s, t, _, _ in intervals(n):
            key = (des(s), asc(t))
            cells[key] = cells.get(key, 0) + 1
        table = cover_table(1, n)
        assert table.axes == ("des_lower", "asc_upper")
        assert dict(table.cells) == cells


# == general slope ==================================================

class TestBallot:
    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("n", range(1, 5))
    def test_element_counts(self, m, n):
        words = m_tamari_elements(m, n)
        assert len(words) == fuss_catalan(m, n)
        assert len(set(words)) == len(words)
        for w in words:
            assert w.count("N") == n and w.count("E") == m * n

    def test_element_counts_spot(self):
        assert fuss_catalan(2, 5) == 273
        assert fuss_catalan(3, 5) == 969
        assert len(m_tamari_elements(2, 5)) == 273

    @pytest.mark.parametrize("m,n", sorted(M_INTERVAL_COUNTS))
    def test_interval_counts_frozen_and_formula(self, m, n):
        expected = M_INTERVAL_COUNTS[(m, n)]
        assert m_tamari_interval_count(m, n) == expected
        assert m_tamari_intervals_formula(m, n) == expected

    @pytest.mark.parametrize("m,n", sorted(M_STATS_ROWS))
    def test_stats_frozen(self, m, n):
        table = m_tamari_interval_stats(m, n)
        row = [table.value(k) for k in range(2 * (n - 1) + 1)]
        assert row == M_STATS_ROWS[(m, n)]
        assert table.total == M_INTERVAL_COUNTS.get(
            (m, n), m_tamari_intervals_formula(m, n))

    @pytest.mark.parametrize("m,n", [
        (m, n) for m in range(2, 5) for n in range(1, 8)
        if m_tamari_intervals_formula(m, n) <= 3 * 10**6])
    def test_stats_row_shape(self, m, n):
        # the cover statistic of every slope-m row up to 3e6 intervals:
        # k runs over 0..2n-2, m·n(n-1) intervals have k = 1, and the top
        # row entry counts the slope-(m-2) intervals (one at m = 2)
        table = m_tamari_interval_stats(
            m, n, budget=m_tamari_intervals_formula(m, n))
        assert sorted(table.cells) == [(k,) for k in range(2 * n - 1)]
        assert table.value(1) == m * n * (n - 1)
        assert table.value(2 * n - 2) == (
            1 if m == 2 else m_tamari_intervals_formula(m - 2, n))

    @pytest.mark.parametrize("m,n", ORDER_GRID)
    def test_intervals_are_order_intervals(self, m, n):
        # oracle route: the pairs of words whose trees in T_{mn} are
        # ordered by their bracket vectors
        vector = {w: bracket_vector(_ballot_tree(m, w))
                  for w in m_tamari_elements(m, n)}
        pairs = {(s, t) for s in vector for t in vector
                 if _bracket_leq(vector[s], vector[t])}
        assert set(m_tamari_intervals(m, n)) == pairs

    @pytest.mark.parametrize("m,n", [(1, n) for n in range(1, 7)]
                             + [(2, n) for n in range(1, 5)])
    def test_interval_indices_read_every_mask_bit(self, m, n):
        # the walk's string scan against a bit-by-bit test of each
        # down-set mask: same pairs, upper-major, lower indices ascending,
        # with the engine's cover counts; element runs once per word
        indices, words, down_degree, up_degree, masks = map(
            list, zip(*_whole_masks(m, n)))
        assert indices == list(range(len(words)))
        index = {_render(w): i for i, w in enumerate(words)}
        calls = []

        def element(word):
            calls.append(word)
            return index[word]

        expected = [(s, t, down_degree[s], up_degree[t])
                    for t, mask in enumerate(masks)
                    for s in range(len(masks)) if mask >> s & 1]
        assert list(_walk(m, n, None, element)) == expected
        assert sorted(calls) == sorted(index)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_slope_one_intervals_in_tree_walk_order(self, n):
        # same sequence, not only the same set, as lattice.intervals
        as_trees = [(_ballot_tree(1, s), _ballot_tree(1, t))
                    for s, t in m_tamari_intervals(1, n)]
        assert as_trees == [(s, t) for s, t, _, _ in intervals(n)]

    @pytest.mark.parametrize("m,n", [(1, n) for n in range(1, 7)]
                             + [(2, n) for n in range(1, 5)]
                             + [(3, n) for n in range(1, 4)])
    def test_engine_order_is_a_linear_extension(self, m, n):
        # the down-set masks are built in this order, so every cover of a
        # word must have a larger index
        words = [_render(word) for _, word, _, _, _ in _whole_masks(m, n)]
        assert sorted(words) == sorted(m_tamari_elements(m, n))
        index = {w: i for i, w in enumerate(words)}
        covered, above = _upper_covers(m, n)
        for word, covers in zip(covered, above):
            i = index[_render(word)]
            assert all(index[_render(covered[c])] > i for c in covers)

    @pytest.mark.parametrize("m,n", ENGINE_GRID + [(1, 8), (1, 9)])
    def test_int_covers_are_the_tree_rotations(self, m, n):
        # the covers resolved while the words are generated, read as
        # trees in T_{mn}, against the rotations above each word's tree,
        # on every word; the engine's words and cover counts, word by
        # word, against the generator's words and the rotations' counts
        words, above = _upper_covers(m, n)
        assert len(words) == fuss_catalan(m, n)
        assert all(a < b for a, b in zip(words, words[1:]))
        trees = [_ballot_tree(m, _render(word)) for word in words]
        covers = [rotations_up(tree) for tree in trees]
        for indices, tree_covers in zip(above, covers):
            assert len(set(indices)) == len(indices)
            assert {trees[c] for c in indices} == tree_covers
        engine_words, lower, upper, _ = _m_engine(m, n)
        assert engine_words == words
        below = Counter(c for above in covers for c in above)
        assert upper == [len(above) for above in covers]
        assert lower == [below[tree] for tree in trees]

    @pytest.mark.parametrize("m,n", RANK_GRID)
    def test_ranked_covers_are_the_indexed_covers(self, m, n):
        # the same words, cover counts and cover array, in the same order,
        # as the pass that looks each cover up in a dict of every word
        assert _ballot_lattice(m, n) == indexed_ballot_lattice(m, n)

    @pytest.mark.parametrize("m,n", [(1, 5), (2, 3), (3, 3)])
    def test_covers_permute_and_raise(self, m, n):
        # covers permute the letters, and the sum of E positions strictly
        # increases
        def e_weight(word):
            return sum(i for i, c in enumerate(word) if c == "E")

        words, above = _upper_covers(m, n)
        for word, covers in zip(words, above):
            w = _render(word)
            for u in (_render(words[c]) for c in covers):
                assert sorted(u) == sorted(w)
                assert e_weight(u) > e_weight(w)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            m_tamari_elements(0, 3)
        with pytest.raises(ValueError):
            m_tamari_elements(2, 0)

    def test_budgets(self):
        with pytest.raises(BudgetExceeded):
            m_tamari_elements(2, 10, budget=100)
        with pytest.raises(BudgetExceeded):
            m_tamari_interval_count(2, 6, budget=1000)

    def test_interval_budget_refuses_before_any_word(self, no_engine):
        # 1,000 < m_tamari_intervals_formula(2, 6), known before the engine
        with pytest.raises(BudgetExceeded) as info:
            m_tamari_interval_count(2, 6, budget=1000)
        assert info.value.required == m_tamari_intervals_formula(2, 6)

    @pytest.mark.parametrize("view,m,n", [
        (lambda budget: cover_table(2, 6, budget), 2, 6),
        (lambda budget: m_tamari_interval_stats(3, 5, budget), 3, 5),
        (lambda budget: interval_stats_refined(8, budget), 1, 8),
        (lambda budget: contact_cells(8, budget), 1, 8),
    ], ids=["cover_table", "m_tamari_interval_stats",
            "interval_stats_refined", "contact_cells"])
    def test_tally_views_refuse_before_any_word(self, no_engine, view, m, n):
        # every tally view is refused on the closed-form interval count
        with pytest.raises(BudgetExceeded) as info:
            view(1000)
        assert info.value.required == m_tamari_intervals_formula(m, n)


# == tallies ========================================================

def _pairwise_cells(m, n, key):
    # oracle: one step per interval, cover counts from the rotations
    # above the words' trees in T_{mn}, which are the words' trees again;
    # the key sees each word as the engine's int
    words = {_ballot_tree(m, w): w for w in m_tamari_elements(m, n)}
    above = {w: len(rotations_up(t)) for t, w in words.items()}
    below = dict.fromkeys(words.values(), 0)
    for t in words:
        for u in rotations_up(t):
            below[words[u]] += 1
    cells: dict = {}
    for s, t in m_tamari_intervals(m, n):
        cell = (key(_as_int(s), below[s], above[s])[0],
                key(_as_int(t), below[t], above[t])[1])
        cells[cell] = cells.get(cell, 0) + 1
    return cells


# n = 2 has m + 1 words, so (7, 2) and (15, 2) put exactly 8 and 16 rows
# into one window's one constant upper class
TALLY_GRID = ([(1, n) for n in range(1, 7)]
              + [(2, n) for n in range(1, 5)]
              + [(3, n) for n in range(1, 4)]
              + [(7, 2), (15, 2)])

TALLY_KEYS = {
    # every cell is one interval
    "per_word": lambda word, down, up: (word, word),
    # one counter per lower word, up to C: blocks of eight masks folded by
    # carry-save, their weight-8 carries rippled through log2 C planes
    "constant_upper": lambda word, down, up: (word, None),
    # the key of cover_table
    "cover_counts": lambda word, down, up: (down, up),
}


class TestTally:
    @pytest.mark.parametrize("keys", sorted(TALLY_KEYS))
    @pytest.mark.parametrize("m,n", TALLY_GRID)
    def test_tally_counts_the_pairs(self, m, n, keys):
        key = TALLY_KEYS[keys]
        assert _tally(m, n, None, key) == _pairwise_cells(m, n, key)

    @pytest.mark.parametrize("narrow", NARROW + WIDE)
    def test_grid_meets_every_counter_case(self, monkeypatch, narrow):
        # read from the engine's rows: in some window some upper class of
        # the grid gets 1-7 rows (only masks waiting for a block of eight),
        # exactly 8 and 16 (every mask folded into the planes), and 17 or
        # more (at least two weight-8 carries rippled)
        monkeypatch.setattr(paths, *narrow)
        sizes = set()
        for m, n in TALLY_GRID:
            words, lower, upper, windows = _m_engine(m, n)
            windows = [[t for t, _ in rows] for _, _, rows in windows]
            for key in TALLY_KEYS.values():
                keys = [key(word, lower[t], upper[t])[1]
                        for t, word in enumerate(words)]
                for rows in windows:
                    sizes |= set(Counter(keys[t] for t in rows).values())
        assert sizes & set(range(1, 8))
        assert {8, 16} <= sizes
        assert max(sizes) >= 17

    @pytest.mark.extended
    def test_benchmark_sizes(self):
        # the lattice-tally workload's tables against the closed formulas
        n = 11
        table = cover_table(1, n, budget=interval_count_formula(n))
        for k in range(2 * n):
            assert sum(table.value(p, k - p)
                       for p in range(k + 1)) == a_formula(n, k)
        for p in range(n):
            assert table.value(p, n - 1 - p) == separated_formula(n, p)
        assert all(table.value(q, p) == count
                   for (p, q), count in table.cells.items())
        assert canopy_rows(canopy_cells(n - 1))[n] == dict(table.cells)
        budget = m_tamari_intervals_formula(3, 7)
        assert m_tamari_interval_stats(3, 7, budget).total == budget

    @pytest.mark.extended
    def test_paper_table_n12(self, monkeypatch):
        # the paper's first table at n = 12 from one engine run: the
        # histogram through interval_histogram, and the separated diagonal
        # p + q = 11 of the cover_table that it sums
        tables = []

        def kept(*args):
            tables.append(cover_table(*args))
            return tables[-1]

        monkeypatch.setattr(paths, "cover_table", kept)
        n = 12
        hist = interval_histogram(n, budget=interval_count_formula(n))
        assert hist == [a_formula(n, k) for k in range(n)]
        assert sum(hist) == interval_count_formula(n)
        [table] = tables
        for p in range(n):
            assert table.value(p, n - 1 - p) == separated_formula(n, p)
        assert canopy_rows(canopy_cells(n - 1))[n] == dict(table.cells)


# == windows ========================================================

class TestWindows:
    # a narrow WINDOW_BITS splits each engine into many windows; every
    # table and count must equal the one-window engine's
    @pytest.mark.parametrize("width", NARROW_WIDTHS + WIDE_WIDTHS)
    @pytest.mark.parametrize("m,n", [(1, 7), (2, 5), (3, 1)])
    def test_windows_split_the_words_evenly(self, monkeypatch, width, m, n):
        monkeypatch.setattr(paths, "WINDOW_BITS", width)
        count = fuss_catalan(m, n)
        *_, windows = _m_engine(m, n)
        windows = [(lo, hi, list(rows)) for lo, hi, rows in windows]
        assert len(windows) == -(-count // width)
        assert [lo for lo, _, _ in windows] == [0] + [
            hi for _, hi, _ in windows[:-1]]
        assert windows[-1][1] == count
        sizes = {hi - lo for lo, hi, _ in windows}
        assert max(sizes) <= width and max(sizes) - min(sizes) <= 1
        # the first window yields every word, since each down-set holds
        # the bottom word; each later one only the words whose down-set
        # meets it
        assert [t for t, _ in windows[0][2]] == list(range(count))
        for lo, hi, rows in windows:
            assert all(t >= lo and 0 < mask < 1 << (hi - lo)
                       for t, mask in rows)

    @pytest.mark.parametrize("narrow", NARROW)
    @pytest.mark.parametrize("keys", sorted(TALLY_KEYS))
    @pytest.mark.parametrize("m,n", TALLY_GRID)
    def test_windowed_tally_counts_the_pairs(
            self, monkeypatch, narrow, m, n, keys):
        # the oracle walks the intervals at the default width, one
        # window on this grid, before the width is narrowed
        key = TALLY_KEYS[keys]
        expected = _pairwise_cells(m, n, key)
        monkeypatch.setattr(paths, *narrow)
        assert _tally(m, n, None, key) == expected

    @pytest.mark.parametrize("narrow", NARROW)
    @pytest.mark.parametrize("m,n", ENGINE_GRID)
    def test_windowed_count_is_the_formula(self, monkeypatch, narrow, m, n):
        monkeypatch.setattr(paths, *narrow)
        assert (m_tamari_interval_count(m, n)
                == m_tamari_intervals_formula(m, n))

    @pytest.mark.parametrize("narrow", NARROW)
    @pytest.mark.parametrize("m,n", ENGINE_GRID)
    def test_windowed_walk_yields_the_same_intervals(
            self, monkeypatch, narrow, m, n):
        # window-major order, the same set of intervals with the same
        # cover counts as at the default width, each once
        whole = list(_walk(m, n, None, lambda word: word))
        monkeypatch.setattr(paths, *narrow)
        windowed = list(_walk(m, n, None, lambda word: word))
        assert len(windowed) == len(set(windowed)) == len(whole)
        assert set(windowed) == set(whole)

    @pytest.mark.parametrize("narrow", NARROW + WIDE)
    @pytest.mark.parametrize("m,n", ENGINE_GRID)
    def test_rows_are_the_pushed_unions(self, monkeypatch, narrow, m, n):
        # keeping the slot's own object or the pushed one changes which
        # int holds a row, never its value
        monkeypatch.setattr(paths, *narrow)
        _, upper, covers = _ballot_lattice(m, n)
        for lo, hi, rows in _m_engine(m, n)[3]:
            assert list(rows) == list(_pushed_rows(upper, covers, lo, hi))

    def test_later_windows_share_equal_rows(self, monkeypatch):
        # below its window a word adds no bit of its own, and most pushes
        # add none to the slot: its 6,566 rows hold 1,282 values, and a
        # fresh union per push would make about 6,000 objects of them
        monkeypatch.setattr(paths, "WINDOW_BITS", 64)
        masks = [mask for _, _, rows in _m_engine(3, 5)[3]
                 for _, mask in rows]
        assert len(masks) == 6566
        assert len(set(masks)) == 1282
        assert len({id(mask) for mask in masks}) < 1.25 * 1282

    def test_width_halves_under_the_mask_byte_cap(self):
        # C masks of the first window at width w span C·w/8 bytes: 380 MB
        # at n = 13 keeps 4,096 bits, and n = 14 (1.37 GB) halves once
        assert [_window_width(catalan(n)) for n in (11, 12, 13)] == [
            4096, 4096, 4096]
        for n in range(14, 20):
            count = catalan(n)
            width = _window_width(count)
            assert count * width <= 8 * paths.WINDOW_BYTES < 2 * count * width


# == streaming ======================================================

class TestStreaming:
    def test_count_holds_under_the_bytes_of_all_masks(self):
        # an engine that kept every down-set mask would peak above their
        # total; gathering each into its upper covers, and freeing it when
        # its word takes it, stays well under
        budget = m_tamari_intervals_formula(1, 10)
        total = _mask_bytes(1, 10, budget)
        tracemalloc.start()
        try:
            count = m_tamari_interval_count(1, 10, budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert count == interval_count_formula(10)
        assert peak < 0.7 * total

    def test_tally_holds_under_the_bytes_of_all_masks(self):
        # a tally that held the masks, or grew one plane per element,
        # would peak above their total
        budget = m_tamari_intervals_formula(1, 10)
        total = _mask_bytes(1, 10, budget)
        tracemalloc.start()
        try:
            table = cover_table(1, 10, budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.total == interval_count_formula(10)
        assert peak < 0.7 * total

    def test_narrow_windows_hold_a_quarter_of_the_mask_bytes(
            self, monkeypatch):
        # eight windows: each gathered mask spans an eighth of the words
        budget = m_tamari_intervals_formula(1, 10)
        total = _mask_bytes(1, 10, budget)
        monkeypatch.setattr(paths, "WINDOW_BITS", -(-catalan(10) // 8))
        tracemalloc.start()
        try:
            table = cover_table(1, 10, budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.total == interval_count_formula(10)
        assert peak < 0.25 * total

    @pytest.mark.extended
    def test_slope_three_count_holds_under_a_quarter_of_a_window(self):
        # 53,820 words in fourteen windows of 3,845 bits: C masks of that
        # width span 26 MB.  Equal gathered masks stay one object, and the
        # covers are ranked with no dict of the words, so the count peaks
        # near 4.5 MB
        budget = m_tamari_intervals_formula(3, 7)
        count = fuss_catalan(3, 7)
        width = -(-count // -(-count // WINDOW_BITS))
        tracemalloc.start()
        try:
            intervals = m_tamari_interval_count(3, 7, budget)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert intervals == budget
        assert peak < 0.25 * count * width / 8

    def test_slope_three_generation_holds_no_word_index(self):
        # 53,820 words and 242,190 covers, ranked as they are generated:
        # looking each cover up in a dict of every word peaked at 8.2 MB
        tracemalloc.start()
        try:
            words, upper, covers = _ballot_lattice(3, 7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(words) == len(upper) == fuss_catalan(3, 7)
        assert sum(upper) == len(covers) == 242190
        assert peak < 5_000_000

    def test_build_leaves_no_garbage_cycle(self):
        # the generator's recursive closure holds itself; left bound, that
        # cycle would keep its cells alive until a collection
        gc.collect()
        gc.disable()
        try:
            *_, windows = _m_engine(1, 9)
            for _, _, rows in windows:
                for _ in rows:
                    pass
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_cover_graph_holds_under_80_bytes_a_word(self):
        # the words, their cover counts and one flat int array of the
        # covers, 16,796 words and 75,582 covers: a tuple of cover
        # indices per word would hold about 156 bytes a word
        tracemalloc.start()
        try:
            words, upper, covers = _ballot_lattice(1, 10)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(words) == len(upper) == catalan(10)
        assert sum(upper) == len(covers) == 75582
        assert held < 80 * len(words)

    @pytest.mark.extended
    def test_frontier_count_n12(self):
        # 373,537,388 intervals over 208,012 trees, counted by the engine
        # in a child process that reports its own peak RSS: the VmHWM of
        # its address space, in KiB (Linux).  Its ru_maxrss would also
        # hold this process's peak, which exec carries over from the
        # address space the child was spawned in.
        code = ("from tamari.paths import m_tamari_interval_count\n"
                "count = m_tamari_interval_count(1, 12, budget=400_000_000)\n"
                "with open('/proc/self/status') as status:\n"
                "    print(count, *[line.split()[1] for line in status\n"
                "                   if line.startswith('VmHWM:')])")
        src = str(Path(paths.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], check=True, capture_output=True,
            text=True, env={**os.environ, "PYTHONPATH": src}).stdout
        count, peak_kib = map(int, out.split())
        assert count == m_tamari_intervals_formula(1, 12) == 373537388
        assert peak_kib < 40 * 1024
