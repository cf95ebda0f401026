"""Dyck paths, the tree bijection, m-ballot lattices, and the interval engine.

Claims implemented here, all cross-checked by the test suite:

  * the recursive bijection trees -> Dyck words sends the tree statistics
    (asc, des, ell) to (valleys, double falls, interior contacts);
  * it transports Tamari covers to the path cover move: an EN factor is
    swapped with the shortest following balanced factor;
  * the same cover move with up-steps of slope m defines a lattice on
    m-ballot words whose m = 1 case is the Tamari lattice again.

Paths are plain strings: 'U'/'D' for Dyck words, 'N'/'E' for m-ballot
words (an N gains m units of height, an E loses one).

The interval engine of every slope, the Tamari lattice's included,
accumulates down-sets as bitmasks in a linear extension: down(t) is {t}
with the union of down(c) over the words c covered by t.  The extension
is the reversed generation order.  Every statistics table is a popcount
tally over the masks; cover_table counts intervals by the lower covers of
the lower word and the upper covers of the upper one, (des(s), asc(t))
at slope 1.  Every walk over the intervals themselves, the tree walk of
tamari.lattice included, is the one mask scan _walk.

One budget rule covers every exhaustive operation: within_budget compares
the exact size of an enumeration (elements, trees, intervals, faces, tree
pairs), read off its closed formula, with the budget and raises
BudgetExceeded before any of the work.  The default budget comes from the
TAMARI_BUDGET environment variable (fallback 2_000_000).  Engines are not
cached: each view builds its own and frees it when it returns.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Mapping

from .formulas import fuss_catalan, m_tamari_intervals_formula
from .trees import BinaryTree

FALLBACK_BUDGET = 2_000_000
BUDGET_ENV_VAR = "TAMARI_BUDGET"


# ===================================================================
# budgets and statistics tables
# ===================================================================

class BudgetExceeded(RuntimeError):
    """An enumeration would overrun its element/interval budget."""

    def __init__(self, what: str, required, budget: int):
        super().__init__(
            f"{what} needs {required} > budget {budget}"
            f" (raise the budget argument or {BUDGET_ENV_VAR})")
        self.what = what
        self.required = required
        self.budget = budget


def resolve_budget(budget=None) -> int:
    """Explicit argument, else TAMARI_BUDGET, else the built-in fallback."""
    if budget is None:
        budget = int(os.environ.get(BUDGET_ENV_VAR, FALLBACK_BUDGET))
    budget = int(budget)
    if budget <= 0:
        raise ValueError("budget must be positive")
    return budget


def within_budget(what: str, size: int, budget=None) -> None:
    """Refuse an enumeration whose exact size exceeds the budget; call it
    before any of the work."""
    bud = resolve_budget(budget)
    if size > bud:
        raise BudgetExceeded(what, size, bud)


@dataclass(frozen=True)
class StatTable:
    """Counts indexed by a tuple of named statistics."""

    n: int
    axes: tuple
    cells: Mapping

    @property
    def total(self) -> int:
        return sum(self.cells.values())

    def value(self, *key) -> int:
        return self.cells.get(tuple(key), 0)

    def axis_range(self, axis: int) -> range:
        """0..max observed value of the given axis, inclusive."""
        if not self.cells:
            return range(0)
        return range(max(key[axis] for key in self.cells) + 1)

    def marginal(self, axis: int) -> dict:
        out: dict = {}
        for key, count in self.cells.items():
            out[key[axis]] = out.get(key[axis], 0) + count
        return out


# ===================================================================
# Dyck words and the tree bijection
# ===================================================================

def tree_to_dyck(t: BinaryTree) -> str:
    """Recursive bijection: node(l, r) -> word(l) U word(r) D."""
    if t is None:
        return ""
    return tree_to_dyck(t[0]) + "U" + tree_to_dyck(t[1]) + "D"


def _check_dyck(word: str) -> None:
    height = 0
    for step in word:
        if step == "U":
            height += 1
        elif step == "D":
            height -= 1
            if height < 0:
                raise ValueError("not a Dyck word: negative height")
        else:
            raise ValueError(f"not a Dyck word: bad letter {step!r}")
    if height != 0:
        raise ValueError("not a Dyck word: unbalanced")


def dyck_to_tree(word: str) -> BinaryTree:
    """Inverse bijection; rejects words that are not Dyck words."""
    _check_dyck(word)

    def build(w: str) -> BinaryTree:
        if not w:
            return None
        # w = A U B D with A, B Dyck: the final D closes the root U,
        # found by scanning backwards for the first height deficit
        inner = w[:-1]
        height = 0
        for i in range(len(inner) - 1, -1, -1):
            height += 1 if inner[i] == "D" else -1
            if height < 0:
                return (build(inner[:i]), build(inner[i + 1:]))
        raise ValueError("not a Dyck word")

    return build(word)


def valleys(word: str) -> int:
    """Positions where a D step is followed by a U (matches asc)."""
    return sum(1 for a, b in zip(word, word[1:]) if a == "D" and b == "U")


def double_falls(word: str) -> int:
    """Positions where a D step is followed by a D (matches des).

    Counted pairwise, not with str.count: occurrences overlap inside
    runs (DDD holds two double falls).
    """
    return sum(1 for a, b in zip(word, word[1:]) if a == "D" and b == "D")


def contacts(word: str) -> int:
    """Returns to height zero strictly inside the word (matches ell)."""
    height = 0
    hits = 0
    for step in word[:-1]:
        height += 1 if step == "U" else -1
        if height == 0:
            hits += 1
    return hits


# ===================================================================
# m-ballot words and their cover move
# ===================================================================

def _ballot_slope(word: str) -> int:
    """Validate an m-ballot word and return its slope m."""
    if not word:
        raise ValueError("empty word")
    ups = word.count("N")
    downs = word.count("E")
    if ups + downs != len(word):
        raise ValueError("an m-ballot word uses only the letters N and E")
    if ups == 0 or downs % ups:
        raise ValueError("letter counts do not fit any slope")
    m = downs // ups
    height = 0
    for step in word:
        height += m if step == "N" else -1
        if height < 0:
            raise ValueError("not an m-ballot word: negative height")
    return m


def m_tamari_elements(m: int, n: int, budget=None) -> list:
    """All ballot words with n up-steps of slope m, deterministic order."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    within_budget(f"m_tamari_elements({m}, {n})", fuss_catalan(m, n),
                  budget)
    words: list = []

    def extend(prefix: str, ups: int, downs: int, height: int) -> None:
        if not ups and not downs:
            words.append(prefix)
            return
        if ups:
            extend(prefix + "N", ups - 1, downs, height + m)
        if downs and height:
            extend(prefix + "E", ups, downs - 1, height - 1)

    extend("", n, m * n, 0)
    return words


def m_tamari_covers(word: str) -> frozenset:
    """Elements covering the given ballot word (slope read off the word).

    Each EN factor yields one cover: the E is swapped with the shortest
    nonempty factor after it whose total height change is zero.
    """
    m = _ballot_slope(word)
    out = set()
    for i in range(len(word) - 1):
        if word[i] == "E" and word[i + 1] == "N":
            height = 0
            for j in range(i + 1, len(word)):
                height += m if word[j] == "N" else -1
                if height == 0:
                    out.add(word[:i] + word[i + 1:j + 1] + "E" + word[j + 1:])
                    break
    return frozenset(out)


# ===================================================================
# interval engine over ballot words
# ===================================================================

# a slope-1 ballot word read as the Dyck word of its tree
_TO_DYCK = str.maketrans("NE", "UD")


def _m_engine(m: int, n: int, budget=None):
    """(words in a linear extension, upper-cover counts, lower-cover
    counts, down-set masks), refused on the interval count up front."""
    within_budget(f"m_tamari intervals({m}, {n})",
                  m_tamari_intervals_formula(m, n), budget)
    words = m_tamari_elements(m, n, budget)
    # generated N-first, and a cover turns the first letter it changes from
    # E into N: every cover comes earlier, so the reverse is a linear extension
    words.reverse()
    index = {w: i for i, w in enumerate(words)}
    up_degree = [0] * len(words)
    down_lists: list = [[] for _ in words]
    for i, w in enumerate(words):
        above = m_tamari_covers(w)
        up_degree[i] = len(above)
        for y in above:
            down_lists[index[y]].append(i)
    del index  # freed before the masks, which hold nearly all the memory
    down_masks: list = []
    for i in range(len(words)):
        mask = 1 << i
        for j in down_lists[i]:
            mask |= down_masks[j]
        down_masks.append(mask)
    down_degree = tuple(len(lst) for lst in down_lists)
    return tuple(words), tuple(up_degree), down_degree, tuple(down_masks)


def _walk(m: int, n: int, budget, element) -> Iterator[tuple]:
    """Every interval once, upper-major, lower indices ascending, as
    (element(s), element(t), lower covers of s, upper covers of t).

    element is called once per word, not once per interval.  A mask is
    scanned as its reversed binary string, so reading a set bit does not
    rebuild a C_n-bit integer.
    """
    words, up_degree, down_degree, down_masks = _m_engine(m, n, budget)
    values = [element(word) for word in words]
    for ti, mask in enumerate(down_masks):
        upper, up = values[ti], up_degree[ti]
        bits = bin(mask)[:1:-1]
        si = bits.find("1")
        while si >= 0:
            yield values[si], upper, down_degree[si], up
            si = bits.find("1", si + 1)


def _tally(m: int, n: int, budget, lower_key, upper_key) -> dict:
    """{(lower_key(s), upper_key(t)): number of intervals s <= t}.

    A key function sees an element as (word, lower covers, upper covers).
    The elements sharing a lower key share one mask, so every upper
    element costs one popcount per lower class, not one step per interval.
    """
    words, up_degree, down_degree, down_masks = _m_engine(m, n, budget)
    class_mask: dict = {}
    for i, word in enumerate(words):
        key = lower_key(word, down_degree[i], up_degree[i])
        class_mask[key] = class_mask.get(key, 0) | (1 << i)
    classes = tuple(class_mask.items())
    cells: dict = {}
    for ti, word in enumerate(words):
        upper = upper_key(word, down_degree[ti], up_degree[ti])
        down = down_masks[ti]
        for key, mask in classes:
            count = (down & mask).bit_count()
            if count:
                cell = (key, upper)
                cells[cell] = cells.get(cell, 0) + count
    return cells


def _slope_one_ell(word: str) -> int:
    """ell of the tree behind a slope-1 ballot word: its interior contacts."""
    return contacts(word.translate(_TO_DYCK))


def m_tamari_interval_count(m: int, n: int, budget=None) -> int:
    return sum(mask.bit_count() for mask in _m_engine(m, n, budget)[3])


def m_tamari_intervals(m: int, n: int, budget=None) -> Iterator[tuple]:
    """Every interval once, as (lower, upper) ballot words."""
    for lower, upper, _, _ in _walk(m, n, budget, lambda word: word):
        yield lower, upper


def cover_table(m: int, n: int, budget=None) -> StatTable:
    """Intervals counted by (covers below the lower, covers above the upper).

    At slope 1 these are des(s) and asc(t) of the tree interval s <= t.
    """
    return StatTable(n, ("des_lower", "asc_upper"), _tally(
        m, n, budget, lambda word, lower, upper: lower,
        lambda word, lower, upper: upper))


def m_tamari_interval_stats(m: int, n: int, budget=None) -> StatTable:
    """Intervals counted by (covers below the lower) + (covers above the upper).

    At slope 1 this is the des(s) + asc(t) statistic on tree intervals.
    """
    cells: dict = {}
    for (lower, upper), count in cover_table(m, n, budget).cells.items():
        key = (lower + upper,)
        cells[key] = cells.get(key, 0) + count
    return StatTable(n, ("cover_statistic",), cells)
