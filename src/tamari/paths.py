"""Dyck paths, the tree bijection, m-ballot lattices, and the interval engine.

Claims implemented here, all cross-checked by the test suite:

  * the recursive bijection trees -> Dyck words sends the tree statistics
    (asc, des, ell) to (valleys, double falls, interior contacts);
  * read with each N as m up-steps, the m-ballot words with n N's are
    an upper ideal of the Tamari lattice T_{mn} (_ballot_tree), and the
    engine's cover move, an EN factor's E swapped with the shortest
    following balanced factor, is the tree rotation there; at m = 1
    the lattice is the Tamari lattice itself.

Paths are plain strings: 'U'/'D' for Dyck words, 'N'/'E' for m-ballot
words (an N gains m units of height, an E loses one).  One stack reader
reads and checks either kind in one pass (dyck_to_tree, _ballot_tree);
the recursive tree_to_dyck shares no code with it and is its oracle.

The interval engine of every slope, the Tamari lattice's included,
streams down-sets as bitmasks in a linear extension: down(t) is {t} with
the union of down(c) over the words c covered by t.  Inside the engine a
ballot word is an int (N = 1, first letter most significant), and one
depth-first pass generates the words with their upper covers; ascending
int order, the reverse of that N-first generation order
(m_tamari_elements' order), is the extension.  Each cover's index is
ranked, not looked up: the words generated before a word are counted by
ballot completion counts, summed over its E's, and a cover changes only
the terms of the letters it moves, so its index is the word's plus a
difference the pass carries, known as soon as the factor it moves
closes.  No table of the words is held.  The covers are one flat
array of C ints, each word's block after the previous word's, with the
block lengths (the upper-cover counts) in a list.  OR works bit by bit,
so the masks cut to a window of lower indices [lo, hi) obey the same
recurrence: the engine builds the words and the cover array once, then
runs the recurrence once per window of at most WINDOW_BITS = 4,096
indices, walking the array with a running offset and holding
window-wide masks of at most 512 bytes only; the width halves while C
masks of it would span more than WINDOW_BYTES, so the first window,
where every word may be gathering a mask, stays bounded as C grows
(from C > 2^21, n = 14 at slope 1).  The bytes OR-ed are about the same
at any width, since each row ORs the window's members below it: a
narrower width means more windows but fewer and smaller masks alive at
once.  Each finished mask is OR-ed into the masks its upper covers
are gathering, and a gathered mask is freed when its own word takes it,
so only the masks owed to a later word stay alive.  Most of those ORs
add no bit, so a gathering slot keeps whichever object already is the
union, its own or the pushed one: equal masks stay one object instead of
piling up as copies (at slope 3 and n = 7, 361,103 rows hold 79,291
values in 82,561 objects).  Every view frees the words before the first
window, once it has read them into its keys or values.  Every
statistics table is the one tally _tally over the windows: per upper
key, a binary counter per element of the window held as bit planes,
into which the down-set masks are added eight at a time by carry-save
adders (Harley-Seal), only the weight-8 carry rippling into the higher
planes; a window's cells are read at its end by one popcount
per plane, waiting mask and lower class, and summed over the windows.
The planes are padded to the window width, so a new plane reuses the
block of the one it replaces and peak memory stays flat.
cover_table counts intervals by the lower covers of the lower word and
the upper covers of the upper one, (des(s), asc(t)) at slope 1.  Every
walk over the intervals themselves, the tree walk of tamari.lattice
included, is the one mask scan _walk over the same windows.  The cover
oracle of every slope is trees.rotations_up of the word's tree.

One budget rule covers every exhaustive operation: within_budget compares
the exact size of an enumeration (elements, trees, intervals, faces, tree
pairs), read off its closed formula, with the budget and raises
BudgetExceeded before any of the work, and up_to checks the largest row
of a command over n = 1..nmax before the first.  The default budget is
TAMARI_BUDGET from the environment (fallback 2_000_000).  Nothing is
cached: each view runs its own engine, which holds no mask once it ends.
"""
from __future__ import annotations

import os
from array import array
from itertools import accumulate
from typing import Iterator, Mapping, NamedTuple

from .formulas import fuss_catalan, m_tamari_intervals_formula
from .trees import BinaryTree

FALLBACK_BUDGET = 2_000_000
BUDGET_ENV_VAR = "TAMARI_BUDGET"
# the most lower indices one down-set mask of the engine spans, 512 bytes:
# a narrower window means more passes over the covers but fewer and smaller
# live gathering masks.  At slope 3 and n = 7, 4 Kbit windows peak near the
# generating pass (4.5 against 4.1 MB traced); 8 Kbit ones peaked at 10 MB
WINDOW_BITS = 1 << 12
# the most bytes C masks of one window's width may span: in the first window
# every word may gather a mask at once, as each holds the bottom word.
# It first binds at C > 2^21, n = 14 at slope 1.
WINDOW_BYTES = 1 << 30


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
    """Explicit argument, else TAMARI_BUDGET, else the built-in fallback.

    A value that is not a positive integer is refused by its source and
    value."""
    source = f"budget {budget!r}"
    if budget is None:
        value = os.environ.get(BUDGET_ENV_VAR, FALLBACK_BUDGET)
        source = f"{BUDGET_ENV_VAR}={value!r}"
        try:
            budget = int(value)
        except ValueError:
            raise ValueError(f"{source} is not an integer") from None
    elif isinstance(budget, bool) or not isinstance(budget, int):
        raise ValueError(f"{source} is not an integer")
    if budget <= 0:
        raise ValueError(f"{source} is not positive")
    return budget


def within_budget(what: str, size: int, budget=None) -> None:
    """Refuse an enumeration whose exact size exceeds the budget; call it
    before any of the work."""
    bud = resolve_budget(budget)
    if size > bud:
        raise BudgetExceeded(what, size, bud)


def up_to(nmax: int, what: str, size, budget=None) -> range:
    """Rows 1..nmax, after refusing row nmax, of size(nmax), on the budget."""
    within_budget(what.format(nmax), size(nmax), budget)
    return range(1, nmax + 1)


def intervals_of(m: int) -> tuple:
    """(what, size) of the slope-m engine's intervals, as up_to takes them."""
    return (f"m_tamari intervals({m}, {{}})",
            lambda n: m_tamari_intervals_formula(m, n))


class StatTable(NamedTuple):
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


def _read_tree(word: str, up: str, down: str, steps: int) -> BinaryTree:
    """The tree (tree(A), tree(B)) of A U B D, read left to right with each
    letter up as steps U's and each down as a D: each U pushes the tree
    read so far (a letter's further U's push empty ones) and each D pops
    its left subtree.  Bad letters, a D at height 0 and an unfinished word
    are refused."""
    pad = (None,) * (steps - 1)
    pending: list = []
    tree = None
    for letter in word:
        if letter == up:
            pending.append(tree)
            pending += pad
            tree = None
        elif letter == down:
            if not pending:
                raise ValueError("not a Dyck word: negative height")
            tree = (pending.pop(), tree)
        else:
            raise ValueError(f"not a Dyck word: bad letter {letter!r}")
    if pending:
        raise ValueError("not a Dyck word: unbalanced")
    return tree


def dyck_to_tree(word: str) -> BinaryTree:
    """Inverse bijection; rejects words that are not Dyck words."""
    return _read_tree(word, "U", "D", 1)


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
# m-ballot words, their covers, and their trees in T_{mn}
# ===================================================================

def _ballot_lattice(m: int, n: int) -> tuple:
    """(words, upper, covers): every ballot word with n up-steps of slope m
    as an int, N = 1 and the first letter most significant, in ascending
    order, upper[t] the number of words covering words[t], and covers the
    indices of those words, word by word: the upper[t] covers of word t
    follow those of word t - 1.

    A cover turns the first letter it changes from E into N, so it is a
    larger int: ascending order is a linear extension of the lattice.  The
    words are generated depth first, N before E, so in descending order.
    Each EN factor stays pending until a later E brings the height back
    down to the base of its N.  Its cover moves the letters from that N
    to this E, a balanced factor F, one place up, over the E of the
    factor: E F becomes F E.

    A cover's index is ranked, not looked up.  With completions[r][h] the
    ballot suffixes with r N's left from height h, the words generated
    before a word are the sum, over its E's, of completions[r - 1][h + m]
    at the state (r, h) just before the E: those with an N there instead.
    So its index is C - 1 less that sum.  E F -> F E changes only the
    terms of those letters: the E's term (head) leaves, F's E's are read
    one unit higher, and the moved E adds the term of its new state
    (tail).  The pass carries the running difference of the sums at h and
    at h + 1, each pending factor holds head less that difference at its
    N, and the cover's index is the word's plus head, plus F's share of
    the difference, less tail, known once the closing E is placed.
    """
    count = fuss_catalan(m, n)
    # completions[r][h] = completions[r - 1][h + m] + completions[r][h - 1],
    # for h up to (n - r)·m + 1, the highest any state reads
    completions = [[1] * (n * m + 2)]
    for _ in range(n - 1):
        completions.append(list(accumulate(completions[-1][m:])))
    words: list = []
    upper: list = []
    # one C int per cover: a tuple per word would hold a pointer and an
    # int object per cover.  Appended one by one, as extending the array
    # by a list was slower
    covers = array("i")
    cover = covers.append

    def extend(word, bit, height, ups, pending, deltas, drop):
        # word holds the letters so far in their final places, and bit is
        # the place of the next one; drop sums, over the E's so far, the
        # term at h less the term at h + 1; pending stacks (base, head
        # less drop at its N) per open EN factor, the innermost on top;
        # deltas holds the closed factors' cover index less the word's
        if not ups:
            # only E's are left, each with no term, and each open factor
            # ends at its base with no tail
            while pending:
                deltas += (pending[1] + drop,)
                pending = pending[2]
            words.append(word)
            index = count - len(words)
            upper.append(len(deltas))
            for delta in deltas:
                cover(index + delta)
            return
        below = completions[ups - 1]
        if word & bit << 1:
            extend(word | bit, bit >> 1, height + m, ups - 1,
                   pending, deltas, drop)
        else:
            # the E just placed, from height + 1, heads a factor
            extend(word | bit, bit >> 1, height + m, ups - 1,
                   (height, below[height + m + 1] - drop, pending),
                   deltas, drop)
        if height:
            # this E's term; if it closes a factor, the moved E takes this
            # state, so the term is also the cover's tail
            term = below[height + m]
            drop += term - below[height + m + 1]
            height -= 1
            if pending and pending[0] == height:
                extend(word, bit >> 1, height, ups, pending[2],
                       deltas + (pending[1] + drop - term,), drop)
            else:
                extend(word, bit >> 1, height, ups, pending, deltas, drop)

    top = 1 << (n * (m + 1) - 1)
    extend(top, top >> 1, m, n - 1, None, (), 0)
    # the closure holds itself; unbound, it frees its cells on return
    del extend
    # reversed whole, each word's block of covers stays contiguous
    words.reverse()
    upper.reverse()
    covers.reverse()
    return words, upper, covers


# an int ballot word's binary digits read as its letters
_TO_LETTERS = str.maketrans("10", "NE")


def _render(word: int) -> str:
    """The letters of an int ballot word; its first letter N is its top bit."""
    return bin(word)[2:].translate(_TO_LETTERS)


def _ballot_tree(m: int, word: str) -> BinaryTree:
    """A slope-m ballot word read as its tree in T_{mn}: the tree of the
    Dyck word with each N read as m U's and each E as a D.

    The words with n N's map onto an upper ideal of the Tamari lattice
    T_{mn}, with the order and the covers induced (Bousquet-Mélou, Fusy
    and Préville-Ratelle 2011), so tamari_leq and rotations_up of these
    trees are the order and the covers of every slope.
    """
    return _read_tree(word, "N", "E", m)


def _slope_one_ell(word: int) -> int:
    """ell of the slope-1 int ballot word's tree: the interior contacts of
    its letters read as a Dyck word, without building the tree."""
    return contacts(_render(word).replace("N", "U").replace("E", "D"))


def m_tamari_elements(m: int, n: int, budget=None) -> list:
    """All ballot words with n up-steps of slope m, deterministic order
    (N-first generation order, the reverse of the engine's)."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    within_budget(f"m_tamari_elements({m}, {n})", fuss_catalan(m, n),
                  budget)
    words, _, _ = _ballot_lattice(m, n)
    return [_render(word) for word in reversed(words)]


# ===================================================================
# interval engine over ballot words
# ===================================================================

def _window_width(count: int) -> int:
    """WINDOW_BITS, masks of 512 bytes, halved while count masks of that
    width would span more than WINDOW_BYTES: first for count > 2^21, at
    n = 14 at slope 1 (2,048 bits)."""
    width = WINDOW_BITS
    while width > 1 and count * width > 8 * WINDOW_BYTES:
        width //= 2
    return width


def _m_engine(m: int, n: int, budget=None) -> tuple:
    """The slope-m lattice on n up-steps as (words, lower, upper, windows),
    refused on the interval count before any word is generated.

    words lists the int ballot words in a linear extension, and lower[t]
    and upper[t] count the covers below and above words[t].  The indices
    are split into equal windows [lo, hi) of at most _window_width(C)
    indices, and windows yields (lo, hi, rows) for each in turn.  rows
    streams (t, mask) in index order for every t >= lo whose down-set
    meets the window: bit s - lo of the mask is set for each s <= t in
    [lo, hi).  One window yields every t, with its whole down-set.

    OR works bit by bit, so a window's masks obey the whole recurrence:
    down(t) is bit t with the union of down(s) over the words s covered
    by t, and a word below the window has the zero mask there.  Each
    finished mask is OR-ed into the masks its upper covers are gathering,
    freed when its own word takes it; an OR that adds no bit stores no
    new int (_window).  The flat cover array comes with
    the words, from the one generating pass, and serves every window; the
    peak holds the gathered masks of one window.
    """
    what, size = intervals_of(m)
    within_budget(what.format(n), size(n), budget)
    words, upper, covers = _ballot_lattice(m, n)
    lower = [0] * len(words)
    for c in covers:
        lower[c] += 1
    count = len(words)
    parts = -(-count // _window_width(count))
    bounds = [(count * i // parts, count * (i + 1) // parts)
              for i in range(parts)]
    return (words, lower, upper,
            ((lo, hi, _window(upper, covers, lo, hi)) for lo, hi in bounds))


def _window(upper, covers, lo, hi) -> Iterator[tuple]:
    """The rows of window [lo, hi) of _m_engine.

    gathering[t] ORs the masks of the words t covers until t takes it;
    the covers of word t start where those of the words before it end.
    A slot keeps whichever object already is the union, the mask it holds
    or the one pushed into it, and a fresh int is stored only when both
    add bits: most pushes add none, so equal masks stay one object and
    many words' rows share it.
    """
    count = len(upper)
    gathering = [0] * count
    # a slice of a view reads the array in place; slicing the array
    # itself copies each word's covers into a new array first
    covers = memoryview(covers)
    end = sum(upper[:lo])
    for t in range(lo, count):
        start = end
        end += upper[t]
        mask = gathering[t]
        gathering[t] = 0
        if t < hi:
            mask |= 1 << (t - lo)
        if mask:
            for c in covers[start:end]:
                held = gathering[c]
                if not held:
                    gathering[c] = mask
                elif held is not mask:
                    union = mask | held
                    if union != held:
                        gathering[c] = mask if union == mask else union
            yield t, mask


def _walk(m: int, n: int, budget, element) -> Iterator[tuple]:
    """Every interval once, as (element(s), element(t), lower covers of s,
    upper covers of t): window by window, upper-major within a window,
    lower indices ascending.  With one window (C <= WINDOW_BITS) this is
    upper-major over all the intervals.

    element is called once per word, before the first window, not once
    per interval.  Each window mask is scanned as its reversed binary
    string, so reading a set bit does not rebuild a wide integer.
    """
    words, lower, upper, windows = _m_engine(m, n, budget)
    values = [element(_render(word)) for word in words]
    del words
    for lo, _, rows in windows:
        # bit si of a window mask is the word lo + si
        below, down = values[lo:], lower[lo:]
        for ti, mask in rows:
            value, up = values[ti], upper[ti]
            bits = bin(mask)[:1:-1]
            si = bits.find("1")
            while si >= 0:
                yield below[si], value, down[si], up
                si = bits.find("1", si + 1)


def _csa(a: int, b: int, c: int) -> tuple:
    """A carry-save adder, bit by bit: (carry, sum) of a + b + c."""
    u = a ^ b
    return (a & b) | (u & c), u ^ c


def _tally(m: int, n: int, budget, key) -> dict:
    """{(lower key of s, upper key of t): number of intervals s <= t}.

    key sees an element as (int word, lower covers, upper covers) and
    returns its (lower key, upper key) pair, so a statistic both keys
    read is computed once per word.  It runs once per word, before the
    first window; the words and lower cover counts are freed then.  Each
    upper key keeps a binary counter per element s of the window, stored
    as bit planes: plane j holds bit j of the number of that key's
    down-set masks that contain s.  The masks are added eight at a time,
    by carry-save (Harley-Seal): seven carry-save adders fold a block of
    eight masks into planes 0, 1 and 2, and only their weight-8 carry is
    rippled into plane 3 and up.  So an upper element costs a few ^ and &
    operations, not one step per interval or one popcount per lower
    class.  At the end of a window
    each lower class, a mask over all words, is shifted into the window,
    and a cell gains one popcount per lower class and per plane or mask
    still waiting for its block.

    Every plane carries a top bit at index hi - lo that no mask or carry
    sets, so each plane keeps one width and the plane that replaces it
    fits the block it frees.
    """
    words, lower, upper, windows = _m_engine(m, n, budget)
    # each lower class as a bitmap of C bits, read as one int at the end:
    # a word sets one bit in place, where an OR would rebuild a C-bit int
    size = (len(words) + 7) >> 3
    bitmaps: dict = {}
    upper_ids: dict = {}
    slot: list = []
    for t, word in enumerate(words):
        lower_key, upper_key = key(word, lower[t], upper[t])
        bitmap = bitmaps.get(lower_key)
        if bitmap is None:
            bitmap = bitmaps[lower_key] = bytearray(size)
        bitmap[t >> 3] |= 1 << (t & 7)
        slot.append(upper_ids.setdefault(upper_key, len(upper_ids)))
    del words, lower
    lower_class = {lower_key: int.from_bytes(bitmap, "little")
                   for lower_key, bitmap in bitmaps.items()}
    del bitmaps
    cells: dict = {}
    for lo, hi, rows in windows:
        top = 1 << (hi - lo)
        counters: list = [[top, top, top] for _ in upper_ids]
        waiting: list = [[] for _ in upper_ids]
        for t, mask in rows:
            i = slot[t]
            block = waiting[i]
            block.append(mask)
            if len(block) < 8:
                continue
            planes = counters[i]
            d0, d1, d2, d3, d4, d5, d6, d7 = block
            block.clear()
            ones, twos, fours = planes[:3]
            twos_a, ones = _csa(ones, d0, d1)
            twos_b, ones = _csa(ones, d2, d3)
            fours_a, twos = _csa(twos, twos_a, twos_b)
            twos_a, ones = _csa(ones, d4, d5)
            twos_b, ones = _csa(ones, d6, d7)
            fours_b, twos = _csa(twos, twos_a, twos_b)
            carry, fours = _csa(fours, fours_a, fours_b)
            planes[:3] = ones, twos, fours
            j = 3
            while carry:
                if j == len(planes):
                    planes.append(carry | top)
                    break
                plane = planes[j]
                planes[j] = plane ^ carry
                carry &= plane
                j += 1
        window = [(lower_key, members >> lo & (top - 1))
                  for lower_key, members in lower_class.items()]
        for upper_class, i in upper_ids.items():
            parts = [(plane, j) for j, plane in enumerate(counters[i])]
            parts += [(mask, 0) for mask in waiting[i]]
            for lower_key, members in window:
                count = sum((part & members).bit_count() << j
                            for part, j in parts)
                if count:
                    cells[lower_key, upper_class] = (
                        cells.get((lower_key, upper_class), 0) + count)
    return cells


def m_tamari_interval_count(m: int, n: int, budget=None) -> int:
    # the windows alone, so the words are freed before the first
    windows = _m_engine(m, n, budget)[3]
    return sum(mask.bit_count() for _, _, rows in windows for _, mask in rows)


def m_tamari_intervals(m: int, n: int, budget=None) -> Iterator[tuple]:
    """Every interval once, as (lower, upper) ballot words."""
    for lower, upper, _, _ in _walk(m, n, budget, lambda word: word):
        yield lower, upper


def cover_table(m: int, n: int, budget=None) -> StatTable:
    """Intervals counted by (covers below the lower, covers above the upper).

    At slope 1 these are des(s) and asc(t) of the tree interval s <= t.
    """
    return StatTable(n, ("des_lower", "asc_upper"), _tally(
        m, n, budget, lambda word, lower, upper: (lower, upper)))


def m_tamari_interval_stats(m: int, n: int, budget=None) -> StatTable:
    """Intervals counted by (covers below the lower) + (covers above the upper).

    At slope 1 this is the des(s) + asc(t) statistic on tree intervals.
    """
    cells: dict = {}
    for (lower, upper), count in cover_table(m, n, budget).cells.items():
        key = (lower + upper,)
        cells[key] = cells.get(key, 0) + count
    return StatTable(n, ("cover_statistic",), cells)
