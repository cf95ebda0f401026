"""Binary trees, Schröder trees, the Tamari order, and tree statistics.

Trees are immutable nested tuples.  ``None`` is a leaf (empty subtree); a
binary node is a pair ``(left, right)``; a Schröder node is a tuple of at
least two children.  Binary trees are therefore exactly the Schröder trees
all of whose nodes have two children, and one serializer covers both.

Claims implemented here (each one is exercised by the test suite):

* des(t) + asc(t) = n - 1 for every binary tree with n nodes: every
  internal edge points either to a left child (ascent) or a right child
  (descent).
* tamari_leq is the Tamari order: the reflexive-transitive closure of the
  right-rotation relation.  It is computed via bracket vectors (node i
  maps to i + size of its right subtree, inorder labels) and agrees with
  reachability in the rotation digraph, searched down from t by
  tamari.lattice.rotation_down_set.
* The canopy of a tree with n nodes is the word in {-,+}^(n-1) whose jth
  letter is '-' exactly when the jth node (inorder) has an empty right
  subtree.  It has asc(t) minus signs and des(t) plus signs, and is
  monotone along the Tamari order.
* A Schröder tree f stands for a face of the associahedron of dimension
  leaves(f) - 1 - internal_nodes(f); min_tree/max_tree (left/right comb
  expansions) are the Tamari-minimal/maximal binary refinements of f.
* Contracting internal edges of a Schröder tree merges a child's children
  into its parent's child list; the faces strictly containing f correspond
  to its nonempty edge contractions, and the facet-level ones (exactly two
  internal nodes) are in bijection with the internal edges of f: each is
  named by the leaf span of its inner node, the span of the kept edge.
"""
from __future__ import annotations

from typing import Optional

BinaryTree = Optional[tuple]
SchroederTree = Optional[tuple]


# ===================================================================
# descent / ascent statistics and rotations
# ===================================================================

def des(t: BinaryTree) -> int:
    """Number of right-child edges = number of trees covered by t."""
    if t is None:
        raise ValueError("des() requires a nonempty binary tree")
    return _des(t)


def _des(t: BinaryTree) -> int:
    if t is None:
        return 0
    left, right = t
    return _des(left) + _des(right) + (right is not None)


def asc(t: BinaryTree) -> int:
    """Number of left-child edges = number of trees covering t."""
    if t is None:
        raise ValueError("asc() requires a nonempty binary tree")
    return _asc(t)


def _asc(t: BinaryTree) -> int:
    if t is None:
        return 0
    left, right = t
    return _asc(left) + _asc(right) + (left is not None)


def rotations_up(t: BinaryTree) -> frozenset:
    """Trees covering t: one right rotation (l, m)·r -> l·(m, r) per ascent."""
    return frozenset(_rotations(t, True))


def rotations_down(t: BinaryTree) -> frozenset:
    """Trees covered by t: one left rotation l·(m, r) -> (l, m)·r per descent."""
    return frozenset(_rotations(t, False))


def _rotations(t: BinaryTree, up: bool):
    if t is None:
        return
    left, right = t
    if up and left is not None:
        a, b = left
        yield (a, (b, right))
    if not up and right is not None:
        rl, rr = right
        yield ((left, rl), rr)
    for sub in _rotations(left, up):
        yield (sub, right)
    for sub in _rotations(right, up):
        yield (left, sub)


# ===================================================================
# the Tamari order
# ===================================================================

def bracket_vector(t: BinaryTree) -> tuple:
    """Vector whose ith entry is i + size of the right subtree of node i.

    Nodes are labeled 1..n in inorder.  A tree s is below t in the Tamari
    order exactly when its vector is componentwise at most that of t.
    """
    out: list = []

    def walk(t: BinaryTree, base: int) -> int:
        if t is None:
            return 0
        left, right = t
        nl = walk(left, base)
        i = base + nl + 1
        nr = walk(right, i)
        out.append((i, i + nr))
        return nl + 1 + nr

    walk(t, 0)
    out.sort()
    return tuple(v for _, v in out)


def tamari_leq(s: BinaryTree, t: BinaryTree) -> bool:
    """True iff s <= t in the Tamari order (componentwise bracket vectors)."""
    vs, vt = bracket_vector(s), bracket_vector(t)
    if len(vs) != len(vt):
        raise ValueError(
            f"tree sizes differ: {len(vs)} vs {len(vt)} nodes")
    return _bracket_leq(vs, vt)


def _bracket_leq(vs: tuple, vt: tuple) -> bool:
    """The Tamari order on two bracket vectors of one size."""
    return all(a <= b for a, b in zip(vs, vt))


# ===================================================================
# canopy
# ===================================================================

def canopy(t: BinaryTree) -> str:
    """Word in {-,+}^(n-1): jth letter '-' iff node j has empty right subtree.

    The trailing node (the last one in inorder, whose right subtree is
    always empty) carries no letter.
    """
    if t is None:
        raise ValueError("canopy() requires a nonempty binary tree")
    flags: list = []

    def walk(t: BinaryTree) -> None:
        if t is None:
            return
        left, right = t
        walk(left)
        flags.append(right is None)
        walk(right)

    walk(t)
    return "".join("-" if empty else "+" for empty in flags[:-1])


# ===================================================================
# left branch
# ===================================================================

def ell(t: BinaryTree) -> int:
    """Number of edges on the path from the root to the leftmost leaf."""
    if t is None:
        raise ValueError("ell() requires a nonempty binary tree")
    k = 0
    while t[0] is not None:
        t = t[0]
        k += 1
    return k


# ===================================================================
# Schröder trees as faces: comb refinements and contractions
# ===================================================================

def min_tree(f: SchroederTree) -> BinaryTree:
    """Tamari-minimal binary refinement: left-comb each node's children."""
    if f is None:
        return None
    kids = [min_tree(c) for c in f]
    acc = kids[0]
    for c in kids[1:]:
        acc = (acc, c)
    return acc


def max_tree(f: SchroederTree) -> BinaryTree:
    """Tamari-maximal binary refinement: right-comb each node's children."""
    if f is None:
        return None
    kids = [max_tree(c) for c in f]
    acc = kids[-1]
    for c in reversed(kids[:-1]):
        acc = (c, acc)
    return acc


def edge_spans(t: BinaryTree) -> list:
    """[(span, kind)] per internal edge of a binary tree, inorder of child.

    The span of an edge is the leaf interval (first, last) covered by the
    child subtree, with leaves numbered 0..n from the left.  kind is '+'
    for a right child (descent edge) and '-' for a left child (ascent
    edge).  Spans identify edges unambiguously: contracting every edge but
    one yields the two-internal-node Schröder tree determined by the span.
    """
    out: list = []

    def walk(t: BinaryTree, a: int) -> int:
        if t is None:
            return 1
        left, right = t
        lw = walk(left, a)
        rw = walk(right, a + lw)
        if left is not None:
            out.append(((a, a + lw - 1), "-"))
        if right is not None:
            out.append(((a + lw, a + lw + rw - 1), "+"))
        return lw + rw

    walk(t, 0)
    return out


def descent_spans(t: BinaryTree) -> frozenset:
    return frozenset(sp for sp, kind in edge_spans(t) if kind == "+")


def ascent_spans(t: BinaryTree) -> frozenset:
    return frozenset(sp for sp, kind in edge_spans(t) if kind == "-")


def span_masks(t: BinaryTree) -> tuple:
    """(descent spans, ascent spans) of t as int bitmasks.

    The span (a, b) of edge_spans is bit b(b+1)/2 + a.  The index does not
    depend on the tree size, so set operations on the spans of two trees
    become bit operations on their masks.
    """
    masks = {"+": 0, "-": 0}
    for (a, b), kind in edge_spans(t):
        masks[kind] |= 1 << (b * (b + 1) // 2 + a)
    return masks["+"], masks["-"]


def contract_spans(f: SchroederTree, spans) -> SchroederTree:
    """Contract the internal edges of f whose child spans lie in `spans`.

    Contracting an edge merges the child's children into the parent's
    child list in place of the child.  Spans are leaf intervals as in
    edge_spans; edges not listed are kept.
    """
    spans = frozenset(spans)

    def walk(f: SchroederTree, a: int):
        if f is None:
            return None, 1
        kids: list = []
        width = 0
        for child in f:
            sub, w = walk(child, a + width)
            if sub is None:
                kids.append(None)
            elif (a + width, a + width + w - 1) in spans:
                kids.extend(sub)
            else:
                kids.append(sub)
            width += w
        return tuple(kids), width

    node, _ = walk(f, 0)
    return node


def internal_edge_spans(f: SchroederTree) -> frozenset:
    """Leaf spans of the non-root internal nodes of a Schröder tree."""
    spans: list = []

    def walk(f: SchroederTree, a: int, is_root: bool) -> int:
        if f is None:
            return 1
        width = 0
        for child in f:
            width += walk(child, a + width, False)
        if not is_root:
            spans.append((a, a + width - 1))
        return width

    walk(f, 0, True)
    return frozenset(spans)


# ===================================================================
# serialization and canonical order
# ===================================================================

def serialize(t: SchroederTree) -> str:
    """Canonical string form: empty tree '·', node '(c1,...,cp)'.

    Empty children are rendered as empty strings, so the single binary
    node is '(,)' and the corolla on 3 leaves is '(,,)'.
    """
    if t is None:
        return "·"
    return _serialize(t)


def _serialize(t: SchroederTree) -> str:
    if t is None:
        return ""
    return "(" + ",".join(_serialize(c) for c in t) + ")"


def parse_tree(text: str) -> SchroederTree:
    """Inverse of serialize; accepts '.' as an ASCII alias for '·'."""
    s = text.strip()
    if s in ("·", "."):
        return None
    pos = 0

    def node() -> tuple:
        nonlocal pos
        if pos >= len(s) or s[pos] != "(":
            raise ValueError(f"expected '(' at position {pos} in {text!r}")
        pos += 1
        kids: list = []
        while True:
            if pos < len(s) and s[pos] == "(":
                kids.append(node())
            else:
                kids.append(None)
            if pos < len(s) and s[pos] == ",":
                pos += 1
                continue
            if pos < len(s) and s[pos] == ")":
                pos += 1
                break
            raise ValueError(f"expected ',' or ')' at position {pos} in {text!r}")
        if len(kids) < 2:
            raise ValueError("every internal node needs at least 2 children")
        return tuple(kids)

    out = node()
    if pos != len(s):
        raise ValueError(f"trailing characters at position {pos} in {text!r}")
    return out
