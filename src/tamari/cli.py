"""Command-line surface: reference tables, verification suites, evaluation.

    tamari table <name> [--nmax N] [--mmax M] [--format csv|json]
                 [--budget B] [--out PATH]
    tamari verify <suite> [--nmax N] [--order N] [--mode MODE]
                 [--budget B] [--out PATH]
    tamari eval <expr> <args...>

Tables reproduce the reference layouts exactly (rows indexed by n, columns
by the statistic, empty cells where a row is shorter): a, b, internal,
m-intervals, m-stats, refined-ell, refined-pq, face-dims; refined-pq and
face-dims from one solve of the canopy-pair series (series.canopy_rows),
face-dims at (x + 1, y + 1).

Verification suites cross-check independent computation routes and print a
JSON report: order-oracle, canopy, dyck, catalytic, polynomial, pde,
telescoped, chu-vandermonde, euler, fusy-humbert, decompositions,
internal-cross, slope-m, invariants.  Each check scans all of its inputs
and reports its own first failure.  The acceptance gates of
tests/test_acceptance.py are lists of these runs; slope-m and invariants,
like chu-vandermonde, read no option and run at the gates' own sizes,
with their frozen values.  Every table and suite reads only the options
TABLES or SUITES declares for it, with their defaults and smallest
meaningful values; another option, or a value below that minimum, is a
usage error.

Exit status: 0 success, 2 usage error (an --out path that cannot be
written included), 3 budget exceeded (refused before any work; a
command over n = 1..nmax on its largest row), 4 verification or
internal self-check failure.  Output goes to a temporary file and is
copied to stdout or --out only once complete, so a refused run or a
failed self-check writes none.  Every command is deterministic; progress
goes to stderr only, one line per enumerated row from n = 7 (none from
tables internal, refined-pq and face-dims, which enumerate nothing, nor
slope-m, whose grid of small (m, n) lattices has no rows).  The suites
build every enumerated row themselves: verify catalytic and fusy-humbert
hand theirs to tamari.series, which only solves and checks.
"""
from __future__ import annotations

import argparse
import json
import os
import random
import sys
from itertools import accumulate, product

from .diagonal import (
    DECOMPOSITION_MODES,
    decomposition_report,
    diagonal_fvector,
    diagonal_fvector_direct,
    internal_fvector,
    internal_fvector_direct,
)
from .formulas import (
    A,
    B,
    a_formula,
    b_formula,
    binomial,
    catalan,
    chu_vandermonde_check,
    chu_vandermonde_sides,
    face_count_formula,
    fuss_catalan,
    interval_count_formula,
    internal_row_products,
    internal_rows,
    interval_row_polynomial,
    m_tamari_intervals_formula,
    new_interval_formula,
    refined_formulas,
    specialization_suite,
    synchronized_formula,
    telescoped_recurrence_check,
    term_row,
    two_term_recurrence_check,
)
from .lattice import (
    BudgetExceeded,
    _interval_walk,
    all_trees,
    contact_cells,
    interval_histogram,
    interval_stats_refined,
    intervals,
    rotation_down_set,
)
from .paths import (
    _ballot_lattice,
    _ballot_tree,
    _render,
    contacts,
    cover_table,
    double_falls,
    dyck_to_tree,
    intervals_of,
    m_tamari_elements,
    m_tamari_interval_count,
    m_tamari_interval_stats,
    m_tamari_intervals,
    tree_to_dyck,
    up_to,
    valleys,
    within_budget,
)
from .polys import MonomialPolynomial, ZPolynomial
from .series import (
    canopy_cell_products,
    canopy_cells,
    canopy_rows,
    catalytic_equation_check,
    fusy_humbert_check,
    newton_solve,
    quartic_equation,
    substitute,
    verify_parametrization,
    verify_pde,
)
from .trees import (
    _bracket_leq,
    asc,
    bracket_vector,
    canopy,
    des,
    ell,
    rotations_up,
    serialize,
)

EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

CHU_SEED = 271828  # fixed so the randomized grid is reproducible


def _rows(command: str, nmax: int, what: str, size, budget):
    """up_to's rows, each announced on stderr from n = 7."""
    for n in up_to(nmax, what, size, budget):
        if n >= 7:
            print(f"tamari: {command} n={n}", file=sys.stderr, flush=True)
        yield n


# ===================================================================
# tables
#
# A table is (header, rows); a row is a list of cells where None
# renders as an empty cell.
# ===================================================================

def _grid(names: list, column: str, width: int, rows,
          total: bool = True) -> tuple:
    """The table of (prefix, cells, total) rows: width column=k columns,
    then a total column if total is set.  Rows are padded with None to
    the width, the staircase shape of the reference tables, one at a time
    as they are read, so no list of rows is held; each builder declares
    the width from its options, and a longer row is a RuntimeError."""
    def padded():
        for prefix, cells, end in rows:
            if len(cells) > width:
                raise RuntimeError(f"a row of {len(cells)} cells in a table "
                                   f"of width {width}")
            yield prefix + cells + [None] * (width - len(cells)) \
                + [end] * total

    header = names + [f"{column}={k}" for k in range(width)]
    return header + ["total"] * total, padded()


def _table_a(nmax: int) -> tuple:
    return _grid(["n"], "k", nmax, (
        ([n], term_row(A, n), interval_count_formula(n))
        for n in range(1, nmax + 1)))


def _table_b(nmax: int) -> tuple:
    return _grid(["n"], "k", nmax, (
        ([n], term_row(B, n), None)
        for n in range(1, nmax + 1)), total=False)


def _table_internal(nmax: int, budget) -> tuple:
    within_budget(f"internal_rows({nmax}) products",
                  internal_row_products(nmax), budget)
    return _grid(["n"], "k", nmax, (
        ([n], row, sum(row)) for n, row in enumerate(internal_rows(nmax), 1)))


def _table_m_intervals(nmax: int, mmax: int) -> tuple:
    header = ["n"] + [f"m={m}" for m in range(1, mmax + 1)]
    rows = ([n] + [m_tamari_intervals_formula(m, n)
                   for m in range(1, mmax + 1)]
            for n in range(1, nmax + 1))
    return header, rows


def _table_m_stats(nmax: int, mmax: int, budget) -> tuple:
    def rows():
        for m in range(1, mmax + 1):
            for n in _rows(f"table m-stats m={m}", nmax,
                           *intervals_of(mmax), budget):
                table = m_tamari_interval_stats(m, n, budget)
                yield ([m, n], [table.value(k) for k in table.axis_range(0)],
                       table.total)
    # a slope-1 row has n cells, a slope-m row (m >= 2) 2n - 1
    return _grid(["m", "n"], "k", nmax if mmax == 1 else 2 * nmax - 1, rows())


def _table_refined_ell(nmax: int, budget) -> tuple:
    def rows():
        for n in _rows("table refined-ell", nmax, *intervals_of(1), budget):
            by_ell = interval_stats_refined(n, budget)
            grid = [[by_ell.value(i, k) for k in range(n)] for i in range(n)]
            for i, cells in enumerate(grid):
                yield [n, i], cells, sum(cells)
            # the reference layout leaves the sum row's total corner empty
            yield [n, "total"], [sum(column) for column in zip(*grid)], None
    return _grid(["n", "i"], "k", nmax, rows())


def _pq_triangle(nmax: int, rows) -> tuple:
    """Rows (n, p), columns q, filled for p+q <= n-1 (staircase shape),
    from pairs (n, {(p, q): count}) for n = 1..nmax."""
    return _grid(["n", "p"], "q", nmax, (
        ([n, p], [cells.get((p, q), 0) for q in range(n - p)], None)
        for n, cells in rows for p in range(n)), total=False)


def _des_asc_rows(nmax: int, budget) -> list:
    """[(n, {(des, asc): count})] for n = 1..nmax, off one canopy_cells
    solve, refused first on its coefficient products."""
    within_budget(f"canopy_cells({nmax - 1}) products",
                  canopy_cell_products(nmax - 1), budget)
    return sorted(canopy_rows(canopy_cells(nmax - 1)).items())


def _table_refined_pq(nmax: int, budget) -> tuple:
    return _pq_triangle(nmax, _des_asc_rows(nmax, budget))


def _table_face_dims(nmax: int, budget) -> tuple:
    # faces by (dim f, dim g): the (des, asc) row at (x + 1, y + 1)
    return _pq_triangle(nmax, (
        (n, MonomialPolynomial(2, cells).shift(0, 1).shift(1, 1).terms)
        for n, cells in _des_asc_rows(nmax, budget)))


# name -> (builder, {option it reads: (default, smallest meaningful value
# or None)}); every table also reads --format and --out
ANY = (None, None)  # no default, no minimum
BUDGET = (None, 1)  # default: TAMARI_BUDGET, else the built-in fallback
FORMAT = ("csv", None)  # every table's --format
TABLES = {
    "a": (_table_a, {"nmax": (9, 1)}),
    "b": (_table_b, {"nmax": (9, 1)}),
    "internal": (_table_internal, {"nmax": (7, 1), "budget": BUDGET}),
    "m-intervals": (_table_m_intervals, {"nmax": (9, 1), "mmax": (6, 1)}),
    "m-stats": (_table_m_stats,
                {"nmax": (4, 1), "mmax": (6, 1), "budget": BUDGET}),
    "refined-ell": (_table_refined_ell, {"nmax": (5, 1), "budget": BUDGET}),
    "refined-pq": (_table_refined_pq, {"nmax": (5, 1), "budget": BUDGET}),
    "face-dims": (_table_face_dims, {"nmax": (5, 1), "budget": BUDGET}),
}

# the options a command may declare, in the order of a report's params, with
# their argparse keywords: both subcommands parse all, _read_options refuses
# those a command does not declare
OPTIONS = {
    "nmax": {"type": int, "help": "largest n (default: the reference range)"},
    "mmax": {"type": int, "help": "largest slope m"},
    "order": {"type": int, "help": "series truncation order / total degree"},
    "mode": {"choices": DECOMPOSITION_MODES, "help": "restrict to one mode"},
    "budget": {"type": int, "help": "element/interval budget (default: "
                                    "TAMARI_BUDGET or 2000000)"},
    "format": {"choices": ("csv", "json"), "help": "table output "
                                                   "(default: csv)"},
}


def _read_options(command: str, reads: dict, args) -> tuple:
    """(keyword arguments with defaults filled in, the options given).

    An undeclared option or a value below its minimum is a usage error."""
    kwargs = {option: default for option, (default, _) in reads.items()}
    given = {}
    for option in OPTIONS:
        value = getattr(args, option, None)
        if value is None:
            continue
        if option not in reads:
            raise ValueError(f"{command} does not read --{option}")
        minimum = reads[option][1]
        if minimum is not None and value < minimum:
            raise ValueError(f"--{option} must be at least {minimum}, "
                             f"not {value}")
        kwargs[option] = given[option] = value
    return kwargs, given


def _render_csv(header: list, rows):
    """The CSV lines, each yielded as it is rendered."""
    def cell(value) -> str:
        return "" if value is None else str(value)

    yield ",".join(header) + "\n"
    for row in rows:
        yield ",".join(cell(value) for value in row) + "\n"


def _render_json(name: str, header: list, rows):
    """The text of json.dumps({"table", "header", "rows"}, indent=2) and a
    newline, yielded a row at a time: each row is dumped on its own and
    indented to its depth in the payload."""
    def cell(value):
        if value is None or isinstance(value, str):
            return value
        return str(value)  # counts as decimal strings

    head = json.dumps({"table": name, "header": header, "rows": []},
                      indent=2)
    yield head[:-len("]\n}")]  # through '"rows": ['
    separator = "\n"
    for row in rows:  # a table has at least one row
        text = json.dumps([cell(value) for value in row], indent=2)
        yield separator + "    " + text.replace("\n", "\n    ")
        separator = ",\n"
    yield "\n  ]\n}\n"


def cmd_table(args) -> int:
    builder, reads = TABLES[args.name]
    kwargs, _ = _read_options(f"table {args.name}",
                              {**reads, "format": FORMAT}, args)
    form = kwargs.pop("format")
    _check_out(args.out)
    header, rows = builder(**kwargs)
    chunks = (_render_csv(header, rows) if form == "csv"
              else _render_json(args.name, header, rows))
    _emit(chunks, args.out)
    return 0


def _check_out(out) -> None:
    """Refuse an --out path that cannot be written before any of the work;
    the target itself is opened only once the work is done."""
    if not out:
        return
    if os.path.isdir(out):
        raise IsADirectoryError(f"--out {out} is a directory")
    directory = os.path.dirname(out) or "."
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"--out {out}: no directory {directory}")


def _emit(chunks, out) -> None:
    """Write the chunks as they come to a temporary file, then, once the
    last is written, copy it to --out if given, else to stdout.  A table's
    rows are built while they are rendered, so an error part-way leaves
    stdout and --out untouched, and memory holds one row, not the text."""
    # imported here, so importing tamari.cli costs no more than it did
    import shutil
    import tempfile

    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as spill:
        spill.writelines(chunks)
        spill.seek(0)
        if out:
            with open(out, "w", encoding="utf-8") as handle:
                shutil.copyfileobj(spill, handle)
        else:
            shutil.copyfileobj(spill, sys.stdout)


# ===================================================================
# verification suites
#
# A suite yields its checks as (name, ok, detail or None); a check reads
# ok only if every one of its inputs passed it.
# ===================================================================

def _agree(name: str, *sides) -> tuple:
    """The check that every (label, value) side has the same value, with
    each side as detail: a count as a decimal string, a row as a list of
    them."""
    def cell(value):
        return [str(c) for c in value] if isinstance(value, list) \
            else str(value)

    values = [value for _, value in sides]
    return name, all(value == values[0] for value in values), {
        label: cell(value) for label, value in sides}


def _scan(name: str, items, failed, detail=None) -> tuple:
    """The check that no item fails, with the first that does as detail,
    through detail(item) if given; a passing check has no detail."""
    bad = next((item for item in items if failed(item)), None)
    if bad is None or detail is None:
        return name, bad is None, bad
    return name, False, detail(bad)


def _suite_order_oracle(nmax: int, budget):
    """Bitmask interval engine against the rotation-BFS down-set oracle."""
    for n in _rows("verify order-oracle", nmax,
                   "order-oracle comparisons n={}",
                   lambda n: catalan(n) ** 2, budget):
        expected = {t: rotation_down_set(t) for t in all_trees(n, budget)}
        actual: dict = {t: set() for t in expected}
        for s, t, _, _ in intervals(n, budget):
            actual[t].add(s)
        yield _scan(f"down-sets-match-bfs n={n}", expected,
                    lambda t: expected[t] != actual[t],
                    lambda t: f"first mismatch at {serialize(t)}")
        vector = {t: bracket_vector(t) for t in expected}
        yield _scan(f"comparison-matches-reachability n={n}",
                    product(expected, repeat=2), lambda pair: (
                        _bracket_leq(vector[pair[0]], vector[pair[1]])
                        != (pair[0] in expected[pair[1]])),
                    lambda pair: {"pair": [serialize(t) for t in pair]})
        yield _agree(f"interval-count-closed-form n={n}",
                     ("enumerated", sum(map(len, expected.values()))),
                     ("formula", interval_count_formula(n)))


def _canopy_plus_mask(t) -> tuple:
    """(bitmask of the '+' positions of canopy(t), t)."""
    word = canopy(t)
    return sum(1 << j for j, letter in enumerate(word) if letter == "+"), t


def _suite_canopy(nmax: int, budget):
    """Canopy statistics: entry counts, monotonicity, agreement counts.

    Each tree's canopy is read once, as the bitmask of its '+' positions;
    the per-interval checks are bit operations on two such masks, made
    in one pass over the intervals.
    """
    for n in _rows("verify canopy", nmax, *intervals_of(1), budget):
        words = {t: canopy(t) for t in all_trees(n, budget)}
        yield _scan(f"entry-counts-are-asc-des n={n}", words,
                    lambda t: words[t].count("-") != asc(t)
                    or words[t].count("+") != des(t), serialize)
        mono_bad = None
        both_bad = None
        histogram = [0] * n
        width = n - 1
        for (cs, s), (ct, t), des_s, asc_t in _interval_walk(
                n, budget, _canopy_plus_mask):
            # monotone: every '+' of s is a '+' of t
            if cs & ~ct and mono_bad is None:
                mono_bad = {"pair": [serialize(s), serialize(t)]}
            # a shared '-' is in neither mask, a shared '+' in both
            if ((width - (cs | ct).bit_count() != asc_t
                    or (cs & ct).bit_count() != des_s) and both_bad is None):
                both_bad = {"pair": [serialize(s), serialize(t)]}
            histogram[width - (cs ^ ct).bit_count()] += 1
        yield f"canopies-monotone n={n}", mono_bad is None, mono_bad
        yield f"shared-entries-count-asc-des n={n}", both_bad is None, both_bad
        yield (f"agreement-histogram n={n}",
               histogram == [a_formula(n, k) for k in range(n)],
               {"histogram": [str(c) for c in histogram]})


def _suite_dyck(nmax: int, budget):
    """Path bijection: statistics transport, round trip, and cover
    transport, the engine's upper covers read as trees against the
    rotations."""
    for n in _rows("verify dyck", nmax, "all_trees({})", catalan, budget):
        words = {t: tree_to_dyck(t) for t in all_trees(n, budget)}
        ballots, upper, above = _ballot_lattice(1, n)
        trees = [_ballot_tree(1, _render(word)) for word in ballots]
        # word t's covers end at the running total of the counts to t
        covers = {trees[t]: {trees[c] for c in above[end - k:end]}
                  for t, (k, end) in enumerate(zip(upper, accumulate(upper)))}
        checks = {
            "statistics-transport": lambda t: (
                (valleys(words[t]), double_falls(words[t]), contacts(words[t]))
                != (asc(t), des(t), ell(t))),
            "round-trip": lambda t: dyck_to_tree(words[t]) != t,
            "cover-transport": lambda t: covers.get(t) != rotations_up(t),
        }
        for name, failed in checks.items():
            yield _scan(f"{name} n={n}", words, failed, serialize)


def _suite_catalytic(order: int, budget):
    rows = {n: contact_cells(n, budget) for n in _rows(
        "verify catalytic", order, *intervals_of(1), budget)}
    yield (f"catalytic-quadratic-mod-t^{order}",
           catalytic_equation_check(order, rows), None)


def _suite_polynomial(order: int):
    quartic = quartic_equation()
    root = newton_solve(quartic, order)
    yield (f"quartic-root-residual-mod-t^{order + 1}",
           substitute(quartic, root).is_zero,
           "the quartic re-evaluated at the root")
    yield _scan(f"coefficients-match-closed-form n<={order}",
                range(1, order + 1), lambda n:
                root.coefficient(n) != interval_row_polynomial(n))
    shifted = newton_solve(quartic.shift(1, 1), order)
    yield (f"z-shift-of-root-is-shifted-root-mod-t^{order + 1}",
           root.substitute_z_shift(1) == shifted, None)
    # exact, so it holds mod s^(order+3), the power the name reports
    yield (f"parametrization-annihilates-mod-s^{order + 3}",
           verify_parametrization(quartic), None)


def _suite_pde(order: int):
    yield (f"differential-operators-annihilate-mod-t^{order - 1}",
           verify_pde(order), None)


def _suite_telescoped(nmax: int):
    for name, report in ((f"telescoped-recurrence n<={nmax}",
                          telescoped_recurrence_check(nmax)),
                         ("two-term-recurrences n<=20",
                          two_term_recurrence_check(20))):
        yield (name, report["ok"],
               {"checked": report["checked"],
                "failures": [str(f) for f in report["failures"]]})


def _suite_chu_vandermonde():
    frozen = [(4, 1, 9, 702), (6, 2, 7, 4620), (5, 0, 15, 5985), (3, 2, 4, 6)]
    for n, k, r, value in frozen:
        lhs, rhs = chu_vandermonde_sides(n, k, r)
        yield _agree(f"frozen n={n} k={k} r={r}", ("lhs", lhs), ("rhs", rhs),
                     ("expected", value))
    rng = random.Random(CHU_SEED)
    triples = [(rng.randint(1, 30), rng.randint(0, 30), rng.randint(0, 30))
               for _ in range(200)]
    yield _scan("randomized-grid n,k,r<=30 (fixed seed)", triples,
                lambda triple: not chu_vandermonde_check(*triple),
                lambda triple: {"triple": list(triple)})


def _suite_euler(nmax: int, budget):
    """Alternating sums of the diagonal and internal face counts."""
    for n in _rows("verify euler", nmax, *intervals_of(1), budget):
        enumerated = ZPolynomial(diagonal_fvector(n, budget)).evaluate(-1)
        formula = ZPolynomial(b_formula(n, k) for k in range(n)).evaluate(-1)
        yield (f"diagonal-alternating-sum n={n}",
               enumerated == 1 and formula == 1,
               {"enumerated": str(enumerated), "formula": str(formula)})
        internal = ZPolynomial(internal_fvector(n, budget)).evaluate(-1)
        yield (f"internal-alternating-sum n={n}", internal == (-1) ** (n - 1),
               {"value": str(internal)})


def _suite_fusy_humbert(order: int, budget):
    rows = {n: cover_table(1, n, budget).cells for n in _rows(
        "verify fusy-humbert", order + 1, *intervals_of(1), budget)}
    yield (f"three-variable-system-to-degree-{order}",
           fusy_humbert_check(order, rows), None)


def _suite_decompositions(nmax: int, mode, budget):
    """Each mode's vertex-assignment fibers; the faces' f-vector, which no
    mode changes, is checked against the diagonal's once per n, in the
    first mode that runs."""
    modes = [mode] if mode else DECOMPOSITION_MODES
    for mode in modes:
        witness = None
        for n in _rows(f"verify decompositions mode={mode}", nmax,
                       "diagonal_faces({})", face_count_formula, budget):
            report = decomposition_report(n, mode, budget)
            if mode == modes[0]:
                yield (f"fvector-agrees mode={mode} n={n}",
                       report["fvector"] == diagonal_fvector(n, budget), None)
            if mode == "max-min":
                yield (f"one-fiber-per-interval mode={mode} n={n}",
                       report["fiber_count"] == interval_count_formula(n),
                       {"fibers": str(report["fiber_count"])})
            if mode == "min-max":
                if witness is None and report["non_boolean_fibers"]:
                    witness = {"n": n,
                               "fiber": report["non_boolean_fibers"][0]}
            else:
                yield (f"all-fibers-boolean mode={mode} n={n}",
                       report["all_boolean"],
                       None if report["all_boolean"]
                       else report["non_boolean_fibers"][0])
        if mode == "min-max" and nmax >= 2:
            # expected failure: this assignment is NOT a valid Morse
            # function, and the suite passes by exhibiting a witness;
            # the first non-boolean fiber appears at n = 2
            yield (f"non-boolean-fiber-exists mode={mode} n<={nmax}",
                   witness is not None, witness)


def _suite_internal_cross(nmax: int, budget):
    """The classification formula against the faces tested one by one,
    both read off the interval walk, and against the face-rows recursion,
    which reads b(n, k) alone, so a fault in the walk shows."""
    face_rows = None
    for n in _rows("verify internal-cross", nmax, "diagonal_faces({})",
                   face_count_formula, budget):
        # built once _rows has refused the largest face count
        face_rows = face_rows or internal_rows(nmax)
        by_formula = internal_fvector(n, budget)
        yield _agree(f"classification-vs-contractions n={n}",
                     ("formula", by_formula),
                     ("direct", internal_fvector_direct(n, budget)))
        yield _agree(f"classification-vs-face-rows n={n}",
                     ("formula", by_formula), ("face-rows", face_rows[n - 1]))
        yield _agree(f"vertex-count-closed-form n={n}",
                     ("enumerated", by_formula[0]),
                     ("formula", new_interval_formula(n)))


# slope-m interval counts and rows of m_tamari_interval_stats, frozen from
# independent tabulation
FROZEN_M_COUNTS = {(2, 5): 9729, (1, 9): 857956}
FROZEN_M_STATS = {
    (2, 2): [1, 4, 1],
    (2, 3): [1, 12, 30, 14, 1],
    (3, 3): [1, 18, 72, 66, 13],
    (4, 3): [1, 24, 132, 180, 58],
    (1, 4): [1, 12, 33, 22],
}


def _suite_slope_m():
    """Slope-m lattices: interval counts against the closed formula on
    every (m <= 6, n) of at most 5,000 elements, frozen counts and
    statistics rows, and the intervals against the order of the words'
    trees in T_{mn} on every (m <= 6, n) of at most 2·10^4 word pairs."""
    grids = [(m, n) for m in range(1, 7) for n in range(1, 10)
             if fuss_catalan(m, n) <= 5000]
    # the largest lattice's intervals are refused before any work
    m, n = max(grids, key=lambda grid: m_tamari_intervals_formula(*grid))
    up_to(n, *intervals_of(m))
    counts = {grid: m_tamari_interval_count(*grid) for grid in grids}
    yield _scan("counts-match-closed-form elements<=5000", grids, lambda g:
                counts[g] != m_tamari_intervals_formula(*g))
    wanted = ({(m, n) for m in range(1, 7) for n in range(1, 5)}
              | {(m, n) for m in (1, 2) for n in range(1, 6)})
    yield _scan("grids-hold m<=6,n<=4 and m<=2,n<=5", sorted(wanted),
                lambda grid: grid not in counts)
    for (m, n), count in FROZEN_M_COUNTS.items():
        yield _agree(f"frozen-count m={m} n={n}", ("enumerated", counts[m, n]),
                     ("expected", count))
    for (m, n), row in FROZEN_M_STATS.items():
        table = m_tamari_interval_stats(m, n)
        yield _agree(f"frozen-statistics m={m} n={n}",
                     ("enumerated", [table.value(k) for k in range(len(row))]),
                     ("expected", row))

    def order_differs(grid) -> bool:
        vector = {w: bracket_vector(_ballot_tree(grid[0], w))
                  for w in m_tamari_elements(*grid)}
        return set(m_tamari_intervals(*grid)) != {
            (s, t) for s in vector for t in vector
            if _bracket_leq(vector[s], vector[t])}

    yield _scan("order-is-the-order-in-T_mn pairs<=2e4",
                [g for g in grids if fuss_catalan(*g) ** 2 <= 2 * 10**4],
                order_differs)


# the interval histogram and the diagonal's face and internal f-vectors,
# frozen from independent tabulation
FROZEN_HISTOGRAM_CELLS = {(7, 4): 5985, (8, 7): 9614}
FROZEN_FACE_ROW_SIX = [2530, 9108, 12903, 8976, 3060, 408]
FROZEN_INTERNAL_ROWS = [
    [1],
    [1, 2],
    [3, 8, 6],
    [12, 42, 51, 22],
    [56, 244, 406, 308, 91],
    [288, 1504, 3171, 3384, 1836, 408],
    [1584, 9648, 24606, 33680, 26145, 10944, 1938],
]


def _suite_invariants():
    """Enumeration against the closed forms and frozen rows: the interval
    histogram and its ell refinement (n <= 8), the diagonal's face counts
    by the binomial transform (n <= 8) and face by face (n <= 6), the
    internal f-vector and the face-rows recursion, the axioms of the
    rotation order (n <= 6), des + asc (n <= 8), and the printed
    specializations of the formulas (n <= 12).  The rotation order against
    the bracket-vector comparison is verify order-oracle's."""
    histogram, by_ell, internal = {}, {}, {}
    for n in _rows("verify invariants", 8, *intervals_of(1), None):
        histogram[n] = interval_histogram(n)
        by_ell[n] = interval_stats_refined(n).marginal(0)
        internal[n] = internal_fvector(n)
    upto8, upto6 = range(1, 9), range(1, 7)

    def faces(n) -> list:
        return [b_formula(n, k) for k in range(n)]

    yield _scan("histogram-matches-closed-form n<=8", upto8, lambda n:
                histogram[n] != [a_formula(n, k) for k in range(n)])
    for (n, k), count in FROZEN_HISTOGRAM_CELLS.items():
        yield _agree(f"frozen-histogram n={n} k={k}",
                     ("enumerated", histogram[n][k]), ("expected", count))
    yield _scan("ell-marginal-matches-refined-formula n<=8", upto8, lambda n:
                by_ell[n] != {i: refined_formulas(n, i) for i in range(n)})
    yield _scan("binomial-transform-is-face-formula n<=8", upto8, lambda n:
                faces(n) != [sum(histogram[n][l] * binomial(l, k)
                                 for l in range(n)) for k in range(n)])
    direct = {n: diagonal_fvector_direct(n) for n in upto6}
    yield _scan("direct-faces-match-face-formula n<=6", upto6,
                lambda n: direct[n] != faces(n))
    yield _agree("frozen-face-row n=6", ("enumerated", direct[6]),
                 ("expected", FROZEN_FACE_ROW_SIX))
    yield _scan("frozen-internal-rows n<=7", range(1, 8),
                lambda n: internal[n] != FROZEN_INTERNAL_ROWS[n - 1])
    closed = internal_rows(8)
    yield ("closed-recursion-matches-frozen-rows n<=7",
           closed[:7] == FROZEN_INTERNAL_ROWS, None)
    yield ("closed-recursion-matches-statistic-formula n=8",
           closed[7] == internal[8], None)
    downs = {n: {t: rotation_down_set(t) for t in all_trees(n)}
             for n in upto6}
    axioms = {
        "rotation-order-reflexive": lambda down, t: t not in down[t],
        "rotation-order-antisymmetric": lambda down, t: any(
            s != t and t in down[s] for s in down[t]),
        "rotation-order-transitive": lambda down, t: any(
            not down[s] <= down[t] for s in down[t]),
    }
    for name, failed in axioms.items():
        yield _scan(f"{name} n<=6", upto6, lambda n: any(
            failed(downs[n], t) for t in downs[n]))
    yield _scan("des-plus-asc-is-n-1 n<=8", upto8, lambda n: any(
        des(t) + asc(t) != n - 1 for t in all_trees(n)))
    yield _scan("specializations n<=12",
                map(specialization_suite, range(1, 13)),
                lambda report: not report["ok"] or report["checked"] != 8)


# name -> (suite, options declared as in TABLES); every suite reads --out
SUITES = {
    "order-oracle": (_suite_order_oracle, {"nmax": (6, 1), "budget": BUDGET}),
    "canopy": (_suite_canopy, {"nmax": (6, 1), "budget": BUDGET}),
    "dyck": (_suite_dyck, {"nmax": (6, 1), "budget": BUDGET}),
    "catalytic": (_suite_catalytic, {"order": (8, 1), "budget": BUDGET}),
    "polynomial": (_suite_polynomial, {"order": (10, 1)}),
    "pde": (_suite_pde, {"order": (10, 3)}),
    "telescoped": (_suite_telescoped, {"nmax": (12, 1)}),
    "chu-vandermonde": (_suite_chu_vandermonde, {}),
    "euler": (_suite_euler, {"nmax": (7, 1), "budget": BUDGET}),
    "fusy-humbert": (_suite_fusy_humbert, {"order": (6, 0), "budget": BUDGET}),
    "decompositions": (_suite_decompositions,
                       {"nmax": (4, 1), "mode": ANY, "budget": BUDGET}),
    "internal-cross": (_suite_internal_cross,
                       {"nmax": (5, 1), "budget": BUDGET}),
    "slope-m": (_suite_slope_m, {}),
    "invariants": (_suite_invariants, {}),
}


def cmd_verify(args) -> int:
    suite, reads = SUITES[args.name]
    kwargs, params = _read_options(f"verify {args.name}", reads, args)
    _check_out(args.out)
    checks = []
    for name, ok, detail in suite(**kwargs):
        entry = {"name": name, "ok": bool(ok)}
        if detail is not None:
            entry["detail"] = detail
        checks.append(entry)
    ok = all(entry["ok"] for entry in checks)
    report = {"suite": args.name, "params": params, "checks": checks,
              "ok": ok}
    _emit([json.dumps(report, indent=2) + "\n"], args.out)
    return 0 if ok else EXIT_VERIFY


# ===================================================================
# evaluation
# ===================================================================

EVALS = {
    # name -> (closed formula, number of integer arguments)
    "a": (a_formula, 2),
    "b": (b_formula, 2),
    "intervals": (interval_count_formula, 1),
    "sync": (synchronized_formula, 1),
    "m-intervals": (m_tamari_intervals_formula, 2),
}


def cmd_eval(args, parser) -> int:
    formula, arity = EVALS[args.expr]
    if len(args.values) != arity:
        parser.error(f"eval {args.expr} takes {arity} integer "
                     f"argument{'s' if arity > 1 else ''}")
    if any(v < 0 for v in args.values):
        parser.error("eval arguments must be nonnegative integers")
    print(formula(*args.values))
    return 0


# ===================================================================
# argument parsing and entry point
# ===================================================================

def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamari",
        description="Tamari interval enumeration, diagonal face counts, "
                    "and series verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    for command, names, about in (
            ("table", TABLES, "emit a reference table"),
            ("verify", SUITES, "run a verification suite")):
        runner = sub.add_parser(command, help=about)
        runner.add_argument("name", choices=sorted(names))
        for option, keywords in OPTIONS.items():
            runner.add_argument(f"--{option}", **keywords)
        runner.add_argument("--out", help="write here, not stdout")

    evaluate = sub.add_parser("eval", help="print one exact value")
    evaluate.add_argument("expr", choices=sorted(EVALS))
    evaluate.add_argument("values", type=int, nargs="*", metavar="N")
    return parser


def main(argv=None) -> int:
    # exact values print at any size; the call exists from CPython 3.10.7
    getattr(sys, "set_int_max_str_digits", lambda limit: None)(0)
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "table":
            return cmd_table(args)
        if args.command == "verify":
            return cmd_verify(args)
        return cmd_eval(args, parser)
    except BudgetExceeded as exc:
        print(f"tamari: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        # a bad option value, or an --out path that cannot be written
        print(f"tamari: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RuntimeError) as exc:
        # a failed internal self-check (fixed point, exactness, residual)
        print(f"tamari: self-check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
