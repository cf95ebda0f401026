"""Command-line surface: reference tables, verification suites, evaluation.

    tamari table <name> [--nmax N] [--mmax M] [--format csv|json]
                 [--budget B] [--out PATH]
    tamari verify <suite> [--nmax N] [--order N] [--mode MODE]
                 [--budget B] [--out PATH]
    tamari eval <expr> <args...>

Tables reproduce the reference layouts exactly (rows indexed by n, columns
by the statistic, empty cells where a row is shorter): a, b, internal,
m-intervals, m-stats, refined-ell, refined-pq, face-dims.

Verification suites cross-check independent computation routes and print a
JSON report: order-oracle, canopy, dyck, catalytic, polynomial, pde,
telescoped, chu-vandermonde, euler, fusy-humbert, decompositions,
internal-cross.

Exit status: 0 success, 2 usage error, 3 budget exceeded, 4 verification
or internal self-check failure.  Every command is deterministic; progress
goes to stderr only.
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from math import comb

from .diagonal import (
    DECOMPOSITION_MODES,
    decomposition_report,
    diagonal_fvector,
    diagonal_fvector_by_dims,
    internal_fvector,
    internal_fvector_direct,
)
from .formulas import (
    a_formula,
    b_formula,
    chu_vandermonde_check,
    chu_vandermonde_sides,
    interval_count_formula,
    interval_row_polynomial,
    m_tamari_intervals_formula,
    new_interval_formula,
    synchronized_formula,
    telescoped_recurrence_check,
    two_term_recurrence_check,
)
from .lattice import (
    BudgetExceeded,
    all_trees,
    interval_histogram,
    interval_stats_refined,
    intervals,
    rotation_down_set,
)
from .paths import (
    contacts,
    double_falls,
    dyck_to_tree,
    m_tamari_covers,
    m_tamari_interval_stats,
    tree_to_dyck,
    valleys,
)
from .series import (
    catalytic_equation_check,
    fusy_humbert_check,
    newton_solve,
    quartic_equation,
    verify_parametrization,
    verify_pde,
)
from .trees import (
    agree,
    asc,
    canopy,
    canopy_leq,
    des,
    ell,
    rotations_up,
    serialize,
    tamari_leq,
)

EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

CHU_SEED = 271828  # fixed so the randomized grid is reproducible


def _progress(message: str) -> None:
    print(f"tamari: {message}", file=sys.stderr, flush=True)


# ===================================================================
# tables
#
# A table is (header, rows); a row is a list of cells where None
# renders as an empty cell.  Cells right of a row's last entry stay
# empty, matching the staircase shape of the reference tables.
# ===================================================================

def _staircase(prefix: list, counts: dict, row_max: int, kcols: int) -> list:
    cells = [counts.get(k, 0) if k <= row_max else None
             for k in range(kcols)]
    return prefix + cells


def _table_a(nmax: int, budget) -> tuple:
    header = ["n"] + [f"k={k}" for k in range(nmax)] + ["total"]
    rows = [_staircase([n], {k: a_formula(n, k) for k in range(n)},
                       n - 1, nmax) + [interval_count_formula(n)]
            for n in range(1, nmax + 1)]
    return header, rows


def _table_b(nmax: int, budget) -> tuple:
    header = ["n"] + [f"k={k}" for k in range(nmax)]
    rows = [[n] + [b_formula(n, k) if k < n else None for k in range(nmax)]
            for n in range(1, nmax + 1)]
    return header, rows


def _table_internal(nmax: int, budget) -> tuple:
    header = ["n"] + [f"k={k}" for k in range(nmax)] + ["total"]
    rows = []
    for n in range(1, nmax + 1):
        if n >= 6:
            _progress(f"table internal n={n}")
        vector = internal_fvector(n, budget)
        rows.append(_staircase([n], dict(enumerate(vector)), n - 1, nmax)
                    + [sum(vector)])
    return header, rows


def _table_m_intervals(nmax: int, mmax: int, budget) -> tuple:
    header = ["n"] + [f"m={m}" for m in range(1, mmax + 1)]
    rows = [[n] + [m_tamari_intervals_formula(m, n)
                   for m in range(1, mmax + 1)]
            for n in range(1, nmax + 1)]
    return header, rows


def _table_m_stats(nmax: int, mmax: int, budget) -> tuple:
    blocks = []
    kcols = 0
    for m in range(1, mmax + 1):
        for n in range(1, nmax + 1):
            table = m_tamari_interval_stats(m, n, budget)
            counts = {k: count for (k,), count in table.cells.items()}
            row_max = max(counts)
            kcols = max(kcols, row_max + 1)
            blocks.append(([m, n], counts, row_max, table.total))
    header = ["m", "n"] + [f"k={k}" for k in range(kcols)] + ["total"]
    rows = [_staircase(prefix, counts, row_max, kcols) + [total]
            for prefix, counts, row_max, total in blocks]
    return header, rows


def _table_refined_ell(nmax: int, budget) -> tuple:
    header = ["n", "i"] + [f"k={k}" for k in range(nmax)] + ["total"]
    rows = []
    for n in range(1, nmax + 1):
        by_ell, _ = interval_stats_refined(n, budget)
        column_sums: dict = {}
        for i in range(n):
            counts = {k: by_ell.value(i, k) for k in range(n)}
            for k, count in counts.items():
                column_sums[k] = column_sums.get(k, 0) + count
            rows.append(_staircase([n, i], counts, n - 1, nmax)
                        + [sum(counts.values())])
        # the reference layout leaves the sum row's total corner empty
        rows.append(_staircase([n, "total"], column_sums, n - 1, nmax)
                    + [None])
    return header, rows


def _pq_triangle(nmax: int, table_for_n) -> tuple:
    """Rows (n, p), columns q, filled for p+q <= n-1 (staircase shape)."""
    header = ["n", "p"] + [f"q={q}" for q in range(nmax)]
    rows = []
    for n in range(1, nmax + 1):
        table = table_for_n(n)
        for p in range(n):
            counts = {q: table.value(p, q) for q in range(n - p)}
            rows.append(_staircase([n, p], counts, n - 1 - p, nmax))
    return header, rows


def _table_refined_pq(nmax: int, budget) -> tuple:
    return _pq_triangle(
        nmax, lambda n: interval_stats_refined(n, budget)[1])


def _table_face_dims(nmax: int, budget) -> tuple:
    return _pq_triangle(
        nmax, lambda n: diagonal_fvector_by_dims(n, budget))


TABLES = {
    # name -> (builder, default nmax, uses mmax)
    "a": (_table_a, 9, False),
    "b": (_table_b, 9, False),
    "internal": (_table_internal, 7, False),
    "m-intervals": (_table_m_intervals, 9, True),
    "m-stats": (_table_m_stats, 4, True),
    "refined-ell": (_table_refined_ell, 5, False),
    "refined-pq": (_table_refined_pq, 5, False),
    "face-dims": (_table_face_dims, 5, False),
}


def _render_csv(header: list, rows: list) -> str:
    def cell(value) -> str:
        return "" if value is None else str(value)

    lines = [",".join(header)]
    lines.extend(",".join(cell(value) for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def _render_json(name: str, header: list, rows: list) -> str:
    def cell(value):
        if value is None or isinstance(value, str):
            return value
        return str(value)  # counts as decimal strings

    payload = {
        "table": name,
        "header": header,
        "rows": [[cell(value) for value in row] for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


def cmd_table(args) -> int:
    builder, default_nmax, uses_m = TABLES[args.name]
    nmax = args.nmax if args.nmax is not None else default_nmax
    if nmax < 1:
        raise ValueError("--nmax must be at least 1")
    if uses_m:
        mmax = args.mmax if args.mmax is not None else 6
        if mmax < 1:
            raise ValueError("--mmax must be at least 1")
        header, rows = builder(nmax, mmax, args.budget)
    else:
        header, rows = builder(nmax, args.budget)
    if args.format == "csv":
        text = _render_csv(header, rows)
    else:
        text = _render_json(args.name, header, rows)
    _emit(text, args.out)
    return 0


def _emit(text: str, out) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ===================================================================
# verification suites
# ===================================================================

def _check(checks: list, name: str, ok: bool, detail=None) -> bool:
    entry = {"name": name, "ok": bool(ok)}
    if detail is not None:
        entry["detail"] = detail
    checks.append(entry)
    return bool(ok)


def _suite_order_oracle(args) -> list:
    """Bitmask interval engine against the rotation-BFS down-set oracle."""
    nmax = args.nmax if args.nmax is not None else 6
    checks: list = []
    for n in range(1, nmax + 1):
        if n >= 7:
            _progress(f"order-oracle n={n}")
        expected = {t: rotation_down_set(t) for t in all_trees(n, args.budget)}
        actual: dict = {t: set() for t in expected}
        for s, t, _, _ in intervals(n, args.budget):
            actual[t].add(s)
        bad = [t for t in expected if expected[t] != actual[t]]
        _check(checks, f"down-sets-match-bfs n={n}", not bad,
               None if not bad else f"first mismatch at {serialize(bad[0])}")
        pair_bad = None
        trees = list(expected)
        for s in trees:
            for t in trees:
                if tamari_leq(s, t) != (s in expected[t]):
                    pair_bad = (serialize(s), serialize(t))
                    break
            if pair_bad:
                break
        _check(checks, f"comparison-matches-reachability n={n}",
               pair_bad is None,
               None if pair_bad is None else {"pair": list(pair_bad)})
        total = sum(len(v) for v in expected.values())
        _check(checks, f"interval-count-closed-form n={n}",
               total == interval_count_formula(n),
               {"enumerated": str(total),
                "formula": str(interval_count_formula(n))})
    return checks


def _suite_canopy(args) -> list:
    """Canopy statistics: entry counts, monotonicity, agreement counts."""
    nmax = args.nmax if args.nmax is not None else 6
    checks: list = []
    for n in range(1, nmax + 1):
        if n >= 7:
            _progress(f"canopy n={n}")
        entry_bad = None
        for t in all_trees(n, args.budget):
            word = canopy(t)
            if word.count("-") != asc(t) or word.count("+") != des(t):
                entry_bad = serialize(t)
                break
        _check(checks, f"entry-counts-are-asc-des n={n}", entry_bad is None,
               entry_bad)
        mono_bad = None
        both_bad = None
        histogram = [0] * n
        for s, t, des_s, asc_t in intervals(n, args.budget):
            cs, ct = canopy(s), canopy(t)
            if not canopy_leq(cs, ct):
                mono_bad = (serialize(s), serialize(t))
                break
            minus_both = sum(1 for a, b in zip(cs, ct)
                             if a == b == "-")
            plus_both = sum(1 for a, b in zip(cs, ct)
                            if a == b == "+")
            if minus_both != asc_t or plus_both != des_s:
                both_bad = (serialize(s), serialize(t))
                break
            histogram[agree(s, t)] += 1
        _check(checks, f"canopies-monotone n={n}", mono_bad is None,
               None if mono_bad is None else {"pair": list(mono_bad)})
        _check(checks, f"shared-entries-count-asc-des n={n}", both_bad is None,
               None if both_bad is None else {"pair": list(both_bad)})
        if mono_bad is None and both_bad is None:
            expected = [a_formula(n, k) for k in range(n)]
            _check(checks, f"agreement-histogram n={n}",
                   histogram == expected,
                   {"histogram": [str(c) for c in histogram]})
    return checks


def _suite_dyck(args) -> list:
    """Path bijection: statistics transport, round trip, cover transport."""
    nmax = args.nmax if args.nmax is not None else 6
    checks: list = []
    to_ballot = str.maketrans("UD", "NE")
    to_dyck = str.maketrans("NE", "UD")
    for n in range(1, nmax + 1):
        stat_bad = None
        round_bad = None
        cover_bad = None
        for t in all_trees(n, args.budget):
            word = tree_to_dyck(t)
            if (valleys(word) != asc(t) or double_falls(word) != des(t)
                    or contacts(word) != ell(t)):
                stat_bad = serialize(t)
                break
            if dyck_to_tree(word) != t:
                round_bad = serialize(t)
                break
            image = {w.translate(to_dyck)
                     for w in m_tamari_covers(word.translate(to_ballot))}
            if image != {tree_to_dyck(u) for u in rotations_up(t)}:
                cover_bad = serialize(t)
                break
        _check(checks, f"statistics-transport n={n}", stat_bad is None,
               stat_bad)
        _check(checks, f"round-trip n={n}", round_bad is None, round_bad)
        _check(checks, f"cover-transport n={n}", cover_bad is None, cover_bad)
    return checks


def _suite_catalytic(args) -> list:
    order = args.order if args.order is not None else 8
    ok = catalytic_equation_check(order, args.budget)
    return [{"name": f"catalytic-quadratic-mod-t^{order}", "ok": ok}]


def _suite_polynomial(args) -> list:
    order = args.order if args.order is not None else 10
    checks: list = []
    root = newton_solve(quartic_equation(), order)
    _check(checks, f"quartic-root-residual-mod-t^{order + 1}",
           quartic_equation().evaluate(root).is_zero,
           "the quartic re-evaluated at the root")
    coeff_bad = None
    for n in range(1, order + 1):
        if root.coefficient(n) != interval_row_polynomial(n):
            coeff_bad = n
            break
    _check(checks, f"coefficients-match-closed-form n<={order}",
           coeff_bad is None, coeff_bad)
    shifted = newton_solve(quartic_equation().substitute_z_shift(1), order)
    _check(checks, f"z-shift-of-root-is-shifted-root-mod-t^{order + 1}",
           root.substitute_z_shift(1) == shifted)
    s_order = order + 3
    _check(checks, f"parametrization-annihilates-mod-s^{s_order}",
           verify_parametrization(s_order))
    return checks


def _suite_pde(args) -> list:
    order = args.order if args.order is not None else 10
    ok = verify_pde(order)
    return [{"name": f"differential-operators-annihilate-mod-t^{order - 2}",
             "ok": ok}]


def _suite_telescoped(args) -> list:
    nmax = args.nmax if args.nmax is not None else 12
    checks: list = []
    report = telescoped_recurrence_check(nmax)
    _check(checks, f"telescoped-recurrence n<={nmax}", report["ok"],
           {"checked": report["checked"],
            "failures": [str(f) for f in report["failures"]]})
    two_term = two_term_recurrence_check(20)
    _check(checks, "two-term-recurrences n<=20", two_term["ok"],
           {"checked": two_term["checked"],
            "failures": [str(f) for f in two_term["failures"]]})
    return checks


def _suite_chu_vandermonde(args) -> list:
    checks: list = []
    frozen = [(4, 1, 9, 702), (6, 2, 7, 4620), (5, 0, 15, 5985), (3, 2, 4, 6)]
    for n, k, r, value in frozen:
        lhs, rhs = chu_vandermonde_sides(n, k, r)
        _check(checks, f"frozen n={n} k={k} r={r}",
               lhs == rhs == value,
               {"lhs": str(lhs), "rhs": str(rhs), "expected": str(value)})
    rng = random.Random(CHU_SEED)
    bad = None
    for _ in range(40):
        n = rng.randint(1, 30)
        k = rng.randint(0, 30)
        r = rng.randint(0, 30)
        if not chu_vandermonde_check(n, k, r):
            bad = (n, k, r)
            break
    _check(checks, "randomized-grid n,k,r<=30 (fixed seed)", bad is None,
           None if bad is None else {"triple": list(bad)})
    return checks


def _suite_euler(args) -> list:
    """Alternating sums of the diagonal and internal face counts."""
    nmax = args.nmax if args.nmax is not None else 7
    checks: list = []
    for n in range(1, nmax + 1):
        if n >= 7:
            _progress(f"euler n={n}")
        histogram = interval_histogram(n, args.budget)
        enumerated = [sum(count * comb(j, k)
                          for j, count in enumerate(histogram))
                      for k in range(n)]
        alternating = sum((-1) ** k * c for k, c in enumerate(enumerated))
        formula_alt = sum((-1) ** k * b_formula(n, k) for k in range(n))
        _check(checks, f"diagonal-alternating-sum n={n}",
               alternating == 1 and formula_alt == 1,
               {"enumerated": str(alternating), "formula": str(formula_alt)})
        internal_alt = sum((-1) ** k * c
                           for k, c in enumerate(internal_fvector(n,
                                                                  args.budget)))
        _check(checks, f"internal-alternating-sum n={n}",
               internal_alt == (-1) ** (n - 1), {"value": str(internal_alt)})
    return checks


def _suite_fusy_humbert(args) -> list:
    degree = args.order if args.order is not None else 6
    ok = fusy_humbert_check(degree, args.budget)
    return [{"name": f"three-variable-system-to-degree-{degree}", "ok": ok}]


def _suite_decompositions(args) -> list:
    nmax = args.nmax if args.nmax is not None else 4
    modes = [args.mode] if args.mode else list(DECOMPOSITION_MODES)
    checks: list = []
    for mode in modes:
        saw_non_boolean = False
        witness = None
        for n in range(1, nmax + 1):
            report = decomposition_report(n, mode, args.budget)
            _check(checks, f"fvector-agrees mode={mode} n={n}",
                   report["fvector"] == diagonal_fvector(n, args.budget))
            if mode == "max-min":
                _check(checks, f"one-fiber-per-interval mode={mode} n={n}",
                       report["fiber_count"] == interval_count_formula(n),
                       {"fibers": str(report["fiber_count"])})
            if mode == "min-max":
                if report["non_boolean_fibers"]:
                    saw_non_boolean = True
                    if witness is None:
                        witness = {"n": n,
                                   "fiber": report["non_boolean_fibers"][0]}
            else:
                _check(checks, f"all-fibers-boolean mode={mode} n={n}",
                       report["all_boolean"],
                       None if report["all_boolean"]
                       else report["non_boolean_fibers"][0])
        if mode == "min-max":
            # expected failure: this assignment is NOT a valid Morse
            # function, and the suite passes by exhibiting a witness
            _check(checks, f"non-boolean-fiber-exists mode={mode} n<={nmax}",
                   saw_non_boolean, witness)
    return checks


def _suite_internal_cross(args) -> list:
    nmax = args.nmax if args.nmax is not None else 5
    checks: list = []
    for n in range(1, nmax + 1):
        by_formula = internal_fvector(n, args.budget)
        by_faces = internal_fvector_direct(n, args.budget)
        _check(checks, f"classification-vs-contractions n={n}",
               by_formula == by_faces,
               {"formula": [str(c) for c in by_formula],
                "direct": [str(c) for c in by_faces]})
        _check(checks, f"vertex-count-closed-form n={n}",
               by_formula[0] == new_interval_formula(n),
               {"enumerated": str(by_formula[0]),
                "formula": str(new_interval_formula(n))})
    return checks


SUITES = {
    "order-oracle": _suite_order_oracle,
    "canopy": _suite_canopy,
    "dyck": _suite_dyck,
    "catalytic": _suite_catalytic,
    "polynomial": _suite_polynomial,
    "pde": _suite_pde,
    "telescoped": _suite_telescoped,
    "chu-vandermonde": _suite_chu_vandermonde,
    "euler": _suite_euler,
    "fusy-humbert": _suite_fusy_humbert,
    "decompositions": _suite_decompositions,
    "internal-cross": _suite_internal_cross,
}


def cmd_verify(args) -> int:
    if args.nmax is not None and args.nmax < 1:
        raise ValueError("--nmax must be at least 1")
    checks = SUITES[args.suite](args)
    ok = all(entry["ok"] for entry in checks)
    params = {}
    for field in ("nmax", "order", "mode", "budget"):
        value = getattr(args, field, None)
        if value is not None:
            params[field] = value
    report = {"suite": args.suite, "params": params, "checks": checks,
              "ok": ok}
    _emit(json.dumps(report, indent=2) + "\n", args.out)
    return 0 if ok else EXIT_VERIFY


# ===================================================================
# evaluation
# ===================================================================

EVAL_ARITY = {
    "a": 2,
    "b": 2,
    "intervals": 1,
    "sync": 1,
    "m-intervals": 2,
}


def cmd_eval(args, parser) -> int:
    expected = EVAL_ARITY[args.expr]
    if len(args.values) != expected:
        parser.error(f"eval {args.expr} takes {expected} integer "
                     f"argument{'s' if expected > 1 else ''}")
    values = args.values
    if any(v < 0 for v in values):
        parser.error("eval arguments must be nonnegative integers")
    if args.expr == "a":
        result = a_formula(values[0], values[1])
    elif args.expr == "b":
        result = b_formula(values[0], values[1])
    elif args.expr == "intervals":
        result = interval_count_formula(values[0])
    elif args.expr == "sync":
        result = synchronized_formula(values[0])
    else:
        result = m_tamari_intervals_formula(values[0], values[1])
    print(result)
    return 0


# ===================================================================
# argument parsing and entry point
# ===================================================================

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tamari",
        description="Tamari interval enumeration, diagonal face counts, "
                    "and series verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    table = sub.add_parser("table", help="emit a reference table")
    table.add_argument("name", choices=sorted(TABLES))
    table.add_argument("--nmax", type=int, default=None,
                       help="largest n (default: the reference range)")
    table.add_argument("--mmax", type=int, default=None,
                       help="largest slope m (m-indexed tables only)")
    table.add_argument("--format", choices=("csv", "json"), default="csv")
    table.add_argument("--budget", type=int, default=None,
                       help="element/interval budget (default: "
                            "TAMARI_BUDGET or 2000000)")
    table.add_argument("--out", default=None, help="write here, not stdout")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=sorted(SUITES))
    verify.add_argument("--nmax", type=int, default=None)
    verify.add_argument("--order", type=int, default=None,
                        help="series truncation order / total degree")
    verify.add_argument("--mode", choices=DECOMPOSITION_MODES, default=None,
                        help="decompositions suite: restrict to one mode")
    verify.add_argument("--budget", type=int, default=None)
    verify.add_argument("--out", default=None)

    evaluate = sub.add_parser("eval", help="print one exact value")
    evaluate.add_argument("expr", choices=sorted(EVAL_ARITY))
    evaluate.add_argument("values", type=int, nargs="*", metavar="N")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
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
    except ValueError as exc:
        print(f"tamari: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ArithmeticError, RuntimeError) as exc:
        # a failed internal self-check (checksum, fixed point, exactness)
        print(f"tamari: self-check failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
