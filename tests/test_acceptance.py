"""End-to-end acceptance gate: eight criteria, one verdict line each.

Every criterion prints exactly one `[gate] ...: PASS` / `FAIL` line
(visible with `pytest -s` or by running this file as a script) and
fails its test if any sub-check fails.

    1. interval histogram: enumeration = closed form = series
       coefficients for n <= 8, with frozen spot values
    2. face counts: b-formula = binomial transform of enumerated
       histogram (n <= 8) = direct face enumeration (n <= 6)
    3. internal faces: statistic formula = shared-facet criterion
       (n <= 6), frozen rows up to n = 7; the closed face-rows
       recursion = frozen rows (n <= 7) = statistic formula (n = 8)
    4. functional equations: quartic root, catalytic system,
       parametrization, z-shift compatibility
    5. printed operators: differential annihilators, telescoped and
       two-term recurrences
    6. bijections: Dyck statistics, the engine's covers against the
       tree rotations, canopy monotonicity, canopy-pair system
    7. slope-m generalization: counts vs closed formula on every
       lattice small enough to enumerate, frozen statistics tables, the
       intervals vs the order of the words' trees in T_{mn}
    8. invariants: Euler characteristic, order axioms, des + asc,
       specializations, contracted Vandermonde convolution

The extended marker re-runs criterion 1 at n = 9 (857956 intervals).
"""

import random
import sys
from functools import lru_cache

import pytest

from tamari.diagonal import (
    diagonal_fvector,
    diagonal_fvector_direct,
    internal_fvector,
    internal_fvector_direct,
)
from tamari.formulas import (
    a_formula,
    b_formula,
    binomial,
    chu_vandermonde_check,
    fuss_catalan,
    internal_rows,
    interval_count_formula,
    m_tamari_intervals_formula,
    specialization_suite,
    telescoped_recurrence_check,
    two_term_recurrence_check,
)
from tamari.lattice import (
    all_trees,
    interval_histogram,
    intervals,
    rotation_down_set,
)
from tamari.paths import (
    _ballot_lattice,
    _ballot_tree,
    _render,
    contacts,
    double_falls,
    m_tamari_elements,
    m_tamari_interval_count,
    m_tamari_interval_stats,
    m_tamari_intervals,
    tree_to_dyck,
    valleys,
)
from tamari.series import (
    catalytic_equation_check,
    fusy_humbert_check,
    newton_solve,
    quartic_equation,
    substitute,
    verify_parametrization,
    verify_pde,
)
from tamari.trees import (
    _bracket_leq,
    asc,
    bracket_vector,
    canopy,
    canopy_leq,
    des,
    ell,
    rotations_up,
    tamari_leq,
)

# ====
# shared plumbing
# ====

@lru_cache(maxsize=None)
def enumerated_histogram(n):
    return tuple(interval_histogram(n))


def _verdict(number):
    """(the [gate] line of criterion `number` in GATES, whether it passed)."""
    name, criterion = GATES[number - 1]
    failures = criterion()
    verdict = "PASS" if not failures else f"FAIL ({failures[0]})"
    return f"[gate] {name}: {verdict}", not failures


def _gate(number):
    line, passed = _verdict(number)
    print(line)
    assert passed, line


# ====
# 1. interval histogram, three routes
# ====

INTERNAL_ROWS = {
    1: [1],
    2: [1, 2],
    3: [3, 8, 6],
    4: [12, 42, 51, 22],
    5: [56, 244, 406, 308, 91],
    6: [288, 1504, 3171, 3384, 1836, 408],
    7: [1584, 9648, 24606, 33680, 26145, 10944, 1938],
}

FACE_ROW_SIX = [2530, 9108, 12903, 8976, 3060, 408]


def criterion_histogram():
    failures = []
    root = newton_solve(quartic_equation(), 8)
    for n in range(1, 9):
        enumerated = list(enumerated_histogram(n))
        formula = [a_formula(n, k) for k in range(n)]
        series = list(root.coefficient(n).coeffs)
        if enumerated != formula:
            failures.append(f"enumeration != closed form at n={n}")
        if enumerated != series:
            failures.append(f"enumeration != series coefficients at n={n}")
    if enumerated_histogram(7)[4] != 5985:
        failures.append("frozen spot (7, 4) != 5985")
    if enumerated_histogram(8)[7] != 9614:
        failures.append("frozen spot (8, 7) != 9614")
    return failures


def test_gate_one_interval_histogram():
    _gate(1)


@pytest.mark.extended
def test_gate_one_extended_nine():
    enumerated = interval_histogram(9)
    assert enumerated == [a_formula(9, k) for k in range(9)]
    assert sum(enumerated) == 857956 == interval_count_formula(9)


# ====
# 2. face counts of the cellular diagonal
# ====

def criterion_face_counts():
    failures = []
    for n in range(1, 9):
        hist = enumerated_histogram(n)
        transform = [sum(hist[l] * binomial(l, k) for l in range(n))
                     for k in range(n)]
        if transform != [b_formula(n, k) for k in range(n)]:
            failures.append(f"binomial transform != b-formula at n={n}")
    for n in range(1, 7):
        formula = [b_formula(n, k) for k in range(n)]
        if diagonal_fvector_direct(n) != formula:
            failures.append(f"direct face count != b-formula at n={n}")
        if diagonal_fvector(n) != formula:
            failures.append(f"classified face count != b-formula at n={n}")
    if diagonal_fvector_direct(6) != FACE_ROW_SIX:
        failures.append("frozen f-vector at n=6 mismatched")
    return failures


def test_gate_two_face_counts():
    _gate(2)


# ====
# 3. internal faces
# ====

def criterion_internal_faces():
    failures = []
    for n in range(1, 7):
        if internal_fvector(n) != internal_fvector_direct(n):
            failures.append(f"statistic vs shared-facet route at n={n}")
    for n, row in INTERNAL_ROWS.items():
        if internal_fvector(n) != row:
            failures.append(f"frozen internal row at n={n}")
    closed = internal_rows(8)
    if (closed[:7] != [INTERNAL_ROWS[n] for n in range(1, 8)]
            or closed[7] != internal_fvector(8)):
        failures.append("closed recursion vs frozen rows n<=7 and the "
                        "statistic formula at n=8")
    return failures


def test_gate_three_internal_faces():
    _gate(3)


# ====
# 4. functional equations
# ====

def criterion_functional_equations():
    failures = []
    equation = quartic_equation()
    root = newton_solve(equation, 10)
    if not substitute(equation, root).is_zero:
        failures.append("quartic residual nonzero mod t^11")
    if not catalytic_equation_check(7):
        failures.append("catalytic system fails mod t^8")
    if not verify_parametrization():
        failures.append("parametrization leaves a residual")
    shifted = newton_solve(equation.shift(1, 1), 9)
    if root.substitute_z_shift(1) != shifted:
        failures.append("z-shifted root != root of z-shifted equation")
    return failures


def test_gate_four_functional_equations():
    _gate(4)


# ====
# 5. printed operators and recurrences
# ====

def criterion_operators():
    failures = []
    if not verify_pde(11):
        failures.append("a differential operator misses mod t^10")
    telescoped = telescoped_recurrence_check(12)
    if not telescoped["ok"]:
        failures.append(f"telescoped recurrence: {telescoped['failures']}")
    two_term = two_term_recurrence_check(20)
    if not two_term["ok"]:
        failures.append(f"two-term recurrences: {two_term['failures']}")
    return failures


def test_gate_five_operators():
    _gate(5)


# ====
# 6. bijections
# ====

def criterion_bijections():
    failures = []
    for n in range(1, 7):
        # the engine's upper covers, read as trees
        words, above = _ballot_lattice(1, n)
        trees = [_ballot_tree(1, _render(word)) for word in words]
        covers = {trees[t]: {trees[c] for c in cs}
                  for t, cs in enumerate(above)}
        for t in all_trees(n):
            word = tree_to_dyck(t)
            if (valleys(word), double_falls(word), contacts(word)) \
                    != (asc(t), des(t), ell(t)):
                failures.append(f"Dyck statistics disagree at n={n}")
                break
            if covers.get(t) != rotations_up(t):
                failures.append(f"cover transport disagrees at n={n}")
                break
    for n in range(1, 8):
        for t in all_trees(n):
            c = canopy(t)
            if c.count("-") != asc(t) or c.count("+") != des(t):
                failures.append(f"canopy entry counts wrong at n={n}")
                break
        for s, t, des_s, asc_t in intervals(n):
            cs, ct = canopy(s), canopy(t)
            if not canopy_leq(cs, ct):
                failures.append(f"canopy not monotone at n={n}")
                break
            shared_minus = sum(a == b == "-" for a, b in zip(cs, ct))
            shared_plus = sum(a == b == "+" for a, b in zip(cs, ct))
            if (shared_minus, shared_plus) != (asc_t, des_s):
                failures.append(f"shared canopy entries wrong at n={n}")
                break
    if not fusy_humbert_check(6):
        failures.append("canopy-pair system fails at total degree 6")
    return failures


def test_gate_six_bijections():
    _gate(6)


# ====
# 7. slope-m generalization
# ====

STATS_ROWS = {
    (2, 2): [1, 4, 1],
    (2, 3): [1, 12, 30, 14, 1],
    (3, 3): [1, 18, 72, 66, 13],
    (4, 3): [1, 24, 132, 180, 58],
    (1, 4): [1, 12, 33, 22],
}


def criterion_slope_m():
    failures = []
    covered = set()
    for m in range(1, 7):
        for n in range(1, 10):
            if fuss_catalan(m, n) > 5000:
                continue
            covered.add((m, n))
            if m_tamari_interval_count(m, n) \
                    != m_tamari_intervals_formula(m, n):
                failures.append(f"count != formula at (m={m}, n={n})")
    wanted = {(m, n) for m in range(1, 7) for n in range(1, 5)}
    wanted |= {(m, n) for m in range(1, 3) for n in range(1, 6)}
    if not wanted <= covered:
        failures.append(f"grid misses {sorted(wanted - covered)}")
    if m_tamari_interval_count(2, 5) != 9729:
        failures.append("frozen count at (m=2, n=5) != 9729")
    # the order of every slope is that of the words' trees in T_{mn}, on
    # each (m <= 6, n) with at most 2e4 pairs of words
    for m, n in [(m, n) for m in range(1, 7) for n in range(1, 8)
                 if fuss_catalan(m, n) ** 2 <= 2 * 10**4]:
        vector = {w: bracket_vector(_ballot_tree(m, w))
                  for w in m_tamari_elements(m, n)}
        if set(m_tamari_intervals(m, n)) != {
                (s, t) for s in vector for t in vector
                if _bracket_leq(vector[s], vector[t])}:
            failures.append(f"order != T_mn order at (m={m}, n={n})")
    for (m, n), row in STATS_ROWS.items():
        table = m_tamari_interval_stats(m, n)
        if [table.value(k) for k in range(len(row))] != row:
            failures.append(f"statistics table at (m={m}, n={n})")
    return failures


def test_gate_seven_slope_m():
    _gate(7)


# ====
# 8. invariants
# ====

def criterion_invariants():
    failures = []
    for n in range(1, 8):
        signed = sum((-1) ** k * count
                     for k, count in enumerate(diagonal_fvector(n)))
        if signed != 1:
            failures.append(f"enumerated Euler sum != 1 at n={n}")
        if sum((-1) ** k * b_formula(n, k) for k in range(n)) != 1:
            failures.append(f"closed-form Euler sum != 1 at n={n}")
    for n in range(1, 7):
        downs = {t: rotation_down_set(t) for t in all_trees(n)}
        for t, down in downs.items():
            if t not in down:
                failures.append(f"reflexivity fails at n={n}")
            for s in down:
                if t in downs[s] and s != t:
                    failures.append(f"antisymmetry fails at n={n}")
                if not downs[s] <= down:
                    failures.append(f"transitivity fails at n={n}")
                if not tamari_leq(s, t):
                    failures.append(f"comparison vs reachability at n={n}")
        if failures:
            break
    for n in range(1, 9):
        if any(des(t) + asc(t) != n - 1 for t in all_trees(n)):
            failures.append(f"des + asc != n - 1 at n={n}")
    for n in range(1, 13):
        report = specialization_suite(n)
        if not report["ok"] or report["checked"] != 8:
            failures.append(f"specializations at n={n}: "
                            f"{report['failures']}")
    rng = random.Random(314159)
    for _ in range(200):
        n = rng.randint(1, 30)
        k = rng.randint(0, 30)
        r = rng.randint(0, 30)
        if not chu_vandermonde_check(n, k, r):
            failures.append(f"Vandermonde convolution at {(n, k, r)}")
            break
    return failures


def test_gate_eight_invariants():
    _gate(8)


# ====
# standalone runner
# ====

GATES = [
    ("1 interval histogram (enumeration = formula = series, n<=8)",
     criterion_histogram),
    ("2 diagonal face counts (transform n<=8, enumeration n<=6)",
     criterion_face_counts),
    ("3 internal faces (two routes n<=6, frozen rows n<=7, closed "
     "recursion n<=8)",
     criterion_internal_faces),
    ("4 functional equations (quartic, catalytic, parametrization, "
     "z-shift)", criterion_functional_equations),
    ("5 operators (PDE mod t^10, telescoped n<=12, two-term n<=20)",
     criterion_operators),
    ("6 bijections (Dyck n<=6, canopy n<=7, canopy-pair system)",
     criterion_bijections),
    ("7 slope-m lattices (counts on all grids <= 5000 elements, "
     "statistics, order in T_mn up to 2e4 pairs)", criterion_slope_m),
    ("8 invariants (Euler, order axioms, des+asc, specializations, "
     "convolution)", criterion_invariants),
]


def main() -> int:
    status = 0
    for number in range(1, len(GATES) + 1):
        line, passed = _verdict(number)
        print(line, flush=True)
        if not passed:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
