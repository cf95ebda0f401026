"""Frozen algebraic data attached to the interval series A(t, z).

Three independent descriptions of the same series live here:

  * a quartic polynomial equation P(t, z, A) = 0, stored expanded in a
    checksummed data file so the 34 integer monomials cannot silently rot;
  * three differential operators (order <= 3 in each of d/dt, d/dz) that
    annihilate A, stored as term tables (coefficient, #d/dt, #d/dz);
  * a three-term recurrence eta0(n) a~_n + eta1(n) a~_{n+1}
    + eta2(n) a~_{n+2} = 0 on the row polynomials a~_n(z).

The module only holds the data; solving and verifying happen in `series`.
"""
from __future__ import annotations

import hashlib
from functools import lru_cache
from importlib import resources

from .polys import MonomialPolynomial, ZPolynomial

QUARTIC_RESOURCE = "quartic_root_equation.txt"
QUARTIC_SHA256 = "fb647cdbafc32f9370c5260b91e88eb5c6a17b78fdc1a9dfbfcbfa1be6c8a114"


# ===================================================================
# the quartic equation (data file + checksum)
# ===================================================================

@lru_cache(maxsize=1)
def load_quartic() -> dict:
    """{(t_exp, z_exp, x_exp): coefficient} for the quartic P(t, z, X)."""
    raw = resources.files(__package__).joinpath(
        "data", QUARTIC_RESOURCE).read_bytes()
    digest = hashlib.sha256(raw).hexdigest()
    if digest != QUARTIC_SHA256:
        raise RuntimeError(
            f"corrupted {QUARTIC_RESOURCE}: sha256 {digest}")
    coeffs: dict = {}
    for line in raw.decode().splitlines():
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) != 4:
            raise RuntimeError(f"malformed quartic line: {line!r}")
        a, b, c, value = map(int, fields)
        if (a, b, c) in coeffs:
            raise RuntimeError(f"duplicate quartic monomial: {line!r}")
        coeffs[(a, b, c)] = value
    if max(c for (_, _, c) in coeffs) != 4:
        raise RuntimeError("quartic data lost its X^4 term")
    return coeffs


# ===================================================================
# annihilating differential operators
# ===================================================================

@lru_cache(maxsize=1)
def pde_operators() -> dict:
    """Three operators annihilating A(t, z), lowest order first.

    Each operator is a list of terms (coefficient, i, j) meaning
    coefficient(t, z) * (d/dt)^i (d/dz)^j; coefficients are
    MonomialPolynomial in (t, z).
    """
    T, Z = MonomialPolynomial.variables(2)
    one = MonomialPolynomial.constant(2, 1)
    p1 = [
        (18 * one, 0, 0),
        (-18 * T * (T * Z - T + 1), 1, 0),
        (-Z * (4 * T * Z**3 - 22 * T * Z**2 + 36 * T * Z - 18 * T - 45), 0, 1),
        (T * Z * (2 * T * Z**3 - 11 * T * Z**2 + 9 * T - 9), 1, 1),
        (-2 * Z**2 * (T * Z**3 - 5 * T * Z**2 + 7 * T * Z - 3 * T - 6), 0, 2),
    ]
    p2 = [
        (24 * one, 0, 0),
        (-24 * T * (T * Z - T + 1), 1, 0),
        (-4 * T * Z**4 + 20 * T * Z**3 - 37 * T * Z**2 + 30 * T * Z - 9 * T
         + 54 * Z + 9, 0, 1),
        (T**2 * (2 * T * Z**3 - 11 * T * Z**2 + 9 * T - 9), 2, 0),
        (-Z * (2 * T * Z**4 - 9 * T * Z**3 + 15 * T * Z**2 - 11 * T * Z
               + 3 * T - 13 * Z - 3), 0, 2),
    ]
    p3 = [
        (12 * T * (T * Z**4 + 18 * T * Z**3 + 198 * T * Z**2 - 486 * T * Z
                   - 9 * Z**2 - 243 * T + 243), 0, 0),
        (12 * T**2 * Z**2 * (10 * T**2 * Z**4 - 110 * T**2 * Z**3
                             + 334 * T**2 * Z**2 - 378 * T**2 * Z - T * Z**2
                             + 144 * T**2 - 108 * T * Z + 333 * T + 9), 1, 0),
        (432 * T**3 * Z**7 - 4536 * T**3 * Z**6 + 14256 * T**3 * Z**5
         - 60 * T**2 * Z**6 - 18414 * T**3 * Z**4 + 672 * T**2 * Z**5
         + 7128 * T**3 * Z**3 - 6102 * T**2 * Z**4 + 5508 * T**3 * Z**2
         + 28080 * T**2 * Z**3 - 5832 * T**3 * Z - 22680 * T**2 * Z**2
         + 432 * T * Z**3 + 1458 * T**3 - 11664 * T**2 * Z - 3240 * T * Z**2
         - 4374 * T**2 + 17496 * T * Z + 4374 * T - 1458, 0, 1),
        (2 * Z * (189 * T**3 * Z**7 - 1890 * T**3 * Z**6 + 5670 * T**3 * Z**5
                  - 26 * T**2 * Z**6 - 6831 * T**3 * Z**4 + 273 * T**2 * Z**5
                  + 1809 * T**3 * Z**3 - 2889 * T**2 * Z**4
                  + 3240 * T**3 * Z**2 + 11124 * T**2 * Z**3
                  - 2916 * T**3 * Z - 4698 * T**2 * Z**2 + 270 * T * Z**3
                  + 729 * T**3 - 3645 * T**2 * Z - 1458 * T * Z**2
                  - 2187 * T**2 + 6561 * T * Z + 2187 * T - 729), 0, 2),
        (Z**2 * (2 * T * Z**3 - 11 * T * Z**2 + 9 * T - 9)
         * (27 * T**2 * Z**4 - 108 * T**2 * Z**3 + 162 * T**2 * Z**2
            - 4 * T * Z**3 - 108 * T**2 * Z + 18 * T * Z**2 + 27 * T**2
            - 216 * T * Z - 54 * T + 27), 0, 3),
    ]
    return {"p1": p1, "p2": p2, "p3": p3}


# ===================================================================
# telescoped three-term recurrence
# ===================================================================

def eta_polynomials(n: int) -> tuple:
    """(eta0, eta1, eta2) as z-polynomials, for the recurrence

        eta0(n) a~_n + eta1(n) a~_{n+1} + eta2(n) a~_{n+2} = 0

    on the row polynomials a~_n(z) = sum_k (#intervals of size n with
    statistic k) z^k.  The same triple with z shifted by one works on the
    face-count rows b~_n(z) = a~_n(z + 1).
    """
    if n < 1:
        raise ValueError("n must be positive")
    eta2 = ZPolynomial((
        -27 * n**2 - 54 * n - 30,
        -6 * n**2 - 12 * n,
        n**2 + 2 * n,
    )).scale(3 * (3 * n + 7) * (n + 3) * (3 * n + 8))
    eta1 = ZPolynomial((
        -729 * n**4 - 4374 * n**3 - 10449 * n**2 - 11664 * n - 5040,
        -3078 * n**4 - 18468 * n**3 - 39078 * n**2 - 34128 * n - 10080,
        -378 * n**4 - 2268 * n**3 - 4188 * n**2 - 2358 * n,
        108 * n**4 + 648 * n**3 + 1188 * n**2 + 648 * n,
        -21 * n**4 - 126 * n**3 - 231 * n**2 - 126 * n,
        2 * n**4 + 12 * n**3 + 22 * n**2 + 12 * n,
    )).scale(-(2 * n + 3))
    eta0 = (ZPolynomial((1, -4, 6, -4, 1))    # (z - 1)^4
            * ZPolynomial((
                -27 * n**2 - 108 * n - 111,
                -6 * n**2 - 24 * n - 18,
                n**2 + 4 * n + 3,
            ))).scale(3 * n * (3 * n + 2) * (3 * n + 1))
    return (eta0, eta1, eta2)
