"""Frozen algebraic data attached to the interval series A(t, z).

Three independent descriptions of the same series live here:

  * a quartic polynomial equation P(t, z, A) = 0, stored expanded in a
    checksummed data file so the 34 integer monomials cannot silently rot;
  * three differential operators (order <= 3 in each of d/dt, d/dz) that
    annihilate A, stored as term tables (coefficient, #d/dt, #d/dz);
  * a three-term recurrence eta0(n) a~_n + eta1(n) a~_{n+1}
    + eta2(n) a~_{n+2} = 0 on the row polynomials a~_n(z).

The module only holds the data; solving and verifying happen in `series`.
The quartic's checksum is computed by sha256_hex, a plain FIPS 180-4
SHA-256, not by hashlib: importing hashlib loads OpenSSL's libcrypto, which
alone adds about 3.6 MB to the resident memory of a process that hashes
one 584-byte file.
"""
from __future__ import annotations

from importlib import resources

from .polys import MonomialPolynomial, ZPolynomial

QUARTIC_RESOURCE = "quartic_root_equation.txt"
QUARTIC_SHA256 = "fb647cdbafc32f9370c5260b91e88eb5c6a17b78fdc1a9dfbfcbfa1be6c8a114"


# ===================================================================
# the quartic equation (data file + checksum)
# ===================================================================

# FIPS 180-4: the first 32 bits of the fractional parts of the cube roots
# of the first 64 primes (round constants) and of the square roots of the
# first 8 (initial hash value)
_SHA256_K = (
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
)
_SHA256_H = (0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19)


def sha256_hex(data: bytes) -> str:
    """The SHA-256 digest of data as 64 hex digits (FIPS 180-4)."""
    mask = 0xFFFFFFFF

    def rotr(x: int, n: int) -> int:
        return (x >> n | x << (32 - n)) & mask

    # pad with a 1 bit, zeros, and the bit length: whole 64-byte blocks
    padded = (data + b"\x80" + bytes(-(len(data) + 9) % 64)
              + (8 * len(data)).to_bytes(8, "big"))
    state = _SHA256_H
    for start in range(0, len(padded), 64):
        w = [int.from_bytes(padded[i:i + 4], "big")
             for i in range(start, start + 64, 4)]
        for i in range(16, 64):
            x, y = w[i - 15], w[i - 2]
            w.append((w[i - 16] + w[i - 7]
                      + (rotr(x, 7) ^ rotr(x, 18) ^ x >> 3)
                      + (rotr(y, 17) ^ rotr(y, 19) ^ y >> 10)) & mask)
        a, b, c, d, e, f, g, h = state
        for k, word in zip(_SHA256_K, w):
            t1 = (h + (rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25))
                  + (e & f ^ ~e & g) + k + word)
            t2 = ((rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22))
                  + (a & b ^ a & c ^ b & c))
            a, b, c, d, e, f, g, h = ((t1 + t2) & mask, a, b, c,
                                      (d + t1) & mask, e, f, g)
        state = tuple((s + v) & mask
                      for s, v in zip(state, (a, b, c, d, e, f, g, h)))
    return "".join(f"{s:08x}" for s in state)


def load_quartic() -> dict:
    """{(t_exp, z_exp, x_exp): coefficient} for the quartic P(t, z, X)."""
    raw = resources.files(__package__).joinpath(
        "data", QUARTIC_RESOURCE).read_bytes()
    digest = sha256_hex(raw)
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
