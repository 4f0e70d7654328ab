"""Independent reference implementations used to cross-check the package.

Everything here works on raw dicts mapping exponent tuples to scalars
(Fractions over the rationals, least nonnegative residues mod a prime),
with deliberately naive algorithms: schoolbook products, repeated
multiplication instead of binary powering, dense univariate division,
permutation-sum determinants.  The only package coupling allowed is
reading ``Polynomial.terms`` when a test converts a value for comparison.
"""

from fractions import Fraction
from itertools import permutations


def raw(f) -> dict:
    """Raw term dict of a package polynomial (scalar values, not elements)."""
    return dict(f.terms)


def _norm(terms: dict, modulus) -> dict:
    out = {}
    for exps, c in terms.items():
        if modulus is not None:
            c = c % modulus
        if c:
            out[exps] = c
    return out


def naive_add(a: dict, b: dict, modulus=None) -> dict:
    out = dict(a)
    for exps, c in b.items():
        out[exps] = out.get(exps, 0) + c
    return _norm(out, modulus)


def naive_neg(a: dict, modulus=None) -> dict:
    return _norm({exps: -c for exps, c in a.items()}, modulus)


def naive_mul(a: dict, b: dict, modulus=None) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return _norm(out, modulus)


def naive_pow(a: dict, e: int, nvars: int, modulus=None) -> dict:
    out = {(0,) * nvars: Fraction(1) if modulus is None else 1}
    for _ in range(e):
        out = naive_mul(out, a, modulus)
    return out


def naive_eval(a: dict, point, modulus=None):
    total = 0
    for exps, c in a.items():
        term = c
        for v, e in zip(point, exps):
            for _ in range(e):
                term = term * v
        total = total + term
    return total % modulus if modulus is not None else Fraction(total)


def naive_subst(a: dict, images, target_nvars: int, modulus=None) -> dict:
    out: dict = {}
    for exps, c in a.items():
        term = {(0,) * target_nvars: c}
        for img, e in zip(images, exps):
            for _ in range(e):
                term = naive_mul(term, img, modulus)
        out = naive_add(out, term, modulus)
    return _norm(out, modulus)


def member_scan(a: dict, k: int) -> bool:
    """Per-term divisibility: every term divisible by some of the first k vars."""
    return all(any(exps[i] > 0 for i in range(k)) for exps in a)


def total_deg(a: dict):
    return max((sum(exps) for exps in a), default=None)


def is_homog(a: dict) -> bool:
    return len({sum(exps) for exps in a}) <= 1


def dense_mul(a: list, b: list) -> list:
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def univariate_remainder(num: list, den: list) -> list:
    """Remainder of dense univariate division by a monic divisor.

    Coefficient lists run lowest degree first; the result is padded to
    exactly deg(den) entries.
    """
    assert den[-1] == 1
    d = len(den) - 1
    num = list(num)
    while len(num) > d:
        lead = num.pop()
        if lead:
            shift = len(num) - d
            for j in range(d):
                num[shift + j] -= lead * den[j]
    num += [Fraction(0)] * (d - len(num))
    return num


def power_coords_by_division(relation: list, i: int) -> list:
    """Coordinates of t^i modulo t^d - sum(relation[j] * t^j), via division."""
    d = len(relation)
    den = [-c for c in relation] + [Fraction(1)]
    num = [Fraction(0)] * i + [Fraction(1)]
    return univariate_remainder(num, den)


def _parity(perm) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def leibniz_charpoly(matrix: list) -> list:
    """Dense coefficients of det(t*I - M) by the permutation sum, low first."""
    d = len(matrix)
    total = [Fraction(0)] * (d + 1)
    for perm in permutations(range(d)):
        prod = [Fraction(1)]
        for i in range(d):
            entry = [Fraction(-matrix[i][perm[i]])]
            if perm[i] == i:
                entry.append(Fraction(1))
            prod = dense_mul(prod, entry)
        sign = _parity(perm)
        for k, v in enumerate(prod):
            total[k] += sign * v
    return total
