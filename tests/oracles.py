"""Independent reference implementations used to cross-check the package.

Everything here works on raw dicts mapping exponent tuples to scalars
(Fractions over the rationals, least nonnegative residues mod a prime),
with deliberately naive algorithms: schoolbook products, repeated
multiplication instead of binary powering, dense univariate division,
permutation-sum determinants, a point search that recurses once per
variable, and a recursive-descent parser that makes every atom a dict and
combines them with the naive operations.  The only package coupling allowed
is reading ``Polynomial.terms`` when a test converts a value for comparison,
and the reference chain report, which is built from the package's public
sampler, products and product check, as ``verify_chain`` first built it.
"""

import re
from fractions import Fraction
from itertools import permutations

# The variable-name rule as the grammar spells it: an ASCII letter, then
# ASCII letters and digits, and nothing after them.
VAR_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*\Z")


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


def reference_chain_report(ring, checks_per_level: int, seed: int) -> dict:
    """``verify_chain(ring, ...).to_json_dict()`` rebuilt from the public API.

    Every draw is ``random_polynomial(rng, ring, max_degree=4, max_terms=4)``;
    with probability 1/2 a g drawn for level k becomes 0 at k = 0 and
    t_j times itself for j = ``rng.randint(1, k)`` by a product otherwise.
    Each check is ``product_check(g, h)``, and membership of the witnesses
    and of 1 is the per-term scan.
    """
    from random import Random

    from krullkit import MonomialPrimeIdeal, random_polynomial

    rng = Random(seed)
    n = ring.nvars
    failures = []

    def draw(level):
        f = random_polynomial(rng, ring, max_degree=4, max_terms=4)
        if level is not None and rng.random() < 0.5:
            f = ring.zero() if level == 0 else f * ring.gen(rng.randint(1, level))
        return f

    def probe(level):
        ideal, passed = MonomialPrimeIdeal(ring, level), 0
        for _ in range(checks_per_level):
            g, h = draw(level), draw(None)
            if ideal.product_check(g, h):
                passed += 1
            else:
                failures.append(f"level {level}: product check failed for g={g}, h={h}")
        return passed

    zero_passed = probe(0)
    levels = []
    for k in range(1, n + 1):
        witness = raw(ring.gen(k))
        in_upper, in_lower = member_scan(witness, k), member_scan(witness, k - 1)
        name = ring.variables[k - 1]
        if not in_upper:
            failures.append(f"level {k}: witness {name} not in upper ideal")
        if in_lower:
            failures.append(f"level {k}: witness {name} in lower ideal")
        levels.append({"level": k, "witness": name, "in_upper": in_upper,
                       "in_lower": in_lower, "product_checks_passed": probe(k)})
    proper = not member_scan(raw(ring.one()), n)
    if not proper:
        failures.append("top level contains 1, ideal not proper")
    return {"ring": str(ring), "accepted": not failures, "proper": proper,
            "zero_ideal_checks_passed": zero_passed, "levels": levels, "failures": failures}


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


class ReferenceFieldTooSmall(Exception):
    """The reference point search ran out of nonzero candidates."""


def _inverse(c, modulus):
    return Fraction(1) / c if modulus is None else pow(c, -1, modulus)


def reference_point(a: dict, names, modulus=None) -> tuple:
    """A non-vanishing point of a nonzero raw dict, by the recursive search.

    search(g, m) fixes t1..t_{m-1} so that g's leading coefficient in t_m
    does not vanish, then takes the first of the candidates 1, 2, ... (1..p-1
    over F_p) at which g does not; variables after m are 1.  It recurses once
    per variable, so it is for small rings only.  Running out of candidates
    raises ReferenceFieldTooSmall with the package's FieldTooSmall text, for
    names of at most 10 characters, which that text writes out.
    """
    n = len(names)
    field = "Q" if modulus is None else f"F{modulus}"

    def search(g: dict, m: int) -> tuple:
        # g is nonzero and free of variables m+1..n.
        if m == 0:
            return ()
        d = max(exps[m - 1] for exps in g)
        lead = {exps[: m - 1] + (0,) + exps[m:]: c for exps, c in g.items() if exps[m - 1] == d}
        prefix = search(lead, m - 1)
        for candidate in range(1, d + 2):
            if modulus is not None and candidate >= modulus:
                raise ReferenceFieldTooSmall(f"{field} has too few nonzero elements to fix "
                                             f"variable {names[m - 1]} (degree {d})")
            if naive_eval(g, prefix + (candidate,) + (1,) * (n - m), modulus):
                return prefix + (candidate,)
        raise AssertionError("d + 1 distinct candidates, at most d roots")

    return search(a, n)


def reference_monicize(a: dict, names, modulus=None) -> tuple:
    """(a list, scale, monic raw dict, degree) for a nonzero raw dict.

    The leading form's reference point, rescaled to end in 1, gives the
    coefficients a_j; the scale is the form's value there, and the monic
    polynomial is a with t_j -> t_j + a_j*t_n, divided by the scale.
    """
    n = len(names)
    degree = total_deg(a)
    form = {exps: c for exps, c in a.items() if sum(exps) == degree}
    point = reference_point(form, names, modulus)
    last = _inverse(point[-1], modulus)
    coefficients = [b * last if modulus is None else b * last % modulus for b in point[:-1]]
    scale = naive_eval(form, coefficients + [1], modulus)
    unit = [tuple(int(i == j) for i in range(n)) for j in range(n)]
    images = [_norm({unit[j]: 1, unit[-1]: c}, modulus) for j, c in enumerate(coefficients)]
    images.append({unit[-1]: 1})
    inverse = _inverse(scale, modulus)
    monic = _norm({exps: c * inverse for exps, c in naive_subst(a, images, n, modulus).items()},
                  modulus)
    return coefficients, scale, monic, degree


class ReferenceParseError(Exception):
    """A parse error of the reference parser, named by the package class it mirrors."""

    IDENTIFIERS = {
        "ParseError": "ParseError",
        "UnknownVariableError": "UnknownVariable",
        "FieldLiteralError": "ParseError",
    }

    def __init__(self, offset: int, message: str, expected=(), cls="ParseError"):
        super().__init__(message)
        self.cls = cls
        self.identifier = self.IDENTIFIERS[cls]
        self.offset = offset
        self.message = message
        self.expected = tuple(expected)


_MAX_EXPONENT = 2**31 - 1
_MAX_LITERAL_DIGITS = 4300
_MAX_DEPTH = 100
_DIGITS = b"0123456789"
_LETTERS = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz"


def _shown(token: str, noun: str) -> str:
    return repr(token) if len(token) <= 10 else f"{noun} of {len(token)} characters"


def _tokenize(text: str) -> list:
    # (kind, text, byte offset) tokens by a loop over the UTF-8 bytes.
    data = text.encode("utf-8", "surrogateescape")
    tokens = []
    i, n = 0, len(data)
    while i < n:
        b = data[i]
        if b in b" \t\r\n":
            i += 1
        elif b in _DIGITS:
            j = i + 1
            while j < n and data[j] in _DIGITS:
                j += 1
            tokens.append(("number", data[i:j].decode("ascii"), i))
            i = j
        elif b in _LETTERS:
            j = i + 1
            while j < n and (data[j] in _LETTERS or data[j] in _DIGITS):
                j += 1
            tokens.append(("name", data[i:j].decode("ascii"), i))
            i = j
        elif b in b"+-*^/()":
            tokens.append((chr(b), chr(b), i))
            i += 1
        else:
            shown = repr(chr(b)) if b < 0x80 else f"0x{b:02x}"
            raise ReferenceParseError(i, f"unexpected character {shown}")
    tokens.append(("end", "", n))
    return tokens


class _ReferenceParser:
    """Recursive descent with one raw dict per atom, combined by the naive ops."""

    def __init__(self, text: str, names, modulus):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0
        self.names = list(names)
        self.modulus = modulus

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str):
        tok = self.peek()
        if tok[0] != kind:
            raise ReferenceParseError(tok[2], f"expected {what}", (what,))
        return self.advance()

    def parse_expr(self) -> dict:
        value = self.parse_term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()
            rhs = self.parse_term()
            if op[0] == "-":
                rhs = naive_neg(rhs, self.modulus)
            value = naive_add(value, rhs, self.modulus)
        return value

    def parse_term(self) -> dict:
        negate = False
        if self.peek()[0] == "-":
            self.advance()
            negate = True
        value = self.parse_factor()
        while self.peek()[0] == "*":
            self.advance()
            value = naive_mul(value, self.parse_factor(), self.modulus)
        return naive_neg(value, self.modulus) if negate else value

    def parse_factor(self) -> dict:
        value = self.parse_atom()
        if self.peek()[0] == "^":
            self.advance()
            _, token, offset = self.expect("number", "exponent")
            digits = token.lstrip("0") or "0"
            if len(digits) > 10 or int(digits) > _MAX_EXPONENT:
                shown = digits if len(digits) <= 10 else f"of {len(digits)} digits"
                raise ReferenceParseError(offset, f"exponent {shown} exceeds {_MAX_EXPONENT}")
            value = naive_pow(value, int(digits), len(self.names), self.modulus)
        return value

    def parse_atom(self) -> dict:
        kind, token, offset = self.peek()
        if kind in ("-", "number"):
            return self.parse_rational()
        if kind == "name":
            self.advance()
            if token not in self.names:
                raise ReferenceParseError(
                    offset, f"unknown variable {_shown(token, 'name')}",
                    cls="UnknownVariableError",
                )
            exps = tuple(int(name == token) for name in self.names)
            return {exps: 1 if self.modulus else Fraction(1)}
        if kind == "(":
            if self.depth == _MAX_DEPTH:
                raise ReferenceParseError(
                    offset, f"parentheses nested deeper than {_MAX_DEPTH}"
                )
            self.advance()
            self.depth += 1
            value = self.parse_expr()
            self.expect(")", "')'")
            self.depth -= 1
            return value
        raise ReferenceParseError(
            offset, "expected a value", ("number", "variable", "'('")
        )

    def literal(self, what: str):
        _, token, offset = self.expect("number", what)
        if len(token) > _MAX_LITERAL_DIGITS:
            raise ReferenceParseError(
                offset, f"number longer than {_MAX_LITERAL_DIGITS} digits"
            )
        return int(token), offset

    def parse_rational(self) -> dict:
        sign = 1
        if self.peek()[0] == "-":
            self.advance()
            sign = -1
        numerator = sign * self.literal("number")[0]
        value = Fraction(numerator)
        if self.peek()[0] == "/":
            self.advance()
            denominator, offset = self.literal("positive denominator")
            if denominator == 0:
                raise ReferenceParseError(offset, "denominator must be positive")
            value = Fraction(numerator, denominator)
            if self.modulus and value.denominator % self.modulus == 0:
                digits = str(denominator)
                named = digits if len(digits) <= 10 else f"of {len(digits)} characters"
                raise ReferenceParseError(
                    offset,
                    f"denominator {named} is not invertible in F{self.modulus}",
                    cls="FieldLiteralError",
                )
        if self.modulus:
            value = value.numerator * pow(value.denominator, -1, self.modulus)
        return _norm({(0,) * len(self.names): value}, self.modulus)


def reference_parse(text: str, names, modulus=None) -> dict:
    """Raw term dict of an expression over Q (modulus None) or F_modulus.

    Raises :class:`ReferenceParseError` where the package raises a
    ``ParseError``, with the same offset, message and expected tokens.
    """
    parser = _ReferenceParser(text, names, modulus)
    value = parser.parse_expr()
    kind, token, offset = parser.peek()
    if kind != "end":
        raise ReferenceParseError(
            offset,
            f"unexpected {_shown(token, 'token')} after expression",
            ("'+'", "'-'", "'*'", "end of input"),
        )
    return value
