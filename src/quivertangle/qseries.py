"""Exact arithmetic for Laurent polynomials in q and a, q-rational
functions, Pochhammer symbols, quantum binomials and multinomials.

Coefficients are arbitrary-precision integers throughout; nothing in this
module (or anything built on it) touches floating point.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache


class LaurentPoly:
    """Sparse Laurent polynomial in q and a over the integers.

    Terms live in a dict mapping (exp_q, exp_a) to a nonzero integer
    coefficient.  Instances are immutable by convention: every operation
    returns a fresh object and nothing mutates ``terms`` after __init__.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for key, coeff in terms.items():
                if coeff:
                    cleaned[key] = coeff
        self.terms = cleaned

    @classmethod
    def mono(cls, coeff, exp_q=0, exp_a=0):
        """Single monomial coeff * q^exp_q * a^exp_a."""
        if coeff == 0:
            return cls()
        return cls({(exp_q, exp_a): coeff})

    def is_zero(self):
        return not self.terms

    def is_q_only(self):
        return all(ea == 0 for _, ea in self.terms)

    def is_one(self):
        return self.terms == {(0, 0): 1}

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.mono(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.mono(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            new = out.get(key, 0) + coeff
            if new:
                out[key] = new
            else:
                out.pop(key, None)
        result = LaurentPoly()
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = LaurentPoly()
        result.terms = {key: -c for key, c in self.terms.items()}
        return result

    def __sub__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.mono(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            result = LaurentPoly()
            result.terms = {key: c * other for key, c in self.terms.items()}
            return result
        out = {}
        for (q1, a1), c1 in self.terms.items():
            for (q2, a2), c2 in other.terms.items():
                key = (q1 + q2, a1 + a2)
                new = out.get(key, 0) + c1 * c2
                if new:
                    out[key] = new
                else:
                    del out[key]
        result = LaurentPoly()
        result.terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            # only monomials are invertible
            if len(self.terms) != 1:
                raise ValueError("negative power of a non-monomial")
            ((eq, ea), c), = self.terms.items()
            if c not in (1, -1):
                raise ValueError("negative power of a non-unit coefficient")
            return LaurentPoly.mono(c if n % 2 else 1, eq * n, ea * n)
        result = ONE
        base = self
        k = n
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def map_exponents(self, fn):
        """Apply fn(exp_q, exp_a) -> (exp_q', exp_a') to every term."""
        out = {}
        for key, coeff in self.terms.items():
            new_key = fn(*key)
            new = out.get(new_key, 0) + coeff
            if new:
                out[new_key] = new
            else:
                del out[new_key]
        result = LaurentPoly()
        result.terms = out
        return result

    def subs_q_inverse(self):
        """q -> 1/q."""
        return self.map_exponents(lambda eq, ea: (-eq, ea))

    def subs_a_q2(self):
        """a -> q^2 (Jones specialization)."""
        return self.map_exponents(lambda eq, ea: (eq + 2 * ea, 0))

    def mirror(self):
        """q -> 1/q, a -> 1/a."""
        return self.map_exponents(lambda eq, ea: (-eq, -ea))

    def a_slices(self):
        """Split into {exp_a: q-only LaurentPoly}."""
        slices = {}
        for (eq, ea), coeff in self.terms.items():
            slices.setdefault(ea, {})[(eq, 0)] = coeff
        out = {}
        for ea, terms in slices.items():
            p = LaurentPoly()
            p.terms = terms
            out[ea] = p
        return out

    def divide_exact(self, divisor):
        """Exact division by a q-only Laurent polynomial.

        Raises ValueError if the division leaves a remainder.  Works one
        a-degree slice at a time; within a slice it is univariate long
        division in q over the rationals with an integrality check.
        """
        if not isinstance(divisor, LaurentPoly):
            divisor = LaurentPoly.mono(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if not divisor.is_q_only():
            raise ValueError("divisor must not contain a")
        if self.is_zero():
            return LaurentPoly()
        div = sorted((eq, c) for (eq, _), c in divisor.terms.items())
        dmin = div[0][0]
        dvec = {eq - dmin: c for eq, c in div}
        ddeg = max(dvec)
        out = {}
        for ea, sl in self.a_slices().items():
            nterms = sorted((eq, c) for (eq, _), c in sl.terms.items())
            nmin = nterms[0][0]
            rem = {eq - nmin: Fraction(c) for eq, c in nterms}
            ndeg = max(rem)
            lead = dvec[ddeg]
            quot = {}
            for deg in range(ndeg - ddeg, -1, -1):
                c = rem.get(deg + ddeg)
                if not c:
                    continue
                f = c / lead
                quot[deg] = f
                for e, dc in dvec.items():
                    key = deg + e
                    new = rem.get(key, Fraction(0)) - f * dc
                    if new:
                        rem[key] = new
                    else:
                        rem.pop(key, None)
            if rem:
                raise ValueError("inexact polynomial division")
            shift = nmin - dmin
            for deg, f in quot.items():
                if f.denominator != 1:
                    raise ValueError("inexact polynomial division")
                if f:
                    out[(deg + shift, ea)] = f.numerator
        result = LaurentPoly()
        result.terms = out
        return result

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for (eq, ea) in sorted(self.terms, key=lambda k: (k[1], k[0])):
            coeff = self.terms[(eq, ea)]
            factors = []
            if eq:
                factors.append("q" if eq == 1 else f"q^{eq}")
            if ea:
                factors.append("a" if ea == 1 else f"a^{ea}")
            mag = abs(coeff)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            if not parts:
                parts.append(body if coeff > 0 else f"-{body}")
            else:
                parts.append(("+ " if coeff > 0 else "- ") + body)
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


ZERO = LaurentPoly()
ONE = LaurentPoly.mono(1)
Q = LaurentPoly.mono(1, 1, 0)
A = LaurentPoly.mono(1, 0, 1)


def neg_q_pow(n):
    """(-q)^n as a LaurentPoly, stored as (-1)^n q^n."""
    return LaurentPoly.mono(-1 if n % 2 else 1, n, 0)


def q_pow(n):
    return LaurentPoly.mono(1, n, 0)


def a_pow(n):
    return LaurentPoly.mono(1, 0, n)


def monomial_parts(p):
    """Decompose a monomial LaurentPoly into (coeff, exp_q, exp_a)."""
    if len(p.terms) != 1:
        raise ValueError("not a monomial")
    ((eq, ea), c), = p.terms.items()
    return c, eq, ea


def pochhammer(base, step, n):
    """(base; q^step)_n = prod_{j=0}^{n-1} (1 - base * q^(step*j)).

    base must be a single monomial +-q^alpha a^beta; step is an even
    q-exponent; n >= 0.  Returns 1 (empty product) when n = 0.
    """
    if n < 0:
        raise ValueError("Pochhammer length must be non-negative")
    c, eq, ea = monomial_parts(base)
    result = ONE
    for j in range(n):
        result = result * (ONE - LaurentPoly.mono(c, eq + step * j, ea))
    return result


@lru_cache(maxsize=None)
def poch_q2(n):
    """(q^2; q^2)_n, the workhorse denominator."""
    return pochhammer(LaurentPoly.mono(1, 2, 0), 2, n)


@lru_cache(maxsize=None)
def qbinom_plus(N, k):
    """Gaussian binomial in q^2: (q^2;q^2)_N / ((q^2;q^2)_k (q^2;q^2)_{N-k}).

    Returns 0 outside 0 <= k <= N.  The Pochhammer division is verified
    exact; a remainder signals an arithmetic bug.
    """
    if k < 0 or k > N:
        return ZERO
    return poch_q2(N).divide_exact(poch_q2(k) * poch_q2(N - k))


def qmultinomial(N, parts):
    """(q^2;q^2)_N / prod_i (q^2;q^2)_{parts[i]}; polynomial in q^2 with
    constant term 1."""
    parts = list(parts)
    if any(p < 0 for p in parts):
        raise ValueError("multinomial parts must be non-negative")
    if sum(parts) != N:
        raise ValueError("multinomial parts must sum to N")
    result = ONE
    total = 0
    for p in parts:
        total += p
        result = result * qbinom_plus(total, p)
    return result


class QFraction:
    """Quotient of a LaurentPoly by a q-only LaurentPoly.

    Normalization is lazy: construction and arithmetic never run a gcd;
    equality cross-multiplies, and reduction happens only on demand
    (serialization or clearing to a Laurent polynomial).
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if isinstance(num, int):
            num = LaurentPoly.mono(num)
        if den is None:
            den = ONE
        elif isinstance(den, int):
            den = LaurentPoly.mono(den)
        if den.is_zero():
            raise ZeroDivisionError("QFraction with zero denominator")
        if not den.is_q_only():
            raise ValueError("QFraction denominator must be a-free")
        self.num = num
        self.den = den

    def is_zero(self):
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = QFraction(other)
        if not isinstance(other, QFraction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        return hash(self.normalized_pair())

    def __add__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = QFraction(other)
        if self.den.terms == other.den.terms:
            return QFraction(self.num + other.num, self.den)
        return QFraction(self.num * other.den + other.num * self.den,
                         self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return QFraction(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = QFraction(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            return QFraction(self.num * other, self.den)
        return QFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = QFraction(other)
        if not other.num.is_q_only():
            raise ValueError("QFraction division needs an a-free divisor")
        return QFraction(self.num * other.den, self.den * other.num)

    def clear_to_laurent(self):
        """Exact num/den as a LaurentPoly; raises if a denominator remains."""
        return self.num.divide_exact(self.den)

    def normalized_pair(self):
        """Reduced (num, den) with den having positive leading coefficient
        and lowest q-degree zero where possible."""
        num, den = _reduce_fraction(self.num, self.den)
        return num, den

    def normalized(self):
        num, den = self.normalized_pair()
        return QFraction(num, den)

    def map_both(self, fn):
        num = fn(self.num)
        den = fn(self.den)
        dmin = min(eq for eq, _ in den.terms)
        if dmin:
            # keep the denominator a genuine polynomial-looking object
            shift = LaurentPoly.mono(1, -dmin, 0)
            num = num * shift
            den = den * shift
        return QFraction(num, den)

    def subs_a_q2(self):
        return QFraction(self.num.subs_a_q2(), self.den)

    def mirror(self):
        return self.map_both(lambda p: p.mirror())

    def __str__(self):
        num, den = self.normalized_pair()
        if den.is_one():
            return str(num)
        return f"({num}) / ({den})"

    def __repr__(self):
        return f"QFraction({self})"


def _q_gcd(f, g):
    """gcd of two q-only LaurentPolys, as a primitive integer polynomial
    in q with non-negative lowest exponent."""
    from math import gcd as igcd

    def to_vec(p):
        if p.is_zero():
            return []
        exps = sorted(eq for eq, _ in p.terms)
        lo = exps[0]
        vec = [0] * (exps[-1] - lo + 1)
        for (eq, _), c in p.terms.items():
            vec[eq - lo] = c
        return vec

    fa, fb = to_vec(f), to_vec(g)
    if not fa:
        return fb
    if not fb:
        return fa
    a = [Fraction(c) for c in fa]
    b = [Fraction(c) for c in fb]
    while b and any(b):
        # a mod b
        while len(a) >= len(b) and any(a):
            if not a[-1]:
                a.pop()
                continue
            f_ = a[-1] / b[-1]
            off = len(a) - len(b)
            for i, bc in enumerate(b):
                a[off + i] -= f_ * bc
            a.pop()
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    # make primitive with positive leading coefficient
    denom = 1
    for c in a:
        denom = denom * c.denominator // igcd(denom, c.denominator)
    ints = [int(c * denom) for c in a]
    content = 0
    for c in ints:
        content = igcd(content, c)
    if content:
        ints = [c // content for c in ints]
    if ints and ints[-1] < 0:
        ints = [-c for c in ints]
    out = LaurentPoly()
    out.terms = {(i, 0): c for i, c in enumerate(ints) if c}
    return out


def _reduce_fraction(num, den):
    if num.is_zero():
        return ZERO, ONE
    g = den
    for sl in num.a_slices().values():
        g = _q_gcd(g, sl)
        if g.is_one() or len(g.terms) == 1:
            break
    if not g.is_one():
        num = num.divide_exact(g)
        den = den.divide_exact(g)
    # normalize the denominator: lowest q-exponent 0, positive lead
    dmin = min(eq for eq, _ in den.terms)
    if dmin:
        shift = LaurentPoly.mono(1, -dmin, 0)
        num = num * shift
        den = den * shift
    lead = den.terms[max(den.terms, key=lambda k: k[0])]
    if lead < 0:
        num, den = -num, -den
    return num, den


QF_ZERO = QFraction(0)
QF_ONE = QFraction(1)
