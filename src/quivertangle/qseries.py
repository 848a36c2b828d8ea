"""Exact arithmetic for Laurent polynomials in q and a, q-rational
functions, Pochhammer symbols, quantum binomials and multinomials.

Coefficients are arbitrary-precision integers throughout; nothing in this
module (or anything built on it) touches floating point.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd


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
        if len(other.terms) == 1:
            # a monomial factor moves the terms apart: no two keys meet
            ((q2, a2), c2), = other.terms.items()
            result = LaurentPoly()
            result.terms = {(q1 + q2, a1 + a2): c1 * c2
                            for (q1, a1), c1 in self.terms.items()}
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
            raise ValueError("negative power")
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

        Raises ValueError unless the quotient is a Laurent polynomial
        with integer coefficients.  Works one a-degree slice at a time;
        within a slice it is univariate long division in q over the
        integers: a quotient in Z[q, 1/q] has only integer coefficients,
        so a non-integral one (or a remainder) means there is none.
        """
        if not isinstance(divisor, LaurentPoly):
            divisor = LaurentPoly.mono(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if not divisor.is_q_only():
            raise ValueError("divisor must not contain a")
        dmin, dvec = _q_vec(divisor)
        out = {}
        for ea, sl in self.a_slices().items():
            nmin, vec = _q_vec(sl)
            quot, rem = _divmod(vec, dvec)
            if any(rem):
                raise ValueError("inexact polynomial division")
            out.update(((e + nmin - dmin, ea), c)
                       for e, c in enumerate(quot) if c)
        result = LaurentPoly()
        result.terms = out
        return result

    def __str__(self):
        if not self.terms:
            return "0"
        # terms by a-degree, then q-degree, each written once as a sign
        # piece and a body, joined once; the a factor is built once per
        # a-degree and each q power's text once per polynomial
        parts = []
        q_text = {}
        last = None
        for ea, eq, c in sorted([(ea, eq, c)
                                 for (eq, ea), c in self.terms.items()]):
            if ea != last:
                last = ea
                a = "" if not ea else "*a" if ea == 1 else f"*a^{ea}"
                alone = a[1:] or "1"
            if c > 0:
                parts.append(" + ")
            else:
                parts.append(" - ")
                c = -c
            if eq:
                q = q_text.get(eq)
                if q is None:
                    q = q_text[eq] = "q" if eq == 1 else f"q^{eq}"
                parts.append(f"{c}*{q}{a}" if c != 1 else q + a)
            else:
                parts.append(f"{c}{a}" if c != 1 else alone)
        parts[0] = "" if parts[0] == " + " else "-"
        return "".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"


ZERO = LaurentPoly()
ONE = LaurentPoly.mono(1)


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

    A denominator that is reduced must be +-c q^s times cyclotomic
    polynomials Phi_m with m up to its degree, as (q^2;q^2)_j, its
    mirror and their products all are.  Each Phi_m is irreducible and
    monic, so by Gauss's lemma the gcd of the numerator and such a
    denominator is the product of the Phi_m they share, each to the
    lower multiplicity; reduction divides those out (_reduce_fraction).
    It is lazy: construction and arithmetic never reduce; equality
    compares numerators over one shared denominator and cross-multiplies
    otherwise, and reduction happens only on demand (serialization or
    clearing to a Laurent polynomial).
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
        if self.den.terms == other.den.terms:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

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
        if isinstance(other, LaurentPoly) and other.terms == self.den.terms:
            return QFraction(self.num)
        if isinstance(other, (int, LaurentPoly)):
            return QFraction(self.num * other, self.den)
        return QFraction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def normalized_pair(self):
        """Reduced (num, den): no common factor, no common integer
        content, and den with positive lead and lowest q-degree zero.
        Equal fractions give equal pairs.  ValueError when den is not
        cyclotomic (see the class docstring)."""
        return _reduce_fraction(self.num, self.den)

    def subs_a_q2(self):
        return QFraction(self.num.subs_a_q2(), self.den)

    def __str__(self):
        num, den = self.normalized_pair()
        if den.is_one():
            return str(num)
        return f"({num}) / ({den})"

    def __repr__(self):
        return f"QFraction({self})"


def _q_vec(p):
    """(lowest q-exponent, dense coefficient list from there up) of a
    nonzero q-only LaurentPoly."""
    lo = min(eq for eq, _ in p.terms)
    vec = [0] * (max(eq for eq, _ in p.terms) - lo + 1)
    for (eq, _), c in p.terms.items():
        vec[eq - lo] = c
    return lo, vec


def _divmod(vec, divisor):
    """(quotient, remainder) of the coefficient list vec by divisor, both
    lowest degree first, by integer long division; ValueError when a
    quotient coefficient is not an integer."""
    rem = list(vec)
    k = len(divisor) - 1
    lead = divisor[k]
    terms = [(i, d) for i, d in enumerate(divisor) if d]
    quot = [0] * max(len(rem) - k, 0)
    for off in range(len(rem) - 1 - k, -1, -1):
        c = rem[off + k]
        if c:
            c, r = divmod(c, lead)
            if r:
                raise ValueError("inexact polynomial division")
            quot[off] = c
            for i, d in terms:
                rem[off + i] -= c * d
    return quot, rem[:k]


@lru_cache(maxsize=None)
def _cyclotomic(m):
    """The m-th cyclotomic polynomial Phi_m as a coefficient tuple,
    lowest degree first: q^m - 1 divided by Phi_d for every proper
    divisor d of m."""
    vec = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            vec = _divmod(vec, _cyclotomic(d))[0]
    return tuple(vec)


@lru_cache(maxsize=None)
def _cyclotomic_factors(dvec):
    """The (m, multiplicity) of each Phi_m that divides the coefficient
    tuple dvec, lowest degree first, by trial division for m up to its
    degree; None when a factor of positive degree is left over."""
    rest, factors = list(dvec), []
    for m in range(1, len(dvec)):
        if len(rest) == 1:
            break
        phi, k = _cyclotomic(m), 0
        while True:
            quot, rem = _divmod(rest, phi)
            if any(rem):
                break
            rest, k = quot, k + 1
        if k:
            factors.append((m, k))
    return tuple(factors) if len(rest) == 1 else None


def _shared_factors(num, factors):
    """The (m, multiplicity in den) of factors whose Phi_m divides every
    a-slice of num.  Phi_m divides q^m - 1, so a slice is divisible by
    Phi_m exactly when its exponents folded modulo m leave no remainder
    on division by Phi_m; one nonzero residue rules Phi_m out."""
    slices = {}
    for (eq, ea), c in num.terms.items():
        slices.setdefault(ea, []).append((eq, c))
    shared = []
    for m, k in factors:
        phi = _cyclotomic(m)
        for terms in slices.values():
            folded = [0] * m
            for eq, c in terms:
                folded[eq % m] += c
            if any(_divmod(folded, phi)[1]):
                break
        else:
            shared.append((m, k))
    return shared


def _reduce_fraction(num, den):
    """Canonical (num, den) for num/den: no common factor of positive
    q-degree and no common integer content, and den with lowest
    q-exponent 0 and positive lead.

    den must be +-c q^s times cyclotomic polynomials Phi_m with m up to
    its degree, as (q^2;q^2)_j, its mirror and their products all are;
    any other den raises ValueError, unless num is zero.  Each Phi_m is irreducible and
    monic, so by Gauss's lemma the gcd of den and every a-slice of num
    is the product of the Phi_m they share, each to the lower of the two
    multiplicities: dividing those out is the whole reduction.

    The shared Phi_m are found by cyclotomic residues
    (_shared_factors), so a coprime fraction costs one fold per factor
    and no division.  When some Phi_m is shared, num is first divided
    by the whole of den, which succeeds whenever num/den is a Laurent
    polynomial (as every link value is at a = q^2).  The content and
    the unit +-q^dmin are divided out last, in one pass."""
    if num.is_zero():
        return ZERO, ONE
    if den.is_one():
        return num, ONE
    dmin, dvec = _q_vec(den)
    factors = _cyclotomic_factors(tuple(dvec))
    if factors is None:
        raise ValueError(f"denominator {den} is not +-c q^s times "
                         "cyclotomic polynomials")
    shared = _shared_factors(num, factors)
    if shared:
        try:
            return num.divide_exact(den), ONE
        except ValueError:
            pass
        for m, k in shared:
            phi = _cyclotomic(m)
            divisor = LaurentPoly({(i, 0): c for i, c in enumerate(phi)})
            for _ in range(k):
                try:
                    num = num.divide_exact(divisor)
                except ValueError:
                    break
                dvec = _divmod(dvec, phi)[0]
    content = gcd(*num.terms.values(), *dvec)
    unit = content if dvec[-1] > 0 else -content
    out_num, out_den = LaurentPoly(), LaurentPoly()
    out_num.terms = {(eq - dmin, ea): c // unit
                     for (eq, ea), c in num.terms.items()}
    out_den.terms = {(e, 0): c // unit for e, c in enumerate(dvec) if c}
    return out_num, out_den
