"""Exact Laurent polynomial / q-series layer: unit examples, canonical
printing, and the q-combinatorial identities the pipelines rely on."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from math import gcd

from quivertangle import qseries
from quivertangle.qseries import (ONE, LaurentPoly, QFraction, ZERO,
                                  _q_gcd, a_pow, pochhammer, poch_q2, q_pow,
                                  qbinom_plus, qmultinomial)
from quivertangle.skein import oracle_homfly

from conftest import (balanced_from_plus, compositions, distinct_slopes,
                      laurent_str_joined_reference,
                      laurent_str_reference, mirror, neg_q_pow,
                      q_gcd_reference, reduce_fraction_reference)


A = a_pow(1)
Q = q_pow(1)


def q_inverse(x):
    """q -> 1/q."""
    return x.map_exponents(lambda eq, ea: (-eq, ea))


def poly(*terms):
    """Build a LaurentPoly from (coeff, exp_q, exp_a) triples."""
    acc = ZERO
    for c, eq, ea in terms:
        acc = acc + LaurentPoly.mono(c, eq, ea)
    return acc


class TestLaurentPoly:
    def test_arithmetic_and_zero_pruning(self):
        x = Q + A
        assert x - A == Q
        assert (x - x).is_zero()
        assert not (x - x)
        assert x * ZERO == ZERO
        assert (Q * A) * (Q * A) == LaurentPoly.mono(1, 2, 2)

    @settings(max_examples=150, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(-2, 2)),
                           st.integers(-5, 5), max_size=6),
           st.integers(-3, 3).filter(bool), st.integers(-4, 4),
           st.integers(-2, 2))
    def test_monomial_product_matches_term_loop(self, terms, c, eq, ea):
        # p * m moves p's terms; m * p, with p of two or more terms,
        # runs the term-by-term loop
        p, m = LaurentPoly(terms), LaurentPoly.mono(c, eq, ea)
        expected = m * p if len(p.terms) > 1 else poly(
            *((c * v, eq + k[0], ea + k[1]) for k, v in p.terms.items()))
        assert (p * m).terms == expected.terms

    def test_negative_exponents(self):
        qi = q_pow(-1)
        assert qi * Q == ONE
        assert a_pow(-2) * A**2 == ONE

    def test_pow(self):
        assert (ONE + Q) ** 0 == ONE
        assert (ONE + Q) ** 2 == poly((1, 0, 0), (2, 1, 0), (1, 2, 0))
        with pytest.raises(ValueError):
            (ONE + Q) ** -1

    def test_neg_q_pow(self):
        assert neg_q_pow(1) == -Q
        assert neg_q_pow(2) == Q * Q
        assert neg_q_pow(-1) == -q_pow(-1)

    def test_str_canonical_order(self):
        # terms sorted by (exp_a, exp_q); unit coefficients unadorned
        assert str(ONE - Q**2 * A**2) == "1 - q^2*a^2"
        assert str(poly((1, -1, 0), (2, 1, 0))) == "q^-1 + 2*q"
        assert str(ZERO) == "0"
        assert str(poly((-1, 0, 1), (1, 2, 0))) == "q^2 - a"

    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
                           st.one_of(st.integers(-3, 3),
                                     st.integers(-10 ** 6, 10 ** 6)),
                           max_size=8).map(LaurentPoly))
    def test_str_matches_reference(self, p):
        assert str(p) == laurent_str_reference(p)

    _EXPONENTS = st.one_of(st.just(0), st.just(1), st.integers(2, 40),
                           st.integers(-40, -1))

    @settings(max_examples=500, deadline=None)
    @given(st.dictionaries(st.tuples(_EXPONENTS, _EXPONENTS),
                           st.one_of(st.sampled_from([1, -1]),
                                     st.integers(2, 10 ** 9),
                                     st.integers(-10 ** 9, -2)),
                           max_size=12).map(LaurentPoly))
    @example(LaurentPoly())
    def test_str_matches_the_joined_writer(self, p):
        # the one-pass writer gives the bytes of the writer it replaced
        # for unit and non-unit coefficients of either sign, at q and a
        # exponents 0, 1, above 1 and negative, and for zero
        assert str(p) == laurent_str_joined_reference(p)

    def test_subs_q_inverse(self):
        x = poly((1, 2, 0), (3, -1, 1))
        assert q_inverse(x) == poly((1, -2, 0), (3, 1, 1))

    def test_subs_a_q2(self):
        assert (A * Q).subs_a_q2() == LaurentPoly.mono(1, 3, 0)

    def test_mirror(self):
        # q -> 1/q and a -> 1/a together
        x = poly((1, 2, 1), (1, 0, 0))
        assert x.mirror() == poly((1, -2, -1), (1, 0, 0))

    def test_divide_exact(self):
        num = (ONE - Q**2) * (ONE + A)
        assert num.divide_exact(ONE - Q**2) == ONE + A
        with pytest.raises(ValueError):
            (ONE + Q).divide_exact(ONE - Q**2)
        with pytest.raises(ValueError):
            (ONE + Q).divide_exact(2)
        with pytest.raises(ValueError):
            (ONE + Q).divide_exact(ONE + 2 * Q)
        # a non-unit lead is fine when the quotient is integral
        assert ((ONE + Q) * (3 + 2 * Q)).divide_exact(3 + 2 * Q) == ONE + Q


class TestQCombinatorics:
    def test_pochhammer_examples(self):
        assert poch_q2(0) == ONE
        assert poch_q2(1) == ONE - Q**2
        assert poch_q2(2) == (ONE - Q**2) * (ONE - Q**4)
        assert pochhammer(A**2, 2, 2) == (ONE - A**2) * (ONE - A**2 * Q**2)

    def test_qbinom_examples(self):
        assert qbinom_plus(2, 1) == ONE + Q**2
        assert qbinom_plus(4, 2) == poly((1, 0, 0), (1, 2, 0), (2, 4, 0),
                                         (1, 6, 0), (1, 8, 0))
        assert qbinom_plus(3, 0) == ONE
        assert qbinom_plus(3, 3) == ONE
        assert qbinom_plus(2, 3) == ZERO
        assert qbinom_plus(2, -1) == ZERO

    def test_qmultinomial_example(self):
        assert qmultinomial(3, (1, 1, 1)) == poly((1, 0, 0), (2, 2, 0),
                                                  (2, 4, 0), (1, 6, 0))
        assert qmultinomial(3, (3,)) == ONE
        assert qmultinomial(2, (1, 1)) == qbinom_plus(2, 1)

    def test_balanced_from_plus_is_palindromic(self):
        for j in range(6):
            for k in range(j + 1):
                b = balanced_from_plus(j, k)
                assert b == q_pow(-k * (j - k)) * qbinom_plus(j, k)
                assert q_inverse(b) == b

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_pascal_recursion(self, j, data):
        k = data.draw(st.integers(1, j - 1)) if j > 1 else 0
        if k == 0:
            assert qbinom_plus(j, 0) == ONE
            return
        assert qbinom_plus(j, k) == (qbinom_plus(j - 1, k - 1)
                                     + q_pow(2 * k) * qbinom_plus(j - 1, k))



class TestQFraction:
    def test_equality_cross_multiplies(self):
        f = QFraction(ONE - Q**4, poch_q2(1))
        assert f == QFraction(ONE + Q**2)
        assert f != QFraction(0)
        assert QFraction(ZERO, poch_q2(3)) == QFraction(0)

    def test_arithmetic(self):
        half = QFraction(ONE, ONE - Q**2)
        assert half - half == QFraction(0)
        assert half * QFraction(ONE - Q**2) == QFraction(1)
        assert half + half == 2 * half == QFraction(2, ONE - Q**2)

    def test_product_with_the_denominator_clears_it(self):
        f = QFraction(A + Q, poch_q2(2))
        g = f * poch_q2(2)
        assert g.den.is_one() and g.num == A + Q
        assert g.normalized_pair() == (A + Q, ONE)
        assert f * (ONE - Q**2) == QFraction(A + Q, ONE - Q**4)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QFraction(1, 0)
        with pytest.raises(ZeroDivisionError):
            QFraction(ONE, ZERO)

    def test_clear_to_laurent(self):
        f = QFraction(ONE - Q**4, ONE - Q**2)
        assert f.num.divide_exact(f.den) == ONE + Q**2
        with pytest.raises(ValueError):
            ONE.divide_exact(ONE - Q**2)

    def test_mirror_and_normalized_pair(self):
        f = QFraction(A * Q**2, ONE - Q**2)
        g = mirror(f)
        assert g * QFraction(ONE - q_pow(-2)) == QFraction(a_pow(-1)
                                                           * q_pow(-2))
        num, den = f.normalized_pair()
        assert QFraction(num, den) == f

    def test_str(self):
        assert "q" in str(QFraction(Q, ONE - Q**2))

    def test_integer_content_is_cancelled(self):
        # equal fractions give equal pairs
        x = ONE + Q * A
        f, g = QFraction(x), QFraction(2 * x, 2)
        assert f == g and f.normalized_pair() == g.normalized_pair()
        assert g.normalized_pair() == (x, ONE)
        h = QFraction(-2 * x * (ONE - Q**2), 2 * (ONE - Q**2))
        assert h.normalized_pair() == (-x, ONE)
        assert QFraction(2 * x, 4 - 4 * Q**2).normalized_pair() == (
            -x, 2 * Q**2 - 2)

    def test_values_are_unhashable(self):
        # equality promotes an int or a LaurentPoly, and no hash could
        # agree with it across the types, so neither type hashes and no
        # set or dict key can hold duplicates of one value
        x = ONE + Q * A
        assert LaurentPoly.mono(5) == 5
        assert QFraction(3) == LaurentPoly.mono(3) == 3
        assert QFraction(2 * x, 2) == x == QFraction(x)
        assert QFraction(0) == ZERO == 0
        assert QFraction(x, ONE - Q**2) != x
        for value in (x, LaurentPoly.mono(5), QFraction(x), QFraction(3)):
            with pytest.raises(TypeError):
                hash(value)

    def test_q_gcd_refuses_zero(self):
        with pytest.raises(ValueError):
            _q_gcd(ZERO, ONE - Q)
        with pytest.raises(ValueError):
            _q_gcd(ONE - Q, ZERO)
        assert _q_gcd(q_pow(3) * (ONE - Q**2), ONE + Q) == ONE + Q


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10))
def test_binomial_pochhammer_expansion(k):
    # (a^2; q^2)_k expanded into q-binomials
    lhs = pochhammer(A**2, 2, k)
    rhs = ZERO
    for i in range(k + 1):
        rhs = rhs + ((-1) ** i * a_pow(2 * i) * q_pow(i * i - i)
                     * qbinom_plus(k, i))
    assert lhs == rhs

@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=3))
def test_pochhammer_splitting(d):
    # (a^2; q^2)_{sum d}, cleared against prod (q^2;q^2)_{d_i}, as a
    # sum over alpha <= d with binomial weights
    lhs = pochhammer(A**2, 2, sum(d))
    rhs = ZERO
    ranges = [range(x + 1) for x in d]

    def rec(i, alpha):
        nonlocal rhs
        if i == len(d):
            asum = sum(alpha)
            expo = (-asum + sum(x * x for x in alpha)
                    + 2 * sum(alpha[j + 1] * sum(d[:j + 1])
                              for j in range(len(d) - 1)))
            term = (-1) ** asum * a_pow(2 * asum) * q_pow(expo)
            for dj, aj in zip(d, alpha):
                term = term * qbinom_plus(dj, aj)
            rhs = rhs + term
            return
        for a in ranges[i]:
            rec(i + 1, alpha + [a])

    rec(0, [])
    assert lhs == rhs

@settings(max_examples=200, deadline=None)
@given(st.data())
def test_multinomial_splitting(data):
    # [sum a; b_1..b_p] as a sum over p x m matrices with fixed row
    # and column sums, weighted by the cross-inversion statistic
    m = data.draw(st.integers(1, 3))
    p = data.draw(st.integers(1, 3))
    a = [data.draw(st.integers(0, 3)) for _ in range(m)]
    total = sum(a)
    # b: composition of `total` into p parts
    b = []
    left = total
    for i in range(p - 1):
        x = data.draw(st.integers(0, left))
        b.append(x)
        left -= x
    b.append(left)
    lhs = qmultinomial(total, b)
    rhs = ZERO

    def columns(u, rows_left):
        # rows_left[l] = remaining budget of row l (target b_l)
        if u == m:
            if all(x == 0 for x in rows_left):
                yield []
            return
        for col in compositions(a[u], p):
            if all(col[l] <= rows_left[l] for l in range(p)):
                rest = [rows_left[l] - col[l] for l in range(p)]
                for tail in columns(u + 1, rest):
                    yield [col] + tail

    for cols in columns(0, list(b)):
        x_stat = 2 * sum(cols[u1][l1] * cols[u2][l2]
                         for l1 in range(p) for l2 in range(l1 + 1, p)
                         for u1 in range(m) for u2 in range(u1 + 1, m))
        term = q_pow(x_stat)
        for u in range(m):
            term = term * qmultinomial(a[u], cols[u])
        rhs = rhs + term
    assert lhs == rhs


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.integers(1, 6))
def test_two_index_vs_one_index_resummation(d, order):
    # sum_{a,b} (-q)^a q^{a^2+2da} x^{a+b} / ((q^2)_a (q^2)_b)
    #   equals  sum_c (q^2)_{c+d} x^c / ((q^2)_c (q^2)_d)
    lhs_c = [QFraction(0)] * (order + 1)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            lhs_c[a + b] = lhs_c[a + b] + QFraction(
                neg_q_pow(a) * q_pow(a * a + 2 * d * a),
                poch_q2(a) * poch_q2(b))
    rhs_c = [QFraction(poch_q2(c + d), poch_q2(c) * poch_q2(d))
             for c in range(order + 1)]
    assert lhs_c == rhs_c


_FACTORS = [ONE - q_pow(2 * i) for i in range(1, 5)] + [
    3 + 2 * Q, 2 - Q**3, 2 * ONE, 3 * ONE]


@st.composite
def _fractions(draw):
    """num/den with den a signed monomial times factors (1 - q^{2i}),
    some with non-unit leads or integer content, and num a random
    polynomial over several a-slices times some of those factors."""
    picks = draw(st.lists(st.integers(0, len(_FACTORS) - 1), max_size=4))
    den = LaurentPoly.mono(draw(st.sampled_from([1, -1])),
                           draw(st.integers(-3, 3)))
    for i in picks:
        den = den * _FACTORS[i]
    num = LaurentPoly(draw(st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
        st.integers(-4, 4), max_size=6)))
    for i in draw(st.lists(st.integers(0, len(_FACTORS) - 1),
                           max_size=3)):
        num = num * _FACTORS[i]
    return num, den


@settings(max_examples=150, deadline=None)
@given(_fractions())
def test_normalized_pair_matches_rational_reference(frac):
    num, den = frac
    got = QFraction(num, den).normalized_pair()
    ref_num, ref_den = reduce_fraction_reference(num, den)
    # the reference leaves an integer content common to num and den
    content = gcd(*ref_num.terms.values(), *ref_den.terms.values())
    if gcd(*den.terms.values()) == 1:
        assert content == 1
    assert got == (ref_num.divide_exact(content),
                   ref_den.divide_exact(content))
    for sl in num.a_slices().values():
        assert _q_gcd(den, sl) == q_gcd_reference(den, sl)


@st.composite
def _fraction_pairs(draw):
    """Two (num, den) pairs whose denominators have the same terms, are
    proportional (a signed multiple of a monomial) or are unrelated;
    the numerators give equal or different values, or zero."""
    num, den = draw(_fractions())
    other_num, other_den = draw(_fractions())
    unit = LaurentPoly.mono(draw(st.sampled_from([1, -1, 2, -3])),
                            draw(st.integers(-2, 2)))
    same = LaurentPoly(den.terms)
    return (num, den), draw(st.sampled_from([
        (num, same), (num + other_num, same), (ZERO, same),
        (num * unit, den * unit), (other_num * unit, den * unit),
        (num * other_den, den * other_den), (other_num, other_den),
        (ZERO, other_den)]))


@settings(max_examples=200, deadline=None)
@given(_fraction_pairs())
def test_equality_agrees_with_cross_multiplication(pair):
    (num, den), (num2, den2) = pair
    f, g = QFraction(num, den), QFraction(num2, den2)
    equal = num * den2 == num2 * den
    assert (f == g) == (g == f) == equal
    assert (f != g) == (not equal)
    if equal:
        assert f.normalized_pair() == g.normalized_pair()


def _cyclotomic_poly(m):
    """Phi_m as a LaurentPoly: q^m - 1 over Phi_d for every proper
    divisor d of m, by exact division."""
    p = q_pow(m) - 1
    for d in range(1, m):
        if m % d == 0:
            p = p.divide_exact(_cyclotomic_poly(d))
    return p


# Phi_m for every m that divides some 2k with k <= 6, and the factors
# 1 - q^(2i) of (q^2;q^2)_6
_POCH_FACTORS = [_cyclotomic_poly(m) for m in range(1, 13)] + [
    ONE - q_pow(2 * i) for i in range(1, 7)]


@st.composite
def _pochhammer_fractions(draw):
    """num/den with den +-q^s (q^2;q^2)_j or its mirror, j <= 6, and num
    a random polynomial over several a-slices times some cyclotomic
    factors Phi_m and factors 1 - q^(2i)."""
    j = draw(st.integers(0, 6))
    den = LaurentPoly.mono(draw(st.sampled_from([1, -1])),
                           draw(st.integers(-3, 3))) * poch_q2(j)
    if draw(st.booleans()):
        den = den.mirror()
    num = LaurentPoly(draw(st.dictionaries(
        st.tuples(st.integers(-3, 3), st.integers(-2, 2)),
        st.integers(-4, 4), min_size=1, max_size=6)))
    for i in draw(st.lists(st.integers(0, len(_POCH_FACTORS) - 1),
                           max_size=4)):
        num = num * _POCH_FACTORS[i]
    return num, den


@settings(max_examples=150, deadline=None)
@given(_pochhammer_fractions())
def test_pochhammer_denominators_match_rational_reference(frac):
    # the cyclotomic certificate, or the gcd where it does not certify,
    # gives the reference's pair with the common content divided out
    num, den = frac
    ref_num, ref_den = reduce_fraction_reference(num, den)
    content = gcd(*ref_num.terms.values(), *ref_den.terms.values())
    assert QFraction(num, den).normalized_pair() == (
        ref_num.divide_exact(content), ref_den.divide_exact(content))


def _gcd_not_called(f, g):
    raise AssertionError("the gcd ran")


class TestCyclotomicCertificate:
    def test_common_cyclotomic_factor_takes_the_gcd(self, monkeypatch):
        # Phi_3 divides both a-slices of num and (q^2;q^2)_3, so no
        # residue certifies the fraction: the gcd runs and cancels Phi_3
        phi3 = ONE + Q + Q**2
        num, den = phi3 * (ONE + A), poch_q2(3)
        calls = []

        def counted(f, g):
            calls.append(g)
            return _q_gcd(f, g)

        monkeypatch.setattr(qseries, "_q_gcd", counted)
        got_num, got_den = QFraction(num, den).normalized_pair()
        rest = poch_q2(3).divide_exact(phi3)
        assert calls
        assert (got_num, got_den) in ((ONE + A, rest), (-ONE - A, -rest))

    def test_one_residue_per_factor_certifies(self, monkeypatch):
        # a slice divisible by every factor of the denominator is
        # certified by another slice, whichever slice is read first:
        # no gcd runs
        monkeypatch.setattr(qseries, "_q_gcd", _gcd_not_called)
        for j in range(1, 5):
            den = poch_q2(j)
            divisible = den * (ONE + Q)
            # (q^2;q^2)_j has the lead (-1)^j
            sign = -1 if j % 2 else 1
            for num in (divisible + A, A + divisible,
                        divisible * a_pow(-1) + A * (2 + Q)):
                assert (QFraction(num, den).normalized_pair()
                        == (sign * num, sign * den)), (j, num)

    def test_link_values_are_certified(self, monkeypatch):
        # every link value of the oracle with CF term sum <= 6 at
        # colors 1..4 keeps a denominator, and is certified reduced with
        # no gcd; at a = q^2 the slices merge and share factors with it
        values = [(j, value) for s in distinct_slopes(6, knots=False)
                  for j, value in enumerate(oracle_homfly(s, [1, 2, 3, 4]),
                                            1)]
        jones = [value.subs_a_q2().normalized_pair() for _, value in values]
        monkeypatch.setattr(qseries, "_q_gcd", _gcd_not_called)
        for (j, value), (_, den) in zip(values, jones):
            _, den_plain = value.normalized_pair()
            assert den_plain in (poch_q2(j), -poch_q2(j)), (j, value)
            assert len(den.terms) < len(den_plain.terms)

    def test_other_denominators_take_the_gcd(self):
        # a denominator that is not a Pochhammer, such as the product a
        # verify mismatch difference carries, is reduced by the gcd
        # and gives the reference's pair
        num = (ONE - Q**4) * (A + Q) + A**2 * (ONE - Q**2)
        for den in (poch_q2(2) * poch_q2(1), (ONE - Q**2) * (3 + 2 * Q),
                    2 * poch_q2(2)):
            ref_num, ref_den = reduce_fraction_reference(num, den)
            content = gcd(*ref_num.terms.values(), *ref_den.terms.values())
            assert QFraction(num, den).normalized_pair() == (
                ref_num.divide_exact(content),
                ref_den.divide_exact(content)), den

    def test_negative_power(self):
        # only the non-negative powers exist: a negative one raises
        # rather than looping
        for p in (ONE + Q, Q, -ONE):
            with pytest.raises(ValueError):
                p ** -1
