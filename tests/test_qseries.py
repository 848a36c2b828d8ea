"""Exact Laurent polynomial / q-series layer: unit examples, canonical
printing, and the q-combinatorial identities the pipelines rely on."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivertangle.qseries import (A, ONE, Q, QF_ONE, QF_ZERO, LaurentPoly,
                                  QFraction, ZERO, a_pow, neg_q_pow,
                                  pochhammer, poch_q2, q_pow, qbinom_plus,
                                  qmultinomial)

from conftest import balanced_from_plus, compositions


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

    def test_subs_q_inverse(self):
        x = poly((1, 2, 0), (3, -1, 1))
        assert x.subs_q_inverse() == poly((1, -2, 0), (3, 1, 1))

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
                assert b.subs_q_inverse() == b

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
        assert f != QF_ZERO
        assert QFraction(ZERO, poch_q2(3)) == QF_ZERO

    def test_arithmetic(self):
        half = QFraction(ONE, ONE - Q**2)
        assert half - half == QF_ZERO
        assert half * QFraction(ONE - Q**2) == QF_ONE
        assert (half + half) / QFraction(LaurentPoly.mono(2)) == half

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QF_ONE / QF_ZERO

    def test_clear_to_laurent(self):
        f = QFraction(ONE - Q**4, ONE - Q**2)
        assert f.clear_to_laurent() == ONE + Q**2
        with pytest.raises(ValueError):
            QFraction(ONE, ONE - Q**2).clear_to_laurent()

    def test_mirror_and_normalized_pair(self):
        f = QFraction(A * Q**2, ONE - Q**2)
        g = f.mirror()
        assert g * QFraction(ONE - q_pow(-2)) == QFraction(a_pow(-1)
                                                           * q_pow(-2))
        num, den = f.normalized_pair()
        assert QFraction(num, den) == f

    def test_str(self):
        assert "q" in str(QFraction(Q, ONE - Q**2))


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
    lhs_c = [QF_ZERO] * (order + 1)
    for a in range(order + 1):
        for b in range(order + 1 - a):
            lhs_c[a + b] = lhs_c[a + b] + QFraction(
                neg_q_pow(a) * q_pow(a * a + 2 * d * a),
                poch_q2(a) * poch_q2(b))
    rhs_c = [QFraction(poch_q2(c + d), poch_q2(c) * poch_q2(d))
             for c in range(order + 1)]
    assert lhs_c == rhs_c
