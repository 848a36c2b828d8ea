"""Skein-theoretic oracle: twist rules, closure rules, framing, and
closed-form identities it must satisfy."""

import itertools

import pytest

from quivertangle.qseries import (LaurentPoly, ONE, QFraction, ZERO, a_pow,
                                  neg_q_pow, poch_q2, pochhammer, q_pow,
                                  qbinom_plus)
from quivertangle.skein import (basis_element, close, framing_factor,
                                oracle_homfly, raw_closure, reduced_homfly,
                                twist, writhe)
from quivertangle.tangles import OP, RI, UP, Slope

from conftest import distinct_slopes, rescale


def qf(num, den=None):
    return QFraction(num, den)


class TestTwistRules:
    def test_top_twist_on_up(self):
        e = twist(basis_element(1, UP, 0), "T")
        assert e.boundary == UP
        assert e.coeffs[0] == -q_pow(-1)
        assert e.coeffs[1] == ONE

    def test_right_twist_on_up(self):
        e = twist(basis_element(1, UP, 1), "R")
        assert e.boundary == OP
        assert e.coeffs[0] == -a_pow(-1) * q_pow(1)
        assert e.coeffs[1] == ONE

    def test_color_zero_is_inert(self):
        e = basis_element(0, UP, 0)
        for kind in "TRT":
            e = twist(e, kind)
        assert e.coeffs == [ONE]

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            twist(basis_element(1), "X")


class TestClosureRules:
    def test_examples(self):
        assert close(basis_element(0, UP, 0)) == qf(ONE)
        expected = qf(a_pow(-1) * q_pow(1) * (ONE - LaurentPoly.mono(1, 0, 2)),
                      poch_q2(1))
        assert close(basis_element(1, UP, 0)) == expected
        assert close(basis_element(1, OP, 1)) == qf(ONE)

    def test_illegal_directions(self):
        # closures are North-South only, and RI webs have none
        with pytest.raises(ValueError):
            close(basis_element(1, RI, 0))

    def test_last_twist_closure_identities(self):
        # Cl(T UP[j,k]) and Cl_NS(T RI[j,k]) in closed form, j <= 5
        for j in range(6):
            for k in range(j + 1):
                lhs = close(twist(basis_element(j, UP, k), "T"))
                rhs = qf(
                    neg_q_pow(k - j) * a_pow(-j) * q_pow(2 * k * k + j * j)
                    * qbinom_plus(j, k)
                    * pochhammer(LaurentPoly.mono(1, 2 - 2 * j - 2 * k, 2),
                                 2, k),
                    poch_q2(k))
                assert lhs == rhs, (j, k)

                lhs = close(twist(basis_element(j, RI, k), "T"))
                rhs = qf(
                    neg_q_pow(k) * a_pow(2 * k - j)
                    * q_pow(-4 * k * j + 2 * k * k + j * j)
                    * qbinom_plus(j, k)
                    * pochhammer(
                        LaurentPoly.mono(1, 2 - 2 * j - 2 * (j - k), 2),
                        2, j - k),
                    poch_q2(j - k))
                assert lhs == rhs, (j, k)

    def test_torus_link_closed_sum(self):
        # Cl(T^n UP[j,0]) as an explicit sum over increasing chains
        for n in (1, 3, 5):
            for j in range(4):
                lhs = raw_closure([n], j)
                rhs = qf(ZERO)
                for ks in itertools.combinations_with_replacement(
                        range(j + 1), n):
                    chain = ONE
                    for lo, hi in zip(ks, ks[1:]):
                        chain = chain * qbinom_plus(hi, lo)
                    chain = chain * qbinom_plus(j, ks[-1])
                    num = (neg_q_pow(sum(ks) - n * j) * a_pow(-j)
                           * q_pow(j * j + sum(x * x for x in ks))
                           * chain
                           * pochhammer(
                               LaurentPoly.mono(1, 2 - 2 * j - 2 * ks[-1], 2),
                               2, j))
                    rhs = rhs + qf(num, poch_q2(j))
                assert lhs == rhs, (n, j)


class TestRescale:
    def test_rescale_action(self):
        e = rescale(basis_element(2, UP, 1))
        assert e.coeffs[1] == qbinom_plus(2, 1)


class TestInvariants:
    def test_unknot_normalization(self):
        for j in range(6):
            assert oracle_homfly(Slope(1, 1), j) == qf(ONE)

    def test_writhe_examples(self):
        assert writhe([1]) == 1
        assert writhe([3]) == 3
        assert writhe([1, 2, 4]) == 7

    def test_single_twist_is_framed_unknot(self):
        # one top twist closes to the unknot with one unit of framing
        for j in range(4):
            assert raw_closure([1], j) == qf(framing_factor(j, 1))
            assert reduced_homfly([1], j) == qf(ONE)

    def test_zero_frame_invariant_across_representatives(self):
        # q and q^{-1} mod p name the same link; the zero-framed
        # polynomial does not depend on the representative
        for p, q in [(7, 3), (10, 3), (11, 5), (13, 3), (15, 7), (17, 5)]:
            qi = pow(q, -1, p)
            for j in (1, 2):
                assert (reduced_homfly(Slope(p, q), j)
                        == reduced_homfly(Slope(p, qi), j)), (p, q, j)

    def test_mirror_representative(self):
        # 3/2 only closes via the mirror class: its polynomial is the
        # mirror of the trefoil's
        for j in (1, 2):
            assert (oracle_homfly(Slope(3, 2), j)
                    == reduced_homfly(Slope(3, 1), j).mirror())

    def test_knot_values_clear_to_laurent(self):
        # reduced colored polynomials of knots are honest Laurent
        # polynomials (the closure denominators cancel)
        for s in distinct_slopes(8, knots=True):
            for j in (1, 2, 3):
                oracle_homfly(s, j).clear_to_laurent()

    def test_trefoil_jones(self):
        # uncolored (j=1) value of the trefoil at a = q^2 is the Jones
        # polynomial of the positive trefoil, q^2 + q^6 - q^8
        v = oracle_homfly(Slope(3, 1), 1).clear_to_laurent().subs_a_q2()
        assert v == (q_pow(2) + q_pow(6) - q_pow(8))

    def test_ri_ending_cf_rejected(self):
        with pytest.raises(ValueError):
            raw_closure([1, 1, 1], 1)
