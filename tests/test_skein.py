"""Skein-theoretic oracle: twist rules, closure rules, framing, and
closed-form identities it must satisfy."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivertangle.qseries import (LaurentPoly, ONE, QFraction, ZERO, a_pow,
                                  poch_q2, pochhammer, q_pow, qbinom_plus)
from quivertangle.knotpipeline import knot_quiver
from quivertangle.quiverstate import framing_shift, link_quiver
from quivertangle.skein import (SkeinElement, basis_element, close,
                                closure_numerator, framing_factor,
                                oracle_homfly, raw_closure, reduced_homfly,
                                tangle_element, twist, twist_matrix, writhe)
from quivertangle.tangles import (OP, RI, UP, Slope, enumerate_rational_knots,
                                  twist_sequence)
from quivertangle.verify import expand_motivic

from conftest import (close_reference, distinct_slopes, neg_q_pow, odd_cfs,
                      raw_closure_reference, rescale, twist_reference)


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

    def test_one_denominator_matches_per_web_closures(self):
        # each basis web closed over its own denominator: UP[j,k] over
        # (q^2;q^2)_j, OP[j,k] over (q^2;q^2)_{j-k}
        def closure_scalar(boundary, j, k):
            if boundary == UP:
                num = (a_pow(-j) * q_pow(j * j + k * k)
                       * pochhammer(LaurentPoly.mono(1, 2 - 2 * j - 2 * k, 2),
                                    2, j)
                       * qbinom_plus(j, k))
                return QFraction(num, poch_q2(j))
            num = (a_pow(k - j) * q_pow((j - k) ** 2)
                   * pochhammer(LaurentPoly.mono(1, 2 - 2 * j, 2), 2, j - k)
                   * qbinom_plus(j, k))
            return QFraction(num, poch_q2(j - k))

        for boundary in (UP, OP):
            for j in range(5):
                scalars = [closure_scalar(boundary, j, k)
                           for k in range(j + 1)]
                for k, scalar in enumerate(scalars):
                    num = closure_numerator(boundary, j, k)
                    assert QFraction(num, poch_q2(j)) == scalar
                    e = basis_element(j, boundary, k)
                    assert close(e).den == poch_q2(j)
                # every web at once, weighted by q^k
                e = SkeinElement(j, boundary,
                                 [q_pow(k) for k in range(j + 1)])
                total = close(e)
                assert total.den == poch_q2(j)
                assert total == sum((s * q_pow(k)
                                     for k, s in enumerate(scalars)),
                                    QFraction(0))

    def test_cached_twist_matrix_is_immutable(self):
        m = twist_matrix(UP, "T", 2)
        assert m is twist_matrix(UP, "T", 2)
        assert isinstance(m, tuple) and all(isinstance(r, tuple) for r in m)

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


# coefficients of every size, up to 2^80, so slots pass 64 bits
_COEFFS = st.one_of(st.integers(-3, 3), st.integers(-2 ** 80, 2 ** 80))
_POLYS = st.dictionaries(st.tuples(st.integers(-12, 12), st.integers(-4, 4)),
                         _COEFFS, max_size=4).map(LaurentPoly)


def _elements(data, boundaries):
    j = data.draw(st.integers(0, 4))
    boundary = data.draw(st.sampled_from(boundaries))
    return SkeinElement(j, boundary, [data.draw(_POLYS) for _ in range(j + 1)])


class TestPackedKernel:
    """The packed-integer twist and closure against their LaurentPoly
    loops, kept in conftest: exact equality, never a tolerance."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_twist_matches_reference(self, data):
        e = _elements(data, (UP, OP, RI))
        for kind in "TR":
            got, want = twist(e, kind), twist_reference(e, kind)
            assert got.boundary == want.boundary
            assert got.coeffs == want.coeffs, (e, kind)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_close_matches_reference(self, data):
        e = _elements(data, (UP, OP))
        got, want = close(e), close_reference(e)
        assert got.num == want.num and got.den == want.den, e

    def test_wide_slots(self):
        # one coefficient near each end of +-2^80 at negative exponents:
        # the bound needs slots of more than 64 bits
        big = LaurentPoly({(-7, -3): 2 ** 80, (5, -3): -(2 ** 80) + 1,
                           (-2, 4): -1})
        for j in range(5):
            e = SkeinElement(j, UP, [big] * (j + 1))
            for kind in "TR":
                assert twist(e, kind).coeffs == twist_reference(e, kind).coeffs
            assert close(e).num == close_reference(e).num

    def test_raw_closure_matches_reference(self):
        # every CF with term sum <= 8, colors 0..4; CFs ending on RI
        # are refused by both
        for terms in odd_cfs(8):
            for j in range(5):
                try:
                    want = raw_closure_reference(terms, j)
                except ValueError:
                    with pytest.raises(ValueError):
                        raw_closure(terms, j)
                    continue
                got = raw_closure(terms, j)
                assert got.num == want.num and got.den == want.den, (terms, j)

    def test_tangle_element_matches_reference(self):
        for terms in odd_cfs(6):
            for j in range(4):
                e = basis_element(j, UP, 0)
                for kind in twist_sequence(terms):
                    e = twist_reference(e, kind)
                got = tangle_element(terms, j)
                assert (got.boundary, got.coeffs) == (e.boundary, e.coeffs)


def alexander(p, q):
    """Conway-normalized Alexander polynomial of the 2-bridge knot p/q,
    {exponent: coefficient}, from the 2-bridge form
    sum_{k<p} (-1)^k t^{sigma_k}, sigma_k = sum_{1<=i<=k} eps_i,
    eps_i = (-1)^floor(iq/p), which needs an odd q: q + p names the
    same knot.  Shifted to be symmetric and signed so that Delta(1) = 1."""
    if q % 2 == 0:
        q += p
    terms, sigma = {}, 0
    for k in range(p):
        if k:
            sigma += -1 if (k * q // p) % 2 else 1
        terms[sigma] = terms.get(sigma, 0) + (-1) ** k
    terms = {e: c for e, c in terms.items() if c}
    lo, hi = min(terms), max(terms)
    if (lo + hi) % 2:
        raise ValueError("an Alexander polynomial has even span")
    sign = sum(terms.values())
    return {e - (lo + hi) // 2: sign * c for e, c in terms.items()}


def _at_a_one(p):
    return p.map_exponents(lambda eq, ea: (eq, 0))


class TestAlexanderColorOne:
    def test_color_one_at_a_one_is_alexander(self):
        # HOMFLY-PT at a = 1 is the Alexander polynomial in t = q^2, on
        # both the oracle and the knot route, for every knot up to 12
        # crossings; |Delta(-1)| is the determinant p
        knots = enumerate_rational_knots(12)
        assert len(knots) == 362
        for s in knots:
            delta = alexander(s.p, s.q)
            assert sum(delta.values()) == 1
            assert abs(sum(c * (-1) ** e for e, c in delta.items())) == s.p
            want = LaurentPoly({(2 * e, 0): c for e, c in delta.items()})
            assert _at_a_one(oracle_homfly(s, 1).clear_to_laurent()) == want
            qd = knot_quiver(s)
            order1 = expand_motivic(framing_shift(qd, -qd.framing), 1)[1]
            assert (_at_a_one((order1 * poch_q2(1)).clear_to_laurent())
                    == want), s

    def test_link_route_color_one_is_alexander(self):
        # the link route's order-1 coefficient is P_1 itself, with no
        # clearing: at a = 1 it is Delta(q^2) on every knot up to 10
        # crossings
        knots = enumerate_rational_knots(10)
        assert len(knots) == 95
        for s in knots:
            want = LaurentPoly({(2 * e, 0): c
                                for e, c in alexander(s.p, s.q).items()})
            qd = link_quiver(s)
            order1 = expand_motivic(framing_shift(qd, -qd.framing), 1)[1]
            assert _at_a_one(order1.clear_to_laurent()) == want, s


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
