"""Skein-theoretic oracle: twist rules, closure rules, framing, and
closed-form identities it must satisfy."""

import itertools
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivertangle.qseries import (LaurentPoly, ONE, QFraction, ZERO, a_pow,
                                  poch_q2, pochhammer, q_pow, qbinom_plus)
from quivertangle.knotpipeline import knot_quiver
from quivertangle.quiverstate import framing_shift, link_quiver
from quivertangle import skein
from quivertangle.skein import (SkeinElement, _pack, _packed_quotient,
                                _unpack, basis_element, closure_numerator,
                                oracle_homfly, raw_closure, twist_matrix)
from quivertangle.tangles import (OP, RI, UP, Slope, cf_expand,
                                  enumerate_rational_knots,
                                  good_representative, twist_sequence,
                                  writhe)
from quivertangle.verify import expand_motivic

from conftest import (close, close_reference, distinct_slopes,
                      framing_factor, mirror, neg_q_pow, odd_cfs,
                      raw_closure_reference, reduced_homfly, rescale,
                      tangle_element, twist, twist_reference)


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
                lhs = raw_closure(["T"] * n, j)
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
        # are refused by both.  raw_closure divides by (q^2;q^2)_j when
        # the quotient is proven, so it keeps that denominator or 1
        for terms in odd_cfs(8):
            for j in range(5):
                try:
                    want = raw_closure_reference(terms, j)
                except ValueError:
                    with pytest.raises(ValueError):
                        raw_closure(twist_sequence(terms), j)
                    continue
                got = raw_closure(twist_sequence(terms), j)
                assert got.den in (ONE, poch_q2(j)), (terms, j)
                assert got == want, (terms, j)

    def test_tangle_element_matches_reference(self):
        for terms in odd_cfs(6):
            for j in range(4):
                e = basis_element(j, UP, 0)
                for kind in twist_sequence(terms):
                    e = twist_reference(e, kind)
                got = tangle_element(terms, j)
                assert (got.boundary, got.coeffs) == (e.boundary, e.coeffs)


def _whole_bytes(bound):
    """The least whole-byte B with 2^(B-1) > bound."""
    return 8 * ((bound.bit_length() + 8) // 8)


def _digits_at(p, B):
    """p at q = 2^B, one int per a-slice, as {a exponent: int}, and
    the lowest q-exponent it was shifted by."""
    low = min((eq for eq, _ in p.terms), default=0)
    return _pack(p, B, low), low


_SMALL_POLYS = st.dictionaries(
    st.tuples(st.integers(-6, 6), st.integers(-2, 2)),
    st.integers(-300, 300), max_size=5).map(LaurentPoly)


class TestPackedQuotient:
    """raw_closure divides the packed closure numerator by (q^2;q^2)_j
    and keeps the quotient only with a zero remainder and the L1
    proof."""

    def test_crafted_inexact_quotient_is_refused(self):
        # f agrees with (q^2;q^2)_2 (100 + 100 q^2) at q = 2^8 and every
        # remainder is zero, but the product has a coefficient -200 that
        # is no balanced byte: L1(g) L1(h) = 800 >= 2^7
        f = LaurentPoly({(0, 0): 100, (4, 0): 56, (5, 0): -1, (8, 0): 100})
        g = poch_q2(2)
        slices, low = _digits_at(f, 8)
        (n,) = slices.values()
        G = _pack(g, 8, 0)[0]
        assert n % G == 0
        h = _unpack({0: n // G}, 8, low)
        assert h == LaurentPoly({(0, 0): 100, (2, 0): 100})
        assert g * h != f
        assert _packed_quotient(slices, 2, 8, low) is None

    @settings(max_examples=300, deadline=None)
    @given(_SMALL_POLYS, _SMALL_POLYS, st.integers(0, 3), st.booleans())
    def test_quotient_is_exact_or_absent(self, h, e, j, perturb):
        # f = g h, or g h plus a perturbation; B is the least whole byte
        # width that holds f's coefficients, as the oracle's bound does
        g = poch_q2(j)
        f = g * h + e if perturb else g * h
        B = _whole_bytes(max(map(abs, f.terms.values()), default=0))
        slices, low = _digits_at(f, B)
        got = _packed_quotient(slices, j, B, low)
        assert got is None or g * got == f
        if not perturb:
            # with B wide enough for the proof, g h gives h back
            B = _whole_bytes(sum(map(abs, g.terms.values()))
                             * sum(map(abs, h.terms.values())))
            slices, low = _digits_at(f, B)
            assert _packed_quotient(slices, j, B, low) == h

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-2 ** 200, 2 ** 200),
           st.sampled_from([8, 16, 24, 32, 40, 48, 56, 64, 72, 128]))
    def test_unpack_holds_any_integer(self, n, B):
        # _unpack reads the balanced base-2^B digits of any integer, so
        # it can decode a quotient whose size no bound fixed
        p = _unpack({0: n}, B, 0)
        assert all(-(1 << B - 1) <= c < 1 << B - 1 for c in p.terms.values())
        assert sum(c << B * eq for (eq, _), c in p.terms.items()) == n

    @settings(max_examples=200, deadline=None)
    @given(_POLYS, st.sampled_from([8, 16, 24, 32, 40, 48, 56, 64, 72, 128]))
    def test_decode_without_cast_is_identical(self, p, B):
        # every slot width up to 8 bytes is cast, spread to a native
        # width when it has none; without formats the loop decodes
        if sys.byteorder == "little":
            assert sorted(skein._DIGIT_FORMATS) == list(range(1, 9))
        B = max(B, _whole_bytes(max(map(abs, p.terms.values()), default=0)))
        slices, low = _digits_at(p, B)
        cast = _unpack(slices, B, low)
        saved = skein._DIGIT_FORMATS
        skein._DIGIT_FORMATS = {}
        try:
            loop = _unpack(slices, B, low)
        finally:
            skein._DIGIT_FORMATS = saved
        assert cast.terms == loop.terms == p.terms


def _composed(word, j, frame, mirrored):
    """raw_closure decoded in the diagram frame, times the framing
    factor f(j)^frame, then mirrored: the composition the framed decode
    replaced."""
    value = raw_closure(word, j) * framing_factor(j, frame)
    return mirror(value) if mirrored else value


def _parts(value):
    return value.num.terms, value.den.terms


class TestFramedDecode:
    """raw_closure decodes each value in its output frame: every digit
    goes to its key and sign in the frame, mirrored with it, on both
    branches (the packed quotient and the numerator over
    (q^2;q^2)_j)."""

    def test_oracle_matches_the_composition(self):
        # every slope with CF sum <= 8 at colors 0..4 gives the numerator
        # and denominator terms of the composition, among them odd
        # j * frame, mirror representatives and both branches
        seen = set()
        for s in distinct_slopes(8):
            rep, mirrored = good_representative(s)
            terms = cf_expand(rep)
            word, frame = twist_sequence(terms), -writhe(terms)
            for j, value in enumerate(oracle_homfly(s, range(5))):
                want = _composed(word, j, frame, mirrored)
                assert _parts(value) == _parts(want), (s, j)
                seen |= {("odd", j * frame % 2 == 1), ("mirror", mirrored),
                         ("fallback", not want.den.is_one())}
        assert seen == {(kind, flag) for kind in ("odd", "mirror", "fallback")
                        for flag in (False, True)}

    def test_every_frame_and_mirror_matches_the_composition(self):
        # the oracle never mirrors a value on the fallback branch (links
        # close without a mirror), so raw_closure is called directly: at
        # several frames, either mirror flag and both branches, on the
        # closable representatives of the slopes with CF sum <= 5
        branches = set()
        for s in distinct_slopes(5):
            word = twist_sequence(cf_expand(good_representative(s)[0]))
            for j in range(4):
                for frame in (-3, -2, 0, 1, 5):
                    for mirrored in (False, True):
                        want = _composed(word, j, frame, mirrored)
                        got = raw_closure(word, j, frame, mirrored)
                        assert _parts(got) == _parts(want), (
                            terms, j, frame, mirrored)
                        branches.add((mirrored, want.den.is_one()))
        assert len(branches) == 4


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


def _cleared(f):
    """A QFraction as the Laurent polynomial num / den; raises
    ValueError if a denominator remains."""
    return f.num.divide_exact(f.den)


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
            (value,) = oracle_homfly(s, [1])
            assert _at_a_one(_cleared(value)) == want
            qd = knot_quiver(s)
            order1 = expand_motivic(framing_shift(qd, 0), 1)[1]
            assert _at_a_one(_cleared(order1 * poch_q2(1))) == want, s

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
            order1 = expand_motivic(framing_shift(qd, 0), 1)[1]
            assert _at_a_one(_cleared(order1)) == want, s


def _at_q_one(p):
    return p.map_exponents(lambda eq, ea: (0, ea))


def _colored_alexander_holds(s, r, value):
    """P_r(a = 1, q) = Delta(q^(2r)) (Zhu, arXiv:1206.5886)."""
    want = LaurentPoly({(2 * r * e, 0): c
                        for e, c in alexander(s.p, s.q).items()})
    return _at_a_one(value) == want


def _exponential_growth_holds(r, value, first):
    """P_r(a, q = 1) = P_1(a, q = 1)^r (Zhu, arXiv:1206.5886)."""
    return _at_q_one(value) == _at_q_one(first) ** r


class TestOracleAtEveryColor:
    def test_colored_alexander_and_exponential_growth(self):
        # two identities of every knot and symmetric color r, on every
        # knot up to 12 crossings at colors 1..4
        for s in enumerate_rational_knots(12):
            values = [_cleared(v) for v in oracle_homfly(s, [1, 2, 3, 4])]
            first = values[0]
            for r, value in enumerate(values, 1):
                assert _colored_alexander_holds(s, r, value), (s, r)
                assert _exponential_growth_holds(r, value, first), (s, r)

    def test_mutants_fail(self):
        # a one-twist frame error in P_2 breaks both identities on all
        # 14 knots up to 7 crossings; the mirror of P_2 breaks
        # exponential growth on 12 of them (Delta is symmetric, so the
        # colored Alexander identity cannot see a mirror)
        knots = enumerate_rational_knots(7)
        assert len(knots) == 14
        mirror_misses = 0
        for s in knots:
            first, value = map(_cleared, oracle_homfly(s, [1, 2]))
            framed = value * framing_factor(2, 1)
            assert not _colored_alexander_holds(s, 2, framed), s
            assert not _exponential_growth_holds(2, framed, first), s
            mirror_misses += not _exponential_growth_holds(
                2, value.mirror(), first)
        assert mirror_misses == 12


class TestRescale:
    def test_rescale_action(self):
        e = rescale(basis_element(2, UP, 1))
        assert e.coeffs[1] == qbinom_plus(2, 1)


class TestInvariants:
    def test_unknot_normalization(self):
        assert oracle_homfly(Slope(1, 1), list(range(6))) == [qf(ONE)] * 6

    def test_writhe_examples(self):
        assert writhe([1]) == 1
        assert writhe([3]) == 3
        assert writhe([1, 2, 4]) == 7

    def test_single_twist_is_framed_unknot(self):
        # one top twist closes to the unknot with one unit of framing
        for j in range(4):
            assert raw_closure(["T"], j) == qf(framing_factor(j, 1))
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
        for j, value in enumerate(oracle_homfly(Slope(3, 2), [1, 2]), 1):
            assert value == mirror(reduced_homfly(Slope(3, 1), j))

    def test_knot_values_clear_to_laurent(self):
        # reduced colored polynomials of knots are honest Laurent
        # polynomials (the closure denominators cancel)
        for s in distinct_slopes(8, knots=True):
            for value in oracle_homfly(s, [1, 2, 3]):
                _cleared(value)

    def test_trefoil_jones(self):
        # uncolored (j=1) value of the trefoil at a = q^2 is the Jones
        # polynomial of the positive trefoil, q^2 + q^6 - q^8
        (v,) = map(_cleared, oracle_homfly(Slope(3, 1), [1]))
        v = v.subs_a_q2()
        assert v == (q_pow(2) + q_pow(6) - q_pow(8))

    def test_colored_jones_at_a_q_minus_2(self):
        # the S^j colored Jones polynomial J_{j+1} is P_j at a = q^-2,
        # read in Q = q^-2 (sl_2 specialization; a = q^2, what --jones
        # substitutes, gives it at color 1 only).  Checked at colors
        # 0..4 against Habiro's cyclotomic sums (Masbaum, Algebr. Geom.
        # Topol. 3 (2003)), N = j + 1:
        #   3/1: sum_{n<N} Q^n (Q^{1-N};Q)_n (Q^{1+N};Q)_n
        #   5/2: sum_{n<N} prod_{k<=n} (Q^N + Q^-N - Q^k - Q^-k)
        def Q(m):
            return q_pow(-2 * m)

        def poch(k, n):
            # (Q^k; Q)_n
            return pochhammer(Q(k), -2, n)

        def trefoil(N):
            return sum((Q(n) * poch(1 - N, n) * poch(1 + N, n)
                        for n in range(N)), ZERO)

        def five_two(N):
            acc, term = ZERO, ONE
            for n in range(N):
                if n:
                    term = term * (Q(N) + Q(-N) - Q(n) - Q(-n))
                acc = acc + term
            return acc

        for slope, habiro in ((Slope(3, 1), trefoil),
                              (Slope(5, 2), five_two)):
            for j, value in enumerate(oracle_homfly(slope, list(range(5)))):
                value = _cleared(value)
                jones = value.map_exponents(lambda eq, ea: (eq - 2 * ea, 0))
                assert jones == habiro(j + 1), (slope, j)

    def test_ri_ending_cf_rejected(self):
        with pytest.raises(ValueError):
            raw_closure(twist_sequence([1, 1, 1]), 1)
