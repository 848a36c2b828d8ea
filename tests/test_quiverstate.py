"""Incremental quiver-state pipeline (one crossing at a time): the
state expansion must track the rescaled skein element after every
twist, and the closed quiver data must reproduce the oracle."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from quivertangle.qseries import QFraction, q_pow
from quivertangle.quiverstate import (IndexRecord, QuiverState, _e2,
                                      apply_twist, bal_multinomial, close_link,
                                      framing_shift, link_quiver,
                                      mirror_quiver, q_invert, resolve_terms,
                                      state_expand, symmetrize, trivial_state)
from quivertangle.skein import (basis_element, framing_factor, oracle_homfly,
                                raw_closure, twist, writhe)
from quivertangle.qseries import qmultinomial
from quivertangle.tangles import (OP, RI, Slope, UP, cf_expand, cf_value,
                                  twist_sequence)

from conftest import (compositions, link_route_coeff, odd_cfs,
                      permutation_equal, permute, rescale,
                      state_expand_reference)


STEP_ORDER = 3


def skein_chain(word, j):
    """Rescaled oracle elements after each prefix of the twist word."""
    e = basis_element(j, UP, 0)
    out = [rescale(e)]
    for kind in word:
        e = twist(e, kind)
        out.append(rescale(e))
    return out


def assert_state_matches_oracle(st, word, order=STEP_ORDER):
    expected = [skein_chain(word, j)[-1] for j in range(order + 1)]
    got = state_expand(st, order)
    for j in range(order + 1):
        assert got[j].boundary == expected[j].boundary, word
        assert got[j].coeffs == expected[j].coeffs, (word, j)


class TestCombinatoricHelpers:
    def test_compositions(self):
        assert list(compositions(2, 2)) == [(0, 2), (1, 1), (2, 0)]
        assert list(compositions(0, 0)) == [()]
        assert list(compositions(1, 0)) == []
        assert len(list(compositions(5, 3))) == 21

    def test_e2(self):
        assert _e2((2, 3)) == 6
        assert _e2((1, 1, 1)) == 3
        assert _e2((4,)) == 0

    def test_bal_multinomial_palindromic(self):
        for d in compositions(4, 3):
            b = bal_multinomial(4, d)
            assert b == q_pow(-_e2(d)) * qmultinomial(4, d)
            assert b.subs_q_inverse() == b


@hs.composite
def small_states(draw):
    """Random small states: non-symmetric M, mixed active and
    extra-Pochhammer flags."""
    n = draw(hs.integers(1, 4))
    records = tuple(IndexRecord(draw(hs.booleans()), draw(hs.integers(0, 1)),
                                draw(hs.integers(-3, 3)),
                                draw(hs.integers(-2, 2)))
                    for _ in range(n))
    M = tuple(tuple(draw(hs.integers(-3, 3)) for _ in range(n))
              for _ in range(n))
    return QuiverState(draw(hs.sampled_from((UP, OP, RI))), records, M)


@settings(max_examples=80, deadline=None)
@given(small_states(), hs.integers(0, 3), hs.booleans())
def test_state_expand_matches_brute_force(st, N, balanced):
    got = state_expand(st, N, balanced=balanced)
    want = state_expand_reference(st, N, balanced=balanced)
    assert [(e.color, e.boundary, e.coeffs) for e in got] \
        == [(e.color, e.boundary, e.coeffs) for e in want]


class TestStateInvariant:
    def test_trivial_state(self):
        st = trivial_state()
        assert st.obj == UP
        assert_state_matches_oracle(st, [])

    def test_every_step_tracks_the_oracle(self):
        # master invariant of the one-crossing route: after every twist
        # the balanced state expansion equals the rescaled skein element
        for cf in odd_cfs(6):
            word = twist_sequence(cf)
            st = trivial_state()
            for i, kind in enumerate(word):
                st = apply_twist(st, kind)
                assert_state_matches_oracle(st, word[:i + 1])

    def test_variable_counts(self):
        # the one-crossing route adds one index per crossing: a full
        # UP-state of slope p/q carries p active and q inactive indices
        for cf in ([3], [1, 2, 4], [2, 2, 2], [5], [3, 2, 1]):
            slope = cf_value(cf)
            st = trivial_state()
            for kind in twist_sequence(cf):
                st = apply_twist(st, kind)
            if st.obj == UP:
                assert len(st.actives()) == slope.p, cf
                assert len(st.inactives()) == slope.q, cf


class TestCloseLink:
    @pytest.mark.parametrize("cf", [[1], [2], [3], [1, 1, 2], [2, 1, 2],
                                    [1, 2, 4], [3, 2, 1], [2, 2, 2],
                                    [1, 1, 1, 1, 1], [3, 1, 2]])
    def test_closure_matches_raw_oracle(self, cf):
        st = trivial_state()
        for kind in twist_sequence(cf):
            st = apply_twist(st, kind)
        qd = close_link(st)
        for j in range(STEP_ORDER + 1):
            assert link_route_coeff(qd, j) == raw_closure(cf, j), (cf, j)

    def test_close_ri_rejected(self):
        st = trivial_state()
        for kind in twist_sequence([1, 1, 1]):  # ends on RI
            st = apply_twist(st, kind)
        with pytest.raises(ValueError):
            close_link(st)

    def test_close_flagged_index_rejected(self):
        st = QuiverState(UP, (IndexRecord(False, 1, 0, 0),), ((0,),))
        with pytest.raises(ValueError):
            close_link(st)


class TestLinkQuiver:
    @pytest.mark.parametrize("slope", [Slope(2, 1), Slope(4, 1), Slope(3, 1),
                                       Slope(8, 3), Slope(13, 3)])
    def test_zero_frame_matches_oracle(self, slope):
        qd = link_quiver(slope)
        assert qd.framing == writhe(cf_expand(slope))
        zero = framing_shift(qd, -qd.framing)
        for j in range(3):
            assert link_route_coeff(zero, j) == oracle_homfly(slope, j)

    @pytest.mark.parametrize("slope", [Slope(3, 2), Slope(6, 5), Slope(11, 7)])
    def test_mirror_representatives(self, slope):
        qd = link_quiver(slope)
        zero = framing_shift(qd, -qd.framing)
        for j in range(3):
            assert link_route_coeff(zero, j) == oracle_homfly(slope, j)

    def test_resolve_terms(self):
        terms, mirrored = resolve_terms(Slope(13, 3))
        assert (terms, mirrored) == ([1, 2, 4], False)
        terms, mirrored = resolve_terms([1, 2, 4])
        assert (terms, mirrored) == ([1, 2, 4], False)
        terms, mirrored = resolve_terms(Slope(3, 2))
        assert mirrored and terms == [3]


class TestDataTransforms:
    def test_framing_shift_multiplies_by_framing_factor(self):
        qd = link_quiver(Slope(3, 1))
        for f in (-2, 1, 3):
            shifted = framing_shift(qd, f)
            assert shifted.framing == qd.framing + f
            for j in range(3):
                assert (link_route_coeff(shifted, j)
                        == link_route_coeff(qd, j)
                        * QFraction(framing_factor(j, f)))
        assert framing_shift(qd, 0) is qd

    def test_mirror_quiver_inverts_variables(self):
        qd = framing_shift(link_quiver(Slope(3, 1)), -3)
        mir = mirror_quiver(qd, polynomial=False)
        assert mir.framing == -qd.framing == 0
        for j in range(3):
            assert link_route_coeff(mir, j) == link_route_coeff(qd, j).mirror()

    def test_mirror_requires_antisymmetric(self):
        qd = q_invert(link_quiver(Slope(3, 1)))
        with pytest.raises(ValueError):
            mirror_quiver(qd, polynomial=False)

    def test_q_invert_convention_flag(self):
        qd = link_quiver(Slope(3, 1))
        out = q_invert(qd)
        assert out.color_convention == "symmetric"
        assert out.q_vec == tuple(-x for x in qd.q_vec)
        with pytest.raises(ValueError):
            q_invert(out)

    def test_symmetrize(self):
        assert symmetrize([[1, 3], [1, 0]]) == ((1, 2), (2, 0))
        with pytest.raises(ArithmeticError):
            symmetrize([[0, 1], [0, 0]])

    def test_permutation_equal(self):
        qd = link_quiver(Slope(13, 3))
        order = list(range(qd.n))[::-1]
        assert permutation_equal(qd, permute(qd, order))
        assert permutation_equal(qd, qd)
        other = framing_shift(qd, 1)
        assert not permutation_equal(qd, other)
        assert not permutation_equal(qd, link_quiver(Slope(11, 3)))
