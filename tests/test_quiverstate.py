"""Incremental quiver-state pipeline (one crossing at a time): the
state expansion must track the rescaled skein element after every
twist, and the closed quiver data must reproduce the oracle."""

from dataclasses import replace
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from quivertangle.qseries import QFraction
from quivertangle.knotpipeline import (_TRANSFORMS, _apply_template,
                                       knot_quiver, reduce_cf)
from quivertangle.quiverstate import (MAX_VERTICES, IndexRecord,
                                      QuiverData, QuiverState, _freeze,
                                      absorb_pochhammer, apply_twist,
                                      canonical_shift, close_link,
                                      framing_shift, link_quiver,
                                      mirror_quiver, q_invert, quiver_route,
                                      state_expand, symmetrize,
                                      trivial_state)
from quivertangle.skein import (basis_element, framing_factor, oracle_homfly,
                                raw_closure, twist, writhe)
from quivertangle.tangles import (OP, RI, Slope, UP, cf_expand, cf_value,
                                  enumerate_rational_knots, is_knot,
                                  resolve_terms, twist_sequence)

from conftest import (absorb_pochhammer_reference, apply_template_reference,
                      apply_twist_reference, canonical_shift_reference,
                      close_link_reference, compositions, distinct_slopes,
                      export_quivers, link_route_coeff,
                      odd_cfs, permutation_equal, permute, rescale,
                      state_expand_reference, state_expand_walk_reference)


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


_CLASSES = [(active, flag) for active in (False, True) for flag in (0, 1)]


@hs.composite
def small_states(draw, max_n=4):
    """Random small states: non-symmetric M, mixed active and
    extra-Pochhammer flags.  With n >= 4 the last four indices carry
    the four (active, extra_poch) classes in some order, so a node of
    the expansion walk meets every class among its leaves."""
    n = draw(hs.integers(1, max_n))
    classes = [(draw(hs.booleans()), draw(hs.integers(0, 1)))
               for _ in range(n)]
    if n >= 4:
        classes[-4:] = draw(hs.permutations(_CLASSES))
    records = tuple(IndexRecord(active, flag, draw(hs.integers(-3, 3)),
                                draw(hs.integers(-2, 2)))
                    for active, flag in classes)
    M = tuple(tuple(draw(hs.integers(-3, 3)) for _ in range(n))
              for _ in range(n))
    return QuiverState(draw(hs.sampled_from((UP, OP, RI))), records, M)


def _triples(elements):
    return [(e.color, e.boundary, e.coeffs) for e in elements]


@settings(max_examples=80, deadline=None)
@given(small_states(max_n=8), hs.integers(0, 4))
def test_state_expand_matches_brute_force(st, N):
    assert _triples(state_expand(st, N)) \
        == _triples(state_expand_reference(st, N))


def test_state_expand_matches_walk_reference():
    # the flat leaf loop against the recursive walk it replaced, on the
    # motivic states of both routes' quivers for every slope with CF
    # term sum <= 7 (knot route to order 3, link route to order 2), on
    # the link route's states after every twist, and on the knot route's
    # pre-closure states (extra-Pochhammer flags on both kinds)
    states = []
    for s in distinct_slopes(7):
        for build, N in ((link_quiver, 2), (knot_quiver, 3)):
            if build is knot_quiver and not is_knot(s):
                continue
            qd = build(s)
            qd = framing_shift(qd, -qd.framing)
            st = QuiverState(UP, tuple(IndexRecord(False, 0, q, a) for q, a
                                       in zip(qd.q_vec, qd.a_vec)), qd.Q)
            states.append((st, N))
    assert len(states) == 107
    for cf in odd_cfs(7):
        st = trivial_state()
        for kind in twist_sequence(cf):
            st = apply_twist(st, kind)
            states.append((st, 3))
        if is_knot(cf_value(cf)):
            states.append((reduce_cf(cf), 3))
    for args in states:
        assert _triples(state_expand(*args)) \
            == _triples(state_expand_walk_reference(*args)), args


def _snapshot(st):
    return (st.obj, st.indices, st.M)


@settings(max_examples=150, deadline=None)
@given(small_states(max_n=5), hs.data())
def test_kernel_matches_reference(st, data):
    # the in-place kernel against the frozen-state steps it replaced
    before = _snapshot(st)
    kind = data.draw(hs.sampled_from("TR"))
    assert apply_twist(st, kind) \
        == apply_twist_reference(st, kind, refine=False)

    targets = data.draw(hs.permutations(range(st.n)))
    targets = targets[:data.draw(hs.integers(0, st.n))]
    coeff = data.draw(hs.lists(hs.integers(-2, 2), min_size=st.n,
                               max_size=st.n))
    args = (coeff, data.draw(hs.integers(-2, 2)),
            2 * data.draw(hs.integers(-1, 2)), targets)
    flags = {"alpha_active": data.draw(hs.sampled_from((None, True, False))),
             "beta_active": data.draw(hs.sampled_from((None, True, False)))}
    inputs = (list(coeff), list(targets))
    assert absorb_pochhammer(st, *args, **flags) \
        == absorb_pochhammer_reference(st, *args, refine=False, **flags)
    assert (coeff, targets) == inputs

    key = data.draw(hs.sampled_from(sorted(_TRANSFORMS)))
    keyed = QuiverState(key[1], st.indices, st.M)
    assert _apply_template(keyed, key) == apply_template_reference(keyed, key)

    # a closable state: no flags, and M_il + M_li even off the diagonal;
    # the reference closes it in the balanced reading, whose fold takes
    # the strictly-upper all-ones form back off
    M = [list(row) for row in st.M]
    for i in range(st.n):
        for l in range(i):
            M[i][l] += (M[i][l] + M[l][i]) % 2
    obj = data.draw(hs.sampled_from((UP, OP)))
    records = tuple(replace(r, extra_poch=0) for r in st.indices)
    balanced = [[v + (l > i) for l, v in enumerate(row)]
                for i, row in enumerate(M)]
    plain = QuiverState(obj, records, _freeze(M))
    unfolded = QuiverState(obj, records, _freeze(balanced))
    assert close_link(plain, 1) == close_link_reference(unfolded, 1)
    assert _snapshot(st) == before


def test_balanced_reading_closes_to_the_same_quiver():
    # the balanced reading q^{-e2(d)} [j; d]_+, run by the references
    # (refine=True twists, then the fold and the closure), exports
    # exactly the positive kernel's quiver data on every closable odd
    # CF with term sum <= 7
    closed = 0
    for cf in odd_cfs(7):
        positive = balanced = trivial_state()
        for kind in twist_sequence(cf):
            positive = apply_twist(positive, kind)
            balanced = apply_twist_reference(balanced, kind, refine=True)
        if positive.obj == RI:
            continue
        framing = writhe(cf)
        assert close_link(positive, framing) \
            == close_link_reference(balanced, framing), cf
        closed += 1
    assert closed == 43


class TestStateInvariant:
    def test_trivial_state(self):
        st = trivial_state()
        assert st.obj == UP
        assert_state_matches_oracle(st, [])

    def test_every_step_tracks_the_oracle(self):
        # master invariant of the one-crossing route: after every twist
        # the state expansion equals the rescaled skein element
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

    def test_q_invert_takes_the_framing_shift(self):
        # one pass equals the shift followed by the convention switch,
        # for every shift the CLI passes: canonical, raw (0), integer
        # frames and the zero frame
        for qd in export_quivers():
            shifts = {canonical_shift(qd, symmetric=True),
                      canonical_shift(qd, symmetric=False),
                      0, 3, -3, -qd.framing}
            for f in shifts:
                assert q_invert(qd, f) == q_invert(framing_shift(qd, f))

    def test_canonical_shift_matches_reference(self):
        # the 1-vertex quiver of the unknot has no off-diagonal entry
        unknot = QuiverData(((1,),), (-1,), (-1,), 1, "antisymmetric")
        for qd in [unknot, *export_quivers()]:
            for symmetric in (False, True):
                assert (canonical_shift(qd, symmetric)
                        == canonical_shift_reference(qd, symmetric))

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


def _representative(slope):
    return cf_value(resolve_terms(slope)[0])


class TestVertexBound:
    def test_route_vertex_counts(self):
        # the counts the bound reads: p on the knot route, 2(p' + q') on
        # the link route for the representative p'/q' it closes
        for p in range(1, 30):
            for q in range(1, p + 1):
                if gcd(p, q) != 1:
                    continue
                s = Slope(p, q)
                rep = _representative(s)
                assert link_quiver(s).n == 2 * (rep.p + rep.q), s
                if is_knot(s):
                    assert knot_quiver(s).n == p, s
        # the link route on 233/89 closes 233/144: 754 vertices, not 644
        assert _representative(Slope(233, 89)) == Slope(233, 144)

    def test_bound_admits_the_documented_sweeps(self):
        # the knot route on every knot up to 14 crossings, the link
        # route on every knot up to 12 crossings and on every link slope
        # with even p <= 50 (the benchmark's links50)
        assert max(s.p for s in enumerate_rational_knots(14)) <= MAX_VERTICES
        slopes = enumerate_rational_knots(12) + [
            Slope(p, q) for p in range(2, 51, 2) for q in range(1, p)
            if gcd(p, q) == 1]
        assert max(2 * (r.p + r.q) for r in map(_representative, slopes)) \
            <= MAX_VERTICES

    def test_refused_before_building(self):
        def close(terms, framing):
            raise AssertionError("built a quiver over the bound")

        with pytest.raises(ValueError, match=f"2049 vertices.*{MAX_VERTICES}"):
            quiver_route([2049], close, polynomial=True,
                         vertices=lambda rep: rep.p)
        # the bound itself is admitted
        built = QuiverData(((0,),), (0,), (0,), 0, "antisymmetric")
        assert quiver_route([MAX_VERTICES], lambda terms, framing: built,
                            polynomial=True,
                            vertices=lambda rep: rep.p) is built
        with pytest.raises(ValueError, match="2050 vertices"):
            link_quiver(Slope(1024, 1))
        with pytest.raises(ValueError, match="2049 vertices"):
            knot_quiver(Slope(2049, 2))
