"""Paired-crossing pipeline for knots (p-vertex quivers): fixed-order
state regressions, step-level oracle tracking, and the homology-flavored
gradings."""

import pytest

from quivertangle.knotpipeline import (_TRANSFORMS, TEMPLATE_STEP,
                                       _apply_template, delta_vector,
                                       homology_generators, knot_quiver,
                                       signature)
from quivertangle.qseries import LaurentPoly, QFraction, ZERO
from quivertangle.quiverstate import framing_shift, link_quiver, q_invert
from quivertangle.skein import basis_element, oracle_homfly
from quivertangle.tangles import (OP, RI, Slope, UP, cf_expand, cf_value,
                                  enumerate_rational_knots, is_knot, writhe)

from conftest import (IndexRecord, QuiverState, delta_homogeneous,
                      apply_template_reference, delta_vector_reference,
                      distinct_slopes, expand, freeze_matrix, framing_factor,
                      goeritz_signature, keyed_state, knot_route_poly,
                      odd_cfs, permutation_equal, quiver_data, quiver_rows,
                      reduce_cf, reduce_steps, rescale, run_step,
                      trivial_state, twist)


def state(obj, rows, M):
    """QuiverState literal from (active, poch_flag, s, a) rows."""
    return QuiverState(obj, tuple(IndexRecord(bool(act), k, s, a)
                                  for act, k, s, a in rows), freeze_matrix(M))


def assert_state(st, obj, rows, M):
    assert st.obj == obj
    got = [(int(r.active), r.extra_poch, r.s, r.a) for r in st.indices]
    assert got == [tuple(r) for r in rows]
    assert [list(row) for row in st.M] == M


def skein_after(word, j):
    e = basis_element(j, UP, 0)
    for kind in word:
        e = twist(e, kind)
    return rescale(e)


class TestFixedOrderRegressions:
    def test_double_top_twist_on_trivial(self):
        st = run_step(trivial_state(), TEMPLATE_STEP, _apply_template, "TT")
        assert_state(st, UP,
                     [(1, 1, -1, 0), (0, 0, -2, 0)],
                     [[0, 0], [0, 0]])

    def test_trefoil_closure(self):
        st = run_step(trivial_state(), TEMPLATE_STEP, _apply_template, "TT")
        qd = run_step(st, TEMPLATE_STEP, _apply_template, "close", framing=0)
        assert qd.q_vec == (-1, -3, 0)
        assert qd.a_vec == (-1, -1, 1)
        assert quiver_rows(qd) == ((3, 1, 1), (1, 1, 0), (1, 0, 0))
        assert qd.color_convention == "antisymmetric"

    def test_trefoil_zero_frame_and_symmetric_colors(self):
        raw = knot_quiver(Slope(3, 1))
        assert raw.framing == 3
        zero = framing_shift(raw, 0)
        assert zero.q_vec == (2, 0, 3)
        assert zero.a_vec == (2, 2, 4)
        assert quiver_rows(zero) == ((0, -2, -2), (-2, -2, -3),
                                     (-2, -3, -3))
        sym = q_invert(raw, 0)
        assert sym.q_vec == (-2, 0, -3)
        assert sym.a_vec == (2, 2, 4)
        assert quiver_rows(sym) == ((0, 1, 1), (1, 2, 2), (1, 2, 3))

    def test_13_3_intermediates(self):
        st = run_step(trivial_state(), TEMPLATE_STEP, _apply_template, "RT")
        assert_state(st, "OP",
                     [(1, 0, 0, 0), (0, 1, -2, -1)],
                     [[0, 1], [1, 1]])

        st = run_step(st, TEMPLATE_STEP, _apply_template, "TR")
        assert_state(st, UP,
                     [(1, 1, -1, 0), (1, 1, -3, -2), (0, 0, -2, 0),
                      (0, 0, -4, -2), (0, 0, -3, -2)],
                     [[0, 1, 0, 1, 2],
                      [1, 2, 2, 2, 3],
                      [0, 2, 0, 1, 1],
                      [1, 2, 1, 2, 2],
                      [2, 3, 1, 2, 3]])

        st = run_step(st, TEMPLATE_STEP, _apply_template, "TT")
        assert_state(st, UP,
                     [(1, 1, -1, 0), (1, 1, -3, -2), (1, 1, -3, 0),
                      (1, 1, -5, -2), (1, 1, -4, -2), (0, 0, -4, 0),
                      (0, 0, -6, -2), (0, 0, -5, -2)],
                     [[2, 3, 0, 1, 2, 0, 1, 2],
                      [3, 4, 2, 2, 3, 2, 2, 3],
                      [0, 2, 0, 1, 1, 0, 1, 1],
                      [1, 2, 1, 2, 2, 2, 2, 2],
                      [2, 3, 1, 2, 3, 2, 3, 3],
                      [0, 2, 0, 2, 2, 0, 1, 1],
                      [1, 2, 1, 2, 3, 1, 2, 2],
                      [2, 3, 1, 2, 3, 1, 2, 3]])

        qd = run_step(st, TEMPLATE_STEP, _apply_template, "close", framing=0)
        assert qd.q_vec == (-1, -3, -3, -5, -4, -5, -7, -6,
                            0, -2, -2, -4, -3)
        assert qd.a_vec == (-1, -3, -1, -3, -3, -1, -3, -3,
                            1, -1, 1, -1, -1)
        assert [list(r) for r in quiver_rows(qd)] == [
            [5, 6, 3, 4, 5, 1, 2, 3, 3, 4, 1, 2, 3],
            [6, 7, 5, 5, 6, 3, 3, 4, 5, 5, 3, 3, 4],
            [3, 5, 3, 4, 4, 1, 2, 2, 2, 4, 1, 2, 2],
            [4, 5, 4, 5, 5, 3, 3, 3, 3, 4, 3, 3, 3],
            [5, 6, 4, 5, 6, 3, 4, 4, 4, 5, 3, 4, 4],
            [1, 3, 1, 3, 3, 1, 2, 2, 0, 2, 0, 2, 2],
            [2, 3, 2, 3, 4, 2, 3, 3, 1, 2, 1, 2, 3],
            [3, 4, 2, 3, 4, 2, 3, 4, 2, 3, 1, 2, 3],
            [3, 5, 2, 3, 4, 0, 1, 2, 2, 3, 0, 1, 2],
            [4, 5, 4, 4, 5, 2, 2, 3, 3, 4, 2, 2, 3],
            [1, 3, 1, 3, 3, 0, 1, 1, 0, 2, 0, 1, 1],
            [2, 3, 2, 3, 4, 2, 2, 2, 1, 2, 1, 2, 2],
            [3, 4, 2, 3, 4, 2, 3, 3, 2, 3, 1, 2, 3]]

    def test_13_3_final_up_to_permutation(self):
        raw = knot_quiver(Slope(13, 3))
        assert raw.framing == writhe([1, 2, 4]) == 7
        final = q_invert(raw, 0)
        expected = quiver_data(
            freeze_matrix([
                [2, 0, 3, 2, 1, 5, 4, 3, 3, 2, 5, 4, 3],
                [0, 0, 1, 1, 0, 3, 3, 2, 1, 1, 3, 3, 2],
                [3, 1, 4, 2, 2, 5, 4, 4, 4, 2, 5, 4, 4],
                [2, 1, 2, 2, 1, 3, 3, 3, 3, 2, 3, 3, 3],
                [1, 0, 2, 1, 1, 3, 2, 2, 2, 1, 3, 2, 2],
                [5, 3, 5, 3, 3, 6, 4, 4, 6, 4, 6, 4, 4],
                [4, 3, 4, 3, 2, 4, 4, 3, 5, 4, 5, 4, 3],
                [3, 2, 4, 3, 2, 4, 3, 3, 4, 3, 5, 4, 3],
                [3, 1, 4, 3, 2, 6, 5, 4, 5, 3, 6, 5, 4],
                [2, 1, 2, 2, 1, 4, 4, 3, 3, 3, 4, 4, 3],
                [5, 3, 5, 3, 3, 6, 5, 5, 6, 4, 7, 5, 5],
                [4, 3, 4, 3, 2, 4, 4, 4, 5, 4, 5, 5, 4],
                [3, 2, 4, 3, 2, 4, 3, 3, 4, 3, 5, 4, 4]]),
            (6, 4, 6, 4, 4, 6, 4, 4, 8, 6, 8, 6, 6),
            (-6, -4, -4, -2, -3, -2, 0, -1, -7, -5, -5, -3, -4),
            0, "symmetric")
        assert permutation_equal(final, expected)


class TestStepLevelInvariant:
    def test_every_pair_tracks_the_oracle(self):
        # the positive-form state expansion equals the rescaled skein
        # element after each step of the paired algorithm, and reduce_cf
        # returns the state after the last step; the boundary and the
        # coefficients check every pair template the sweep reaches, which
        # is all eight of them (the closures: test_zero_frame_polynomials)
        order = 3
        reached = set()
        for cf in odd_cfs(6):
            if not is_knot(cf_value(cf)):
                continue
            word = ""
            last = trivial_state()
            for step, st in reduce_steps(cf):
                if "^" in step:
                    kind, count = step.split("^")
                    word += kind * int(count)
                else:
                    reached.add((step, last.obj))
                    # the pair name lists the later twist first
                    word += step[::-1] if step in ("TR", "RT") else step
                for j in range(order + 1):
                    exp = expand(st, j)[j]
                    orc = skein_after(word, j)
                    assert exp.boundary == orc.boundary, (cf, word)
                    assert exp.coeffs == orc.coeffs, (cf, word, j)
                last = st
            assert reduce_cf(cf) == last, cf
        assert reached == {key for key in _TRANSFORMS if key[0] != "close"}

    def test_vertex_count_is_p(self):
        for cf in ([1], [3], [1, 2, 4], [2, 2, 1], [5]):
            slope = cf_value(cf)
            if is_knot(slope):
                assert knot_quiver(cf).n == slope.p

    def test_even_numerator_rejected(self):
        with pytest.raises(ValueError):
            reduce_cf([2])
        with pytest.raises(ValueError, match="bad continued fraction"):
            reduce_cf([1, 2])

    def test_inapplicable_steps_rejected(self):
        # the trivial state has k-type bookkeeping: RR/TR and the RI
        # closure need (j-k)-type, and no TT transform starts at RI
        st = trivial_state()
        at_ri = QuiverState(RI, st.indices, st.M)
        for pair in ("RR", "TR"):
            with pytest.raises(ValueError):
                run_step(st, TEMPLATE_STEP, _apply_template, pair)
        with pytest.raises(ValueError):
            run_step(at_ri, TEMPLATE_STEP, _apply_template, "TT")
        with pytest.raises(ValueError):
            run_step(at_ri, TEMPLATE_STEP, _apply_template, "close", framing=0)

    def test_template_boundaries_follow_the_twists(self):
        # ten templates: every pair ends on a boundary, which
        # test_every_pair_tracks_the_oracle checks against the oracle's,
        # and the closures, at UP and RI, end on none
        assert len(_TRANSFORMS) == 10
        for (pair, before), (_, after, _, _) in _TRANSFORMS.items():
            if pair == "close":
                assert before in (UP, RI) and after is None, before
            else:
                assert after in (UP, OP, RI), (pair, before)

    def test_every_template_needs_its_stated_type(self):
        # each template applies to a state of the type its entry states
        # at its boundary, and refuses the other type: k-type for TT and
        # RT (the earlier twist is T) and for the closure at UP
        st = state(UP, [(1, 0, 1, 0), (0, 0, -1, 2), (1, 0, 0, 1)],
                   [[1, 0, 2], [0, -1, 1], [2, 1, 0]])
        for key, (needs, _, _, _) in _TRANSFORMS.items():
            step, before = key
            assert needs == (before == UP if step == "close"
                             else step[1] == "T"), key
            good = keyed_state(st, key)
            assert (run_step(good, TEMPLATE_STEP, _apply_template, step)
                    == apply_template_reference(good, key)), key
            bad = QuiverState(before, tuple(
                IndexRecord(r.active, 1 - r.extra_poch, r.s, r.a)
                for r in good.indices), good.M)
            with pytest.raises(ValueError, match="-type bookkeeping"):
                run_step(bad, TEMPLATE_STEP, _apply_template, step)

    def test_unknot(self):
        qd = knot_quiver(Slope(1, 1))
        assert qd.n == 1
        for j in range(6):
            assert (knot_route_poly(framing_shift(qd, 0), j)
                    == QFraction(1))


class TestQuiverRouteMatchesOracle:
    @pytest.mark.parametrize("slope", [Slope(1, 1), Slope(3, 1), Slope(5, 2),
                                       Slope(13, 3), Slope(3, 2), Slope(5, 4),
                                       Slope(11, 7)])
    def test_zero_frame_polynomials(self, slope):
        # the positive-multinomial numerator of color j is the reduced
        # polynomial itself (the denominator (q^2;q^2)_j of the series
        # coefficient carries no invariant content)
        qd = knot_quiver(slope)
        zero = framing_shift(qd, 0)
        for j, want in enumerate(oracle_homfly(slope, [0, 1, 2])):
            assert knot_route_poly(zero, j) == want, (slope, j)


def test_slope_and_cf_input_give_equal_data():
    # quiver data compares by value, whatever input form built it
    def raw(state):
        return framing_shift(state, "raw")

    assert raw(knot_quiver(Slope(13, 3))) == raw(knot_quiver([1, 2, 4]))
    assert (raw(link_quiver(Slope(8, 3)))
            == raw(link_quiver(cf_expand(Slope(8, 3)))))


class TestGradings:
    def test_delta_and_signature_sweep(self):
        # the delta-grading is constant on each knot quiver and equals
        # the signature, independently recomputed from the Goeritz form
        for s in distinct_slopes(10, knots=True):
            qd = knot_quiver(s)
            homog, value = delta_homogeneous(qd)
            assert homog, s
            assert value == signature(s) == goeritz_signature(s), s

    def test_delta_framing_invariant(self):
        # read off the generators, and off the state's data in any frame
        state = knot_quiver(Slope(13, 3))
        delta = delta_vector(homology_generators(state))
        for f in (0, 5, -4):
            qd = framing_shift(state, f)
            assert delta == tuple(q - d - 2 * a for q, d, a in zip(
                qd.q_vec, qd.flat[::qd.n + 1], qd.a_vec))

    def test_delta_from_generators_matches_the_diagonal(self):
        # 2t - 2a - q of each generator is s - d - 2a of its record and
        # diagonal entry, on every knot up to 12 crossings
        knots = enumerate_rational_knots(12)
        assert len(knots) == 362
        for s in knots:
            state = knot_quiver(s)
            assert (delta_vector(homology_generators(state))
                    == delta_vector_reference(state)), s

    def test_homology_trigrading(self):
        gens = homology_generators(knot_quiver(Slope(3, 1)))
        assert set(gens) == {(-1, -2, -3), (-1, 2, -1), (1, 0, 0)}

    def test_homology_euler_characteristic_is_color_one(self):
        # sum_g (-1)^t q^q a^a over the generators is P_1 in the closure
        # frame knot_quiver records: the zero-frame oracle times the
        # framing factor, on every knot up to 12 crossings; without the
        # factor the sum misses on some knot
        knots = enumerate_rational_knots(12)
        assert len(knots) == 362
        unframed = 0
        for s in knots:
            qd = knot_quiver(s)
            chi = sum((LaurentPoly.mono(-1 if t % 2 else 1, q, a)
                       for a, q, t in homology_generators(qd)), ZERO)
            (p1,) = oracle_homfly(s, [1])
            assert QFraction(chi) \
                == QFraction(framing_factor(1, qd.framing)) * p1, s
            unframed += QFraction(chi) == p1
        assert unframed < len(knots)

    def test_rasmussen_relation(self):
        # 2t - 2a - q = signature for every generator, closure frame
        for s in distinct_slopes(10, knots=True):
            sig = signature(s)
            for a, q, t in homology_generators(knot_quiver(s)):
                assert 2 * t - 2 * a - q == sig, s

    def test_signature_examples(self):
        assert signature(Slope(3, 1)) == -2
        assert signature(Slope(3, 2)) == 2
        assert signature(Slope(5, 2)) == 0
        assert signature(Slope(5, 1)) == -4
        assert signature(Slope(5, 4)) == 4
