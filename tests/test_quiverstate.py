"""Incremental quiver-state pipeline (one crossing at a time): the
state expansion must track the rescaled skein element after every
twist, and the closed quiver data must reproduce the oracle."""

import os
import subprocess
import sys
from array import array
from collections import Counter
from dataclasses import astuple, replace
from itertools import chain
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import quivertangle
from quivertangle import quiverstate
from quivertangle.qseries import QFraction
from quivertangle.knotpipeline import (KNOT_ROUTE, _TRANSFORMS, _UPPER,
                                       TEMPLATE_STEP, _apply_template,
                                       _knot_bound, _resum, knot_quiver,
                                       signature)
from quivertangle.quiverstate import (CLOSE_STEP, LINK_ROUTE, MAX_VERTICES,
                                      MIRROR_STEP, TWIST_STEP, W, QuiverData,
                                      Route,
                                      _Q_INVERT, _absorb, _close,
                                      _flat, _link_bound, _mirror, _pack,
                                      _rebased, _trivial, _twist,
                                      export_range,
                                      framing_shift, link_quiver, q_invert,
                                      quiver_route, route_size, slot_width)
from quivertangle.skein import basis_element, oracle_homfly, raw_closure
from quivertangle.tangles import (OP, RI, Slope, UP, cf_expand, cf_value,
                                  enumerate_rational_knots, is_knot,
                                  resolve_terms, twist_sequence, writhe)

from conftest import (IndexRecord, QuiverState, absorb_list_frozen,
                      absorb_reference_positive, actives,
                      apply_template_list, apply_template_reference,
                      apply_twist_reference, class_step, close_list,
                      canonical_shift_reference, close_link_reference,
                      compositions, distinct_slopes, expand,
                      export_quivers, flatten, framing_factor,
                      framing_shift_reference, freeze, freeze_matrix,
                      inactives, keyed_state, link_route_coeff, mirror,
                      mirror_quiver,
                      odd_cfs, permutation_equal, permute,
                      q_invert_reference,
                      quiver_data, quiver_rows,
                      reduce_cf, reduce_steps, rescale, run_step,
                      state_expand_reference, state_expand_walk_reference,
                      thaw, thawed_records, trivial_state, twist,
                      twist_list)


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
    got = expand(st, order)
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
def small_states(draw, max_n=4, entries=hs.integers(-3, 3)):
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
    M = tuple(tuple(draw(entries) for _ in range(n)) for _ in range(n))
    return QuiverState(draw(hs.sampled_from((UP, OP, RI))), records, M)


def _triples(elements):
    return [(e.color, e.boundary, e.coeffs) for e in elements]


@pytest.mark.parametrize("flat", [
    lambda rows: array("h", flatten(rows)),
    lambda rows: array("b", flatten(rows)), flatten],
    ids=["array", "byte-array", "list"])
@settings(max_examples=80, deadline=None)
@given(small_states(max_n=8), hs.integers(0, 4))
def test_state_expand_matches_brute_force(flat, st, N):
    # M handed over flat, as the signed 16-bit and byte buffers export
    # gives and as a plain list
    assert _triples(expand(st, N, flat)) \
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
            qd = framing_shift(qd, 0)
            st = QuiverState(UP, tuple(IndexRecord(False, 0, q, a) for q, a
                                       in zip(qd.q_vec, qd.a_vec)),
                             quiver_rows(qd))
            states.append((st, N))
    assert len(states) == 107
    for cf in odd_cfs(7):
        st = trivial_state()
        for kind in twist_sequence(cf):
            st = run_step(st, TWIST_STEP, _twist, kind)
            states.append((st, 3))
        if is_knot(cf_value(cf)):
            states.append((reduce_cf(cf), 3))
    for args in states:
        assert _triples(expand(*args)) \
            == _triples(state_expand_walk_reference(*args)), args


def _snapshot(st):
    return (st.obj, st.indices, st.M)


_PAIRS = hs.tuples(hs.integers(-2, 2), hs.integers(-2, 2))


def draw_step(data, symmetric=False):
    """The per-class arguments of one _absorb step after its targets
    (coeff, const_a, ds, da, bump, twist), and the most the step moves
    any entry: b + 2c + 1 for bumps and coefficients of absolute value
    at most b and c, plus the twist's bridge of 1.  With symmetric, the
    bump of an inactive row on the active columns equals that of an
    active row on the inactive ones."""
    coeff, ds, da = data.draw(_PAIRS), data.draw(_PAIRS), data.draw(_PAIRS)
    bump = (data.draw(_PAIRS), data.draw(_PAIRS))
    if symmetric:
        bump = (bump[0], (bump[0][1], bump[1][1]))
    twist = data.draw(hs.booleans())
    step = (max(map(abs, bump[0] + bump[1])) + 2 * max(map(abs, coeff))
            + 1 + twist)
    return (coeff, data.draw(hs.integers(-2, 2)), ds, da, bump, twist), step


def draw_targets(data, n):
    """Distinct targets of any classes, in any order."""
    targets = data.draw(hs.permutations(range(n)))
    return targets[:data.draw(hs.integers(0, n))]


@settings(max_examples=150, deadline=None)
@given(small_states(max_n=5), hs.data())
def test_kernel_matches_reference(st, data):
    # the in-place kernel against the frozen-state steps it replaced
    before = _snapshot(st)
    kind = data.draw(hs.sampled_from("TR"))
    assert run_step(st, TWIST_STEP, _twist, kind) \
        == apply_twist_reference(st, kind, refine=False)

    # one step with per-class shifts, bumps, coefficients and the twist
    # flag, targets of mixed classes, against the reference absorb with
    # every per-class value expanded to each index
    targets = draw_targets(data, st.n)
    args, step = draw_step(data)
    inputs = list(targets)
    assert run_step(st, step, _absorb, targets, *args) \
        == class_step(st, absorb_reference_positive, targets, *args)
    assert targets == inputs

    key = data.draw(hs.sampled_from(sorted(_TRANSFORMS)))
    keyed = keyed_state(st, key)
    assert run_step(keyed, TEMPLATE_STEP, _apply_template, key[0]) \
        == apply_template_reference(keyed, key)

    # a closable state: no flags and a symmetric M (the upper triangle
    # mirrored); the reference closes it in the balanced reading, whose
    # fold takes the strictly-upper all-ones form back off
    M = [[st.M[min(i, l)][max(i, l)] for l in range(st.n)]
         for i in range(st.n)]
    obj = data.draw(hs.sampled_from((UP, OP)))
    records = tuple(replace(r, extra_poch=0) for r in st.indices)
    balanced = [[v + (l > i) for l, v in enumerate(row)]
                for i, row in enumerate(M)]
    plain = QuiverState(obj, records, freeze_matrix(M))
    unfolded = QuiverState(obj, records, freeze_matrix(balanced))
    assert run_step(plain, CLOSE_STEP, _close, framing=1) \
        == close_link_reference(unfolded, 1)
    assert _snapshot(st) == before


@hs.composite
def edge_states(draw, step, max_n=5):
    """small_states whose entries lie within a few units of the edge
    +-(2^(W-1) - 1 - step), one of them on it, or are small: a step
    that adds at most step to any |entry| fills its W-bit slots."""
    edge = (1 << (W - 1)) - 1 - step
    st = draw(small_states(max_n, hs.one_of(
        hs.integers(-3, 3), hs.integers(edge - 3, edge),
        hs.integers(-edge, -edge + 3))))
    i, l = draw(hs.integers(0, st.n - 1)), draw(hs.integers(0, st.n - 1))
    M = [list(row) for row in st.M]
    M[i][l] = draw(hs.sampled_from((edge, -edge)))
    return replace(st, M=freeze_matrix(M))


def _listed(st):
    return list(st.indices), [list(row) for row in st.M]


class TestPackedKernel:
    """The kernel on packed rows against the list kernel in conftest,
    and the bound its slot width comes from."""

    @settings(max_examples=150, deadline=None)
    @given(hs.data())
    def test_packed_kernel_matches_list_kernel(self, data):
        def thawed(step):
            st = data.draw(edge_states(step))
            return st, thaw(st, step)

        # one step with per-class shifts, bumps, coefficients and the
        # twist flag, targets of mixed classes, on entries at the edge
        # its constant leaves
        args, step = draw_step(data)
        st, th = thawed(step)
        targets = draw_targets(data, st.n)
        _absorb(th, targets, *args)
        assert freeze(th) == class_step(st, absorb_list_frozen, targets,
                                        *args)

        st, th = thawed(TWIST_STEP)
        kind = data.draw(hs.sampled_from("TR"))
        _twist(th, kind)
        records, M = _listed(st)
        obj = twist_list(st.obj, records, M, kind)
        assert freeze(th) == QuiverState(obj, tuple(records),
                                         freeze_matrix(M))

        key = data.draw(hs.sampled_from(sorted(_TRANSFORMS)))
        st = keyed_state(data.draw(edge_states(TEMPLATE_STEP)), key)
        th = thaw(st, TEMPLATE_STEP)
        _apply_template(th, key[0])
        assert freeze(th) == apply_template_list(st, key)

        st, th = thawed(CLOSE_STEP)
        obj = data.draw(hs.sampled_from((UP, OP)))
        th.obj = obj
        th.flags = [0] * th.n
        _close(th)
        records, M = _listed(st)
        records = [replace(r, extra_poch=0) for r in records]
        close_list(obj, records, M)
        assert freeze(th) == QuiverState(obj, tuple(records),
                                         freeze_matrix(M))

    def test_one_kernel_pass_per_step(self, monkeypatch):
        # on the link route every step is the kernel's one pass over the
        # rows: one _absorb per twist, one for a closure at UP and two at
        # OP; nothing else in quiverstate iterates the rows, and each
        # _absorb writes each old row once, each target row once more,
        # and the packed s and a once each
        counts, steps = Counter(), []

        class Rows(list):
            def __iter__(self):
                counts["passes"] += 1
                return super().__iter__()

            def __setitem__(self, i, row):
                counts["writes"] += 1
                super().__setitem__(i, row)

        class Counted(quiverstate._Thawed):
            __slots__ = ()

            def __setattr__(self, name, value):
                counts["vectors"] += name in ("s", "a")
                super().__setattr__(name, value)

        def thawed(bound, trivial=quiverstate._trivial):
            th = trivial(bound)
            th.rows = Rows(th.rows)
            th.__class__ = Counted
            return th

        def absorb(th, *args, kernel=quiverstate._absorb, **twist):
            kernel(th, *args, **twist)
            counts["absorbs"] += 1
            counts["n + m"] += th.n

        for name in ("_twist", "_close"):
            def logged(th, *args, step=getattr(quiverstate, name),
                       name=name):
                obj = th.obj
                counts.clear()
                step(th, *args)
                steps.append((name, obj, dict(counts)))

            monkeypatch.setattr(quiverstate, name, logged)
        monkeypatch.setattr(quiverstate, "_trivial", thawed)
        monkeypatch.setattr(quiverstate, "_absorb", absorb)
        closed = set()
        for slope in (Slope(13, 3), Slope(8, 3), Slope(11, 4), Slope(4, 1),
                      Slope(12, 5)):
            steps.clear()
            link_quiver(slope)
            *twists, (name, obj, close) = steps
            assert len(twists) == len(list(twist_sequence(
                resolve_terms(slope)[0]))), slope
            for step in twists + [(name, obj, close)]:
                absorbs = 2 if step[:2] == ("_close", OP) else 1
                assert step[2] == {"absorbs": absorbs, "passes": absorbs,
                                   "writes": step[2]["n + m"],
                                   "vectors": 2 * absorbs,
                                   "n + m": step[2]["n + m"]}, (slope, step)
            assert {n for n, _, _ in twists} == {"_twist"}
            assert name == "_close"
            closed.add(obj)
        assert closed == {UP, OP}

    def test_route_bounds_fit_at_the_vertex_bound(self):
        # a route's bound grows with the term sum of its CF, at most its
        # numerator p; at MAX_VERTICES the knot route admits p = 2047
        # and the link route 2(p + q) = 2048, so p = 1023 with q = 1
        for p in range(1, 61):
            for q in range(1, p + 1):
                if gcd(p, q) == 1:
                    assert sum(resolve_terms(Slope(p, q))[0]) <= p, (p, q)
        knot, link = _knot_bound([MAX_VERTICES - 1]), _link_bound(
            [MAX_VERTICES // 2 - 1])
        assert (knot, link) == (22523, 8193)
        assert slot_width(knot) == slot_width(link) == W == 16

    def test_wider_bound_is_refused(self):
        assert slot_width(0) == slot_width((1 << 15) - 1) == 16
        with pytest.raises(ValueError, match="32768 do not fit a 16-bit"):
            slot_width(1 << 15)
        # a twist could take this entry to 2^15: refused before packing
        records = (IndexRecord(True, 0, 0, 0), IndexRecord(False, 0, 1, 0))
        st = QuiverState(UP, records, (((1 << 15) - TWIST_STEP, 1), (1, 0)))
        thaw(st, TWIST_STEP - 1)
        with pytest.raises(ValueError, match="32768"):
            thaw(st, TWIST_STEP)
        with pytest.raises(ValueError, match="32768"):
            _trivial(1 << 15)

    def test_proven_bound_holds_on_both_routes(self):
        # every slope with p <= 60: no step adds more than its constant
        # to the largest |entry| of M, s and a, and no such entry of
        # either route, closure and mirror included, exceeds the bound
        # its slots come from
        def largest(st):
            entries = [*chain.from_iterable(st.M),
                       *(r.s for r in st.indices), *(r.a for r in st.indices)]
            return max(max(entries), -min(entries))

        checked = 0
        for p in range(1, 61):
            for q in range(1, p + 1):
                if gcd(p, q) != 1:
                    continue
                slope = Slope(p, q)
                terms, mirrored = resolve_terms(slope)
                bound = _link_bound(terms)
                th = _trivial(bound)
                before = 0
                for kind in twist_sequence(terms):
                    _twist(th, kind)
                    after = largest(freeze(th))
                    assert after <= before + TWIST_STEP, (p, q)
                    before = after
                _close(th)
                after = largest(freeze(th))
                assert after <= before + CLOSE_STEP, (p, q)
                if mirrored:
                    _mirror(th, polynomial=False)
                    assert largest(freeze(th)) <= after + MIRROR_STEP
                assert largest(freeze(th)) <= bound, (p, q)
                if not is_knot(slope):
                    continue
                bound, before = _knot_bound(terms), 0
                for step, st in reduce_steps(terms):
                    after = largest(st)
                    if "^" in step:  # a re-summed stretch
                        grow = TWIST_STEP * int(step[2:]) + 3
                    else:  # a pair
                        grow = TEMPLATE_STEP
                    assert after <= before + grow, (p, q, step)
                    before = after
                    checked += 1
                th = knot_quiver(slope)
                assert th.bound == bound
                assert largest(freeze(th)) <= (before + TEMPLATE_STEP
                                               + mirrored * MIRROR_STEP), (p, q)
                assert largest(freeze(th)) <= bound, (p, q)
        assert checked > 2000


    def test_s_and_a_fit_the_plan_bound(self):
        # every decoded |s| and |a| after each step of both routes,
        # closure and mirror included, on the slope of every CF with term
        # sum <= 10, grows by no more than the step's constant for s and
        # a (see quiverstate.TWIST_STEP) and is within the bound of the
        # route's plan, which sizes their slots; so are those of the
        # closed states of the largest link and knot requests
        def largest(records):
            return max(max(abs(s), abs(a)) for _, _, s, a in records)

        slopes = distinct_slopes(10)
        for slope in slopes:
            plan = route_size(slope, LINK_ROUTE)
            th, before = _trivial(plan.bound), 0
            for kind in twist_sequence(plan.terms):
                _twist(th, kind)
                after = largest(thawed_records(th))
                assert after <= min(before + 2, plan.bound), slope
                before = after
            _close(th)
            after = largest(thawed_records(th))
            assert after <= before + 3, slope
            if plan.mirrored:
                _mirror(th, polynomial=False)
            assert largest(thawed_records(th)) <= min(
                after + plan.mirrored, plan.bound), slope
            if not is_knot(slope):
                continue
            plan, before = route_size(slope, KNOT_ROUTE), 0
            for step, st in reduce_steps(plan.terms):
                after = largest(map(astuple, st.indices))
                grow = (2 * int(step[2:]) + 1 if "^" in step
                        else TEMPLATE_STEP)
                assert after <= min(before + grow, plan.bound), step
                before = after
            assert largest(thawed_records(knot_quiver(plan))) <= plan.bound
        assert len(slopes) == 512
        for slope, route in ((Slope(1023, 1), LINK_ROUTE),
                             (Slope(2047, 2), KNOT_ROUTE)):
            plan = route_size(slope, route)
            th = quiver_route(plan, route)
            assert th.n == plan.n
            assert largest(thawed_records(th)) <= plan.bound, slope


def _is_symmetric(M):
    return tuple(zip(*M)) == tuple(map(tuple, M))


@hs.composite
def symmetric_states(draw, max_n=5):
    """small_states with M replaced by its upper triangle mirrored."""
    st = draw(small_states(max_n))
    M = tuple(tuple(st.M[min(i, l)][max(i, l)] for l in range(st.n))
              for i in range(st.n))
    return replace(st, M=M)


class TestSymmetricInvariant:
    """Every state either route builds is symmetric, so closure exports
    M as it stands: each step maps symmetric M to symmetric M."""

    def test_templates_are_symmetric(self):
        # the table states each template's upper triangle only, which
        # _expand mirrors: row b holds the entries (b, c) for c >= b, and
        # a triangle (an entry (shift, tri)) sits only off the diagonal,
        # between two blocks of one source
        for key, (blocks, upper) in _UPPER.items():
            assert [len(row) for row in upper] \
                == [len(blocks) - b for b in range(len(blocks))], key
            for b, row in enumerate(upper):
                for c, entry in enumerate(row, b):
                    if isinstance(entry, tuple):
                        assert entry[1] in ("L", "U"), (key, b, c)
                        assert b != c, (key, b)
                        assert blocks[b][1] == blocks[c][1], (key, b, c)

    @settings(max_examples=150, deadline=None)
    @given(symmetric_states(), hs.data())
    def test_steps_keep_symmetric_states_symmetric(self, st, data):
        for kind in "TR":
            assert _is_symmetric(run_step(st, TWIST_STEP, _twist, kind).M)
            count = data.draw(hs.integers(1, 3))
            out = run_step(st, TWIST_STEP * count + 3, _resum, kind, count)
            assert _is_symmetric(out.M), kind
        args, step = draw_step(data, symmetric=True)
        out = run_step(st, step, _absorb, draw_targets(data, st.n), *args)
        assert _is_symmetric(out.M)
        for key in _TRANSFORMS:
            out = run_step(keyed_state(st, key), TEMPLATE_STEP,
                           _apply_template, key[0])
            assert _is_symmetric(out.M), key

    def test_route_states_are_symmetric(self):
        # every state of both routes on every slope with p <= 40: after
        # each step of reduce_steps (knots) and each link-route twist
        knot_steps = link_twists = 0
        for p in range(1, 41):
            for q in range(1, p + 1):
                if gcd(p, q) != 1:
                    continue
                terms = resolve_terms(Slope(p, q))[0]
                if is_knot(Slope(p, q)):
                    for step, st in reduce_steps(terms):
                        assert _is_symmetric(st.M), (p, q, step)
                        knot_steps += 1
                st = trivial_state()
                for i, kind in enumerate(twist_sequence(terms)):
                    st = run_step(st, TWIST_STEP, _twist, kind)
                    assert _is_symmetric(st.M), (p, q, i)
                    link_twists += 1
        assert (knot_steps, link_twists) == (1546, 5865)

    def test_asymmetric_state_is_not_closed(self):
        # closure exports M as it stands, and export's check refuses
        # an asymmetric Q instead of averaging it
        records = (IndexRecord(True, 0, 0, 0), IndexRecord(False, 0, 0, 0))
        with pytest.raises(ValueError, match="symmetric"):
            run_step(QuiverState(UP, records, ((0, 1), (0, 0))), CLOSE_STEP,
                     _close, framing=0)
        flagged = (IndexRecord(True, 1, 0, 0), IndexRecord(False, 0, 0, 0))
        with pytest.raises(ValueError, match="symmetric"):
            run_step(QuiverState(UP, flagged, ((0, 1), (0, 0))),
                     TEMPLATE_STEP, _apply_template, "close", framing=0)

    # export of two asymmetric 2 x 2 buffers, in both conventions at the
    # canonical, raw and zero frames: one whose off-diagonal pair
    # differs only in the high byte (3 against 259, so not every entry
    # fits a byte and the high plane is checked), one whose pair differs
    # in the low byte; each must be refused
    ASYMMETRIC = """
from quivertangle.quiverstate import _Thawed, _pack, framing_shift, q_invert
from quivertangle.tangles import UP
refused = 0
for M in (((0, 3), (259, 0)), ((0, 3), (4, 0))):
    th = _Thawed(UP, [(False, 0, 0, 0)] * 2, [_pack(row) for row in M], 300)
    for export in (framing_shift, q_invert):
        for frame in ("canonical", "raw", 0):
            try:
                export(th, frame)
            except ValueError as error:
                refused += str(error) == "Q must be symmetric"
print(refused)
"""

    @pytest.mark.parametrize("optimized", [False, True])
    def test_export_refuses_asymmetric_buffers(self, optimized):
        # plain and under python -O, which strips assert statements
        src = os.path.dirname(os.path.dirname(quivertangle.__file__))
        proc = subprocess.run(
            [sys.executable, *(["-O"] if optimized else []), "-c",
             self.ASYMMETRIC], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "12\n"), proc.stderr


def test_balanced_reading_closes_to_the_same_quiver():
    # the balanced reading q^{-e2(d)} [j; d]_+, run by the references
    # (refine=True twists, then the fold and the closure), exports
    # exactly the positive kernel's quiver data on every closable odd
    # CF with term sum <= 7
    closed = 0
    for cf in odd_cfs(7):
        positive = balanced = trivial_state()
        for kind in twist_sequence(cf):
            positive = run_step(positive, TWIST_STEP, _twist, kind)
            balanced = apply_twist_reference(balanced, kind, refine=True)
        if positive.obj == RI:
            continue
        framing = writhe(cf)
        assert run_step(positive, CLOSE_STEP, _close, framing=framing) \
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
                st = run_step(st, TWIST_STEP, _twist, kind)
                assert_state_matches_oracle(st, word[:i + 1])

    def test_variable_counts(self):
        # the one-crossing route adds one index per crossing: a full
        # UP-state of slope p/q carries p active and q inactive indices
        for cf in ([3], [1, 2, 4], [2, 2, 2], [5], [3, 2, 1]):
            slope = cf_value(cf)
            st = trivial_state()
            for kind in twist_sequence(cf):
                st = run_step(st, TWIST_STEP, _twist, kind)
            if st.obj == UP:
                assert len(actives(st.indices)) == slope.p, cf
                assert len(inactives(st.indices)) == slope.q, cf


class TestCloseLink:
    @pytest.mark.parametrize("cf", [[1], [2], [3], [1, 1, 2], [2, 1, 2],
                                    [1, 2, 4], [3, 2, 1], [2, 2, 2],
                                    [1, 1, 1, 1, 1], [3, 1, 2]])
    def test_closure_matches_raw_oracle(self, cf):
        st = trivial_state()
        for kind in twist_sequence(cf):
            st = run_step(st, TWIST_STEP, _twist, kind)
        qd = run_step(st, CLOSE_STEP, _close, framing=0)
        for j in range(STEP_ORDER + 1):
            assert (link_route_coeff(qd, j)
                    == raw_closure(twist_sequence(cf), j)), (cf, j)

    def test_close_ri_rejected(self):
        st = trivial_state()
        for kind in twist_sequence([1, 1, 1]):  # ends on RI
            st = run_step(st, TWIST_STEP, _twist, kind)
        with pytest.raises(ValueError):
            run_step(st, CLOSE_STEP, _close, framing=0)

    def test_close_flagged_index_rejected(self):
        st = QuiverState(UP, (IndexRecord(False, 1, 0, 0),), ((0,),))
        with pytest.raises(ValueError):
            run_step(st, CLOSE_STEP, _close, framing=0)


class TestLinkQuiver:
    @pytest.mark.parametrize("slope", [Slope(2, 1), Slope(4, 1), Slope(3, 1),
                                       Slope(8, 3), Slope(13, 3)])
    def test_zero_frame_matches_oracle(self, slope):
        qd = link_quiver(slope)
        assert qd.framing == writhe(cf_expand(slope))
        zero = framing_shift(qd, 0)
        for j, want in enumerate(oracle_homfly(slope, [0, 1, 2])):
            assert link_route_coeff(zero, j) == want

    @pytest.mark.parametrize("slope", [Slope(3, 2), Slope(6, 5), Slope(11, 7)])
    def test_mirror_representatives(self, slope):
        qd = link_quiver(slope)
        zero = framing_shift(qd, 0)
        for j, want in enumerate(oracle_homfly(slope, [0, 1, 2])):
            assert link_route_coeff(zero, j) == want

    def test_resolve_terms(self):
        terms, mirrored = resolve_terms(Slope(13, 3))
        assert (terms, mirrored) == ([1, 2, 4], False)
        terms, mirrored = resolve_terms([1, 2, 4])
        assert (terms, mirrored) == ([1, 2, 4], False)
        terms, mirrored = resolve_terms(Slope(3, 2))
        assert mirrored and terms == [3]


class TestDataTransforms:
    def test_framing_shift_multiplies_by_framing_factor(self):
        state = link_quiver(Slope(3, 1))
        raw = framing_shift(state, "raw")
        assert raw.framing == state.framing
        for f in (-2, 1, 3):
            shifted = framing_shift(state, state.framing + f)
            assert shifted.framing == state.framing + f
            for j in range(3):
                assert (link_route_coeff(shifted, j)
                        == link_route_coeff(raw, j)
                        * QFraction(framing_factor(j, f)))

    def test_framing_shift_refuses_symmetric_data(self):
        # the shift is the antisymmetric rule: on symmetric data it
        # would label a different Q with the same framing as q_invert's.
        # Export takes only a closed state, always antisymmetric, and
        # the decoded references refuse symmetric data
        state = knot_quiver(Slope(3, 1))
        sym = q_invert(state, 4)
        assert sym.framing == state.framing + 1 == 4
        for f in (0, 1, -2, "canonical"):
            with pytest.raises(TypeError, match="closed state"):
                framing_shift(q_invert(state, "raw"), f)
            with pytest.raises(TypeError, match="closed state"):
                q_invert(sym, f)
        for f in (0, 1, -2):
            with pytest.raises(ValueError, match="antisymmetric"):
                framing_shift_reference(sym, f)
        with pytest.raises(ValueError, match="symmetric"):
            q_invert_reference(sym)

    def test_mirror_quiver_inverts_variables(self):
        qd = framing_shift(link_quiver(Slope(3, 1)), 0)
        mir = mirror_quiver(qd, polynomial=False)
        assert mir.framing == -qd.framing == 0
        for j in range(3):
            assert link_route_coeff(mir, j) == mirror(link_route_coeff(qd, j))

    def test_mirror_requires_antisymmetric(self):
        qd = q_invert(link_quiver(Slope(3, 1)), "raw")
        with pytest.raises(ValueError):
            mirror_quiver(qd, polynomial=False)

    def test_mirror_matches_reference(self):
        # the packed mirror quiver_route applies against the decoded one,
        # both kinds, on both routes' states for every slope with CF term
        # sum <= 7
        checked = 0
        for slope in distinct_slopes(7):
            for route, polynomial in ((link_quiver, False),
                                      (knot_quiver, True)):
                if route is knot_quiver and not is_knot(slope):
                    continue
                state = route(slope)
                raw = framing_shift(state, "raw")
                _mirror(state, polynomial)
                state.framing = -state.framing
                assert framing_shift(state, "raw") == mirror_quiver(
                    raw, polynomial=polynomial), slope
                checked += 1
        assert checked == 107

    def test_q_invert_convention_flag(self):
        state = link_quiver(Slope(3, 1))
        out = q_invert(state, "raw")
        assert out.color_convention == "symmetric"
        assert out.q_vec == tuple(-x for x in
                                  framing_shift(state, "raw").q_vec)
        with pytest.raises(TypeError):
            q_invert(out, "raw")

    def test_q_invert_takes_the_framing_shift(self):
        # the packed export against the decoded maps it replaced, the
        # shift and the switch one entry at a time, for frames canonical,
        # raw, 0, -3 and 4 in both conventions, on both routes and their
        # mirrored representatives; export leaves the state as it was
        mirrored = 0
        for slope, state in export_quivers():
            mirrored += resolve_terms(slope)[1]
            rows, records = list(state.rows), thawed_records(state)
            raw = framing_shift(state, "raw")
            for symmetric in (False, True):
                export = q_invert if symmetric else framing_shift
                reference = (q_invert_reference if symmetric
                             else framing_shift_reference)
                shifts = {"canonical": canonical_shift_reference(
                    raw, symmetric), "raw": 0}
                for frame in (0, -3, 4):
                    shifts[frame] = frame - raw.framing
                for frame, f in shifts.items():
                    assert export(state, frame) == reference(raw, f), (
                        slope, symmetric, frame)
            assert (state.rows, thawed_records(state)) == (rows, records)
        assert mirrored > 20

    def test_export_stays_in_its_proven_range(self):
        # every entry export gives lies in export_range, read off the
        # state's bound alone, for frames canonical, raw, 0, -3, 4 and
        # the two extremes export_range admits; at the extremes the
        # range reaches exactly the signed slot's 2^(W-1) - 1
        top = (1 << (W - 1)) - 1
        for slope, state in export_quivers():
            for symmetric, (sigma, c, e) in ((False, (1, 0, 0)),
                                             (True, _Q_INVERT)):
                export = q_invert if symmetric else framing_shift
                center = state.framing - sigma * c
                slack = top - state.bound - e
                for frame in ("canonical", "raw", 0, -3, 4,
                              center - slack, center + slack):
                    lo, hi = export_range(state, frame, symmetric)
                    flat = export(state, frame).flat
                    assert lo <= min(flat), (slope, frame)
                    assert max(flat) <= hi, (slope, frame)
                    if frame in (center - slack, center + slack):
                        assert (lo, hi) == (-top, top)

    def test_canonical_shift_matches_reference(self):
        # the shift export takes to the canonical frame, read off the
        # least entry of its flat buffer, against the one read off the
        # decoded rows; the 1-vertex quiver of the unknot has no
        # off-diagonal entry
        for _, state in [(None, knot_quiver(Slope(1, 1))),
                         *export_quivers()]:
            raw = framing_shift(state, "raw")
            for symmetric in (False, True):
                export = q_invert if symmetric else framing_shift
                assert (export(state, "canonical").framing - state.framing
                        == canonical_shift_reference(raw, symmetric))

    @settings(max_examples=300, deadline=None)
    @given(hs.tuples(hs.integers(1, 6),
                     hs.sampled_from([1, 127, 128, 300, (1 << 15) - 1]))
           .flatmap(lambda nr: hs.lists(hs.integers(-nr[1] - 1, nr[1]),
                                        min_size=nr[0] ** 2,
                                        max_size=nr[0] ** 2)))
    @example([0])  # the 1-vertex quiver of the unknot
    @example([-7])
    @example([3, 3, 3, 3])  # all entries equal
    @example([-2, -2, -2, 5])  # the least on and off the diagonal
    @example([4, -1, -1, 2])  # off it, below every diagonal entry
    @example([0, 9, -5, 9, 3, 1, 2, -9, 1])  # several values below it
    @example([-128, 127, 127, 0])
    @example([129, 0, 0, 129])  # past a signed byte, within a byte
    @example([-128, 128, 128, 0])  # past a byte
    def test_rebased_subtracts_the_least_entry(self, entries):
        # from the byte planes _flat decodes: by byte tables from the
        # least diagonal entry when every entry fits a signed byte, else
        # by one subtraction on the whole buffer; up to the 16-bit
        # extremes.  The buffer is 'B' exactly when every entry it holds
        # fits a byte
        n = isqrt(len(entries))
        low, high = _flat([_pack(entries[i:i + n])
                           for i in range(0, n * n, n)], n)
        assert (high is None) == all(-128 <= x <= 127 for x in entries)
        flat, least = _rebased(low, high, n)
        assert least == min(entries)
        assert flat.typecode == ("B" if max(entries) - least <= 255
                                 else "H")
        assert list(flat) == [x - least for x in entries]

    def test_canonical_buffer_is_a_byte_buffer_when_it_fits(self):
        # on real quivers: the unknot's one vertex, the export sweep, and
        # the 129/1 and 257/1 knot quivers, whose raw entries pass a
        # signed byte and whose canonical ones reach 129 and 257; the
        # raw and zero frames are signed, 'b' when every entry fits
        quivers = [knot_quiver(Slope(1, 1)), knot_quiver(Slope(129, 1)),
                   knot_quiver(Slope(257, 1)),
                   *(state for _, state in export_quivers())]
        seen = set()
        for state in quivers:
            for export in (framing_shift, q_invert):
                flat = export(state, "canonical").flat
                assert min(flat) == 0
                assert flat.typecode == ("B" if max(flat) <= 255 else "H")
                seen.add((flat.typecode, max(flat) > 127))
                for frame in ("raw", 0):
                    flat = export(state, frame).flat
                    assert flat.typecode == (
                        "b" if -128 <= min(flat) <= max(flat) <= 127
                        else "h")
                    seen.add(flat.typecode)
        assert seen == {("B", False), ("B", True), ("H", True), "b", "h"}

    def test_buffer_is_a_byte_array_exactly_when_every_entry_fits(self):
        # the one buffer contract of export, on every slope with p < 40
        # by both routes, the link slopes 127/1, 129/1 and 257/1 and the
        # knot 129/1, in both conventions and five frames: a byte array
        # exactly when every entry fits that byte, signed 'b' in an
        # integer or raw frame and unsigned 'B' in the canonical one,
        # else 'h' or 'H'
        slopes = [Slope(1, 1)] + [Slope(p, q) for p in range(2, 40)
                                  for q in range(1, p) if gcd(p, q) == 1]
        states = [link_quiver(Slope(p, 1)) for p in (127, 129, 257)]
        states.append(knot_quiver(Slope(129, 1)))
        for s in slopes:
            states.append(link_quiver(s))
            if is_knot(s):
                states.append(knot_quiver(s))
        seen = set()
        for state in states:
            for export in (framing_shift, q_invert):
                for frame in ("canonical", "raw", -3, 0, 4):
                    flat = export(state, frame).flat
                    codes, least = (("BH", 0) if frame == "canonical"
                                    else ("bh", -128))
                    fits = least <= min(flat) <= max(flat) <= least + 255
                    assert flat.typecode == codes[not fits], frame
                    seen.add(flat.typecode)
        assert seen == {"b", "B", "h", "H"}

    def test_quiver_data_checks_its_rows(self):
        # Q given as lists is held flat and read back as row tuples; an
        # asymmetric or ragged Q, or one with another vertex count than
        # its vectors, is refused
        qd = quiver_data([[0, 1], [1, 2]], (0, 0), (0, 0), 0, "antisymmetric")
        assert quiver_rows(qd) == ((0, 1), (1, 2))
        assert list(qd.flat) == [0, 1, 1, 2]
        assert qd == QuiverData(array("h", [0, 1, 1, 2]), (0, 0), (0, 0), 0,
                                "antisymmetric")
        for Q, rule in (([[0, 1], [2, 0]], "symmetric"),
                        ([[0, 1, 2], [1]], "one entry per vertex"),
                        ([[0]], "one entry per vertex")):
            with pytest.raises(ValueError, match=rule):
                quiver_data(Q, (0, 0), (0, 0), 0, "antisymmetric")

    def test_permutation_equal(self):
        qd = framing_shift(link_quiver(Slope(13, 3)), "raw")
        order = list(range(qd.n))[::-1]
        assert permutation_equal(qd, permute(qd, order))
        assert permutation_equal(qd, qd)
        other = framing_shift(link_quiver(Slope(13, 3)), qd.framing + 1)
        assert not permutation_equal(qd, other)
        assert not permutation_equal(
            qd, framing_shift(link_quiver(Slope(11, 3)), "raw"))


def _representative(slope):
    return cf_value(resolve_terms(slope)[0])


class TestPlan:
    def test_a_plan_is_taken_as_it_is_by_its_route_only(self):
        # a plan passes through route_size unchanged, and the route
        # builds the same state from it as from its slope; on the other
        # route it is refused: the knot route would fill slots sized for
        # the link route's smaller entry bound
        plan = route_size(Slope(13, 3), LINK_ROUTE)
        assert route_size(plan, LINK_ROUTE) is plan
        assert plan.bound < route_size(Slope(13, 3), KNOT_ROUTE).bound
        built, direct = link_quiver(plan), link_quiver(Slope(13, 3))
        assert (built.rows, thawed_records(built)) \
            == (direct.rows, thawed_records(direct))
        for build in (knot_quiver, signature):
            with pytest.raises(ValueError,
                               match="not a plan of the knot route"):
                build(plan)


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
        def close(terms, bound):
            raise AssertionError("built a quiver over the bound")

        def route(build):
            return Route("knot", build, polynomial=True,
                         vertices=lambda rep: rep.p,
                         bound=lambda terms: 0)

        with pytest.raises(ValueError, match=f"vertex count 2049, more "
                           f"than the bound {MAX_VERTICES}"):
            quiver_route([2049], route(close))
        # the bound itself is admitted
        state = quiver_route([MAX_VERTICES],
                             route(lambda terms, bound: _trivial(bound)))
        assert framing_shift(state, "raw") == quiver_data(
            ((0,),), (0,), (0,), writhe([MAX_VERTICES]), "antisymmetric")
        with pytest.raises(ValueError, match="vertex count 2050"):
            link_quiver(Slope(1024, 1))
        with pytest.raises(ValueError, match="vertex count 2049"):
            knot_quiver(Slope(2049, 2))
