"""Dual-route verification layer: motivic series expansion of quiver
data against the skein oracle, and the report objects it produces."""

import json
from math import comb

import pytest

from quivertangle.knotpipeline import knot_quiver
from quivertangle.qseries import ONE, QFraction, poch_q2
from quivertangle.quiverstate import framing_shift, link_quiver
from quivertangle.skein import _mono, oracle_homfly
from quivertangle.tangles import Slope
from quivertangle.verify import (DEFAULT_KNOT_ORDER, DEFAULT_LINK_ORDER,
                                 MAX_DIM_VECTORS, VerificationReport,
                                 expand_motivic, verify_knot, verify_link)

from conftest import compositions, quiver_numerator, quiver_rows


def euler_form_expansion(qd, N):
    """Independent expansion straight from the definition: weight each
    dimension vector by separate per-index denominators, one QFraction
    per color."""
    out, Q = [], quiver_rows(qd)
    for j in range(N + 1):
        acc = QFraction(0)
        for d in compositions(j, qd.n):
            quad = sum(Q[i][l] * d[i] * d[l]
                       for i in range(qd.n) for l in range(qd.n))
            sdot = sum(s * x for s, x in zip(qd.q_vec, d))
            adot = sum(a * x for a, x in zip(qd.a_vec, d))
            den = ONE
            for x in d:
                den = den * poch_q2(x)
            acc = acc + QFraction(_mono(sdot, quad, adot), den)
        out.append(acc)
    return out


class TestExpandMotivic:
    def test_one_vertex_zero_quiver(self):
        qd = framing_shift(knot_quiver(Slope(1, 1)), 0)
        series = expand_motivic(qd, 4)
        for j in range(5):
            assert series[j] == QFraction(1, poch_q2(j))

    @pytest.mark.parametrize("slope", [Slope(3, 1), Slope(5, 2), Slope(4, 1)])
    def test_matches_definition_with_split_denominators(self, slope):
        qd = framing_shift(link_quiver(slope), "raw")
        series = expand_motivic(qd, 2)
        split = euler_form_expansion(qd, 2)
        for j in range(3):
            assert series[j] == split[j], (slope, j)

    def test_oversized_expansion_is_refused(self):
        qd = framing_shift(knot_quiver(Slope(3, 1)), "raw")
        assert comb(3 + 400, 400) == 10827401 > MAX_DIM_VECTORS
        with pytest.raises(ValueError, match="dimension vectors 10827401"):
            expand_motivic(qd, 400)

    def test_coefficient_numerators(self):
        qd = framing_shift(knot_quiver(Slope(3, 1)), "raw")
        series = expand_motivic(qd, 3)
        for j in range(4):
            assert series[j] == QFraction(quiver_numerator(qd, j),
                                                 poch_q2(j))


class TestVerification:
    @pytest.mark.parametrize("slope,order", [
        (Slope(1, 1), 3), (Slope(3, 1), 3), (Slope(13, 3), 2),
        (Slope(3, 2), 2), (Slope(11, 7), 2)])
    def test_verify_knot(self, slope, order):
        report = verify_knot(slope, order)
        assert report.ok
        assert report.matches == [True] * (order + 1)
        assert report.pipeline == "knot"
        assert report.first_mismatch is None

    @pytest.mark.parametrize("slope", [Slope(2, 1), Slope(4, 1), Slope(3, 1),
                                       Slope(6, 5), Slope(8, 3)])
    def test_verify_link(self, slope):
        report = verify_link(slope, 2)
        assert report.ok
        assert report.pipeline == "link"

    def test_verify_knot_rejects_links(self):
        with pytest.raises(ValueError):
            verify_knot(Slope(2, 1))

    def test_cf_input(self):
        assert verify_knot([1, 2, 4], 1).ok
        assert verify_link([2], 1).ok

    def test_defaults(self):
        assert verify_knot(Slope(3, 1)).order_checked == DEFAULT_KNOT_ORDER
        assert verify_link(Slope(2, 1)).order_checked == DEFAULT_LINK_ORDER

    def test_routes_agree_on_knots(self):
        # two structurally different presentations of the same series
        for slope in (Slope(3, 1), Slope(5, 2), Slope(7, 3)):
            kd = knot_quiver(slope)
            ld = link_quiver(slope)
            ks = expand_motivic(framing_shift(kd, 0), 2)
            ls = expand_motivic(framing_shift(ld, 0), 2)
            for j in range(3):
                assert (ks[j] * QFraction(poch_q2(j))
                        == ls[j]), (slope, j)

    def test_mismatch_reported_on_corrupted_data(self):
        qd = knot_quiver(Slope(3, 1))
        series = expand_motivic(framing_shift(qd, 0), 2)
        from quivertangle.verify import _compare
        matches, first, diff = _compare(
            series, oracle_homfly(Slope(5, 2), [0, 1, 2]))
        assert not all(matches)
        assert first is not None and diff

    def test_every_color_meets_an_oracle_value(self):
        # the oracle list may run past the order checked, never short
        # of it: a missing color is an error, not a skipped comparison
        from quivertangle.verify import _compare
        series = expand_motivic(framing_shift(knot_quiver(Slope(3, 1)), 0),
                                2)
        values = [c * poch_q2(j) for j, c in enumerate(series)]
        oracle = oracle_homfly(Slope(3, 1), [0, 1, 2, 3])
        assert _compare(values, oracle) == ([True] * 3, None, None)
        with pytest.raises(ValueError):
            _compare(values, oracle[:2])


class TestReport:
    def test_json_round_trip(self):
        report = verify_knot(Slope(3, 1), 1)
        data = json.loads(report.to_json())
        assert data["slope"] == "3/1"
        assert data["ok"] is True
        assert data["matches"] == [True, True]
        # wall-clock time would break byte-identical stdout
        assert "timing" not in data

    def test_mismatch_fields_serialized(self):
        r = VerificationReport("3/1", "knot", 1, [True, False], 1, "q^2")
        assert not r.ok
        data = r.as_dict()
        assert data["first_mismatch"] == 1
        assert data["difference"] == "q^2"
