"""End-to-end acceptance gate: one test per release criterion, each
printing a single PASS line (visible with -v via the test name, or with
-s via the printed summary)."""

import json
import time

import pytest

from quivertangle import cli
from quivertangle.knotpipeline import (KNOT_ROUTE, homology_generators,
                                       knot_quiver, signature)
from quivertangle.qseries import QFraction
from quivertangle.quiverstate import framing_shift, route_size
from quivertangle.tangles import Slope, cf_expand, enumerate_rational_knots
from quivertangle.verify import verify_knot, verify_link

import test_knotpipeline as knot_tests
import test_qseries as qseries_tests
import test_quiverstate as state_tests
import test_skein as skein_tests
from conftest import (delta_homogeneous, distinct_slopes, goeritz_signature,
                      knot_route_poly)


def report(name):
    print(f"ACCEPTANCE {name}: PASS")


def run_cli_json(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return json.loads(capsys.readouterr().out)


def test_trefoil_compute_is_exact_and_fast(capsys):
    start = time.perf_counter()
    data = run_cli_json(capsys, "compute", "3/1")
    elapsed = time.perf_counter() - start
    assert data["Q"] == [[0, 1, 1], [1, 2, 2], [1, 2, 3]]
    assert data["q_vec"] == [-2, 0, -3]
    assert data["a_vec"] == [2, 2, 4]
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    report(f"trefoil quiver exact in {elapsed:.3f}s")


def test_13_3_intermediates_and_final_quiver(capsys):
    data = run_cli_json(capsys, "compute", "13/3")
    assert data["vertices"] == 13
    # fixed-order intermediate states and permutation-tolerant final data
    reg = knot_tests.TestFixedOrderRegressions()
    reg.test_13_3_intermediates()
    reg.test_13_3_final_up_to_permutation()
    report("13/3 pipeline reproduces the reference intermediates and quiver")


def test_dual_route_verification_sweep():
    start = time.perf_counter()
    knots = distinct_slopes(8, knots=True)
    links = distinct_slopes(8, knots=False)
    for s in knots:
        assert verify_knot(s, 3).ok, s
    for s in links:
        assert verify_link(s, 2).ok, s
    elapsed = time.perf_counter() - start
    assert elapsed < 300, f"took {elapsed:.1f}s"
    report(f"{len(knots)} knots (order 3) + {len(links)} links (order 2) "
           f"verified in {elapsed:.1f}s")


def test_corpus_verified_at_order_2():
    start = time.perf_counter()
    knots = enumerate_rational_knots(12)
    for s in knots:
        assert verify_knot(s, 2).ok, s
    elapsed = time.perf_counter() - start
    report(f"{len(knots)} knots up to 12 crossings verified (knot route, "
           f"order 2) in {elapsed:.1f}s")


def test_ten_crossing_knots_verified_at_order_3():
    start = time.perf_counter()
    knots = enumerate_rational_knots(10)
    assert len(knots) == 95
    for s in knots:
        assert verify_knot(s, 3).ok, s
    elapsed = time.perf_counter() - start
    report(f"{len(knots)} knots up to 10 crossings verified (knot route, "
           f"order 3) in {elapsed:.1f}s")


def test_twelve_crossing_corpus_size():
    slopes = enumerate_rational_knots(12)
    assert len(slopes) == 362
    assert len(set(slopes)) == 362
    report("12-crossing corpus has 362 knots")


def test_batch_throughput(tmp_path):
    out = tmp_path / "corpus.jsonl"
    start = time.perf_counter()
    assert cli.main(["batch", "--max-crossings", "12",
                     "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    lines = out.read_text().splitlines()
    assert len(lines) == 362
    assert elapsed < 120, f"hard limit exceeded: {elapsed:.1f}s"
    if elapsed >= 60:
        pytest.fail(f"batch took {elapsed:.1f}s (target < 60s)")
    report(f"batch of 362 knots in {elapsed:.1f}s")


def test_gradings_match_independent_signature():
    knots = distinct_slopes(10, knots=True)
    for s in knots:
        qd = knot_quiver(s)
        homog, value = delta_homogeneous(qd)
        assert homog, s
        sig = signature(s)
        assert value == sig == goeritz_signature(s), s
        for a, q, t in homology_generators(qd):
            assert 2 * t - 2 * a - q == sig, s
    report(f"delta = signature = Goeritz form and the spectral-sequence "
           f"relation hold on {len(knots)} knots")


def test_identity_suites():
    qseries_tests.test_pochhammer_splitting()            # Pochhammer split
    qseries_tests.test_binomial_pochhammer_expansion()   # q-binomial
    qseries_tests.test_multinomial_splitting()           # multinomial split
    qseries_tests.test_two_index_vs_one_index_resummation()  # resummation
    skein_tests.TestClosureRules().test_last_twist_closure_identities()
    report("q-series identity suites (randomized) and closure identities "
           "(j <= 5) hold")


def test_step_level_oracle_tracking():
    state_tests.TestStateInvariant().test_every_step_tracks_the_oracle()
    knot_tests.TestStepLevelInvariant().test_every_pair_tracks_the_oracle()
    report("both pipelines track the rescaled skein oracle after every step")


def test_normalization_and_integrality(capsys):
    # unknot colors are all 1
    qd = knot_quiver(Slope(1, 1))
    zero = framing_shift(qd, 0)
    for j in range(6):
        assert knot_route_poly(zero, j) == QFraction(1)
    # canonical-frame output is non-negative and symmetrizes integrally
    # across the whole corpus (compute_payload raises on odd entries)
    for s in enumerate_rational_knots(12):
        _, payload = cli.compute_payload(route_size(s, KNOT_ROUTE),
                                         cf_expand(s), "canonical", "sym")
        assert min(payload["Q"]) >= 0, s  # Q's flat buffer
    report("unknot normalization, canonical non-negativity, and "
           "symmetrization integrality hold on the corpus")
