"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (bypassing capture) so the
acceptance status is visible in any pytest run:

    python -m pytest tests/test_acceptance.py -v
"""

import math
import time

import numpy as np
import pytest

from unitarity import (
    Trajectory,
    average_fidelity,
    average_fidelity_mc,
    closed_form_du,
    compose,
    du,
    du_optimize,
    fidelity_pair,
    haar_unitary,
    identity_channel,
    random_channel,
    run_distribution,
    run_table1,
    run_tightness,
    run_witness,
    standard_channel,
    unitary_channel,
)
from unitarity.harness import _evaluate_dilation_batch, attempt_seed

from helpers import random_mixed_unitary_channel, reference_mixed_unitary_du, remix_kraus


def announce(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def test_criterion_1_table1_reproduction(capsys):
    t0 = time.perf_counter()
    report = run_table1(grid=51, restarts=4)
    elapsed = time.perf_counter() - t0
    unital_max = max(
        report.family_max_error(f) for f in ("depolarizing", "bit_flip", "phase_flip")
    )
    ad_max = report.family_max_error("amplitude_damping")
    try:
        for row in report.rows:
            if row.family != "amplitude_damping":
                assert row.method == "exact_mixed_unitary"
        assert unital_max < 1e-9
        assert ad_max < 1e-6
        assert elapsed < 10.0
    except AssertionError:
        announce(capsys, f"ACCEPTANCE 1 (table1): FAIL unital={unital_max:.2e} "
                         f"ad={ad_max:.2e} time={elapsed:.1f}s")
        raise
    announce(capsys, f"ACCEPTANCE 1 (table1): PASS unital_max={unital_max:.2e} "
                     f"ad_max={ad_max:.2e} time={elapsed:.1f}s")


def test_criterion_2_du_extremes(capsys):
    ident, _ = du(identity_channel(2))
    depol, _ = du(standard_channel("depolarizing", 1.0))
    try:
        assert abs(ident.value - 1.0) < 1e-12
        assert abs(depol.value - 0.25) < 1e-9
    except AssertionError:
        announce(capsys, f"ACCEPTANCE 2 (extremes): FAIL identity={ident.value!r} "
                         f"depolarizing={depol.value!r}")
        raise
    announce(capsys, f"ACCEPTANCE 2 (extremes): PASS identity={ident.value} "
                     f"fully_depolarizing={depol.value}")


def test_criterion_3_theorem_vs_optimizer(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        ch = random_mixed_unitary_channel(rng)
        assert du(ch)[0].method == "exact_mixed_unitary"
        opt = du_optimize(ch, restarts=4, rng=rng)
        worst = max(worst, abs(reference_mixed_unitary_du(ch.kraus) - opt.value))
    elapsed = time.perf_counter() - t0
    try:
        assert worst < 1e-6
        assert elapsed < 120.0
    except AssertionError:
        announce(capsys, f"ACCEPTANCE 3 (exact vs optimizer): FAIL max_diff={worst:.2e} "
                         f"time={elapsed:.1f}s")
        raise
    announce(capsys, f"ACCEPTANCE 3 (exact vs optimizer): PASS max_diff={worst:.2e} "
                     f"time={elapsed:.1f}s over 1000 channels")


def test_criterion_4_bound_sandwich(capsys):
    violations = 0
    worst_lb = -np.inf
    worst_ub = -np.inf
    worst_one = -np.inf
    for env_dim, key in ((2, 40), (4, 41)):
        for start in range(0, 5000, 1000):
            seeds = [attempt_seed(key, (start + i,)) for i in range(1000)]
            bulk = _evaluate_dilation_batch(2, env_dim, seeds, restarts=2)
            lb = np.maximum(bulk.lb1, bulk.lb2)
            violations += int(np.sum(lb - bulk.du > 1e-9))
            violations += int(np.sum(bulk.du - bulk.ub > 1e-9))
            violations += int(np.sum(bulk.ub - 1.0 > 1e-9))
            worst_lb = max(worst_lb, float((lb - bulk.du).max()))
            worst_ub = max(worst_ub, float((bulk.du - bulk.ub).max()))
            worst_one = max(worst_one, float((bulk.ub - 1.0).max()))
    try:
        assert violations == 0
    except AssertionError:
        announce(capsys, f"ACCEPTANCE 4 (sandwich): FAIL violations={violations}")
        raise
    announce(capsys, "ACCEPTANCE 4 (sandwich): PASS 10000 channels, 0 violations "
                     f"(worst lb-du={worst_lb:.1e}, du-ub={worst_ub:.1e}, "
                     f"ub-1={worst_one:.1e})")


STRATIFIED = None


def _stratified_run():
    global STRATIFIED
    if STRATIFIED is None:
        STRATIFIED = run_tightness(
            samples=450, seed=314, stratified=True, attempt_cap=20_000, restarts=2
        )
    return STRATIFIED


def test_criterion_5_tightness_thresholds(capsys):
    result = _stratified_run()
    records = result.records
    assert len(records) > 200
    errs_above_04 = [
        max(r.lb1_err, r.lb2_err) for r in records if r.du_value > 0.4
    ]
    errs_ub_08 = [max(r.lb1_err, r.lb2_err) for r in records if r.ub > 0.8]
    try:
        assert errs_above_04 and max(errs_above_04) < 1e-3
        assert errs_ub_08 and max(errs_ub_08) < 1e-2
    except AssertionError:
        announce(capsys, "ACCEPTANCE 5 (tightness thresholds): FAIL")
        raise
    announce(capsys, "ACCEPTANCE 5 (tightness thresholds): PASS "
                     f"records={len(records)} max_err(du>0.4)={max(errs_above_04):.1e} "
                     f"max_err(ub>0.8)={max(errs_ub_08):.1e} "
                     f"underfilled_bins={sorted(result.underfilled)}")


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: for the stratified ensemble this criterion "
    "pins (qubit system, environment dimension 2), both lower bounds are exact "
    "to machine precision on every sampled channel, so no record can show a "
    "percent-level relative error; see the decisions ledger. Environments of "
    "dimension 4 do show the ~10% low-DU errors "
    "(test_harness.TestQualitativeTightnessStory).",
)
def test_criterion_5_low_du_errors_must_exist(capsys):
    result = _stratified_run()
    rel = [
        max(r.lb1_err, r.lb2_err) / r.du_value
        for r in result.records
        if r.du_value < 0.4
    ]
    best = max(rel, default=0.0)
    announce(capsys, "ACCEPTANCE 5 (low-DU ~10% errors exist): FAIL (expected) "
                     f"largest relative lb error among low-DU records = {best:.2e}")
    assert best > 0.02


def test_criterion_6_distribution_means(capsys):
    t0 = time.perf_counter()
    h2, h4 = run_distribution(
        samples=100_000, env_dims=[2, 4], seed=1618, restarts=2
    )
    elapsed = time.perf_counter() - t0
    gap = h2.mean - h4.mean
    se = math.hypot(h2.std_error, h4.std_error)
    try:
        assert int(h2.counts.sum()) == 100_000
        assert int(h4.counts.sum()) == 100_000
        for h in (h2, h4):
            assert h.bin_edges[0] == pytest.approx(0.25)
            assert h.bin_edges[-1] == pytest.approx(1.0)
        assert gap > 5 * se
        assert elapsed < 300.0
    except AssertionError:
        announce(capsys, f"ACCEPTANCE 6 (distribution): FAIL gap={gap:.4f} "
                         f"5se={5 * se:.4f} time={elapsed:.1f}s")
        raise
    announce(capsys, f"ACCEPTANCE 6 (distribution): PASS mean(d=2)={h2.mean:.4f} "
                     f"mean(d=4)={h4.mean:.4f} gap={gap:.4f} (= {gap / se:.0f} se) "
                     f"time={elapsed:.1f}s")


def test_criterion_7_invariance_suite(capsys):
    rng = np.random.default_rng(7071)
    worst_remix = 0.0
    worst_compose = 0.0
    worst_relation = 0.0
    for _ in range(100):
        ch = random_channel(2, 2, rng)
        base, _ = du(ch, restarts=8, rng=rng)
        remixed, _ = du(remix_kraus(ch, rng, extra=1), restarts=8, rng=rng)
        worst_remix = max(worst_remix, abs(base.value - remixed.value))
        u = unitary_channel(haar_unitary(2, rng))
        pre, _ = du(compose(ch, u), restarts=8, rng=rng)
        post, _ = du(compose(u, ch), restarts=8, rng=rng)
        worst_compose = max(
            worst_compose, abs(base.value - pre.value), abs(base.value - post.value)
        )
        target = haar_unitary(2, rng)
        pair = fidelity_pair(ch, target)
        relation_err = abs(
            pair.f_ave - (ch.dim * pair.f_pro + 1.0) / (ch.dim + 1.0)
        )
        direct_err = abs(average_fidelity(ch, target) - pair.f_ave)
        worst_relation = max(worst_relation, relation_err, direct_err)
    try:
        assert worst_remix < 1e-8
        assert worst_compose < 1e-8
        assert worst_relation < 1e-8
    except AssertionError:
        announce(capsys, f"ACCEPTANCE 7 (invariance): FAIL remix={worst_remix:.2e} "
                         f"compose={worst_compose:.2e} relation={worst_relation:.2e}")
        raise
    announce(capsys, f"ACCEPTANCE 7 (invariance): PASS remix={worst_remix:.2e} "
                     f"compose={worst_compose:.2e} fidelity_relation={worst_relation:.2e}")


def test_criterion_8_monotonicity(capsys):
    rng = np.random.default_rng(8088)
    worst_gain = -np.inf
    for _ in range(100):
        e = random_channel(2, 2, rng)
        f = random_channel(2, 2, rng)
        du_e, _ = du(e, restarts=8, rng=rng)
        du_fe, _ = du(compose(f, e), restarts=8, rng=rng)
        worst_gain = max(worst_gain, du_fe.value - du_e.value)
    worst_step = 0.0
    for _ in range(20):
        ch = random_channel(2, int(rng.integers(2, 5)), rng)
        res = du_optimize(ch, restarts=4, rng=rng, trace=True)
        seq = np.array(res.objective_trace)
        if len(seq) > 1:
            steps = np.diff(seq) / np.maximum(1.0, seq[:-1])
            worst_step = min(worst_step, float(steps.min()))
    try:
        assert worst_gain <= 1e-8
        assert worst_step >= -1e-12
    except AssertionError:
        announce(capsys, f"ACCEPTANCE 8 (monotonicity): FAIL worst_gain={worst_gain:.2e} "
                         f"worst_step={worst_step:.2e}")
        raise
    announce(capsys, f"ACCEPTANCE 8 (monotonicity): PASS worst DU gain={worst_gain:.2e} "
                     f"worst ascent step={worst_step:.2e}")


def test_criterion_9_witness_and_mc_oracle(capsys):
    times = tuple(np.arange(0.0, 5.5, 0.5))
    markovian = Trajectory(
        times=times,
        channels=tuple(
            standard_channel("amplitude_damping", 1.0 - math.exp(-t)) for t in times
        ),
    )
    rep_markov = run_witness(markovian)

    recovering = Trajectory(
        times=(0.0, 1.0, 2.0),
        channels=tuple(
            standard_channel("amplitude_damping", g) for g in (0.0, 0.5, 0.2)
        ),
    )
    rep_recover = run_witness(recovering)

    rng = np.random.default_rng(909)
    worst_sigma = 0.0
    for _ in range(50):
        ch = random_channel(2, int(rng.integers(1, 5)), rng)
        target = haar_unitary(2, rng)
        est = average_fidelity_mc(ch, target, 20_000, rng)
        want = average_fidelity(ch, target)
        sigma = abs(est.value - want) / max(est.std_error, 1e-300)
        worst_sigma = max(worst_sigma, sigma)
    try:
        assert not rep_markov.non_markovian
        assert rep_recover.non_markovian
        assert len(rep_recover.increases) == 1
        assert rep_recover.increases[0].t_from == 1.0
        assert rep_recover.increases[0].t_to == 2.0
        assert worst_sigma < 3.0
    except AssertionError:
        announce(capsys, f"ACCEPTANCE 9 (witness + oracle): FAIL "
                         f"markov_flag={rep_markov.non_markovian} "
                         f"recover_flag={rep_recover.non_markovian} "
                         f"worst_mc_sigma={worst_sigma:.2f}")
        raise
    announce(capsys, "ACCEPTANCE 9 (witness + oracle): PASS markovian=no-flag, "
                     "recovery flagged on [1, 2], "
                     f"worst MC deviation={worst_sigma:.2f} se over 50 pairs")
