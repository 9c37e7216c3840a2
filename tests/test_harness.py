import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unitarity import (
    ChannelValidationError,
    KrausChannel,
    Trajectory,
    closed_form_du,
    compose,
    du,
    harness,
    identity_channel,
    random_channel,
    require_trace_preserving,
    run_distribution,
    run_table1,
    run_tightness,
    run_witness,
    standard_channel,
    validate,
)
from unitarity.channels import STANDARD_KINDS, _closed_forms
from unitarity.cli import main
from unitarity.du import _ROUTES, _du_stack
from unitarity.harness import (
    CHANNEL_FAMILIES,
    _attempt_seeds,
    _evaluate_dilation_batch,
    _generators,
    attempt_seed,
)
from unitarity.io import (
    DISTRIBUTION_HEADER,
    TABLE1_HEADER,
    TIGHTNESS_HEADER,
    write_distribution_csv,
    write_tightness_csv,
)

from helpers import (
    DU_MODULE,
    qutrit_weyl_depolarizing,
    reference_dilation_kraus,
    reference_table1_rows,
    reference_witness_values,
    remix_kraus,
    werner_holevo,
)


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: run_table1(grid=0), "grid", id="table1-grid-0"),
        pytest.param(
            lambda: run_table1(grid=2, restarts=-1), "restarts", id="table1-restarts-negative"
        ),
        pytest.param(lambda: run_tightness(5, sys_dim=0), "sys_dim", id="tightness-sys-dim-0"),
        pytest.param(
            lambda: run_distribution(5, [2], seed=1, sys_dim=0),
            "sys_dim",
            id="distribution-sys-dim-0",
        ),
        pytest.param(
            lambda: run_distribution(5, [2, 0], seed=1),
            "env_dims",
            id="distribution-env-dims-zero",
        ),
        pytest.param(
            lambda: run_distribution(5, [2], seed=0, num_bins=0),
            "num_bins",
            id="distribution-num-bins-0",
        ),
        pytest.param(
            lambda: run_tightness(5, sys_dim=3, restarts=-1),
            "restarts",
            id="tightness-qutrit-restarts-negative",
        ),
        pytest.param(
            lambda: du(random_channel(3, 2, np.random.default_rng(3)), restarts=-1),
            "restarts",
            id="du-qutrit-restarts-negative",
        ),
        pytest.param(
            lambda: du(standard_channel("depolarizing", 0.3), restarts=-1),
            "restarts",
            id="du-qubit-restarts-negative",
        ),
        pytest.param(
            lambda: run_tightness(5, stratified=True, attempt_cap=0),
            "attempt_cap",
            id="tightness-attempt-cap-0",
        ),
        pytest.param(
            lambda: run_tightness(5, stratified=True, attempt_cap=-3),
            "attempt_cap",
            id="tightness-attempt-cap-negative",
        ),
        pytest.param(lambda: run_tightness(5, seed=-1), "seed", id="tightness-seed-negative"),
        pytest.param(
            lambda: run_distribution(5, [2], seed=-1), "seed", id="distribution-seed-negative"
        ),
        pytest.param(
            lambda: run_distribution(5, [], seed=1), "env_dims", id="distribution-env-dims-empty"
        ),
    ],
)
def test_driver_arguments_out_of_range_name_the_parameter(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be (>= |nonempty)"):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(lambda: run_tightness(5, env_dim=2.0), "env_dim", id="tightness-env-dim"),
        pytest.param(lambda: run_tightness(5, sys_dim=2.5), "sys_dim", id="tightness-sys-dim"),
        pytest.param(lambda: run_tightness(2.5), "samples", id="tightness-samples"),
        pytest.param(lambda: run_tightness(5, seed=1.5), "seed", id="tightness-seed"),
        pytest.param(
            lambda: run_distribution(5, [2.5], seed=1), "env_dims", id="distribution-env-dims"
        ),
        pytest.param(
            lambda: run_distribution(5, [2], seed=1, num_bins=3.0),
            "num_bins",
            id="distribution-num-bins",
        ),
        pytest.param(
            lambda: du(standard_channel("depolarizing", 0.3), restarts=2.0),
            "restarts",
            id="du-qubit-restarts",
        ),
        pytest.param(lambda: run_table1(grid=2, restarts=2.0), "restarts", id="table1-restarts"),
    ],
)
def test_non_integer_arguments_name_the_parameter(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        pytest.param(
            lambda: run_tightness(samples=True, seed=False), "samples", id="tightness-samples"
        ),
        pytest.param(
            lambda: du(standard_channel("depolarizing", 0.3), restarts=True),
            "restarts",
            id="du-restarts",
        ),
        pytest.param(lambda: KrausChannel(True, [[[1.0]]]), "dim", id="channel-dim"),
    ],
)
def test_booleans_are_not_integer_arguments(call, name):
    # operator.index takes True and False as 1 and 0; a JSON boolean is
    # already a format error in io and the CLI
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got (True|False)$"):
        call()


def test_distribution_rejects_an_unknown_column():
    message = "du_column must be 'dispatcher' or 'lb1', got 'ub'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_distribution(5, [2], seed=1, du_column="ub")


@pytest.mark.parametrize(
    "flag", [True, False, np.True_, np.False_], ids=["True", "False", "np.True_", "np.False_"]
)
class TestBooleansAreNotNumbers:
    """Booleans are no real numbers to the library, as JSON booleans are none
    to io and the CLI, though float() takes them; each check keeps its message."""

    @pytest.mark.parametrize("family", [standard_channel, closed_form_du])
    def test_standard_param(self, flag, family):
        with pytest.raises(ValueError) as raised:
            family("bit_flip", flag)
        assert str(raised.value) == f"parameter must be a real number, got {flag!r}"

    def test_validate_tol(self, flag):
        with pytest.raises(ValueError) as raised:
            validate(identity_channel(2), tol=flag)
        assert str(raised.value) == f"tol must be a finite number > 0, got {flag!r}"

    def test_witness_threshold(self, flag):
        traj = Trajectory((0.0, 1.0), (identity_channel(2), identity_channel(2)))
        with pytest.raises(ValueError) as raised:
            run_witness(traj, threshold=flag)
        assert str(raised.value) == f"threshold must be a finite number >= 0, got {flag!r}"

    def test_trajectory_times(self, flag):
        times = (flag, 2.0)
        with pytest.raises(ValueError) as raised:
            Trajectory(times, (identity_channel(2), identity_channel(2)))
        assert str(raised.value) == f"times must be a finite number, got {flag!r}"


@pytest.mark.parametrize("times, bad", [
    ((0.0, None), None),
    ((0.0, 1 + 2j), 1 + 2j),
    (("0", "1e0"), "0"),
    ((True, 2.0), True),
], ids=["none", "complex", "strings", "boolean"])
def test_trajectory_times_message_names_the_element(times, bad):
    # one pass of the real-number rule over the times: its message names the
    # first element that is not a finite real number
    with pytest.raises(ValueError) as raised:
        Trajectory(times, (identity_channel(2), identity_channel(2)))
    assert str(raised.value) == f"times must be a finite number, got {bad!r}"


class TestStringsAreNotNumbers:
    """A numeric string is no real number either, though float() parses it:
    each check raises the ValueError that names its parameter."""

    def test_trajectory_times(self):
        times = ("0", "1e0")
        with pytest.raises(ValueError) as raised:
            Trajectory(times, (identity_channel(2), identity_channel(2)))
        assert str(raised.value) == "times must be a finite number, got '0'"

    def test_validate_tol(self):
        with pytest.raises(ValueError) as raised:
            validate(identity_channel(2), tol="1e-9")
        assert str(raised.value) == "tol must be a finite number > 0, got '1e-9'"

    def test_witness_threshold(self):
        traj = Trajectory((0.0, 1.0), (identity_channel(2), identity_channel(2)))
        with pytest.raises(ValueError) as raised:
            run_witness(traj, threshold="0")
        assert str(raised.value) == "threshold must be a finite number >= 0, got '0'"


def test_report_flags_and_thresholds_are_python_scalars():
    # a numpy tolerance or an integer threshold is stored as a plain bool or float
    report = validate(identity_channel(2), tol=np.float64(1e-9))
    assert report.passed is True
    traj = Trajectory((0.0, 1.0), (identity_channel(2), identity_channel(2)))
    threshold = run_witness(traj, threshold=0).threshold
    assert type(threshold) is float and threshold == 0.0


def test_import_does_not_load_numpy_random():
    """numpy 2 loads numpy.random on first use, and importing the package must
    not be that use: it would add to every fresh interpreter's set-up. numpy 1
    loads it with numpy itself, which leaves nothing to check there."""
    code = (
        "import sys, numpy; eager = 'numpy.random' in sys.modules; import unitarity; "
        "print(eager, 'numpy.random' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    eager, loaded = run.stdout.split()
    assert eager == "True" or loaded == "False"


class TestClosedForm:
    def test_depolarizing_is_dominated_by_identity_branch(self):
        # max(p/4, 1 - 3p/4) equals 1 - 3p/4 throughout [0, 1]; the two
        # branches only meet at p = 1 where both give 1/4
        for p in np.linspace(0.0, 1.0, 21):
            assert closed_form_du("depolarizing", p) == pytest.approx(1 - 0.75 * p)
        assert closed_form_du("depolarizing", 1.0) == pytest.approx(0.25)

    def test_bit_flip_crossover(self):
        assert closed_form_du("bit_flip", 0.5) == pytest.approx(0.5)
        assert closed_form_du("bit_flip", 4.0 / 7.0) == pytest.approx(4.0 / 7.0)

    def test_amplitude_damping_endpoints(self):
        assert closed_form_du("amplitude_damping", 0.0) == pytest.approx(1.0)
        assert closed_form_du("amplitude_damping", 1.0) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "kind, param, named",
        [
            ("leaky_bucket", 0.5, "unknown channel kind 'leaky_bucket'"),
            ("bit_flip", 1.5, "parameter must be in [0, 1], got 1.5"),
            ("amplitude_damping", -0.25, "parameter must be in [0, 1], got -0.25"),
            ("depolarizing", math.nan, "parameter must be in [0, 1], got nan"),
        ],
    )
    def test_rejects_what_standard_channel_rejects(self, kind, param, named):
        # one (kind, param) check serves the closed forms and the Kraus sets
        with pytest.raises(ValueError, match=re.escape(named)) as raised:
            standard_channel(kind, param)
        with pytest.raises(ValueError) as closed:
            closed_form_du(kind, param)
        assert str(closed.value) == str(raised.value)

    @pytest.mark.parametrize("family", [standard_channel, closed_form_du])
    @pytest.mark.parametrize("param", ["0.5", None, 1 + 0j])
    def test_rejects_a_parameter_that_is_not_a_real_number(self, family, param):
        named = f"parameter must be a real number, got {param!r}"
        with pytest.raises(ValueError, match=re.escape(named)):
            family("bit_flip", param)

    @pytest.mark.parametrize("param", [np.float64(0.25), np.float32(0.5), 0])
    def test_accepts_any_real_number(self, param):
        assert standard_channel("amplitude_damping", param).dim == 2
        assert closed_form_du("amplitude_damping", param) == pytest.approx(
            (1.0 + math.sqrt(1.0 - float(param))) ** 2 / 4.0
        )


class TestTable1:
    def test_small_grid_matches(self):
        report = run_table1(grid=11, restarts=4)
        assert report.max_abs_error < 1e-9
        assert len(report.rows) == 44

    def test_kinds_set_the_table1_row_order(self):
        assert STANDARD_KINDS == ("depolarizing", "bit_flip", "phase_flip", "amplitude_damping")
        assert CHANNEL_FAMILIES is STANDARD_KINDS
        assert [row.family for row in run_table1(grid=1).rows] == list(STANDARD_KINDS)

    def test_family_max_error_names_an_unknown_family(self):
        with pytest.raises(ValueError, match=r"unknown channel family 'nope'.*amplitude_damping"):
            run_table1(grid=2).family_max_error("nope")

    def test_methods_per_family(self):
        report = run_table1(grid=5, restarts=4)
        for row in report.rows:
            if row.family == "amplitude_damping" and 0.0 < row.param:
                assert row.method == "exact_qubit"
            else:
                assert row.method == "exact_mixed_unitary"

    @pytest.mark.parametrize("grid", [1, 2, 51])
    def test_rows_match_per_point_du(self, grid, monkeypatch):
        # run_table1 hands the DU core Kraus arrays and builds no KrausChannel
        reference = reference_table1_rows(grid)

        def refuse(self):
            raise AssertionError("run_table1 built a KrausChannel")

        monkeypatch.setattr(KrausChannel, "__post_init__", refuse)
        report = run_table1(grid=grid)
        assert report.rows == reference
        assert report.max_abs_error == max(r.error for r in report.rows)

    def test_builds_no_trace_residual(self, monkeypatch):
        # the family builder's sets are trace preserving by construction, so
        # only handed-in sets (the witness's) are checked
        def refuse(kraus):
            raise AssertionError("run_table1 computed a trace residual")

        monkeypatch.setattr(harness, "_trace_residuals", refuse)
        assert run_table1(grid=51).rows == reference_table1_rows(51)

    @pytest.mark.parametrize("grid", [1, 2, 51])
    def test_one_family_build_per_family(self, grid, monkeypatch):
        # each family's Kraus sets come from one whole-grid builder call,
        # whatever the grid, never one call per point
        calls = []
        build = harness._standard_kraus

        def counting(kind, params):
            calls.append((kind, len(params)))
            return build(kind, params)

        monkeypatch.setattr(harness, "_standard_kraus", counting)
        assert run_table1(grid=grid).rows == reference_table1_rows(grid)
        assert calls == [(family, grid) for family in CHANNEL_FAMILIES]

    @pytest.mark.parametrize("grid", [1, 2, 51])
    def test_one_du_pass_per_run(self, grid, monkeypatch):
        # every family's zero-padded sets go through the DU core as one
        # stack, whatever Kraus counts the grid's points have
        calls = []

        def counting(kraus, rngs, restarts):
            calls.append(len(kraus))
            return _du_stack(kraus, rngs, restarts)

        monkeypatch.setattr(harness, "_du_stack", counting)
        assert run_table1(grid=grid).rows == reference_table1_rows(grid)
        assert calls == [len(CHANNEL_FAMILIES) * grid]

    @pytest.mark.parametrize("grid", [1, 51, 59])
    def test_closed_form_arrays_match_the_scalar(self, grid):
        params = np.linspace(0.0, 1.0, grid)
        for kind in STANDARD_KINDS:
            scalar = [closed_form_du(kind, p) for p in params.tolist()]
            assert all(type(v) is float for v in scalar)
            assert _closed_forms(kind, params).tobytes() == np.array(scalar).tobytes()

    @pytest.mark.parametrize("param", [0.3275862068965517, 0.45901639344262296, 0.36])
    def test_amplitude_damping_square_is_correctly_rounded(self, param):
        # (1 + sqrt(1 - g))^2 / 4 squares the rounded 1 + sqrt(1 - g) with one
        # rounding, x * x; libm's pow(x, 2) is 1 ulp off at the first two
        # points, which grids 59 and 62 hold
        x = 1.0 + math.sqrt(1.0 - param)
        assert closed_form_du("amplitude_damping", param) == float(Fraction(x) ** 2 / 4)

    def test_default_generator_is_built_only_to_ascend(self, monkeypatch):
        # a channel given no generator draws its Haar starts from
        # default_rng(0), which the DU core builds only when it ascends
        ascending = random_channel(3, 2, np.random.default_rng(1))
        seeds = []
        default_rng = np.random.default_rng

        def counting(*args, **kwargs):
            seeds.append(args)
            return default_rng(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting)
        assert du(standard_channel("amplitude_damping", 0.36))[0].method == "exact_qubit"
        assert du(qutrit_weyl_depolarizing(0.5))[0].method == "exact_mixed_unitary"
        assert run_table1(grid=5).rows == reference_table1_rows(5)
        assert seeds == []
        assert du(ascending)[0].method == "numerical_optimizer"
        assert seeds == [(0,)]

    def test_specific_parameters(self):
        # depolarizing at p = 4/7 sits on the identity branch: 1 - 3/7
        res, _ = du(standard_channel("depolarizing", 4.0 / 7.0), restarts=4)
        assert res.value == pytest.approx(4.0 / 7.0, abs=1e-9)
        # amplitude damping at gamma = 1 damps to (1+0)^2/4
        res, _ = du(standard_channel("amplitude_damping", 1.0), restarts=4)
        assert res.value == pytest.approx(0.25, abs=1e-9)


class TestBulkEvaluator:
    def test_matches_dispatcher(self):
        # the samplers' batches must give what du() gives for each channel
        # alone, bit for bit, consuming the per-seed rng identically
        for env in (1, 2, 4):
            seeds = [attempt_seed(99, (env, i)) for i in range(40)]
            bulk = _evaluate_dilation_batch(2, env, seeds, restarts=3)
            for i, s in enumerate(seeds):
                rng = np.random.default_rng(s)
                ch = random_channel(2, env, rng)
                res, rep = du(ch, restarts=3, rng=rng)
                assert res.value == bulk.du[i]
                assert np.array_equal(res.witness, bulk.witness[i])
                assert res.method == _ROUTES[bulk.route[i]]
                assert rep.lb1 == bulk.lb1[i]
                assert rep.lb2 == bulk.lb2[i]
                assert rep.lb1_simplified == bulk.lb1_simplified[i]
                assert rep.ub == bulk.ub[i]

    def test_env_state_choice_is_distribution_neutral(self):
        # Haar invariance makes the |0> environment convention irrelevant:
        # a fixed random environment state gives the same DU distribution
        rng = np.random.default_rng(123)
        e = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        e /= np.linalg.norm(e)
        n = 2000
        seeds0 = [attempt_seed(5, (0, i)) for i in range(n)]
        seeds1 = [attempt_seed(5, (1, i)) for i in range(n)]
        du0 = _evaluate_dilation_batch(2, 2, seeds0, restarts=2).du
        rngs = _generators(seeds1)
        stack = np.stack([reference_dilation_kraus(2, 2, rng, env_state=e) for rng in rngs])
        du1 = _du_stack(stack, rngs, 2).du
        se = math.sqrt(du0.var(ddof=1) / n + du1.var(ddof=1) / n)
        assert abs(du0.mean() - du1.mean()) < 4 * se
        assert abs(du0.std() - du1.std()) < 0.02


def _integers_by_bit_length(max_bits: int):
    """Non-negative integers whose bit length is spread evenly up to ``max_bits``."""
    return st.integers(0, max_bits).flatmap(lambda bits: st.integers(0, 2**bits - 1))


class TestSeedPort:
    """The chunk-wide port of numpy's SeedSequence hash, pinned to numpy itself:
    a numpy that changes its seeding must fail here rather than let sampled
    results drift."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        master=_integers_by_bit_length(131),
        key=st.lists(_integers_by_bit_length(40), max_size=2),
        start=st.one_of(st.integers(0, 2000), st.integers(2**32 - 8, 2**32 + 8)),
        count=st.integers(1, 12),
    )
    @example(master=0, key=[], start=0, count=3)
    @example(master=2**130, key=[2**32, 7], start=2**32 - 2, count=4)
    def test_attempt_seeds_match_seed_sequence(self, master, key, start, count):
        key = tuple(key)
        seeds = _attempt_seeds(master, key, start, count)
        assert seeds.dtype == np.uint64
        assert seeds.tolist() == [attempt_seed(master, key + (start + i,)) for i in range(count)]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seeds=st.lists(_integers_by_bit_length(64), min_size=1, max_size=8))
    @example(seeds=[0, 1, 2**32 - 1, 2**32, 2**64 - 1])
    def test_generators_match_default_rng(self, seeds):
        for seed, rng in zip(seeds, _generators(seeds)):
            ref = np.random.default_rng(seed)
            assert rng.bit_generator.state == ref.bit_generator.state
            assert np.array_equal(rng.standard_normal(6), ref.standard_normal(6))
            assert np.array_equal(rng.integers(0, 2**62, 4), ref.integers(0, 2**62, 4))

    def test_rejects_a_negative_master_like_seed_sequence(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence(-1, spawn_key=(0,))
        with pytest.raises(ValueError):
            _attempt_seeds(-1, (), 0, 1)


class TestTightness:
    def test_unstratified_counts_and_bounds(self):
        result = run_tightness(samples=60, seed=21)
        assert len(result.records) == 60
        assert result.attempts == 60
        for r in result.records:
            assert r.lb1_err >= -1e-9
            assert r.lb2_err >= -1e-9
            assert r.du_value <= r.ub + 1e-9
            assert r.lb1 == pytest.approx(r.du_value - r.lb1_err)

    def test_reproducible_and_chunk_invariant(self, monkeypatch):
        stratified = dict(samples=45, seed=13, stratified=True, restarts=2)
        width = harness.BIN_WIDTH
        cases = [
            (dict(samples=40, seed=77), (7, 512), width),
            (dict(stratified, attempt_cap=4000), (7, 512), width),
            # the cap cuts the last chunk of 64 short
            (dict(stratified, attempt_cap=300), (64, 512), width),
            # every bin fills before the cap, part-way through a chunk
            (dict(stratified, attempt_cap=4000, samples=12, env_dim=4), (7, 64, 512), 0.25),
        ]
        for kwargs, chunks, bin_width in cases:
            monkeypatch.setattr(harness, "BIN_WIDTH", bin_width)
            runs = []
            for c in chunks:
                monkeypatch.setattr(harness, "CHUNK", c)
                runs.append(run_tightness(**kwargs))
            a, *others = runs
            for b in others:
                assert b.records == a.records, kwargs
                assert (b.attempts, b.underfilled, b.nonconverged, b.exact) == (
                    a.attempts, a.underfilled, a.nonconverged, a.exact
                ), kwargs

    def test_stratified_stops_at_the_attempt_that_fills_the_last_bin(self, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK", 64)
        monkeypatch.setattr(harness, "BIN_WIDTH", 0.25)
        result = run_tightness(
            samples=12, env_dim=4, seed=13, stratified=True, attempt_cap=4000, restarts=2,
        )
        assert result.underfilled == {}
        assert len(result.records) == 3 * result.target_per_bin
        assert result.attempts % 64 != 0  # stopped part-way through a chunk
        # the last attempt made is the one whose record filled the last bin
        assert result.records[-1].seed == attempt_seed(13, (result.attempts - 1,))

    def test_stratified_fills_reachable_bins(self):
        result = run_tightness(
            samples=45, seed=13, stratified=True, attempt_cap=4000, restarts=2
        )
        assert result.target_per_bin == 3
        assert result.bin_edges is not None
        # bins near 1/n^2 are essentially unreachable for d=2 dilations and
        # must be reported, not fabricated
        assert result.underfilled
        assert all(count < 3 for count in result.underfilled.values())
        filled = len(result.records)
        assert filled + sum(result.underfilled.values()) <= 45 + len(result.underfilled) * 3
        assert result.attempts <= 4000

    def test_stratified_at_env_dim_1_stops_when_the_top_bin_fills(self):
        # every channel is unitary, so DU is 1 and no lower bin can fill:
        # the run takes one attempt per top-bin record and reports the rest
        result = run_tightness(10, env_dim=1, seed=1, stratified=True, attempt_cap=5000)
        assert result.attempts == result.target_per_bin == len(result.records)
        top = len(result.bin_edges) - 2
        assert result.underfilled == {b: 0 for b in range(top)}

    def test_counts_nonconverged_records(self, monkeypatch):
        # with a one-sweep cap no qutrit ascent converges, and every record
        # is counted rather than dropped
        monkeypatch.setattr(DU_MODULE, "MAX_ITERATIONS", 1)
        result = run_tightness(64, sys_dim=3, seed=1, restarts=2)
        assert (len(result.records), result.nonconverged) == (64, 64)

    def test_record_seed_regenerates_channel(self):
        result = run_tightness(samples=5, seed=11)
        r = result.records[0]
        rng = np.random.default_rng(r.seed)
        ch = random_channel(2, 2, rng)
        res, _ = du(ch, restarts=4, rng=rng)
        assert res.value == pytest.approx(r.du_value, abs=1e-9)

    def test_qutrit_record_seed_regenerates_channel_and_du(self):
        result = run_tightness(samples=6, sys_dim=3, env_dim=2, seed=4, restarts=2)
        for r in result.records:
            # a batch of one from the record's seed is the same sample, bit for bit
            alone = _evaluate_dilation_batch(3, 2, [r.seed], restarts=2)
            assert alone.du[0] == r.du_value
            assert alone.lb1[0] == r.lb1
            assert alone.ub[0] == r.ub
            # and the seed's channel, then its restart draws, feed du()
            rng = np.random.default_rng(r.seed)
            ch = random_channel(3, 2, rng)
            res, bounds = du(ch, restarts=2, rng=rng)
            assert res.value == pytest.approx(r.du_value, abs=1e-9)
            assert bounds.lb1 == pytest.approx(r.lb1, abs=1e-12)
            assert bounds.ub == pytest.approx(r.ub, abs=1e-12)

    @pytest.mark.parametrize("sys_dim, env_dim", [(2, 4), (3, 2)])
    def test_record_is_du_of_its_regenerated_channel(self, sys_dim, env_dim):
        # the samplers and du() run the same pipeline, so a record is what
        # du() returns on the seed's channel and generator, bit for bit
        result = run_tightness(samples=8, sys_dim=sys_dim, env_dim=env_dim, seed=9, restarts=2)
        for r in result.records:
            rng = np.random.default_rng(r.seed)
            res, bounds = du(random_channel(sys_dim, env_dim, rng), restarts=2, rng=rng)
            assert (res.value, bounds.lb1, bounds.lb2, bounds.ub) == (r.du_value, r.lb1, r.lb2, r.ub)

    def test_counts_exact_and_nonconverged(self):
        unitary = run_tightness(samples=20, env_dim=1, seed=5)
        assert unitary.exact == 20
        assert unitary.nonconverged == 0
        default = run_tightness(samples=40, seed=5)
        assert default.nonconverged == 0
        assert default.exact == 0
        stratified = run_tightness(
            samples=45, seed=13, stratified=True, attempt_cap=600, env_dim=1
        )
        assert stratified.exact == len(stratified.records)


class TestQualitativeTightnessStory:
    def test_lower_bound_exact_for_rank_two_channels(self):
        # for d=2 dilations (Choi rank 2) the first lower bound is not just
        # tight, it is exact to machine precision
        result = run_tightness(samples=300, seed=31, restarts=2)
        worst = max(max(r.lb1_err, r.lb2_err) for r in result.records)
        assert worst < 1e-10

    def test_richer_environment_shows_percent_level_errors(self):
        # with a four-dimensional environment the bound is merely tight:
        # relative errors up to ~10% appear at the low-DU end while records
        # with a large upper bound stay accurate on average (the upper bound
        # acts as a tightness indicator in the mean, not the absolute max)
        result = run_tightness(samples=4000, seed=37, env_dim=4, restarts=2)
        rel = np.array([r.lb1_err / r.du_value for r in result.records])
        dus = np.array([r.du_value for r in result.records])
        ubs = np.array([r.ub for r in result.records])
        assert rel.max() > 0.02
        assert rel.max() < 0.30
        # the worst offenders live at small DU
        assert dus[np.argmax(rel)] < 0.5
        errs = np.array([max(r.lb1_err, r.lb2_err) for r in result.records])
        hi = ubs > 0.8
        assert errs[hi].mean() < errs[~hi].mean() / 5
        assert np.quantile(errs[hi], 0.99) < 5e-3


class TestDistribution:
    def test_trivial_environment_all_unitary(self):
        hist = run_distribution(samples=50, env_dims=[1], seed=7)[0]
        assert hist.counts.sum() == 50
        assert hist.counts[-1] == 50
        assert hist.mean == pytest.approx(1.0, abs=1e-9)
        assert hist.exact == 50
        assert hist.nonconverged == 0

    def test_counts_over_chunks(self, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK", 128)
        h1, h4 = run_distribution(samples=300, env_dims=[1, 4], seed=29)
        assert (h1.exact, h1.nonconverged) == (300, 0)
        assert h4.nonconverged == 0
        assert h4.exact == 0

    def test_mean_ordering_and_support(self):
        hists = run_distribution(samples=1500, env_dims=[2, 4], seed=17, restarts=2)
        h2, h4 = hists
        assert h2.counts.sum() == 1500
        assert h4.counts.sum() == 1500
        assert h2.mean > h4.mean
        assert h2.bin_edges[0] == pytest.approx(0.25)
        assert h2.bin_edges[-1] == pytest.approx(1.0)
        assert not math.isnan(h4.mean_lb1)

    def test_lb1_column_option(self):
        hist = run_distribution(samples=200, env_dims=[2], seed=19, du_column="lb1")[0]
        assert hist.du_column == "lb1"
        # for d=2 the lower bound is exact, so both means coincide
        assert hist.mean == pytest.approx(hist.mean_lb1, abs=1e-9)

    def test_counts_nonconverged_samples(self, monkeypatch):
        monkeypatch.setattr(DU_MODULE, "MAX_ITERATIONS", 1)
        hist = run_distribution(64, env_dims=[2], seed=1, sys_dim=3, restarts=2)[0]
        assert (hist.sample_count, hist.nonconverged) == (64, 64)

    @pytest.mark.parametrize("du_column, field", [("dispatcher", "du"), ("lb1", "lb1")])
    def test_std_error_from_the_samples(self, du_column, field):
        n = 400
        hist = run_distribution(n, env_dims=[4], seed=31, du_column=du_column)[0]
        values = np.concatenate(
            [getattr(bulk, field) for _, bulk in harness._sample(2, 4, 31, (0,), n, 4)]
        )
        assert hist.mean == values.mean()
        assert hist.std_error == values.std(ddof=1) / math.sqrt(n)
        assert run_distribution(1, env_dims=[4], seed=31)[0].std_error == 0.0

    @pytest.mark.parametrize("du_column, field, shift", [("dispatcher", "du", 1.0),
                                                         ("lb1", "lb1", -1.0)])
    def test_value_outside_the_du_range_raises(self, du_column, field, shift, monkeypatch):
        # a binned column above 1 or below 1/n^2 is a broken core, not a sample
        core = harness._du_stack

        def shifted(*args):
            s = core(*args)
            return s._replace(**{field: getattr(s, field) + shift})

        monkeypatch.setattr(harness, "_du_stack", shifted)
        with pytest.raises(ArithmeticError, match=re.escape("escaped the [1/n^2, 1] range")):
            run_distribution(8, env_dims=[2], seed=3, du_column=du_column)

    def test_reproducible(self, monkeypatch):
        monkeypatch.setattr(harness, "CHUNK", 17)
        a = run_distribution(samples=100, env_dims=[2], seed=23)[0]
        monkeypatch.setattr(harness, "CHUNK", 512)
        b = run_distribution(samples=100, env_dims=[2], seed=23)[0]
        assert np.array_equal(a.counts, b.counts)
        assert a.mean == b.mean


class TestWitness:
    @staticmethod
    def damping_trajectory(gammas, times=None):
        if times is None:
            times = list(range(len(gammas)))
        chans = tuple(standard_channel("amplitude_damping", g) for g in gammas)
        return Trajectory(times=tuple(float(t) for t in times), channels=chans)

    def test_markovian_damping_no_flag(self):
        times = np.arange(0.0, 5.5, 0.5)
        gammas = 1.0 - np.exp(-times)
        report = run_witness(self.damping_trajectory(gammas, times))
        assert not report.non_markovian
        assert "inconclusive" in report.verdict
        # DU(t) = (1 + e^{-t/2})^2 / 4 along this trajectory
        want = (1.0 + np.exp(-times / 2.0)) ** 2 / 4.0
        assert np.allclose(report.du_values, want, atol=1e-9)
        assert np.all(np.diff(report.du_values) < 0)

    def test_recovering_trajectory_flagged_on_interval(self):
        report = run_witness(self.damping_trajectory([0.0, 0.5, 0.2]))
        assert report.non_markovian
        assert len(report.increases) == 1
        inc = report.increases[0]
        assert inc.index == 1
        assert (inc.t_from, inc.t_to) == (1.0, 2.0)
        assert inc.delta == pytest.approx(
            closed_form_du("amplitude_damping", 0.2)
            - closed_form_du("amplitude_damping", 0.5),
            abs=1e-9,
        )
        assert report.dim == 2
        assert report.verdict == f"non-Markovian: DU increased on [1, 2] (+{inc.delta:.3e})"

    def test_constant_trajectory_no_flag(self):
        report = run_witness(self.damping_trajectory([0.3, 0.3, 0.3]))
        assert not report.non_markovian

    @pytest.mark.parametrize("threshold", [-1e-6, math.nan, math.inf])
    def test_rejects_bad_threshold(self, threshold):
        traj = self.damping_trajectory([0.0, 0.5, 0.2])
        with pytest.raises(ValueError, match="threshold"):
            run_witness(traj, threshold=threshold)

    def test_threshold_suppresses_tiny_wiggles(self):
        report = run_witness(self.damping_trajectory([0.5, 0.5 - 1e-9]), threshold=1e-6)
        assert not report.non_markovian

    def test_cp_divisible_qutrit_trajectory_is_flagged(self):
        # (identity, W, W.W) with W the n = 3 Werner-Holevo channel: every step
        # is the CPTP map W, yet DU goes 1 -> 2/9 -> 1/3 (W.W is the
        # depolarizing channel rho/4 + (3/4) I/3). Beyond qubits a flagged
        # increase is no certificate of non-Markovianity.
        w = werner_holevo(3)
        traj = Trajectory((0.0, 1.0, 2.0), (identity_channel(3), w, compose(w, w)))
        report = run_witness(traj)
        assert np.all(np.abs(report.du_values - [1.0, 2 / 9, 1 / 3]) <= 1e-12)
        assert [(inc.t_from, inc.t_to) for inc in report.increases] == [(1.0, 2.0)]
        assert report.non_markovian and report.dim == 3
        # the verdict names the interval but claims no non-Markovianity
        assert report.verdict == (
            "DU increased on [1, 2] (+1.111e-01); "
            "at n = 3 an increase is no certificate of non-Markovianity"
        )

    @pytest.mark.parametrize("n", [3, 4])
    def test_values_match_per_channel_du(self, n):
        # Kraus counts 1-4 in one trajectory: several stacks, and every
        # channel that takes the ascent draws its own default_rng(0) restarts.
        rng = np.random.default_rng(n)
        chans = tuple(random_channel(n, int(rng.integers(1, 5)), rng) for _ in range(12))
        traj = Trajectory(times=tuple(range(12)), channels=chans)
        assert len({ch.n_ops for ch in chans}) > 1
        assert np.array_equal(run_witness(traj).du_values, reference_witness_values(traj))

    def test_lower_rank_channel_matches_per_channel_du(self):
        # 4 Kraus operators of rank 2 share a stack with rank-4 channels,
        # whose canonical sets are the larger: its value must be its own.
        rng = np.random.default_rng(11)
        low = remix_kraus(random_channel(3, 2, rng), rng, extra=2)
        chans = (random_channel(3, 4, rng), low, random_channel(3, 4, rng), low)
        assert low.n_ops == 4
        traj = Trajectory(times=(0.0, 1.0, 2.0, 3.0), channels=chans)
        assert np.array_equal(run_witness(traj).du_values, reference_witness_values(traj))

    def test_value_is_du_at_its_defaults(self):
        # an n = 7 channel on which fewer Haar starts than du's default miss
        # the maximum, which du(ch) finds at 0.113393698536 (below 14 starts
        # it reads 0.112124700171)
        ch = random_channel(7, 14, np.random.default_rng([11, 7, 14, 96]))
        value = du(ch)[0].value
        assert abs(value - 0.113393698536) <= 1e-9
        report = run_witness(Trajectory((0.0, 1.0), (ch, ch)))
        assert np.array_equal(report.du_values, [value, value])
        assert not report.non_markovian

    def test_single_kraus_point_matches_per_channel_du(self):
        # amplitude damping at gamma = 0 has one Kraus operator, the others two
        traj = self.damping_trajectory([0.0, 0.5, 0.2, 0.0, 0.7])
        assert [ch.n_ops for ch in traj.channels] == [1, 2, 2, 1, 2]
        report = run_witness(traj)
        assert np.array_equal(report.du_values, reference_witness_values(traj))
        assert report.du_values[0] == report.du_values[3] == 1.0

    def test_non_trace_preserving_channel_raises(self):
        # Two bad channels in different stacks, the stack of the later one
        # first: the first in trajectory order is the one reported, with
        # require_trace_preserving's message.
        one_op = standard_channel("amplitude_damping", 0.0)
        first = KrausChannel(2, (0.9 * np.eye(2), np.zeros((2, 2))))
        second = KrausChannel(2, (0.5 * np.eye(2),))
        chans = (one_op, first, standard_channel("bit_flip", 0.3), second)
        traj = Trajectory(times=(0.0, 1.0, 2.0, 3.0), channels=chans)
        with pytest.raises(ChannelValidationError) as raised:
            require_trace_preserving(first)
        with pytest.raises(ChannelValidationError, match=re.escape(str(raised.value))):
            run_witness(traj)

    def test_trajectory_validation(self):
        ch = standard_channel("bit_flip", 0.5)
        with pytest.raises(ValueError):
            Trajectory(times=(0.0, 0.0), channels=(ch, ch))
        with pytest.raises(ValueError):
            Trajectory(times=(0.0,), channels=(ch, ch))
        with pytest.raises(ValueError):
            Trajectory(times=(), channels=())
        for bad in (math.nan, math.inf, 10**400):
            with pytest.raises(ValueError, match="finite"):
                Trajectory(times=(0.0, bad), channels=(ch, ch))
        with pytest.raises(ValueError, match=re.escape("channels have mixed dims [2, 3]")):
            Trajectory(times=(0.0, 1.0), channels=(ch, identity_channel(3)))


class TestCsvEmitters:
    def test_tightness_csv_contract(self, tmp_path):
        result = run_tightness(samples=12, seed=41)
        path = tmp_path / "tight.csv"
        write_tightness_csv(result.records, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == TIGHTNESS_HEADER == "du,lb1,lb2,lb1_err,lb2_err,ub,seed"
        assert len(lines) == 13
        dus = [float(line.split(",")[0]) for line in lines[1:]]
        assert dus == sorted(dus)
        # values round-trip at full precision
        first = result.records[0]
        row = next(l for l in lines[1:] if l.endswith(str(first.seed)))
        assert float(row.split(",")[0]) == sorted(result.records, key=lambda r: r.du_value)[
            dus.index(float(row.split(",")[0]))
        ].du_value

    @pytest.mark.parametrize("copies", [3, 512])
    @pytest.mark.parametrize("name, key", [("du", "du_value"), ("ub", "ub")])
    def test_tightness_csv_text(self, tmp_path, name, key, copies):
        # one call writes the du file and the ub file; each file's text is
        # that of one f-string per row in its own order, however many rows,
        # and records tied in du or in ub (the last two, and every copy, told
        # apart by its seed) keep their input order
        base = [
            harness.TightnessRecord(0.1, 1 / 3, 5e-324, -0.0, 1e16, 0.7, 0),
            harness.TightnessRecord(1 / 3, 0.1, -0.0, -2.5e-17, 0.0, 0.4, 2**64 - 1),
            harness.TightnessRecord(0.25, 0.2, 0.1, -1 / 3, 5e-324, 1e16, 17),
            harness.TightnessRecord(1e16, -0.0, 1 / 3, -1e-300, 0.1, 0.1, 3),
            harness.TightnessRecord(-0.0, 5e-324, 0.1, -0.1, 1 / 3, 1 / 3, 2**63),
            harness.TightnessRecord(5e-324, 1e16, 0.2, -7.0, -0.0, 0.5, 1),
            harness.TightnessRecord(0.5, 0.5, 0.5, -0.5, 0.5, 0.6, 99),
            harness.TightnessRecord(0.5, 0.4, 0.5, -0.1, 0.0, 0.7, 5),
            harness.TightnessRecord(0.0, 0.0, 0.0, 0.0, 0.0, 0.1, 4),
        ]
        records = [r._replace(seed=r.seed ^ c) for c in range(copies) for r in base]
        paths = {"du": tmp_path / "tight.csv", "ub": tmp_path / "tight_by_ub.csv"}
        # a generator: the writer reads its records once for both files
        write_tightness_csv(iter(records), str(paths["du"]), str(paths["ub"]))
        expected = "".join(
            f"{r.du_value:.17g},{r.lb1:.17g},{r.lb2:.17g},"
            f"{r.lb1_err:.17g},{r.lb2_err:.17g},{r.ub:.17g},{r.seed}\n"
            for r in sorted(records, key=lambda r: getattr(r, key))
        )
        assert paths[name].read_text() == TIGHTNESS_HEADER + "\n" + expected
        write_tightness_csv([], str(paths["du"]), str(paths["ub"]))
        assert paths[name].read_text() == TIGHTNESS_HEADER + "\n"

    @pytest.mark.parametrize("copies", [3, 512])
    def test_tightness_du_file_is_the_same_alone(self, tmp_path, copies):
        # writing the ub file too leaves the du file's bytes as they are
        # when it is written alone, ties included, however many rows
        base = [
            harness.TightnessRecord(0.5, 0.1, 0.2, -0.4, -0.3, 0.7, 5),
            harness.TightnessRecord(0.25, 1 / 3, 0.2, -0.05, -0.05, 0.7, 2**64 - 1),
            harness.TightnessRecord(0.5, 0.4, 0.5, -0.1, 0.0, 0.6, 0),
            harness.TightnessRecord(-0.0, 5e-324, 0.0, -0.0, -0.0, 0.7, 9),
            harness.TightnessRecord(0.0, 0.0, 0.0, 0.0, 0.0, 1e16, 3),
        ]
        ties = [r._replace(seed=r.seed ^ c) for c in range(copies) for r in base]
        for records in (ties, run_tightness(samples=40, env_dim=4, seed=8).records, []):
            both, alone = tmp_path / "both.csv", tmp_path / "alone.csv"
            write_tightness_csv(records, str(both), str(tmp_path / "both_by_ub.csv"))
            write_tightness_csv(records, str(alone))
            assert both.read_bytes() == alone.read_bytes()

    @pytest.mark.parametrize(
        "record, header",
        [(harness.TightnessRecord, TIGHTNESS_HEADER), (harness.Table1Row, TABLE1_HEADER)],
    )
    def test_record_fields_are_the_csv_columns(self, record, header):
        # a record is its CSV row: the fields, in order, are the columns
        assert [{"du_value": "du"}.get(f, f) for f in record._fields] == header.split(",")

    def test_records_are_immutable(self):
        records = (
            harness.TightnessRecord(0.5, 0.5, 0.5, 0.0, 0.0, 0.6, 1),
            harness.Table1Row("bit_flip", 0.5, 0.5, 0.5, 0.0, "exact_mixed_unitary"),
        )
        for record in records:
            with pytest.raises(AttributeError):
                record.du_value = 0.0

    @pytest.mark.parametrize("grid", [7, 512])
    def test_table1_csv_text(self, tmp_path, capsys, grid):
        # the text is that of one f-string per row, whatever the grid
        path = tmp_path / "table1.csv"
        assert main(["table1", "--grid", str(grid), "--out", str(path)]) == 0
        expected = "".join(
            f"{r.family},{r.param:.17g},{r.du_value:.17g},"
            f"{r.closed_form:.17g},{r.error:.17g},{r.method}\n"
            for r in run_table1(grid).rows
        )
        assert path.read_text() == "family,param,du,closed_form,error,method\n" + expected

    @pytest.mark.parametrize("env_dim", [1, 4])
    def test_distribution_csv_text(self, tmp_path, env_dim):
        hist = run_distribution(samples=50, env_dims=[env_dim], seed=44, num_bins=9)[0]
        path = tmp_path / "dist.csv"
        write_distribution_csv(hist, str(path))
        expected = (
            f"# mean={hist.mean:.17g} samples={hist.sample_count} "
            f"env_dim={hist.env_dim} seed={hist.seed} du_column={hist.du_column}\n"
            "bin_lo,bin_hi,count\n"
        ) + "".join(
            f"{lo:.17g},{hi:.17g},{count}\n"
            for lo, hi, count in zip(hist.bin_edges[:-1], hist.bin_edges[1:], hist.counts)
        )
        assert path.read_text() == expected

    def test_distribution_csv_contract(self, tmp_path):
        hist = run_distribution(samples=60, env_dims=[2], seed=43)[0]
        path = tmp_path / "dist.csv"
        write_distribution_csv(hist, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("# mean=")
        assert f"samples=60 env_dim=2 seed=43" in lines[0]
        assert lines[1] == DISTRIBUTION_HEADER == "bin_lo,bin_hi,count"
        counts = [int(line.split(",")[2]) for line in lines[2:]]
        assert sum(counts) == 60
