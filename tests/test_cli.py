import argparse
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from unitarity import identity_channel, random_channel, run_tightness, standard_channel
from unitarity.cli import build_parser, main
from unitarity.io import (
    FormatError,
    channel_from_obj,
    channel_to_obj,
    load_channel,
    matrix_from_obj,
    save_channel,
    trajectory_from_obj,
)
from unitarity.linalg import _require_at_least, _require_real

from helpers import DU_MODULE


@pytest.fixture
def ad_file(tmp_path):
    path = tmp_path / "ad.json"
    path.write_text(json.dumps({"standard": "amplitude_damping", "param": 0.36}))
    return str(path)


@pytest.fixture
def bad_tp_file(tmp_path):
    ch = standard_channel("bit_flip", 0.3)
    obj = channel_to_obj(ch)
    obj["kraus"] = obj["kraus"][:1]  # drop an operator: no longer trace preserving
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    return str(path)


class TestValidateCommand:
    def test_pass(self, ad_file, capsys):
        assert main(["validate", ad_file]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_fail_exit_code(self, bad_tp_file, capsys):
        assert main(["validate", bad_tp_file]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,\n "kraus": [[[1, 0]]')
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    def test_wrong_schema_exit_2(self, tmp_path, capsys):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"dim": 2}))
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("command", ["validate", "du"])
    def test_operator_of_the_wrong_shape_exit_2(self, tmp_path, capsys, command):
        # a dim-2 channel whose second operator is 3x3: checked before stacking
        obj = channel_to_obj(standard_channel("bit_flip", 0.3))
        obj["kraus"][1] = channel_to_obj(random_channel(3, 1, np.random.default_rng(0)))["kraus"][0]
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(obj))
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: channel: Kraus operator shape (3, 3) does not match dim 2")


class TestDuCommand:
    def test_prints_value_and_bounds(self, ad_file, capsys):
        assert main(["du", ad_file]) == 0
        out = capsys.readouterr().out
        assert "du=0.81" in out
        assert "lb1=0.81" in out
        assert "ub=0.9" in out

    def test_json_output(self, ad_file, capsys):
        assert main(["du", ad_file, "--json", "--restarts", "4"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] == pytest.approx(0.81, abs=1e-9)
        assert payload["method"] == "exact_qubit"
        assert payload["sweeps_total"] == 0
        assert payload["lb1"] == pytest.approx(0.81, abs=1e-12)
        assert payload["ub"] == pytest.approx(0.90, abs=1e-12)
        w = np.asarray(payload["witness"])
        assert w.shape == (2, 2, 2)

    def test_invalid_channel_exit_1(self, bad_tp_file):
        assert main(["du", bad_tp_file]) == 1

    def test_json_reports_nonconvergence(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "qutrit.json"
        save_channel(random_channel(3, 2, np.random.default_rng(8)), str(path))
        monkeypatch.setattr(DU_MODULE, "MAX_ITERATIONS", 1)
        assert main(["du", str(path), "--json", "--restarts", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["method"] == "numerical_optimizer"
        assert payload["iterations"] == 1
        assert payload["converged"] is False
        # two warm starts and two restarts, one sweep each
        assert payload["sweeps_total"] == 4

    @pytest.mark.parametrize(
        "obj, named",
        [
            ({"standard": "leaky_bucket", "param": 0.1}, "unknown channel kind 'leaky_bucket'"),
            ({"standard": "bit_flip", "param": 1.5}, "parameter must be in [0, 1], got 1.5"),
        ],
        ids=["unknown-kind", "param-out-of-range"],
    )
    def test_bad_standard_channel_exit_2(self, tmp_path, capsys, obj, named):
        # standard_channel's ValueError is the format error: one line, exit 2
        path = tmp_path / "standard.json"
        path.write_text(json.dumps(obj))
        assert main(["du", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: channel: {named}")
        assert err.count("\n") == 1


class TestBoundsCommand:
    def test_prints_bounds(self, ad_file, capsys):
        assert main(["bounds", ad_file]) == 0
        out = capsys.readouterr().out
        assert "lb1=0.81" in out
        assert "singular values" in out


class TestTable1Command:
    def test_runs_and_writes_csv(self, tmp_path, capsys):
        out_csv = tmp_path / "table1.csv"
        assert main(["table1", "--grid", "5", "--out", str(out_csv)]) == 0
        stdout = capsys.readouterr().out
        assert "overall max deviation" in stdout
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "family,param,du,closed_form,error,method"
        assert len(lines) == 1 + 4 * 5


class TestRandomizedCommands:
    def test_tightness_requires_seed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["tightness", "--samples", "5"])
        assert exc.value.code == 2

    def test_distribution_requires_seed(self):
        with pytest.raises(SystemExit) as exc:
            main(["distribution", "--samples", "5"])
        assert exc.value.code == 2

    def test_tightness_outputs(self, tmp_path, capsys):
        out_csv = tmp_path / "tight.csv"
        code = main(["tightness", "--samples", "8", "--seed", "5", "--out", str(out_csv)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "seed=5" in stdout
        assert out_csv.exists()
        by_ub = tmp_path / "tight_by_ub.csv"
        assert by_ub.exists()
        assert out_csv.read_text().splitlines()[0] == "du,lb1,lb2,lb1_err,lb2_err,ub,seed"

    def test_distribution_outputs(self, tmp_path, capsys):
        out_csv = tmp_path / "dist.csv"
        code = main([
            "distribution", "--samples", "40", "--env-dims", "2,4",
            "--seed", "9", "--out", str(out_csv),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "seed=9" in stdout
        for d in (2, 4):
            path = tmp_path / f"dist_d{d}.csv"
            assert path.exists()
            lines = path.read_text().splitlines()
            assert lines[0].startswith("# mean=")
            assert f"env_dim={d}" in lines[0]
            assert "seed=9" in lines[0]
            assert lines[0].endswith(" du_column=dispatcher")

    def test_distribution_csv_names_the_binned_column(self, tmp_path):
        out_csv = tmp_path / "dist.csv"
        code = main([
            "distribution", "--samples", "20", "--env-dims", "2", "--seed", "9",
            "--du-column", "lb1", "--out", str(out_csv),
        ])
        assert code == 0
        first = (tmp_path / "dist_d2.csv").read_text().splitlines()[0]
        assert first.startswith("# mean=")
        assert first.endswith(" du_column=lb1")

    def test_underfilled_bins_are_listed(self, capsys):
        # at env dim 4 the attempt cap runs out before the low DU bins fill:
        # each bin left below its target of 3 gets one line, in bin order
        argv = ["tightness", "--samples", "40", "--seed", "5", "--stratified", "--env-dim", "4",
                "--attempt-cap", "2000"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        result = run_tightness(40, env_dim=4, seed=5, stratified=True, attempt_cap=2000)
        assert " attempts=2000 records=31 " in lines[0]
        assert result.target_per_bin == 3 and len(result.underfilled) == 5
        edges = result.bin_edges
        assert lines[1:6] == [
            f"# under-filled bin [{edges[b]:.2f}, {edges[b + 1]:.2f}): {count}/3 records"
            for b, count in sorted(result.underfilled.items())
        ]
        assert not lines[6].startswith("#")

    def test_summary_lines_report_counts(self, capsys):
        assert main(["tightness", "--samples", "6", "--seed", "2", "--env-dim", "1"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header.startswith("# tightness ")
        assert header.endswith("records=6 nonconverged=0 exact=6")
        assert main(["distribution", "--samples", "30", "--env-dims", "1,2", "--seed", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].endswith("samples=30 nonconverged=0 exact=30")
        assert lines[2].startswith("env_dim=2: ")
        assert lines[2].endswith("samples=30 nonconverged=0 exact=0")


def _readme_synopsis() -> dict[str, str]:
    """The README's CLI block, one entry per subcommand with its continuation lines."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    synopsis = {}
    for line in block.splitlines():
        if line.startswith("unitarity "):
            command = line.split()[1]
            synopsis[command] = line
        else:
            synopsis[command] += " " + line.strip()
    return synopsis


def test_readme_synopsis_lists_every_long_option():
    (commands,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    synopsis = _readme_synopsis()
    assert synopsis.keys() == commands.choices.keys()
    for command, parser in commands.choices.items():
        options = {
            s for a in parser._actions for s in a.option_strings
            if s.startswith("--") and s != "--help"
        }
        assert set(re.findall(r"--[a-z][\w-]*", synopsis[command])) == options, command


class TestArgumentRanges:
    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["table1", "--grid", "0"], "--grid"),
            (["tightness", "--samples", "0", "--seed", "1"], "--samples"),
            (["distribution", "--samples", "0", "--seed", "1"], "--samples"),
            (["tightness", "--samples", "5", "--seed", "1", "--env-dim", "0"], "--env-dim"),
            (["tightness", "--samples", "5", "--seed", "1", "--stratified",
              "--attempt-cap", "0"], "--attempt-cap"),
            (["distribution", "--samples", "5", "--seed", "1", "--bins", "0"], "--bins"),
            (["distribution", "--samples", "5", "--seed", "1", "--env-dims", "2,0"],
             "--env-dims"),
            (["du", "channel.json", "--restarts", "-1"], "--restarts"),
            (["tightness", "--samples", "3", "--seed", "-1"], "--seed"),
            (["distribution", "--samples", "3", "--seed", "-1"], "--seed"),
        ],
        ids=["grid", "tightness-samples", "distribution-samples", "env-dim",
             "attempt-cap", "bins", "env-dims", "du-restarts", "tightness-seed",
             "distribution-seed"],
    )
    def test_out_of_range_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: unitarity")
        assert f"argument {flag}: value must be >=" in err

    @pytest.mark.parametrize("env_dims", [",", ""], ids=["comma", "empty"])
    def test_empty_env_dims_is_a_usage_error(self, env_dims, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["distribution", "--samples", "3", "--seed", "1", "--env-dims", env_dims])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: unitarity")
        assert "argument --env-dims: expected at least one dimension" in err

    @pytest.mark.parametrize("env_dims", ["2,,4", "2,"], ids=["inner", "trailing"])
    def test_empty_env_dims_entry_is_a_usage_error(self, env_dims, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["distribution", "--samples", "3", "--seed", "1", "--env-dims", env_dims])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: unitarity")
        assert f"argument --env-dims: expected no empty entries, got {env_dims}" in err

    def test_repeated_env_dim_is_a_usage_error(self, tmp_path, capsys):
        # --out writes one file per dimension, so a repeat would overwrite one
        out = tmp_path / "dd.csv"
        with pytest.raises(SystemExit) as exc:
            main(["distribution", "--samples", "3", "--seed", "1", "--env-dims", "2,4,2",
                  "--out", str(out)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: unitarity")
        assert "argument --env-dims: expected distinct dimensions, got 2,4,2" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["validate", "channel.json", "--tol", "-1"], "--tol"),
            (["validate", "channel.json", "--tol", "0"], "--tol"),
            (["validate", "channel.json", "--tol", "nan"], "--tol"),
            (["validate", "channel.json", "--tol", "inf"], "--tol"),
            (["witness", "traj.json", "--threshold", "-5"], "--threshold"),
            (["witness", "traj.json", "--threshold", "nan"], "--threshold"),
            (["witness", "traj.json", "--threshold", "inf"], "--threshold"),
        ],
        ids=["tol-negative", "tol-zero", "tol-nan", "tol-inf", "threshold-negative",
             "threshold-nan", "threshold-inf"],
    )
    def test_float_out_of_range_is_a_usage_error(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: unitarity")
        assert f"argument {flag}: value must be a finite number" in err

    def test_lower_limits_accepted(self, ad_file, capsys):
        assert main(["du", ad_file, "--restarts", "0"]) == 0
        assert main(["table1", "--grid", "1"]) == 0
        assert main(["tightness", "--samples", "1", "--seed", "0"]) == 0
        assert main(["distribution", "--samples", "1", "--seed", "1", "--env-dims", "1",
                     "--bins", "1"]) == 0
        assert main(["validate", ad_file, "--tol", "1e-3"]) == 0


# Every numeric flag, as (argv with "{}" where the value goes, the library
# rule's bound: an int's lowest value, or a float's bound and whether it is
# strict). The value is joined to its flag by "=", as argparse would read
# "-5e-324" on its own as an option.
_TIGHT = ["tightness", "--samples", "1", "--seed", "0"]
_DIST = ["distribution", "--samples", "1", "--seed", "0"]
NUMERIC_FLAGS = {
    "grid": (["table1", "--grid={}"], (1,)),
    "tightness-samples": (["tightness", "--samples={}", "--seed", "0"], (1,)),
    "tightness-seed": (["tightness", "--samples", "1", "--seed={}"], (0,)),
    "env-dim": (_TIGHT + ["--env-dim={}"], (1,)),
    "attempt-cap": (_TIGHT + ["--attempt-cap={}"], (1,)),
    "distribution-samples": (["distribution", "--samples={}", "--seed", "0"], (1,)),
    "distribution-seed": (["distribution", "--samples", "1", "--seed={}"], (0,)),
    "bins": (_DIST + ["--bins={}"], (1,)),
    "env-dims-first": (_DIST + ["--env-dims={},2"], (1,)),
    "env-dims-last": (_DIST + ["--env-dims=2,{}"], (1,)),
    "restarts": (["du", "channel.json", "--restarts={}"], (0,)),
    "tol": (["validate", "channel.json", "--tol={}"], (0.0, True)),
    "threshold": (["witness", "traj.json", "--threshold={}"], (0.0, False)),
}


def _flag_cases():
    """(argv template, bound, value text, whether it parses) for every numeric
    flag: an int just below and at its bound; a float's smallest rejected and
    accepted values around its bound, and nan, inf and 1e400 (inf once parsed)."""
    for name, (template, bound) in NUMERIC_FLAGS.items():
        if len(bound) == 1:
            texts = [(str(bound[0] - 1), False), (str(bound[0]), True)]
        else:  # the smallest subnormal either side of 0
            texts = [("0", not bound[1]), ("-5e-324", False), ("5e-324", True),
                     ("nan", False), ("inf", False), ("1e400", False)]
        for text, ok in texts:
            yield pytest.param(template, bound, text, ok, id=f"{name}-{text}")


class TestOneCopyOfEachRange:
    """The CLI holds every numeric flag to the library's own rule, under the
    name "value": a usage error reads ``argument FLAG: `` and then exactly
    what ``_require_at_least`` or ``_require_real`` raises."""

    @pytest.mark.parametrize("template, bound, text, ok", _flag_cases())
    def test_flag_applies_the_library_rule(self, template, bound, text, ok, capsys):
        argv = [arg.format(text) for arg in template]
        flag = next(arg for arg in template if "{}" in arg).split("=")[0]
        dest = flag[2:].replace("-", "_")
        if len(bound) == 1:
            value, rule = int(text), _require_at_least
        else:
            value, rule = float(text), _require_real
        if ok:
            parsed = getattr(build_parser().parse_args(argv), dest)
            assert value in parsed if dest == "env_dims" else parsed == value
            return
        with pytest.raises(ValueError) as raised:
            rule("value", value, *bound)
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[0].startswith("usage: unitarity")
        assert err[-1].endswith(f": error: argument {flag}: {raised.value}")

    @pytest.mark.parametrize("argv, message", [
        (["tightness", "--samples", "x", "--seed", "1"], "argument --samples: invalid int value: 'x'"),
        (["validate", "c.json", "--tol", "abc"], "argument --tol: invalid float value: 'abc'"),
        (["distribution", "--samples", "1", "--seed", "1", "--env-dims", "2,x"],
         "argument --env-dims: invalid int value: 'x'"),
    ])
    def test_non_number_names_the_type_and_the_entry(self, argv, message, capsys):
        # an --env-dims entry is read as each integer flag is, so its message
        # names the entry, not the whole list or a private parser
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f": error: {message}")

    @pytest.mark.parametrize("command, flag, text, message", [
        ("validate", "--tol", "-1e-3", "value must be a finite number > 0, got -0.001"),
        ("witness", "--threshold", "-5e-324", "value must be a finite number >= 0, got -5e-324"),
    ])
    def test_negative_exponent_needs_the_equals_form(self, command, flag, text, message, capsys):
        # argparse (3.12 and earlier) reads "-1e-3" after a space as an option,
        # not a value; joined by "=" the value reaches the range rule
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "f.json", f"{flag}={text}"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(f": error: argument {flag}: {message}")
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, "f.json", flag, text])
        assert exc.value.code == 2
        assert f"error: argument {flag}: " in capsys.readouterr().err


class TestRemovedRestarts:
    @pytest.mark.parametrize("command", ["tightness", "distribution"])
    def test_restarts_is_a_usage_error(self, command, capsys):
        # the samplers draw qubit channels, which take an exact route, so
        # only ``du`` has an ascent for --restarts to feed
        with pytest.raises(SystemExit) as exc:
            main([command, "--samples", "3", "--seed", "1", "--restarts", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: unitarity")
        assert "unrecognized arguments: --restarts 2" in err

    def test_tightness_writes_nothing_to_stderr(self, capsys):
        assert main(["tightness", "--samples", "3", "--seed", "1"]) == 0
        assert capsys.readouterr().err == ""


class TestWitnessCommand:
    def test_flags_recovery(self, tmp_path, capsys):
        traj = {
            "dim": 2,
            "times": [0.0, 1.0, 2.0],
            "channels": [
                {"standard": "amplitude_damping", "param": 0.0},
                {"standard": "amplitude_damping", "param": 0.5},
                {"standard": "amplitude_damping", "param": 0.2},
            ],
        }
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(traj))
        assert main(["witness", str(path)]) == 0
        out = capsys.readouterr().out
        assert "non-Markovian" in out

    def test_monotone_inconclusive(self, tmp_path, capsys):
        traj = {
            "dim": 2,
            "times": [0.0, 1.0],
            "channels": [
                {"standard": "amplitude_damping", "param": 0.1},
                {"standard": "amplitude_damping", "param": 0.6},
            ],
        }
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(traj))
        assert main(["witness", str(path)]) == 0
        assert "inconclusive" in capsys.readouterr().out

    def test_zero_threshold_accepted(self, tmp_path, capsys):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({
            "dim": 2, "times": [0.0], "channels": [{"standard": "bit_flip", "param": 0.1}],
        }))
        assert main(["witness", str(path), "--threshold", "0"]) == 0
        assert "inconclusive" in capsys.readouterr().out

    def test_non_trace_preserving_channel_exit_1(self, tmp_path, capsys):
        traj = {
            "dim": 2,
            "times": [0.0, 1.0, 2.0],
            "channels": [
                {"standard": "amplitude_damping", "param": 0.0},
                {"dim": 2, "kraus": [[[[0.9, 0], [0, 0]], [[0, 0], [0.9, 0]]]]},
                {"standard": "amplitude_damping", "param": 0.2},
            ],
        }
        path = tmp_path / "traj.json"
        path.write_text(json.dumps(traj))
        assert main(["witness", str(path)]) == 1
        assert "not trace preserving" in capsys.readouterr().err

    def test_time_mismatch_exit_2(self, tmp_path):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"dim": 2, "times": [0.0], "channels": []}))
        assert main(["witness", str(path)]) == 2

    @pytest.mark.parametrize(
        "times, channels, message",
        [
            ([1.0, 0.0], [{"standard": "bit_flip", "param": 0.1}] * 2, "strictly ascending"),
            ([], [], "at least one time point"),
            ([0.0], 5, "'channels' must be a list"),
            ([0.0, math.nan], [{"standard": "bit_flip", "param": 0.1}] * 2, "finite"),
            ("01", [{"standard": "bit_flip", "param": 0.1}] * 2, "'times' must be an array"),
            ([0.0, "1"], [{"standard": "bit_flip", "param": 0.1}] * 2,
             "times must be a finite number, got '1'"),
            ([False, True], [{"standard": "bit_flip", "param": 0.1}] * 2,
             "times must be a finite number, got False"),
            ([0, 10**400], [{"standard": "bit_flip", "param": 0.1}] * 2,
             f"times must be a finite number, got {10**400}"),
        ],
        ids=["descending-times", "no-time-points", "channels-not-a-list", "nan-time",
             "times-string", "string-time", "bool-times", "huge-int-time"],
    )
    def test_malformed_trajectory_exit_2(self, tmp_path, capsys, times, channels, message):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({"dim": 2, "times": times, "channels": channels}))
        assert main(["witness", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: trajectory: ")
        assert message in err


class TestStrictNumbers:
    ROWS = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]

    @pytest.mark.parametrize(
        "obj, message",
        [
            ({"standard": "bit_flip", "param": True},
             "channel: parameter must be a real number, got True"),
            ({"standard": "bit_flip", "param": "0.5"},
             "channel: parameter must be a real number, got '0.5'"),
            ({"dim": 2, "kraus": [[[["1", "0"], [0, 0]], ROWS[1]]]}, "kraus[0]: every [re, im]"),
            ({"dim": 2, "kraus": [[[[1, 0], [False, 0]], ROWS[1]]]}, "kraus[0]: every [re, im]"),
            ({"dim": 2, "kraus": [[[[True, 0], [0, 0]], ROWS[1]]]}, "kraus[0]: every [re, im]"),
            ({"standard": "bit_flip", "param": 10**400},
             f"channel: parameter must be in [0, 1], got {10**400}"),
            ({"dim": 2, "kraus": [[[[10**400, 0], [0, 0]], ROWS[1]]]}, "kraus[0]: expected"),
        ],
        ids=["bool-param", "string-param", "string-entry", "mixed-false-entry", "true-entry",
             "huge-int-param", "huge-int-entry"],
    )
    def test_channel_non_number_exit_2(self, tmp_path, capsys, obj, message):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps(obj))
        assert main(["du", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestFormatErrors:
    """Each malformed object is a FormatError with its message."""

    IDENTITY = channel_to_obj(identity_channel(2))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: matrix_from_obj([[1, 0], [0, 1]]),
             "matrix: expected shape (rows, cols, 2), got (2, 2)"),
            (lambda: channel_from_obj([1]), "channel: expected a JSON object, got list"),
            (lambda: channel_from_obj({"dim": 2, "kraus": []}),
             "channel: a channel needs at least one Kraus operator"),
            (lambda: trajectory_from_obj([]), "trajectory: expected a JSON object"),
            (lambda: trajectory_from_obj({"dim": 2, "times": [0]}),
             "trajectory: missing key 'channels'"),
            (lambda: trajectory_from_obj({"dim": 3, "times": [0],
                                          "channels": [TestFormatErrors.IDENTITY]}),
             "trajectory: channel dim 2 != declared dim 3"),
        ],
        ids=["matrix-shape", "channel-not-object", "kraus-empty", "trajectory-not-object",
             "trajectory-missing-key", "trajectory-dim-mismatch"],
    )
    def test_message(self, call, message):
        with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
            call()


class TestNonIntegralDim:
    IDENTITY = [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]

    def test_channel_exit_2(self, tmp_path, capsys):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps({"dim": 2.7, "kraus": self.IDENTITY}))
        assert main(["du", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: channel: 'dim' must be an integer")

    def test_trajectory_exit_2(self, tmp_path, capsys):
        path = tmp_path / "traj.json"
        path.write_text(json.dumps({
            "dim": 2.7, "times": [0.0], "channels": [{"dim": 2, "kraus": self.IDENTITY}],
        }))
        assert main(["witness", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: trajectory: 'dim' must be an integer")

    def test_integral_number_accepted(self, tmp_path, capsys):
        path = tmp_path / "chan.json"
        path.write_text(json.dumps({"dim": 2.0, "kraus": self.IDENTITY}))
        assert main(["du", str(path)]) == 0
        assert capsys.readouterr().out.startswith("du=1 ")


class TestUnreadableJson:
    """A file that is not UTF-8, or JSON nested past the parser's recursion
    limit, is a format error: one error line naming the file, exit 2."""

    @pytest.mark.parametrize("command", ["du", "witness"])
    def test_not_utf8_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_bytes(b'\xff\xfe{"dim": 2}')
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: not UTF-8 text at byte 0: invalid start byte\n"

    @pytest.mark.parametrize("command", ["du", "witness"])
    def test_deep_nesting_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}: invalid JSON: nested too deeply to parse\n"


class TestChannelJsonRoundTrip:
    def test_explicit_kraus_round_trip(self, tmp_path):
        ch = standard_channel("depolarizing", 0.37)
        path = tmp_path / "chan.json"
        save_channel(ch, str(path))
        back = load_channel(str(path))
        assert back.dim == 2
        for a, b in zip(ch.kraus, back.kraus):
            assert np.allclose(a, b)

    def test_complex_entries_survive(self, tmp_path):
        ch = standard_channel("depolarizing", 0.5)
        path = tmp_path / "chan.json"
        save_channel(ch, str(path))
        raw = json.loads(path.read_text())
        # the Y operator carries nonzero imaginary parts as [re, im] pairs
        ims = [
            pair[1]
            for op in raw["kraus"]
            for row in op
            for pair in row
        ]
        assert any(abs(v) > 0 for v in ims)
