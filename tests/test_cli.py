"""CLI: argument parsing and end-to-end subcommands.

Every subcommand now prints exactly one JSON envelope on stdout (human
text goes to stderr), so these tests parse stdout instead of grepping
it.  The envelope schema itself is covered by ``test_json_contract``.
"""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import build_parser, main, parse_duration
from repro.units import DAY, HOUR, MINUTE, WEEK, YEAR


def _envelope(capsys):
    """Parse the single JSON envelope a subcommand printed."""
    captured = capsys.readouterr()
    return json.loads(captured.out), captured.err


class TestParseDuration:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("600", 600.0),
            ("600s", 600.0),
            ("5m", 5 * MINUTE),
            ("1.5h", 1.5 * HOUR),
            ("20d", 20 * DAY),
            ("2w", 2 * WEEK),
            ("125y", 125 * YEAR),
            (" 1d ", DAY),
        ],
    )
    def test_valid(self, text, expected):
        assert parse_duration(text) == pytest.approx(expected)

    @pytest.mark.parametrize("text", ["", "abc", "-5d", "0", "1q"])
    def test_invalid(self, text):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_duration(text)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_defaults(self):
        args = build_parser().parse_args(["plan"])
        assert args.mtbf == DAY
        assert args.work == 20 * DAY

    def test_run_flags_default_to_none(self):
        # spec-based subcommands must distinguish "flag given" from
        # "default" so --spec files are not clobbered by defaults
        args = build_parser().parse_args(["run"])
        assert args.mtbf is None
        assert args.work is None
        assert args.policies is None

    def test_experiment_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])


class TestEndToEnd:
    def test_plan(self, capsys):
        assert main(["plan", "--mtbf", "1d", "--work", "20d"]) == 0
        env, _ = _envelope(capsys)
        assert env["ok"] is True
        assert env["data"]["num_chunks"] == 177

    def test_mtbf(self, capsys):
        assert main(["mtbf", "--p", "1024"]) == 0
        env, err = _envelope(capsys)
        data = env["data"]
        assert data["platform_mtbf_single_rejuvenation"] > \
            data["platform_mtbf_all_rejuvenation"]
        assert "single-rejuvenation" in err

    def test_simulate_periodic(self, capsys):
        rc = main(
            [
                "simulate",
                "--policy",
                "period:2h",
                "--traces",
                "2",
                "--work",
                "2d",
                "--mtbf",
                "1d",
                "--dist",
                "exponential",
            ]
        )
        assert rc == 0
        env, err = _envelope(capsys)
        assert env["data"]["summary"]["n_traces"] == 2
        assert len(env["data"]["traces"]) == 2
        assert "mean makespan" in err

    def test_simulate_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(["simulate", "--policy", "nope"])

    @pytest.mark.parametrize("flag", ["-j", "--jobs"])
    def test_simulate_rejects_jobs(self, flag, capsys):
        """``simulate`` runs a serial loop: ``--jobs`` would be ignored,
        so it is a usage error; ``--no-disk-cache`` still parses."""
        with pytest.raises(SystemExit) as exc:
            main(["simulate", flag, "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""
        args = build_parser().parse_args(["simulate", "--no-disk-cache"])
        assert args.no_disk_cache and not hasattr(args, "jobs")

    def test_experiment_fig1_chart(self, capsys):
        assert main(["experiment", "fig1", "--chart"]) == 0
        env, err = _envelope(capsys)
        assert "with rejuvenation" in env["data"]["series"]
        assert "with rejuvenation" in err

    def test_experiment_table4_smoke(self, capsys):
        assert main(["experiment", "table4", "--scale", "smoke"]) == 0
        env, err = _envelope(capsys)
        assert "DPNextFailure" in env["data"]["table"]
        assert "DPNextFailure" in err


class TestScenarioSubcommands:
    _ARGS = ["--work", "2h", "--mtbf", "4h", "--traces", "2",
             "--policies", "young,dalylow"]

    def test_run(self, capsys):
        assert main(["run", *self._ARGS]) == 0
        env, _ = _envelope(capsys)
        data = env["data"]
        assert len(data["signature"]) == 40
        assert set(data["result"]["makespans"]) == {
            "Young", "DalyLow", "LowerBound"
        }
        assert data["spec"]["policies"] == ["young", "dalylow"]

    def test_run_signature_stable_across_spellings(self, capsys):
        # period:2h and period:7200 canonicalize to one signature
        assert main(["run", "--work", "2h", "--mtbf", "4h", "--traces", "1",
                     "--policies", "period:2h"]) == 0
        sig_a = _envelope(capsys)[0]["data"]["signature"]
        assert main(["run", "--work", "2h", "--mtbf", "4h", "--traces", "1",
                     "--policies", "period:7200"]) == 0
        sig_b = _envelope(capsys)[0]["data"]["signature"]
        assert sig_a == sig_b

    def test_run_spec_file_with_overrides(self, capsys, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "work": 7200.0, "mtbf": 14400.0, "n_traces": 2,
            "policies": ["young"],
        }))
        assert main(["run", "--spec", str(spec),
                     "--override", "n_traces=1"]) == 0
        env, _ = _envelope(capsys)
        assert env["data"]["spec"]["n_traces"] == 1
        assert env["data"]["spec"]["work"] == 7200.0

    def test_run_bad_spec_is_error_envelope(self, capsys):
        assert main(["run", "--override", "mtbf=-1"]) == 2
        env, _ = _envelope(capsys)
        assert env["ok"] is False
        assert env["error"]["type"] == "SpecError"

    def test_compare(self, capsys):
        assert main(["compare", *self._ARGS]) == 0
        env, err = _envelope(capsys)
        data = env["data"]
        assert data["best"] in ("Young", "DalyLow")
        assert set(data["policies"]) == {"Young", "DalyLow", "LowerBound"}
        for entry in data["policies"].values():
            assert "mean_makespan" in entry
            assert "degradation" in entry
        assert "degradation from best" in err

    def test_benchmark(self, capsys):
        assert main(["benchmark", *self._ARGS]) == 0
        env, _ = _envelope(capsys)
        assert env["data"]["cold_seconds"] >= 0
        assert env["data"]["warm_seconds"] >= 0
