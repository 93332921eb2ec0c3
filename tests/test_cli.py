"""Tests for the command-line interface."""

from __future__ import annotations

import pathlib

import pytest

from repro.cli import build_parser, main
from repro.engine.filter_plane import kernel_enabled
from repro.experiments import EXPERIMENTS
from repro.prefetchers.registry import PREFETCHERS


class TestParser:
    def test_experiment_choices_match_registry(self):
        parser = build_parser()
        args = parser.parse_args(["run", "table1"])
        assert args.experiment == "table1"
        for name in EXPERIMENTS:
            parser.parse_args(["run", name])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "figure99"])

    def test_simulate_choices(self):
        parser = build_parser()
        args = parser.parse_args(["simulate", "pointer_chase", "ebcp"])
        assert args.workload == "pointer_chase"
        assert args.prefetcher == "ebcp"
        assert "ebcp" in PREFETCHERS

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_experiments_listing(self, capsys):
        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_workloads_summary(self, capsys):
        assert main(["workloads", "--records", "20000"]) == 0
        out = capsys.readouterr().out
        assert "database" in out and "tpcw" in out

    def test_simulate_baseline(self, capsys):
        assert main(["simulate", "pointer_chase", "none", "--records", "8000"]) == 0
        out = capsys.readouterr().out
        assert "cpi" in out

    def test_simulate_with_prefetcher(self, capsys):
        assert main(["simulate", "pointer_chase", "ebcp", "--records", "8000"]) == 0
        out = capsys.readouterr().out
        assert "improvement" in out

    def test_run_experiment_small(self, capsys):
        assert main(["run", "table1", "--records", "30000"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out and "database" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--timeout", "0"],
            ["--timeout", "-5"],
            ["--retries", "-1"],
            ["--backoff", "-1"],
        ],
        ids=["timeout_zero", "timeout_negative", "retries_negative", "backoff_negative"],
    )
    def test_bad_execution_policy_flags_are_usage_errors(self, flags, capsys):
        """A policy the executor would refuse is refused by the parser."""
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "tpcw", "none", "--records", "2000", *flags])
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err


class TestTraceCommand:
    def test_trace_produces_valid_outputs(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        manifest_path = tmp_path / "manifest.json"
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "trace", "pointer_chase", "ebcp",
                    "--records", "6000",
                    "--out", str(out),
                    "--jsonl", str(jsonl),
                    "--manifest", str(manifest_path),
                    "--metrics-out", str(metrics_path),
                ]
            )
            == 0
        )
        import json

        doc = json.loads(out.read_text())
        assert isinstance(doc["traceEvents"], list) and doc["traceEvents"]

        manifest = json.loads(manifest_path.read_text())
        closes = sum(
            1 for line in jsonl.read_text().splitlines()
            if json.loads(line)["event"] == "EpochClosed"
        )
        # The headline invariant: the JSONL EpochClosed count equals the
        # stats' epoch count for the same run.
        assert closes == manifest["result"]["epochs"] > 0
        assert manifest["event_counts"]["EpochClosed"] == closes

        metrics = json.loads(metrics_path.read_text())
        assert metrics["epochs_closed"]["value"] == closes

    def test_trace_chrome_only(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        assert main(["trace", "pointer_chase", "none", "--records", "4000",
                     "--out", str(out)]) == 0
        assert out.exists()
        assert "perfetto" in capsys.readouterr().out

    def test_trace_rejects_execution_flags(self, tmp_path, capsys):
        """A single observed run has no jobs to fan out, retry or store."""
        with pytest.raises(SystemExit) as exc:
            main(["trace", "pointer_chase", "none", "--records", "2000",
                  "--out", str(tmp_path / "trace.json"),
                  "--checkpoint-dir", str(tmp_path / "ck")])
        assert exc.value.code == 2
        assert not (tmp_path / "ck").exists()

    def test_simulate_metrics_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "metrics.json"
        assert main(["simulate", "pointer_chase", "ebcp", "--records", "6000",
                     "--metrics-out", str(path)]) == 0
        metrics = json.loads(path.read_text())
        assert metrics["epochs_closed"]["value"] > 0
        assert metrics["epoch_misses"]["type"] == "histogram"
        # The run feeds the registry itself, so EBCP keeps the kernel
        # (REPRO_KERNEL=off still falls back, as "disabled").
        assert "kernel_fallbacks.bus_attached" not in metrics
        if kernel_enabled():
            assert metrics["kernel_fallbacks"]["value"] == 0
        else:
            assert metrics["kernel_fallbacks.disabled"]["value"] == 1

    def test_run_metrics_out(self, tmp_path, capsys):
        import json

        path = tmp_path / "table1.json"
        assert main(["run", "table1", "--records", "20000",
                     "--metrics-out", str(path)]) == 0
        payload = json.loads(path.read_text())
        assert payload["kind"] == "table"
        assert payload["records"] == 20000

    def test_verbosity_flags_parse(self):
        args = build_parser().parse_args(["-vv", "experiments"])
        assert args.verbose == 2
        args = build_parser().parse_args(["-q", "experiments"])
        assert args.quiet == 1


class TestVersionFlag:
    def test_version_flag_prints_package_version(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_version_matches_pyproject(self):
        """One version, declared twice — keep the copies in lock step."""
        import re
        from pathlib import Path

        from repro import __version__

        # No tomllib on 3.9, so read the pin with a targeted regex.
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        match = re.search(
            r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.MULTILINE
        )
        assert match is not None, "pyproject.toml lost its version pin"
        assert match.group(1) == __version__


class TestServeCallParser:
    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--queue-size", "16", "--max-batch", "4",
             "--batch-window-ms", "2.5", "-j", "2"]
        )
        assert args.port == 0
        assert args.queue_size == 16
        assert args.max_batch == 4
        assert args.batch_window_ms == 2.5

    @pytest.mark.parametrize("flag", ["--queue-size", "--max-batch"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_serve_queue_flags_must_be_positive(self, flag, value, capsys):
        """A zero queue is unbounded to asyncio, so it is a usage error."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_call_simulate_requires_workload(self, capsys):
        assert main(["call"]) == 2

    def test_call_admin_flags_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["call", "--ping", "--stats"])

    def test_call_timeout_must_be_positive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["call", "--ping", "--timeout", "0"])
        assert exc.value.code == 2
        assert "--timeout" in capsys.readouterr().err

    def test_call_refused_connection_reports_error(self, capsys):
        # Port 1 is never listening; the client should fail cleanly.
        assert main(["call", "--ping", "--port", "1", "--retries", "0",
                     "--timeout", "2"]) == 1
        assert "cannot reach service" in capsys.readouterr().err


class TestSweepCommand:
    SPEC_DIR = pathlib.Path(__file__).resolve().parents[1] / "specs"
    SPEC = str(SPEC_DIR / "smoke.toml")

    def test_validate_committed_specs(self, capsys):
        specs = sorted(str(p) for p in self.SPEC_DIR.glob("*.toml"))
        assert specs, "committed spec files are missing"
        assert main(["sweep", "validate", *specs]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == len(specs)

    def test_validate_prints_plan(self, capsys):
        assert main(["sweep", "validate", self.SPEC, "--print-plan"]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out and "candidate" in out

    def test_validate_rejects_bad_spec(self, tmp_path, capsys):
        bad = tmp_path / "bad.toml"
        bad.write_text('version = 1\nname = "x"\nworkloads = ["nope"]\n')
        assert main(["sweep", "validate", str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_sweep_run_writes_summary(self, tmp_path, capsys):
        import json

        out_path = tmp_path / "sweep.json"
        spec = tmp_path / "tiny.toml"
        spec.write_text(
            "version = 1\n"
            'name = "tiny"\n'
            'workloads = ["pointer_chase"]\n'
            "[grid]\n"
            "records = 8000\n"
            "seeds = [7]\n"
            "[[prefetchers]]\n"
            'name = "ebcp"\n'
        )
        assert main(["sweep", "run", str(spec), "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "2 jobs" in out and "improvement" in out
        summary = json.loads(out_path.read_text())
        assert summary["name"] == "tiny"
        assert len(summary["points"]) == 2

    def test_sweep_submit_refused_connection(self, capsys):
        assert main(["sweep", "submit", self.SPEC, "--port", "1",
                     "--retries", "0", "--timeout", "2"]) == 1
        assert "cannot reach service" in capsys.readouterr().err

    def test_sweep_requires_verb(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])
