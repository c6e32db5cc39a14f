"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "wide_deep" in out and "fig11" in out

    def test_info(self, capsys):
        assert main(["info", "siamese", "--tiny"]) == 0
        out = capsys.readouterr().out
        assert "phases:" in out and "params:" in out

    def test_print(self, capsys):
        assert main(["print", "siamese", "--tiny"]) == 0
        out = capsys.readouterr().out
        assert "fn siamese(" in out and "lstm" in out

    def test_optimize_tiny(self, capsys):
        assert main(["optimize", "siamese", "--tiny", "--runs", "50"]) == 0
        out = capsys.readouterr().out
        assert "DUET latency" in out and "P99" in out

    def test_optimize_full_wide_deep(self, capsys):
        assert main(["optimize", "wide_deep"]) == 0
        out = capsys.readouterr().out
        assert "fallback:         none" in out

    def test_bench_table1(self, capsys):
        assert main(["bench", "table1"]) == 0
        assert "Wide-and-Deep" in capsys.readouterr().out

    def test_bench_fig13(self, capsys):
        assert main(["bench", "fig13"]) == 0
        assert "Greedy+Correction" in capsys.readouterr().out

    def test_bench_unknown(self, capsys):
        assert main(["bench", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            main(["info", "alexnet"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_tournament_smoke(self, capsys, tmp_path):
        artifact = tmp_path / "league.txt"
        assert main([
            "tournament", "--tiny",
            "--models", "siamese", "xfer_bound",
            "--policies", "dp", "greedy", "round_robin",
            "--output", str(artifact),
        ]) == 0
        out = capsys.readouterr().out
        assert "Scheduler tournament" in out
        assert "league winners" in out
        assert "xfer_bound" in out
        written = artifact.read_text(encoding="utf-8")
        assert "overlap_gain_pct" in written

    def test_tournament_mesh_smoke(self, capsys):
        assert main([
            "tournament", "--tiny",
            "--mesh", "examples/mesh.json",
            "--models", "siamese",
            "--policies", "dp", "round_robin",
        ]) == 0
        out = capsys.readouterr().out
        assert "Scheduler tournament" in out

    def test_tournament_unknown_policy_errors(self, capsys):
        assert main(["tournament", "--tiny", "--models", "siamese",
                     "--policies", "alphazero"]) == 1
        assert "unknown" in capsys.readouterr().err

    def test_chaos_serve_smoke(self, capsys, tmp_path):
        artifact = tmp_path / "chaos.txt"
        assert main([
            "chaos-serve", "--phase-seconds", "0.3",
            "--recovery-threshold", "0.25", "--metrics",
            "--output", str(artifact),
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos-serve phase scoreboard" in out
        assert "recovery throughput" in out
        assert "duet_requests_total" in out
        written = artifact.read_text(encoding="utf-8")
        for phase in ("baseline", "transient", "stall", "outage", "recovery"):
            assert phase in written

    def test_serve_smoke(self, capsys):
        assert main(["serve", "mtdnn", "--tiny", "--requests", "8"]) == 0
        out = capsys.readouterr().out
        assert "serving mtdnn: batching on" in out
        lines = out.splitlines()
        assert re.fullmatch(
            r"8 requests, \d+ clients: \d+ req/s \(0 errors\)", lines[1]
        )
        assert re.fullmatch(
            r"latency p50 [\d.]+ ms  p95 [\d.]+ ms  p99 [\d.]+ ms", lines[2]
        )
        assert re.fullmatch(r"batches executed: [1-8]", lines[3])


class TestCLIProfileCache:
    def test_optimize_with_cache(self, capsys, tmp_path):
        path = tmp_path / "cache.json"
        assert main(["optimize", "siamese", "--tiny",
                     "--profile-cache", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        # Second run reuses the artifact without error.
        assert main(["optimize", "siamese", "--tiny",
                     "--profile-cache", str(path)]) == 0
        out = capsys.readouterr().out
        assert "resident weights" in out


class TestCLIReport:
    def test_report_writes_all_tables(self, capsys, tmp_path, monkeypatch):
        # Shrink the heavy experiments so the report finishes quickly.
        import repro.cli as cli

        slim = {
            "fig13": cli._EXPERIMENTS["fig13"],
            "table3": cli._EXPERIMENTS["table3"],
        }
        monkeypatch.setattr(cli, "_EXPERIMENTS", slim)
        out = tmp_path / "results"
        assert main(["report", "--output", str(out), "--runs", "100"]) == 0
        assert (out / "table1.txt").exists()
        assert (out / "fig13.txt").exists()
        assert (out / "table3.txt").exists()
        assert "Greedy+Correction" in (out / "fig13.txt").read_text()


class TestCLISpec:
    def test_optimize_from_spec(self, capsys, tmp_path):
        import json

        spec = {
            "name": "cli_spec",
            "inputs": [{"name": "x", "shape": [1, 16]}],
            "layers": [
                {"kind": "dense", "units": 8},
                {"kind": "softmax"},
            ],
        }
        path = tmp_path / "model.json"
        path.write_text(json.dumps(spec))
        assert main(["optimize", "--spec", str(path)]) == 0
        out = capsys.readouterr().out
        assert "cli_spec" in out and "DUET latency" in out

    def test_optimize_without_model_or_spec_errors(self, capsys):
        assert main(["optimize"]) == 2
        assert "provide a model name" in capsys.readouterr().err
