"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.core.cfp_growth import DEFAULT_CACHE_BUDGET
from repro.datasets.fimi import write_fimi


@pytest.fixture
def data_file(tmp_path):
    path = tmp_path / "data.fimi"
    write_fimi(
        path,
        [[1, 2, 3], [1, 2], [2, 3], [1, 2, 3], [2]],
    )
    return str(path)


class TestMine:
    def test_basic(self, data_file, capsys):
        assert main(["mine", data_file, "--min-support", "3"]) == 0
        out = capsys.readouterr().out
        lines = [line for line in out.splitlines() if line]
        assert any(line.startswith("5\t2") for line in lines)  # item 2 x5

    def test_algorithm_choice(self, data_file, capsys):
        assert main(
            ["mine", data_file, "--min-support", "3", "--algorithm", "lcm"]
        ) == 0
        default = capsys.readouterr().out
        assert main(["mine", data_file, "--min-support", "3"]) == 0
        assert sorted(capsys.readouterr().out.splitlines()) == sorted(
            default.splitlines()
        )

    def test_closed(self, data_file, capsys):
        assert main(["mine", data_file, "--min-support", "2", "--closed"]) == 0
        closed = len(capsys.readouterr().out.splitlines())
        assert main(["mine", data_file, "--min-support", "2"]) == 0
        frequent = len(capsys.readouterr().out.splitlines())
        assert closed <= frequent

    def test_maximal(self, data_file, capsys):
        assert main(["mine", data_file, "--min-support", "2", "--maximal"]) == 0
        out = capsys.readouterr().out
        assert "1 2 3" in out

    def test_top_k(self, data_file, capsys):
        assert main(["mine", data_file, "--top-k", "2"]) == 0
        out = capsys.readouterr().out
        assert len(out.splitlines()) == 2

    def test_limit(self, data_file, capsys):
        assert main(["mine", data_file, "--min-support", "2", "--limit", "1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1

    def test_missing_file(self, capsys):
        assert main(["mine", "/nonexistent.fimi"]) == 1
        assert "error" in capsys.readouterr().err


class TestStats:
    def test_stats(self, data_file, capsys):
        assert main(["stats", data_file]) == 0
        out = capsys.readouterr().out
        assert "transactions:     5" in out
        assert "distinct items:   3" in out


class TestConvert:
    def test_text_to_binary_and_back(self, data_file, tmp_path, capsys):
        binary = str(tmp_path / "data.bin")
        assert main(["convert", data_file, binary]) == 0
        text2 = str(tmp_path / "back.fimi")
        assert main(["convert", binary, text2]) == 0
        capsys.readouterr()  # drain the convert messages
        # Mining the roundtripped file gives identical output.
        assert main(["mine", data_file, "--min-support", "2"]) == 0
        original = capsys.readouterr().out
        assert main(["mine", text2, "--min-support", "2"]) == 0
        assert capsys.readouterr().out == original

    def test_binary_is_smaller(self, data_file, tmp_path, capsys):
        import os

        binary = str(tmp_path / "data.bin")
        assert main(["convert", data_file, binary]) == 0
        assert os.path.getsize(binary) < os.path.getsize(data_file) + 20


class TestServe:
    def test_cache_budget_defaults_to_the_library_default(self):
        # Stores opened from the CLI cache the same working set as
        # ServingStore and FollowingStore do by default.
        args = build_parser().parse_args(["serve", "store.cfpa"])
        assert args.cache_budget == DEFAULT_CACHE_BUDGET


class TestExperiment:
    def test_runs_table3(self, capsys):
        assert main(["experiment", "table3"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "nope"])


class TestJobs:
    def test_parallel_mine_matches_serial(self, data_file, capsys):
        assert main(["mine", data_file, "--min-support", "2"]) == 0
        serial = capsys.readouterr().out
        assert main(["mine", data_file, "--min-support", "2", "--jobs", "3"]) == 0
        assert capsys.readouterr().out == serial

    def test_jobs_warns_for_serial_only_miner(self, data_file, capsys):
        assert main(
            ["mine", data_file, "--min-support", "2", "--algorithm", "lcm",
             "--jobs", "4"]
        ) == 0
        assert "--jobs ignored" in capsys.readouterr().err


class TestTrace:
    @pytest.fixture(autouse=True)
    def _clean_obs(self):
        from repro import obs

        obs.set_tracer(None)
        obs.metrics.reset()
        yield
        obs.set_tracer(None)
        obs.metrics.reset()

    def _validator(self):
        import importlib.util
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parent.parent
        spec = importlib.util.spec_from_file_location(
            "check_trace", root / "tools" / "check_trace.py"
        )
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module
        spec.loader.exec_module(module)
        return module

    def test_mine_trace_writes_valid_file(self, data_file, tmp_path, capsys):
        trace = tmp_path / "mine.jsonl"
        assert main(
            ["mine", data_file, "--min-support", "2", "--trace", str(trace)]
        ) == 0
        captured = capsys.readouterr()
        assert "trace" in captured.err
        assert self._validator().validate_trace(trace) == []

    def test_mine_trace_restores_tracer(self, data_file, tmp_path, capsys):
        from repro import obs

        trace = tmp_path / "mine.jsonl"
        assert main(
            ["mine", data_file, "--min-support", "2", "--trace", str(trace)]
        ) == 0
        assert obs.get_tracer() is None

    def test_stats_renders_trace_file(self, data_file, tmp_path, capsys):
        trace = tmp_path / "mine.jsonl"
        assert main(
            ["mine", data_file, "--min-support", "2", "--trace", str(trace)]
        ) == 0
        capsys.readouterr()
        assert main(["stats", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace v1" in out
        assert "meter totals" in out

    def test_parallel_trace_merges_worker_spans(
        self, data_file, tmp_path, monkeypatch
    ):
        from repro.obs.report import read_trace

        # The fixture database is tiny; disable the small-array serial
        # fallback so --jobs 2 actually fans out.
        monkeypatch.setenv("REPRO_PARALLEL_MIN_BYTES", "0")
        trace = tmp_path / "par.jsonl"
        assert main(
            ["mine", data_file, "--min-support", "2", "--jobs", "2",
             "--trace", str(trace)]
        ) == 0
        spans = read_trace(trace).spans
        names = {s["name"] for s in spans}
        assert "mine_parallel" in names
        workers = [
            s["worker"] for s in spans
            if s["name"] == "mine_rank" and s.get("worker") is not None
        ]
        assert workers, "expected worker-tagged mine_rank spans"

    def test_trace_output_matches_untraced(self, data_file, tmp_path, capsys):
        assert main(["mine", data_file, "--min-support", "2"]) == 0
        plain = capsys.readouterr().out
        trace = tmp_path / "mine.jsonl"
        assert main(
            ["mine", data_file, "--min-support", "2", "--trace", str(trace)]
        ) == 0
        assert capsys.readouterr().out == plain
