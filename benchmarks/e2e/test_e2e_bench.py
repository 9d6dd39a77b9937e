"""Self-test of the end-to-end benchmark at tiny sizes.

Run with ``python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import json
import socketserver
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import datagen  # noqa: E402
import harness  # noqa: E402
import wl_serving  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ["--seconds", "1", "--scale", "0.1"]


def bench(*args: str, tmp: Path) -> tuple[int, dict, list | dict]:
    """Run run.py tiny; returns exit code, last stdout line, --out record(s)."""
    out = tmp / "out.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args, *TINY,
         "--out", str(out), "--trace-dir", str(tmp / "trace")],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert done.stdout, done.stderr
    return done.returncode, json.loads(done.stdout.strip().splitlines()[-1]), json.loads(out.read_text())


@pytest.fixture(scope="module")
def every_workload(tmp_path_factory):
    return bench(tmp=tmp_path_factory.mktemp("all"))


def test_every_workload_reports_the_spec_metrics(every_workload):
    code, line, records = every_workload
    assert code == 0 and line["correct"] and line["failed"] == 0
    assert [r["workload"] for r in records] == [w["name"] for w in SPEC["workloads"]]
    for record in records:
        assert record["attempted"] >= 1
        for entry in SPEC["end_to_end"]:
            metric = record["metrics"][entry["name"]]
            assert metric["unit"] == entry["unit"]
            assert metric["value"] > 0, (record["workload"], entry["name"])
        assert set(record["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
        assert {"cpus_usable", "cpu_count", "loadavg_before", "loadavg_after", "python",
                "kernel_backend", "commit"} <= set(record["machine"])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    code, line, record = bench("--workload", "mine-ooc", "--trace", "1", tmp=tmp_path)
    assert code == 0 and line["correct"]
    assert list(line["metrics"]) == [e["name"] for e in SPEC["per_layer"]]
    assert line["metrics"]["bufferpool.bytes_read"]["value"] > 0
    assert record["self_times"]["pipeline"]["count"] == 1
    assert (tmp_path / "trace" / "mine-ooc-seed1.spans.jsonl").exists()


@pytest.mark.parametrize("workload", ["mine-ooc", "serve-mixed"])
def test_a_corrupted_oracle_fails_the_run(workload, tmp_path):
    code, line, record = bench("--workload", workload, "--corrupt-oracle", tmp=tmp_path)
    assert code != 0
    assert not line["correct"] and line["failed"] >= 1
    assert record["fail_frac"] > 0


class _StallingServer(socketserver.BaseRequestHandler):
    """Answers NDJSON requests in order; the first one takes 200 ms."""

    def handle(self) -> None:
        stream = self.request.makefile("rwb")
        for index, line in enumerate(stream):
            if index == 0:
                time.sleep(0.2)
            request = json.loads(line)
            stream.write(json.dumps({"id": request["id"], "ok": True, "result": 0}).encode() + b"\n")
            stream.flush()


def test_open_loop_latency_counts_from_the_due_time():
    with socketserver.ThreadingTCPServer(("127.0.0.1", 0), _StallingServer) as server:
        threading.Thread(target=server.serve_forever, daemon=True).start()
        requests = wl_serving.schedule([{"op": "support"}] * 10, rate=100.0, connections=1)
        start = wl_serving.open_loop("127.0.0.1", server.server_address[1], requests, grace=5)
        server.shutdown()
    latencies = wl_serving.latencies_ms(requests, start)
    assert len(latencies) == 10
    # Open loop: every request left on time although the first was stuck.
    assert all(r.sent - (start + r.due) < 0.05 for r in requests)
    # Each later request waited behind the stall, counted from when it was due.
    for request, latency in zip(requests, latencies):
        assert latency >= 200 - request.due * 1000 - 5
    assert latencies[1] >= 180


def test_tail_percentile_naming():
    assert harness.tail_percentile(1000) == 99
    assert harness.tail_percentile(5000) == 99
    assert harness.tail_percentile(999) == 98
    assert harness.tail_percentile(100) == 90
    assert harness.tail_percentile(19) is None
    requests = wl_serving.schedule([{"op": "support"}] * 500, rate=1000.0, connections=1)
    for request in requests:
        request.reply = request.due + 0.001
    names = wl_serving.client_stats(requests, 0.0)
    assert "client.query_p98_ms" in names
    assert not any(name.endswith("_p99_ms") for name in names)


def test_same_seed_gives_identical_inputs():
    for shape in datagen.SHAPES.values():
        small = shape.scaled(0.05)
        assert datagen.transactions(small, 7) == datagen.transactions(small, 7)
        assert datagen.transactions(small, 7) != datagen.transactions(small, 8)


def test_compare_verdicts():
    latency = {"name": "latency_ms", "better": "lower", "bound": 0.2}
    parent = [100, 102, 98, 101, 99] * 2
    assert compare.verdict(latency, parent, [101, 99, 100, 102, 98] * 2)["verdict"] == "same"
    assert compare.verdict(latency, parent, [80, 81, 79, 82, 80] * 2)["verdict"] == "gain"
    assert compare.verdict(latency, parent, [130, 131, 129, 128, 132] * 2)["verdict"] == "regression"
    assert compare.verdict(latency, parent, [112, 113, 111, 114, 112] * 2)["verdict"] == "loss"
    noisy = [60, 140, 100, 70, 130] * 2
    assert compare.verdict(latency, noisy, [70, 130, 100, 65, 135] * 2)["verdict"] == "unresolved"

    record = {"metrics": {"latency_ms": {"value": 1.0}}, "fail_frac": 0.0,
              "stale_frac": 0.0, "valid": True, "detail": {"read_amplification": 100.0}}

    def rejected(**change):
        pairs = [{"workload": "w", "parent": record, "change": dict(record, **change)}] * 10
        return compare.rejected(compare.analyse(pairs, [latency]))

    assert not rejected()
    assert rejected(fail_frac=0.1)
    assert rejected(stale_frac=0.01)
    assert rejected(detail={"read_amplification": 103.0})
    assert not rejected(detail={"read_amplification": 101.0})
    assert rejected(valid=False)
    pairs = [{"workload": "w", "parent": record, "change": dict(record, valid=False)}] * 10
    assert compare.analyse(pairs, [latency])["w"]["latency_ms"]["verdict"] == "unresolved"
