"""End-to-end benchmark of the CFP-growth system: four workloads.

    python3 benchmarks/e2e/run.py --workload mine-dense --seed 1
    python3 benchmarks/e2e/run.py --seed 3 --out results.json     # all four
    python3 benchmarks/e2e/run.py --workload serve-mixed --trace 1

Each workload makes its inputs from ``--seed``, sets up several times,
measures for ``--seconds`` seconds, checks every output against an
oracle and reports its metrics. A table goes to stderr; the last line
of stdout is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` carrying the end-to-end metrics of BENCHMARK.json, or with
``--trace 1`` its per-layer metrics. The exit code is 0 only when every
output was correct. Without ``--workload`` every workload runs in a
fresh subprocess and the metrics are named ``<workload>.<metric>``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import (  # noqa: E402
    ROOT,
    BenchError,
    SpanLog,
    load_warning,
    machine_info,
    use_program,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [entry["name"] for entry in SPEC["workloads"]]
END_TO_END = {entry["name"]: entry for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry for entry in SPEC["per_layer"]}


def _runner(name: str):
    import wl_mining
    import wl_serving

    return {
        "mine-dense": lambda *a: wl_mining.run("mine-dense", *a),
        "mine-ooc": lambda *a: wl_mining.run("mine-ooc", *a),
        "serve-mixed": wl_serving.run_mixed,
        "stream-follow": wl_serving.run_stream,
    }[name]


def _samples(name: str, result: dict) -> int:
    if name == "setup_s":
        return len(result["detail"]["setup_samples_s"])
    if name.startswith("latency_"):
        return result["attempted"]
    return 1


def run_one(opts: argparse.Namespace) -> dict:
    """Run one workload in this process; returns its result record."""
    name = opts.workload[0]
    machine = machine_info()
    warning = load_warning(machine)
    if warning:
        print(warning, file=sys.stderr)
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    if opts.trace:
        opts.trace_dir.mkdir(parents=True, exist_ok=True)
    spans = SpanLog(name)
    try:
        result = _runner(name)(opts.seed, opts, workdir, spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    machine["loadavg_after"] = list(os.getloadavg())
    checks = result.pop("checks")
    record: dict[str, Any] = {
        "workload": name,
        "seed": opts.seed,
        "seconds": opts.seconds,
        "scale": opts.scale,
        "trace": opts.trace,
        "machine": machine,
        "correct": result["failed"] == 0 and all(checks.values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "fail_frac": result["failed"] / result["attempted"],
        "stale_frac": result["detail"].get("stale_answers", 0) / result["attempted"],
        "valid": result["detail"].get("valid", True),
        "checks": checks,
        "metrics": {
            metric: {
                "value": result["metrics"][metric],
                "unit": END_TO_END[metric]["unit"],
                "samples": _samples(metric, result),
            }
            for metric in END_TO_END
        },
        "detail": result["detail"],
    }
    if opts.trace:
        stem = opts.trace_dir / f"{name}-seed{opts.seed}"
        spans.write_jsonl(Path(f"{stem}.spans.jsonl"))
        record["self_times"] = spans.self_times()
        record["layers"] = result["layers"]
    return record


def summary_line(record: dict, trace: bool) -> dict:
    """The last stdout line: end-to-end (or per-layer) metrics and counts."""
    if trace:
        layers = record["layers"]
        metrics = {
            name: {"value": layers.get(name, 0), "unit": entry["unit"]}
            for name, entry in PER_LAYER.items()
        }
    else:
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in record["metrics"].items()
        }
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def format_record(record: dict) -> str:
    status = "ok" if record["correct"] else "FAILED"
    lines = [
        f"== {record['workload']} seed={record['seed']} "
        f"attempted={record['attempted']} failed={record['failed']} ({status})",
        f"   {'metric':<24} {'value':>14}  {'unit':<8} {'samples':>7}  status",
    ]
    for name, metric in record["metrics"].items():
        lines.append(
            f"   {name:<24} {metric['value']:>14.4f}  {metric['unit']:<8} "
            f"{metric['samples']:>7}  {status}"
        )
    if "self_times" in record:
        lines.append(f"   {'span':<60} {'count':>6} {'total_s':>10} {'self_s':>10}")
        for span, row in sorted(record["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
            lines.append(
                f"   {span:<60} {row['count']:>6} {row['total_s']:>10.4f} {row['self_s']:>10.4f}"
            )
        width = max(map(len, record["layers"]), default=0)
        for layer, value in sorted(record["layers"].items()):
            lines.append(f"   {layer:<{width}} {value:>14.4f}")
    return "\n".join(lines)


def run_all(opts: argparse.Namespace) -> list[dict]:
    """Every requested workload, each in a fresh subprocess."""
    records = []
    out_dir = ROOT / ".bench_work" / f"all-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        for name in opts.workload:
            out = out_dir / f"{name}.json"
            args = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(opts.seed),
                "--seconds", str(opts.seconds), "--trace", str(int(opts.trace)),
                "--trace-dir", str(opts.trace_dir), "--scale", str(opts.scale),
                "--src", str(opts.src), "--out", str(out),
            ]
            if opts.corrupt_oracle:
                args.append("--corrupt-oracle")
            subprocess.run(args, stdout=subprocess.DEVNULL, check=False, timeout=900)
            if not out.exists():
                raise BenchError(f"workload {name} produced no result")
            records.append(json.loads(out.read_text()))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return records


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="measured seconds per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run, reporting per-layer metrics")
    parser.add_argument("--trace-dir", type=Path, default=ROOT / ".bench_work" / "trace",
                        help="where traced runs write spans and program traces")
    parser.add_argument("--out", type=Path, help="write the full result record(s) here")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="scale every workload's transactions (self-test sizes)")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the repro package under test")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-test: corrupt one expected answer; the run must fail")
    opts = parser.parse_args(argv)
    opts.trace_dir = opts.trace_dir.resolve()
    opts.src = opts.src.resolve()
    return opts


def main(argv: list[str] | None = None) -> int:
    opts = parse_args(argv)
    try:
        use_program(opts.src)
        if opts.workload is None:
            opts.workload = list(WORKLOADS)
        if len(opts.workload) == 1:
            records = [run_one(opts)]
        else:
            records = run_all(opts)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(records) == 1:  # each subprocess of run_all printed its own table
        print(format_record(records[0]), file=sys.stderr)
    if opts.out:
        opts.out.parent.mkdir(parents=True, exist_ok=True)
        opts.out.write_text(json.dumps(records[0] if len(records) == 1 else records, indent=1))
    if len(records) == 1:
        line = summary_line(records[0], bool(opts.trace))
    else:
        lines = {r["workload"]: summary_line(r, bool(opts.trace)) for r in records}
        line = {
            "correct": all(entry["correct"] for entry in lines.values()),
            "attempted": sum(entry["attempted"] for entry in lines.values()),
            "failed": sum(entry["failed"] for entry in lines.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, entry in lines.items()
                for metric, value in entry["metrics"].items()
            },
        }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
