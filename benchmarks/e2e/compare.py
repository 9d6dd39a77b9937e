"""Steadiness check and paired parent/change comparison.

    # Ten seeds of every workload on one program; spread of each metric.
    python3 benchmarks/e2e/compare.py steady --seeds 10 --out steady.json

    # Ten pairs, alternating which side runs first; exits 1 on a regression.
    python3 benchmarks/e2e/compare.py pair --parent ../parent --change . --pairs 10

Both sides run this checkout's ``run.py`` (identical benchmark code and
settings, BENCHMARK.json's ``run_seconds``); ``--parent`` / ``--change``
only choose the ``repro`` package under test, as a checkout root or its
``src`` directory. Pair ``i`` uses seed ``first_seed + i`` on both sides.

Verdicts per workload and end-to-end metric:

* ``gain``: the change wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile distance;
* ``regression``: the change's median is worse than the parent's by
  more than the metric's bound in BENCHMARK.json;
* ``loss``: the mirror of a gain, inside the bound: the parent wins at
  least nine tenths of the pairs and the medians differ by more than the
  parent's interquartile distance, so a steady drift smaller than the
  bound but larger than the parent's own spread still shows;
* ``unresolved``: either side's spread (IQR over median) exceeds the
  bound, unless every change run beats every parent run;
* ``same``: none of these.

Three more rows come from each run's full record:

* ``fail_frac`` (failed over attempted): any rise is a regression;
* ``stale_frac`` (stream-follow answers from a superseded generation, over
  attempted): a regression when the change has more in nine tenths of
  the pairs;
* ``read_amplification`` (mine-ooc bytes read over array bytes, a count
  that repeats per seed): a regression when the median pairwise ratio
  worsens by more than ``READ_AMPLIFICATION_BOUND``.

A workload with a run whose load generator ran late (``valid: false``)
has every verdict that is not a regression or a loss reported as
``unresolved``: its latencies do not measure the program. The command
exits 1 on a regression, a loss or an invalid run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

from harness import HERE, ROOT, spread

#: Bound on mine-ooc's read amplification: bytes read repeat per seed, so
#: a pair differs only by prefetch timing.
READ_AMPLIFICATION_BOUND = 0.02


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _src(path: Path) -> Path:
    path = path.resolve()
    return path / "src" if (path / "src" / "repro").is_dir() else path


def run_once(src: Path, workload: str, seed: int) -> dict:
    """One benchmark run; returns its full record (``run.py --out``)."""
    out = ROOT / ".bench_work" / f"compare-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    args = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--src", str(src), "--out", str(out)]
    done = subprocess.run(args, capture_output=True, text=True, timeout=900, check=False)
    if not out.exists():
        raise SystemExit(f"run.py failed on {workload} seed {seed}:\n{done.stderr[-2000:]}")
    record = json.loads(out.read_text())
    out.unlink()
    return record


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, __, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(spec: dict, parent: list[float], change: list[float]) -> dict[str, Any]:
    """Compare paired runs of one end-to-end metric (``spec``) on one workload."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    most = math.ceil(0.9 * len(parent))
    worse_by = sign * (c_med - p_med) / p_med if p_med else 0.0
    widest = max(spread(parent), spread(change))
    if sign > 0:
        separated = max(change) < min(parent)
    else:
        separated = min(change) > max(parent)
    if wins >= most and sign * (p_med - c_med) > p_q3 - p_q1:
        outcome = "gain"
    elif worse_by > spec["bound"]:
        outcome = "regression"
    elif losses >= most and sign * (c_med - p_med) > p_q3 - p_q1:
        outcome = "loss"
    elif widest > spec["bound"] and not separated:
        outcome = "unresolved"
    else:
        outcome = "same"
    return {
        "parent": {"median": p_med, "q1": p_q1, "q3": p_q3},
        "change": {"median": c_med, "q1": c_q1, "q3": c_q3},
        "worse_by": worse_by,
        "wins": wins,
        "pairs": len(parent),
        "spread": widest,
        "bound": spec["bound"],
        "verdict": outcome,
    }


def _record_rows(mine: list[dict]) -> dict[str, dict]:
    """The fail_frac, stale_frac and read_amplification rows of one workload."""
    rows: dict[str, dict] = {}
    parent = [p["parent"]["fail_frac"] for p in mine]
    change = [p["change"]["fail_frac"] for p in mine]
    rows["fail_frac"] = {
        "parent": {"median": statistics.mean(parent)},
        "change": {"median": statistics.mean(change)},
        "verdict": "regression" if statistics.mean(change) > statistics.mean(parent) else "same",
    }
    parent = [p["parent"]["stale_frac"] for p in mine]
    change = [p["change"]["stale_frac"] for p in mine]
    more = sum(1 for p, c in zip(parent, change) if c > p)
    rows["stale_frac"] = {
        "parent": {"median": statistics.median(parent)},
        "change": {"median": statistics.median(change)},
        "wins": more,
        "pairs": len(mine),
        "verdict": "regression" if more >= math.ceil(0.9 * len(mine)) else "same",
    }
    if all("read_amplification" in p[side]["detail"] for p in mine for side in ("parent", "change")):
        ratios = [
            p["change"]["detail"]["read_amplification"] / p["parent"]["detail"]["read_amplification"]
            for p in mine
        ]
        worse_by = statistics.median(ratios) - 1.0
        rows["read_amplification"] = {
            "parent": {"median": statistics.median(p["parent"]["detail"]["read_amplification"] for p in mine)},
            "change": {"median": statistics.median(p["change"]["detail"]["read_amplification"] for p in mine)},
            "worse_by": worse_by,
            "verdict": "regression" if worse_by > READ_AMPLIFICATION_BOUND else "same",
        }
    return rows


def analyse(pairs: list[dict], metrics: list[dict]) -> dict[str, dict[str, dict]]:
    """Verdicts per workload and metric from recorded pairs of run records."""
    table: dict[str, dict[str, dict]] = {}
    for workload in sorted({p["workload"] for p in pairs}):
        mine = [p for p in pairs if p["workload"] == workload]
        rows = {
            spec["name"]: verdict(
                spec,
                [p["parent"]["metrics"][spec["name"]]["value"] for p in mine],
                [p["change"]["metrics"][spec["name"]]["value"] for p in mine],
            )
            for spec in metrics
        }
        rows.update(_record_rows(mine))
        invalid = sum(1 for p in mine for side in ("parent", "change") if not p[side]["valid"])
        if invalid:
            for row in rows.values():
                if row["verdict"] not in ("regression", "loss"):
                    row["verdict"] = "unresolved"
            rows["invalid_runs"] = {
                "parent": {"median": sum(not p["parent"]["valid"] for p in mine)},
                "change": {"median": sum(not p["change"]["valid"] for p in mine)},
                "verdict": "unresolved",
            }
        table[workload] = rows
    return table


def _side(summary: dict) -> str:
    if "q1" not in summary:
        return f"{summary['median']:.4g}"
    return f"{summary['median']:.4g} [{summary['q1']:.4g}, {summary['q3']:.4g}]"


def format_table(table: dict[str, dict[str, dict]]) -> str:
    lines = [
        f"{'workload':<14} {'metric':<22} {'parent median [q1, q3]':>34} "
        f"{'change median [q1, q3]':>34} {'worse':>7} {'wins':>6}  verdict"
    ]
    for workload, rows in table.items():
        for metric, row in rows.items():
            worse = f"{row['worse_by']:+.1%}" if "worse_by" in row else ""
            wins = f"{row['wins']}/{row['pairs']}" if "wins" in row else ""
            lines.append(
                f"{workload:<14} {metric:<22} {_side(row['parent']):>34} "
                f"{_side(row['change']):>34} {worse:>7} {wins:>6}  {row['verdict']}"
            )
    return "\n".join(lines)


def rejected(table: dict[str, dict[str, dict]]) -> bool:
    """A regression or a loss, or a workload with invalid runs."""
    return any(
        row["verdict"] in ("regression", "loss") or metric == "invalid_runs"
        for rows in table.values()
        for metric, row in rows.items()
    )


def cmd_pair(opts: argparse.Namespace, spec: dict) -> int:
    parent, change = _src(opts.parent), _src(opts.change)
    pairs = []
    for index in range(opts.pairs):
        seed = opts.first_seed + index
        for workload in opts.workload:
            order = [("parent", parent), ("change", change)]
            if index % 2:
                order.reverse()
            pair: dict[str, Any] = {"workload": workload, "seed": seed, "first": order[0][0]}
            for side, src in order:
                pair[side] = run_once(src, workload, seed)
            pairs.append(pair)
            print(f"pair {index + 1}/{opts.pairs} {workload} done", file=sys.stderr)
    table = analyse(pairs, spec["end_to_end"])
    if opts.out:
        opts.out.write_text(json.dumps({"pairs": pairs, "verdicts": table}, indent=1))
    print(format_table(table))
    return 1 if rejected(table) else 0


def cmd_steady(opts: argparse.Namespace, spec: dict) -> int:
    src = _src(opts.src)
    runs: dict[str, list[dict]] = {}
    for workload in opts.workload:
        runs[workload] = [
            run_once(src, workload, opts.first_seed + index) for index in range(opts.seeds)
        ]
    summary: dict[str, dict] = {}
    ok = True
    for workload, records in runs.items():
        summary[workload] = {
            "correct": all(record["correct"] for record in records),
            "valid": all(record["valid"] for record in records),
            "stale_frac": statistics.mean(record["stale_frac"] for record in records),
            "runs": [{"seed": record["seed"], "machine": record["machine"]} for record in records],
        }
        if "read_amplification" in records[0]["detail"]:
            summary[workload]["read_amplification"] = [
                record["detail"]["read_amplification"] for record in records
            ]
        ok &= summary[workload]["correct"] and summary[workload]["valid"]
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [record["metrics"][name]["value"] for record in records]
            width = spread(values)
            summary[workload][name] = {
                "median": statistics.median(values),
                "spread": width,
                "bound": bound,
                "values": values,
            }
            # setup_s is held to its bound through medians only.
            if name != "setup_s" and width > bound:
                ok = False
            print(
                f"{workload:<14} {name:<22} median {statistics.median(values):>12.4f} "
                f"spread {width:6.3f} (bound {bound})"
            )
        print(f"{workload:<14} correct {summary[workload]['correct']} "
              f"valid {summary[workload]['valid']} stale_frac {summary[workload]['stale_frac']:.4f}")
    if opts.out:
        opts.out.write_text(json.dumps({"seeds": opts.seeds, "first_seed": opts.first_seed,
                                        "summary": summary}, indent=1))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    workloads = [entry["name"] for entry in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workload", action="append", choices=workloads)
        p.add_argument("--first-seed", type=int, default=1)
        p.add_argument("--out", type=Path)

    steady = sub.add_parser("steady", help="spread of every metric over seeds")
    steady.add_argument("--src", type=Path, default=ROOT)
    steady.add_argument("--seeds", type=int, default=10)
    common(steady)
    steady.set_defaults(func=cmd_steady)

    pair = sub.add_parser("pair", help="paired parent/change comparison")
    pair.add_argument("--parent", type=Path, required=True)
    pair.add_argument("--change", type=Path, default=ROOT)
    pair.add_argument("--pairs", type=int, default=10)
    common(pair)
    pair.set_defaults(func=cmd_pair)

    opts = parser.parse_args(argv)
    opts.workload = opts.workload or workloads
    return opts.func(opts, spec)


if __name__ == "__main__":
    sys.exit(main())
