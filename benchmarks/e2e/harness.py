"""Shared plumbing: program location, subprocesses, statistics, spans.

Everything here is benchmark-side. The program under test is reached
only through its public functions and its ``python -m repro`` CLI.
"""

from __future__ import annotations

import json
import math
import os
import platform
import queue
import signal
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


class BenchError(Exception):
    """The benchmark could not run (missing program, a process died)."""


# ----------------------------------------------------------------------
# The program under test
# ----------------------------------------------------------------------


def use_program(src: Path) -> None:
    """Make ``src/repro`` importable here and in every child process."""
    if not (src / "repro" / "__init__.py").is_file():
        raise BenchError(f"no repro package under {src}")
    os.environ["PYTHONPATH"] = str(src)
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def child_env(workdir: Path) -> dict[str, str]:
    """Environment for child processes: temp files stay in ``workdir``."""
    env = dict(os.environ)
    env["TMPDIR"] = str(workdir)
    env["PYTHONUNBUFFERED"] = "1"
    return env


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------


class Child:
    """A child process whose stderr lines are collected with timestamps.

    ``lines`` holds ``(perf_counter, text)`` pairs in arrival order and
    ``events`` receives the same pairs for callers that wait on a line.
    """

    def __init__(self, args: list[str], workdir: Path, stdout: int | None = None):
        self.args = args
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            args,
            cwd=ROOT,
            env=child_env(workdir),
            stdin=subprocess.DEVNULL,
            stdout=stdout if stdout is not None else subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.lines: list[tuple[float, str]] = []
        self.events: queue.Queue[tuple[float, str] | None] = queue.Queue()
        self.maxrss_kb = 0
        self.returncode: int | None = None
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stderr is not None
        for line in self.proc.stderr:
            item = (time.perf_counter(), line.rstrip("\n"))
            self.lines.append(item)
            self.events.put(item)
        self.events.put(None)

    def wait_line(self, needle: str, timeout: float) -> tuple[float, str]:
        """Block until a stderr line containing ``needle``; returns it."""
        deadline = time.perf_counter() + timeout
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                break
            try:
                item = self.events.get(timeout=left)
            except queue.Empty:
                break
            if item is None:
                break
            if needle in item[1]:
                return item
        tail = "\n".join(text for __, text in self.lines[-15:])
        raise BenchError(f"{self.args[:4]} never printed {needle!r}:\n{tail}")

    # The child is reaped with os.wait4, never Popen.poll/wait, so that its
    # rusage (peak RSS) is not lost to a waitpid inside subprocess.

    def _try_reap(self, flags: int) -> bool:
        if self.returncode is not None:
            return True
        pid, status, usage = os.wait4(self.proc.pid, flags)
        if not pid:
            return False
        self.returncode = self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.maxrss_kb = usage.ru_maxrss
        self._reader.join(timeout=5)
        return True

    def alive(self) -> bool:
        return not self._try_reap(os.WNOHANG)

    def stop(self, sig: int = signal.SIGINT, timeout: float = 30.0) -> int:
        """Signal the child (if running), reap it, and record its peak RSS."""
        if self.alive():
            os.kill(self.proc.pid, sig)
        return self.reap(timeout)

    def reap(self, timeout: float = 30.0) -> int:
        """Wait for exit (SIGKILL after ``timeout``); keep ``ru_maxrss``."""
        deadline = time.perf_counter() + timeout
        while not self._try_reap(os.WNOHANG):
            if time.perf_counter() > deadline:
                os.kill(self.proc.pid, signal.SIGKILL)
                self._try_reap(0)
                break
            time.sleep(0.02)
        assert self.returncode is not None
        return self.returncode


@contextmanager
def children() -> Iterator[list[Child]]:
    """Collect children; every one still running is stopped on exit."""
    started: list[Child] = []
    try:
        yield started
    finally:
        for child in started:
            child.stop(signal.SIGKILL)


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------

#: Nominal duration of :func:`reference_s`; normalised times are scaled
#: as if every reference had taken exactly this long.
REFERENCE_S = 0.020


def reference_s() -> float:
    """Best of three runs of a fixed pure-Python loop: the CPU's speed now.

    Shared hosts swing between speeds for tens of seconds at a time, and
    CPU-bound work (set-up, mining) swings with them. Timing this loop
    right before and after such work lets :func:`normalised` report it
    at one reference speed, so that runs made in different phases agree.
    """
    best = math.inf
    for __ in range(3):
        started = time.perf_counter()
        acc = 0
        table: dict[int, int] = {}
        for i in range(60_000):
            key = (i * 7919) % 4093
            table[key] = table.get(key, 0) + i
            acc ^= (i << 3) + key
        best = min(best, time.perf_counter() - started)
    return best


def normalised(raw_s: float, before_s: float, after_s: float) -> float:
    """``raw_s`` at the reference speed, from the references around it."""
    return raw_s * REFERENCE_S / ((before_s + after_s) / 2)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------


def tail_percentile(n: int) -> int | None:
    """Highest whole percentile with at least ten samples beyond it.

    99 needs 1,000 samples; below 20 samples no tail above the median
    qualifies and the answer is None.
    """
    if n < 20:
        return None
    return min(99, math.floor(100 - 1000 / n))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def lower_quartile(values: list[float]) -> float:
    """First quartile of ``values``: the run's pace outside slow spells.

    On a shared host a run can contain spells of several seconds in which
    everything takes up to twice as long. The lower quartile of a run's
    per-window values moves with the program's own speed, which moves
    every window, but not with a spell that covers a few of them.
    """
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=4)[0]


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, __, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


# ----------------------------------------------------------------------
# The benchmark's own spans
# ----------------------------------------------------------------------


@dataclass
class SpanLog:
    """Spans the benchmark records around its calls into the program.

    Kept in memory and written as JSONL at the end of the run. Each span
    has a name ``<layer>.<function>``, start and end (seconds on the
    ``perf_counter`` clock), the enclosing span, the workload and, for
    served requests, the request id.
    """

    workload: str
    records: list[dict[str, Any]] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[dict[str, Any]]:
        record = {
            "id": len(self.records) + 1,
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.records.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, start: float, end: float, **attrs: Any) -> None:
        """Record a finished span out of band (concurrent requests)."""
        self.records.append(
            {
                "id": len(self.records) + 1,
                "parent": None,
                "name": name,
                "workload": self.workload,
                "start": start,
                "end": end,
                **attrs,
            }
        )

    def self_times(self) -> dict[str, dict[str, float]]:
        """Count, total and self seconds per span name under each root.

        Keys are ``root/name`` (``name`` for a root), so a layer called
        from two top-level operations is reported once per operation.
        Self time is a span's duration minus the part of it covered by
        its children's intervals.
        """
        by_id = {record["id"]: record for record in self.records}
        children: dict[int, list[tuple[float, float]]] = {}
        for record in self.records:
            if record["parent"] is not None:
                children.setdefault(record["parent"], []).append(
                    (record["start"], record["end"])
                )
        table: dict[str, dict[str, float]] = {}
        for record in self.records:
            root = record
            while root["parent"] is not None:
                root = by_id[root["parent"]]
            key = record["name"] if root is record else f"{root['name']}/{record['name']}"
            duration = record["end"] - record["start"]
            covered = 0.0
            reach = record["start"]
            for start, end in sorted(children.get(record["id"], [])):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            row = table.setdefault(key, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered
        return table

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record) + "\n")


def read_trace(path: Path) -> tuple[list[dict[str, Any]], dict[str, Any]]:
    """Spans and metrics (name -> value) of a program ``--trace`` file."""
    spans: list[dict[str, Any]] = []
    metrics: dict[str, Any] = {}
    if not path.exists():
        raise BenchError(f"program trace {path.name} was not written")
    with open(path, encoding="ascii") as handle:
        for line in handle:
            entry = json.loads(line)
            if entry.get("type") == "span":
                spans.append(entry)
            elif entry.get("type") == "metric":
                metrics[entry["name"]] = entry["value"]
    return spans, metrics


# ----------------------------------------------------------------------
# The machine
# ----------------------------------------------------------------------


def machine_info() -> dict[str, Any]:
    """What the numbers were measured on; taken at the start of a run."""
    from repro.core import kernels

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg_before": list(os.getloadavg()),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "kernel_backend": kernels.backend(),
        "commit": commit or "unknown",
    }


def load_warning(machine: dict[str, Any]) -> str | None:
    load = machine["loadavg_before"][0]
    if load > machine["cpus_usable"]:
        return (
            f"warning: 1-minute load average {load:.2f} exceeds the "
            f"{machine['cpus_usable']} usable CPUs; timings will be noisy"
        )
    return None
