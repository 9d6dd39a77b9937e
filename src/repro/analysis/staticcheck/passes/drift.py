"""DRIFT001–DRIFT003: registry-drift passes.

Three of the repo's subsystems are keyed by *string registries* that no
type checker sees: fault-injection site names, metric counter names, and
``REPRO_*`` environment variables. Each lives in three places at once —
the code that fires/publishes/reads it, the docs that promise it, and
the tests that exercise it — and a typo in any one of them fails
silently (a fault spec that never fires, a documented counter that no
run ever emits, a dead env var that readers keep setting).

These passes extract every registry from the AST index and cross-check
code against docs and tests, flagging drift in **both** directions:

``DRIFT001`` — fault sites
    Every ``faultinject.fire("site")`` literal must be a member of the
    canonical ``SITES`` registry (parsed from the indexed
    ``repro/faultinject`` source, so the corpus fixtures stay inert),
    documented in ``docs/``, and exercised by at least one test under
    ``tests/``; every ``SITES`` member must be fired somewhere; every
    ``site:action`` spec example in the docs must name a real site.
``DRIFT002`` — metric counters
    Every literal ``metrics.add("name")`` / ``registry.add("name")``
    counter and ``metrics.observe("name", v)`` histogram (f-strings
    contribute their static prefix) must appear in the docs; every doc
    token that *looks like* a counter (dotted, in a namespace the code
    publishes) must match a code counter — fault sites and span names
    are excluded from the dead-doc direction, and
    ``tools/check_trace.py`` counts as documentation per the trace
    schema contract.
``DRIFT003`` — environment variables
    Every ``REPRO_*`` string literal in the package must be documented,
    and every ``REPRO_*`` token in the docs must still exist in code.

All three passes are purely syntactic over the index plus a line-based
scan of ``docs/*.md`` and ``tests/``, so they work unchanged on the
seeded-violation corpus (whose mini-repo carries its own docs).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.staticcheck.findings import Finding, filter_suppressed
from repro.analysis.staticcheck.index import ModuleInfo, ProgramIndex

#: Dotted lowercase token, the registry-name shape (``parallel.retries``).
_DOTTED_RE = re.compile(r"\b[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+\b")

#: A slash family: ``bufferpool.hits / faults / evictions`` documents
#: three counters in one span.
_SLASH_FAMILY_RE = re.compile(
    r"\b([a-z][a-z0-9_]*)\.([a-z][a-z0-9_]*)((?:\s*/\s*[a-z][a-z0-9_]*)+)"
)

#: A fault-spec example in the docs: ``site.name:action``.
_SPEC_SITE_RE = re.compile(
    r"\b([a-z][a-z0-9_]*\.[a-z][a-z0-9_]*):(?:kill|raise|flake|delay|truncate)\b"
)

#: ``REPRO_*`` environment-variable token.
_ENV_RE = re.compile(r"\bREPRO_[A-Z0-9_]+\b")

#: File extensions that end a *filename*, not a registry name: a doc
#: writing ``serving.md`` or ``store.cfpa`` names a file, and must not
#: register a dotted token in an otherwise-published metric namespace.
_FILENAME_EXTENSIONS = frozenset(
    {"md", "py", "json", "jsonl", "cfpa", "fimi", "bin", "txt", "yml", "yaml"}
)

#: Receivers whose ``.add("name", ...)`` call publishes a metric counter.
_METRIC_RECEIVERS = frozenset({"metrics", "registry"})

#: Registry methods that publish a named metric (first argument is the
#: name). ``Histogram.observe(value)`` is not caught here because its
#: receiver is never named ``metrics``/``registry``.
_METRIC_METHODS = frozenset({"add", "observe"})


@dataclass(frozen=True)
class _Site:
    """One ``fire("site")`` occurrence."""

    name: str
    module: str
    line: int


@dataclass(frozen=True)
class _MetricName:
    """One literal (or f-string-prefix) metric counter publication."""

    name: str
    is_prefix: bool  #: True when from an f-string's static prefix
    module: str
    line: int


@dataclass
class DocCorpus:
    """Line-indexed registry tokens extracted from ``docs/*.md``.

    ``tools/check_trace.py`` is folded in as documentation: the trace
    schema validator is the machine-readable contract for counter names.
    """

    dotted: dict[str, tuple[str, int]] = field(default_factory=dict)
    spec_sites: dict[str, tuple[str, int]] = field(default_factory=dict)
    env_vars: dict[str, tuple[str, int]] = field(default_factory=dict)
    text: str = ""
    doc_lines: dict[str, list[str]] = field(default_factory=dict)

    @classmethod
    def scan(cls, repo_root: Path) -> "DocCorpus":
        corpus = cls()
        sources = sorted((repo_root / "docs").glob("*.md"))
        check_trace = repo_root / "tools" / "check_trace.py"
        if check_trace.is_file():
            sources.append(check_trace)
        chunks: list[str] = []
        for source in sources:
            rel = source.relative_to(repo_root).as_posix()
            text = source.read_text(encoding="utf-8")
            chunks.append(text)
            lines = text.splitlines()
            corpus.doc_lines[rel] = lines
            for lineno, line in enumerate(lines, start=1):
                for match in _DOTTED_RE.finditer(line):
                    token = match.group(0)
                    if token.rsplit(".", 1)[-1] in _FILENAME_EXTENSIONS:
                        continue
                    corpus.dotted.setdefault(token, (rel, lineno))
                for family in _SLASH_FAMILY_RE.finditer(line):
                    namespace = family.group(1)
                    for member in re.split(r"\s*/\s*", family.group(3).strip("/ ")):
                        if member:
                            corpus.dotted.setdefault(
                                f"{namespace}.{member}", (rel, lineno)
                            )
                for spec in _SPEC_SITE_RE.finditer(line):
                    corpus.spec_sites.setdefault(spec.group(1), (rel, lineno))
                for env in _ENV_RE.finditer(line):
                    corpus.env_vars.setdefault(env.group(0), (rel, lineno))
        corpus.text = "\n".join(chunks)
        return corpus

    def mentions(self, token: str) -> bool:
        """Loose containment check: the token appears anywhere in docs."""
        return token in self.text


# ----------------------------------------------------------------------
# Code-side registry extraction
# ----------------------------------------------------------------------


def _literal_or_prefix(node: ast.expr) -> tuple[str, bool] | None:
    """``("name", False)`` for a string literal, ``("pre.", True)`` for
    an f-string's leading static text, ``None`` otherwise."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value, False
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value, True
    return None


def collect_fault_sites(index: ProgramIndex) -> list[_Site]:
    """Every literal site name passed to a ``fire(...)`` call."""
    sites: list[_Site] = []
    for info in index.repro_modules():
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            called = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else None
            )
            if called != "fire":
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                sites.append(_Site(first.value, info.module, node.lineno))
    return sites


def declared_sites(index: ProgramIndex) -> dict[str, tuple[str, int]] | None:
    """The canonical ``SITES`` registry parsed from the indexed source.

    Returns ``None`` when the analyzed tree declares no ``SITES`` (the
    corpus fixtures may not), in which case the canonical cross-check is
    skipped.
    """
    for info in index.repro_modules():
        if not info.dotted.endswith("faultinject"):
            continue
        for node in info.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if not any(
                isinstance(t, ast.Name) and t.id == "SITES" for t in targets
            ):
                continue
            names: dict[str, tuple[str, int]] = {}
            assert value is not None
            for constant in ast.walk(value):
                if isinstance(constant, ast.Constant) and isinstance(
                    constant.value, str
                ):
                    names[constant.value] = (info.module, constant.lineno)
            return names
    return None


def collect_metric_names(index: ProgramIndex) -> list[_MetricName]:
    """Every literal metric published through ``metrics``/``registry``,
    counters (``.add``) and histograms (``.observe``) alike."""
    names: list[_MetricName] = []
    for info in index.repro_modules():
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute) and func.attr in _METRIC_METHODS
            ):
                continue
            receiver = func.value
            terminal = (
                receiver.id
                if isinstance(receiver, ast.Name)
                else receiver.attr
                if isinstance(receiver, ast.Attribute)
                else None
            )
            if terminal not in _METRIC_RECEIVERS:
                continue
            parsed = _literal_or_prefix(node.args[0])
            if parsed is None:
                continue
            name, is_prefix = parsed
            if name:
                names.append(_MetricName(name, is_prefix, info.module, node.lineno))
    return names


def collect_span_names(index: ProgramIndex) -> set[str]:
    """Literal first arguments of the tracer's span-opening calls."""
    spans: set[str] = set()
    for info in index.repro_modules():
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            called = (
                func.attr
                if isinstance(func, ast.Attribute)
                else func.id
                if isinstance(func, ast.Name)
                else None
            )
            if called not in ("span", "maybe_span", "begin_span", "complete_span"):
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                spans.add(first.value)
    return spans


def collect_env_vars(index: ProgramIndex) -> dict[str, tuple[str, int]]:
    """Every exact ``REPRO_*`` string literal in the package."""
    env: dict[str, tuple[str, int]] = {}
    for info in index.repro_modules():
        for node in ast.walk(info.tree):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, str)
                and _ENV_RE.fullmatch(node.value)
            ):
                env.setdefault(node.value, (info.module, node.lineno))
    return env


def _tests_text(repo_root: Path) -> str:
    tests_dir = repo_root / "tests"
    if not tests_dir.is_dir():
        return ""
    return "\n".join(
        path.read_text(encoding="utf-8")
        for path in sorted(tests_dir.rglob("*.py"))
    )


def _doc_finding(
    corpus: DocCorpus, location: tuple[str, int], code: str, message: str
) -> list[Finding]:
    """A doc-anchored finding, run through the shared suppression filter."""
    path, line = location
    finding = Finding(path, line, code, message)
    return filter_suppressed([finding], corpus.doc_lines.get(path, []))


# ----------------------------------------------------------------------
# The passes
# ----------------------------------------------------------------------


def _filter_code_findings(
    index: ProgramIndex, findings: list[Finding]
) -> list[Finding]:
    kept: list[Finding] = []
    for finding in findings:
        info: ModuleInfo | None = index.modules.get(finding.path)
        lines = info.source_lines if info is not None else []
        kept.extend(filter_suppressed([finding], lines))
    return kept


class FaultSiteDriftPass:
    """DRIFT001: fire() sites vs SITES vs docs vs chaos tests."""

    name = "fault-site-drift"
    codes = ("DRIFT001",)

    def run(self, index: ProgramIndex) -> list[Finding]:
        corpus = DocCorpus.scan(index.repo_root)
        tests = _tests_text(index.repo_root)
        fired = collect_fault_sites(index)
        canonical = declared_sites(index)
        findings: list[Finding] = []
        for site in fired:
            if canonical is not None and site.name not in canonical:
                findings.append(
                    Finding(
                        site.module,
                        site.line,
                        "DRIFT001",
                        f"fire() site {site.name!r} is not in the canonical "
                        "faultinject.SITES registry",
                    )
                )
            if not corpus.mentions(site.name):
                findings.append(
                    Finding(
                        site.module,
                        site.line,
                        "DRIFT001",
                        f"fault site {site.name!r} is undocumented "
                        "(expected in docs/robustness.md)",
                    )
                )
            if tests and site.name not in tests:
                findings.append(
                    Finding(
                        site.module,
                        site.line,
                        "DRIFT001",
                        f"fault site {site.name!r} is not exercised by any "
                        "test under tests/",
                    )
                )
        findings = _filter_code_findings(index, findings)
        fired_names = {site.name for site in fired}
        if canonical is not None:
            for name in sorted(set(canonical) - fired_names):
                module, line = canonical[name]
                findings.extend(
                    _filter_code_findings(
                        index,
                        [
                            Finding(
                                module,
                                line,
                                "DRIFT001",
                                f"SITES entry {name!r} is fired nowhere in "
                                "the package (dead registry entry)",
                            )
                        ],
                    )
                )
        for name in sorted(set(corpus.spec_sites) - fired_names):
            findings.extend(
                _doc_finding(
                    corpus,
                    corpus.spec_sites[name],
                    "DRIFT001",
                    f"documented fault-spec example names unknown site "
                    f"{name!r}",
                )
            )
        return findings


class MetricDriftPass:
    """DRIFT002: published counters vs docs (both directions)."""

    name = "metric-drift"
    codes = ("DRIFT002",)

    def run(self, index: ProgramIndex) -> list[Finding]:
        corpus = DocCorpus.scan(index.repo_root)
        published = collect_metric_names(index)
        spans = collect_span_names(index)
        sites = {site.name for site in collect_fault_sites(index)}
        canonical = declared_sites(index)
        if canonical:
            sites.update(canonical)
        exact = {m.name for m in published if not m.is_prefix}
        prefixes = {m.name for m in published if m.is_prefix}
        findings: list[Finding] = []
        for metric in published:
            if metric.is_prefix:
                documented = any(
                    token == metric.name.rstrip(".")
                    or token.startswith(metric.name)
                    for token in corpus.dotted
                )
            else:
                documented = metric.name in corpus.dotted
            if not documented:
                findings.append(
                    Finding(
                        metric.module,
                        metric.line,
                        "DRIFT002",
                        f"metric counter {metric.name!r}"
                        f"{' (f-string prefix)' if metric.is_prefix else ''} "
                        "is undocumented (expected in docs/observability.md)",
                    )
                )
        findings = _filter_code_findings(index, findings)
        namespaces = {name.split(".")[0] for name in exact}
        namespaces.update(prefix.split(".")[0] for prefix in prefixes)
        for token in sorted(corpus.dotted):
            if token.split(".")[0] not in namespaces:
                continue
            if token in sites or token in spans:
                continue
            alive = token in exact or any(
                token.startswith(prefix) or token == prefix.rstrip(".")
                for prefix in prefixes
            )
            if not alive:
                findings.extend(
                    _doc_finding(
                        corpus,
                        corpus.dotted[token],
                        "DRIFT002",
                        f"documented counter {token!r} is published nowhere "
                        "in the package (dead doc entry)",
                    )
                )
        return findings


class EnvVarDriftPass:
    """DRIFT003: REPRO_* env vars vs docs (both directions)."""

    name = "env-var-drift"
    codes = ("DRIFT003",)

    def run(self, index: ProgramIndex) -> list[Finding]:
        corpus = DocCorpus.scan(index.repo_root)
        code_vars = collect_env_vars(index)
        findings: list[Finding] = []
        for name in sorted(set(code_vars) - set(corpus.env_vars)):
            module, line = code_vars[name]
            findings.extend(
                _filter_code_findings(
                    index,
                    [
                        Finding(
                            module,
                            line,
                            "DRIFT003",
                            f"environment variable {name!r} is undocumented",
                        )
                    ],
                )
            )
        for name in sorted(set(corpus.env_vars) - set(code_vars)):
            findings.extend(
                _doc_finding(
                    corpus,
                    corpus.env_vars[name],
                    "DRIFT003",
                    f"documented environment variable {name!r} is read "
                    "nowhere in the package (dead doc entry)",
                )
            )
        return findings


__all__ = [
    "DocCorpus",
    "EnvVarDriftPass",
    "FaultSiteDriftPass",
    "MetricDriftPass",
    "collect_env_vars",
    "collect_fault_sites",
    "collect_metric_names",
    "collect_span_names",
    "declared_sites",
]
