"""INV001–INV008: the layering invariants, migrated from the old linter.

The byte formats at the heart of this reproduction are fragile by design
— a compressed arena has no slack bytes for runtime checks, so
correctness rests on a few *structural* rules about which code may touch
which bytes. These rules are machine-checked here, with the same rule
ids, messages and file-pattern semantics as the original
``tools/lint_invariants.py`` (which now delegates to this module):

``INV001``
    Arena bytes (``.buf``) may be subscripted only by the arena itself,
    :mod:`repro.core.node_codec`, and :mod:`repro.compress`. Local
    aliases (``buf = x.arena.buf``) are tracked.
``INV002``
    The node-mask bit literals (``0x80 0x7F 0xC0 0x38 0x07``) may appear
    in bitwise expressions only inside :mod:`repro.compress`.
``INV003``
    No mutable default arguments anywhere.
``INV004``
    No bare ``except:``, no overbroad ``except Exception`` /
    ``except BaseException`` — and no ``contextlib.suppress(Exception)``
    / ``suppress(BaseException)``, which swallow exactly as silently.
``INV005``
    Functions in the typed packages carry complete signatures.
``INV006``
    The verification modules must not call observability hooks inside
    loop bodies.
``INV007``
    The conversion hot path must encode whole triples in its placement
    pass (``conversion.splice_subtree``), never through per-field
    ``encode``/``encode_into`` calls.
``INV008``
    The mine hot path must consume subarrays through the columnar
    kernels (``subarray_columns`` / ``decode_triples_columns``), never
    by looping node-by-node over the per-node decode APIs
    (``decode_subarray`` / ``iter_subarray`` / ``decode_triples``).
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.analysis.staticcheck.findings import Finding, filter_suppressed
from repro.analysis.staticcheck.index import ProgramIndex

#: Module paths (relative, posix) allowed to subscript arena ``.buf`` bytes.
ARENA_BUF_ALLOWED = (
    "repro/memman/arena.py",
    "repro/core/node_codec.py",
    "repro/compress/",
)

#: Module paths allowed to use raw mask-bit literals in bitwise expressions.
MASK_ALLOWED = ("repro/compress/",)

#: The §3.3 mask-byte bit patterns guarded by INV002.
MASK_LITERALS = frozenset({0x80, 0x7F, 0xC0, 0x38, 0x07})

#: Packages whose functions must carry complete annotations (INV005).
TYPED_PACKAGES = (
    "repro/core/",
    "repro/compress/",
    "repro/memman/",
    "repro/analysis/",
    "repro/obs/",
    "repro/storage/",
    "repro/runtime/",
    "repro/faultinject/",
    # Top-k's loop mines both CFP-arrays and sized conditionals.
    "repro/mining/topk.py",
    "repro/serving/",
)

#: Verification modules whose loops must stay instrumentation-free (INV006).
OBS_FREE_LOOPS = (
    "repro/core/validate.py",
    "repro/analysis/arraycheck.py",
)

#: Modules that must encode whole triples in their placement pass, never
#: per-field encodes (INV007): conversion.
BULK_ENCODE_ONLY = ("repro/core/conversion.py",)

#: Call names that encode one field at a time (INV007).
_PER_FIELD_ENCODES = frozenset({"encode", "encode_into"})

#: Mine hot-path modules that must consume subarrays columnar-ly (INV008).
MINE_HOT_PATH = (
    "repro/core/cfp_array.py",
    "repro/core/cfp_growth.py",
    "repro/core/kernels.py",
    "repro/core/parallel.py",
    "repro/mining/topk.py",
    # The serving hot path: support queries answer straight off the array,
    # so the query module is held to the same columnar-consumption rule.
    "repro/util/queries.py",
)

#: Per-node decode calls that must not feed loops in the mine hot path
#: (INV008) — each yields one Python tuple per node, which is exactly the
#: per-node cost the columnar kernels exist to avoid.
_PER_NODE_DECODES = frozenset(
    {"decode_subarray", "iter_subarray", "decode_triples"}
)

#: Constructor names whose call as a default argument is mutable (INV003).
_MUTABLE_CALLS = frozenset({"list", "dict", "set", "bytearray"})

#: Exception names too broad to catch (INV004).
_BROAD_EXCEPTIONS = frozenset({"Exception", "BaseException"})


def _matches(module: str, patterns: tuple[str, ...]) -> bool:
    return any(
        module == p or (p.endswith("/") and module.startswith(p))
        for p in patterns
    )


def _call_name(func: ast.expr) -> str | None:
    """Terminal name of a call target (``f(...)`` or ``obj.f(...)``)."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class FileChecker(ast.NodeVisitor):
    """Single-file AST walk collecting INV violations.

    ``module`` is the repo-relative posix path (``repro/core/...``) the
    path-pattern rules match against.
    """

    def __init__(self, module: str) -> None:
        self.module = module
        self.violations: list[Finding] = []
        self.arena_allowed = _matches(module, ARENA_BUF_ALLOWED)
        self.masks_allowed = _matches(module, MASK_ALLOWED)
        self.typed = _matches(module, TYPED_PACKAGES)
        self.obs_free_loops = _matches(module, OBS_FREE_LOOPS)
        self.bulk_encode_only = _matches(module, BULK_ENCODE_ONLY)
        self.mine_hot_path = _matches(module, MINE_HOT_PATH)
        self._buf_aliases: set[str] = set()
        self._obs_names: set[str] = set()
        self._obs_module_imported = False
        self._loop_depth = 0

    def _add(self, node: ast.AST, code: str, message: str) -> None:
        self.violations.append(
            Finding(self.module, getattr(node, "lineno", 0), code, message)
        )

    # -- INV001: arena byte access ------------------------------------

    @staticmethod
    def _is_buf_attribute(node: ast.expr) -> bool:
        return isinstance(node, ast.Attribute) and node.attr == "buf"

    def visit_Assign(self, node: ast.Assign) -> None:
        if self._is_buf_attribute(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._buf_aliases.add(target.id)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None and self._is_buf_attribute(node.value):
            if isinstance(node.target, ast.Name):
                self._buf_aliases.add(node.target.id)
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if not self.arena_allowed:
            if self._is_buf_attribute(node.value):
                self._add(
                    node,
                    "INV001",
                    "arena bytes subscripted outside the codec layer; "
                    "use node_codec helpers or Arena.read/write",
                )
            elif (
                isinstance(node.value, ast.Name)
                and node.value.id in self._buf_aliases
            ):
                self._add(
                    node,
                    "INV001",
                    f"arena buffer alias {node.value.id!r} subscripted "
                    "outside the codec layer",
                )
        self.generic_visit(node)

    # -- INV002: raw mask literals ------------------------------------

    def visit_BinOp(self, node: ast.BinOp) -> None:
        if not self.masks_allowed and isinstance(
            node.op, (ast.BitAnd, ast.BitOr)
        ):
            for side in (node.left, node.right):
                if (
                    isinstance(side, ast.Constant)
                    and type(side.value) is int
                    and side.value in MASK_LITERALS
                ):
                    self._add(
                        node,
                        "INV002",
                        f"raw mask literal {side.value:#04x} in a bitwise "
                        "expression; use the repro.compress.masks constants",
                    )
        self.generic_visit(node)

    # -- INV003/INV005: function signatures ---------------------------

    @staticmethod
    def _is_mutable_default(node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in _MUTABLE_CALLS
        )

    def _check_def(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> None:
        arguments = node.args
        for default in list(arguments.defaults) + [
            d for d in arguments.kw_defaults if d is not None
        ]:
            if self._is_mutable_default(default):
                self._add(
                    node,
                    "INV003",
                    f"mutable default argument in {node.name!r}",
                )
        if self.typed:
            params = arguments.posonlyargs + arguments.args + arguments.kwonlyargs
            missing = [
                p.arg
                for i, p in enumerate(params)
                if p.annotation is None
                and not (i == 0 and p.arg in ("self", "cls"))
            ]
            for extra in (arguments.vararg, arguments.kwarg):
                if extra is not None and extra.annotation is None:
                    missing.append(extra.arg)
            if missing:
                self._add(
                    node,
                    "INV005",
                    f"{node.name!r} has unannotated parameters: "
                    + ", ".join(missing),
                )
            if node.returns is None:
                self._add(
                    node,
                    "INV005",
                    f"{node.name!r} has no return annotation",
                )

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._check_def(node)
        self.generic_visit(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._check_def(node)
        self.generic_visit(node)

    # -- INV006: no observability hooks in verification loops ----------

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "repro.obs" or alias.name.startswith("repro.obs."):
                # `import repro.obs` binds `repro`; usage is `repro.obs.*`.
                self._obs_module_imported = True
                if alias.asname is not None:
                    self._obs_names.add(alias.asname)
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        module = node.module or ""
        if module == "repro.obs" or module.startswith("repro.obs."):
            for alias in node.names:
                self._obs_names.add(alias.asname or alias.name)
        elif module == "repro":
            for alias in node.names:
                if alias.name == "obs":
                    self._obs_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    def _visit_loop(self, node: ast.For | ast.AsyncFor | ast.While) -> None:
        self._loop_depth += 1
        self.generic_visit(node)
        self._loop_depth -= 1

    def visit_For(self, node: ast.For) -> None:
        self._check_per_node_iter(node, node.iter)
        self._visit_loop(node)

    def visit_AsyncFor(self, node: ast.AsyncFor) -> None:
        self._check_per_node_iter(node, node.iter)
        self._visit_loop(node)

    def visit_While(self, node: ast.While) -> None:
        self._visit_loop(node)

    # -- INV008: no per-node decode loops in the mine hot path ---------

    def _check_per_node_iter(self, node: ast.AST, iterable: ast.expr) -> None:
        """Flag a loop/comprehension iterating a per-node decode call."""
        if not self.mine_hot_path:
            return
        if not isinstance(iterable, ast.Call):
            return
        called = _call_name(iterable.func)
        if called in _PER_NODE_DECODES:
            self._add(
                node,
                "INV008",
                f"per-node decode loop over {called!r} in the mine hot "
                "path; consume the subarray through the columnar kernels "
                "(subarray_columns / decode_triples_columns)",
            )

    def _visit_comprehension(
        self,
        node: ast.ListComp | ast.SetComp | ast.DictComp | ast.GeneratorExp,
    ) -> None:
        for generator in node.generators:
            self._check_per_node_iter(node, generator.iter)
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._visit_comprehension(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node)

    def _flag_obs_use(self, node: ast.AST, what: str) -> None:
        self._add(
            node,
            "INV006",
            f"observability hook {what} used inside a verification loop; "
            "validate/arraycheck loops must stay instrumentation-free",
        )

    def visit_Name(self, node: ast.Name) -> None:
        if (
            self.obs_free_loops
            and self._loop_depth > 0
            and isinstance(node.ctx, ast.Load)
            and node.id in self._obs_names
        ):
            self._flag_obs_use(node, repr(node.id))
        self.generic_visit(node)

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (
            self.obs_free_loops
            and self._loop_depth > 0
            and self._obs_module_imported
            and node.attr == "obs"
            and isinstance(node.value, ast.Name)
            and node.value.id == "repro"
        ):
            self._flag_obs_use(node, "'repro.obs'")
        self.generic_visit(node)

    # -- INV004 (suppress form) / INV007 -------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        if self.bulk_encode_only:
            called = _call_name(node.func)
            if called in _PER_FIELD_ENCODES:
                self._add(
                    node,
                    "INV007",
                    f"per-field {called!r} call in the conversion hot path; "
                    "encode whole triples in conversion.splice_subtree",
                )
        self._check_suppress_call(node)
        self.generic_visit(node)

    def _check_suppress_call(self, node: ast.Call) -> None:
        """INV004 also covers ``contextlib.suppress(Exception)``.

        ``with suppress(Exception): ...`` swallows exactly as silently as
        ``except Exception: pass`` — the rule would be trivial to launder
        without this.
        """
        if _call_name(node.func) != "suppress":
            return
        for arg in node.args:
            if isinstance(arg, ast.Name) and arg.id in _BROAD_EXCEPTIONS:
                self._add(
                    node,
                    "INV004",
                    f"overbroad 'suppress({arg.id})'; suppress a specific "
                    "repro.errors type",
                )

    # -- INV004: exception hygiene ------------------------------------

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        if node.type is None:
            self._add(node, "INV004", "bare except")
        else:
            names = (
                node.type.elts
                if isinstance(node.type, ast.Tuple)
                else [node.type]
            )
            for name in names:
                if isinstance(name, ast.Name) and name.id in _BROAD_EXCEPTIONS:
                    self._add(
                        node,
                        "INV004",
                        f"overbroad 'except {name.id}'; catch a specific "
                        "repro.errors type",
                    )
        self.generic_visit(node)


def check_module(
    module: str, tree: ast.Module, source_lines: list[str]
) -> list[Finding]:
    """All unsuppressed INV findings for one parsed module."""
    checker = FileChecker(module)
    checker.visit(tree)
    return filter_suppressed(checker.violations, source_lines)


class InvariantsPass:
    """Pass adapter: runs the per-file checker over the whole index."""

    name = "invariants"
    codes = (
        "INV001",
        "INV002",
        "INV003",
        "INV004",
        "INV005",
        "INV006",
        "INV007",
        "INV008",
    )

    def run(self, index: ProgramIndex) -> list[Finding]:
        findings: list[Finding] = []
        for module in sorted(index.modules):
            info = index.modules[module]
            findings.extend(
                check_module(info.module, info.tree, info.source_lines)
            )
        return findings


def lint_file(path: Path) -> list[Finding]:
    """Lint one file standalone (the old ``lint_invariants.lint_file``)."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    module = _standalone_module_path(path)
    return check_module(module, tree, source.splitlines())


def _standalone_module_path(path: Path) -> str:
    """Best-effort repo-relative posix path for shim-style invocations."""
    package_root = Path(__file__).resolve().parents[4]  # .../src
    repo_root = package_root.parent
    for root in (package_root, repo_root):
        try:
            return path.resolve().relative_to(root).as_posix()
        except ValueError:
            continue
    return path.as_posix()


def lint_paths(paths: list[Path]) -> list[Finding]:
    """Lint files and directory trees (the old ``lint_paths``)."""
    findings: list[Finding] = []
    for path in paths:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            findings.extend(lint_file(file))
    return findings


__all__ = [
    "ARENA_BUF_ALLOWED",
    "BULK_ENCODE_ONLY",
    "FileChecker",
    "InvariantsPass",
    "MASK_ALLOWED",
    "MASK_LITERALS",
    "MINE_HOT_PATH",
    "OBS_FREE_LOOPS",
    "TYPED_PACKAGES",
    "check_module",
    "lint_file",
    "lint_paths",
]
