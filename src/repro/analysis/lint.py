"""Engine-invariant linter: ``python -m repro.analysis.lint [paths]``.

AST-based, pluggable rules enforcing the invariants the deterministic
simtest oracles and the durability cut depend on:

``wall-clock``
    No ``time.time()`` / ``datetime.now()`` / ``datetime.utcnow()`` /
    ``.today()`` in engine code — all wall time must flow through the
    :mod:`repro.core.clock` seam so the virtual clock controls it.
    Approved seams: ``core/clock.py``, ``testing.py``, ``simtest/``.
    (``time.monotonic``/``perf_counter`` are fine: they measure cost,
    not event time.)

``global-random``
    No module-level ``random.<fn>()`` / ``np.random.<fn>()`` calls —
    randomness must come from a seeded ``random.Random``/``default_rng``
    instance created through :mod:`repro.testing`.  Approved:
    ``testing.py``, ``simtest/``.

``bare-lock``
    No explicit ``<x>.lock.acquire()``/``.release()`` outside the
    approved multi-lock helpers (``core/factory.py``,
    ``durability/manager.py``, ``kernel/interpreter.py``) — everything
    else must use ``with basket.lock:`` so releases can't be missed.

``lock-order``
    A ``for`` loop that acquires ``.lock`` on each element must iterate
    a sequence obtained from ``sorted(...)`` or a ``*lock_order*``
    helper — the Algorithm-1 name-order discipline that makes the
    durability cut deadlock-free.

``sys-name``
    The reserved ``sys.*`` basket namespace may only be minted by the
    system-streams module and the engine itself.

``sql-structure``
    Only the resolver (``sql/resolve.py``) reads a SELECT's clauses
    (``.sources``, ``.group_by``, ``.having``, ``.order_by``); the code
    generators read its ``ResolvedSelect``.  Approved: the resolver and
    the parser and AST modules that build the clauses.

``lr-columnar``
    The Linear Road plans (``linearroad/queries.py``) stay columnar: no
    ``.python_list()`` and no ``bat_from_values`` there.  They read
    snapshot tails as arrays and emit adopted arrays.

Suppression: append ``# dc-lint: disable=rule[,rule]`` to the offending
line, or put ``# dc-lint: disable-file=rule[,rule]`` (or a bare
``disable-file`` to silence the whole file) in the first ten lines.
Adding a rule = subclass :class:`Rule`, decorate with
:func:`register_rule`; see ``docs/static_analysis.md``.
"""

from __future__ import annotations

import argparse
import ast
import fnmatch
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

__all__ = ["Finding", "Rule", "register_rule", "lint_paths", "main", "RULES"]


@dataclass(frozen=True)
class Finding:
    path: str
    line: int
    col: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def to_dict(self) -> dict:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "message": self.message,
        }


class Rule:
    """One lint rule. Subclass, set ``name``/``approved``, implement check."""

    name: str = ""
    #: glob patterns (against the /-normalised relative path) where the
    #: rule does not apply at all
    approved: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        return not any(
            fnmatch.fnmatch(relpath, pattern) for pattern in self.approved
        )

    def check(self, tree: ast.Module, relpath: str) -> List[Finding]:
        raise NotImplementedError


RULES: List[Rule] = []


def register_rule(cls: Type[Rule]) -> Type[Rule]:
    RULES.append(cls())
    return cls


def _dotted(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute chains; None for anything dynamic."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _finding(rule: Rule, relpath: str, node: ast.AST, message: str) -> Finding:
    return Finding(
        path=relpath,
        line=getattr(node, "lineno", 0),
        col=getattr(node, "col_offset", 0),
        rule=rule.name,
        message=message,
    )


@register_rule
class WallClockRule(Rule):
    name = "wall-clock"
    approved = (
        "*core/clock.py",
        "*repro/testing.py",
        "*simtest/*",
        "*analysis/*",
        # the network front door reports wall-clock session timestamps
        # to clients (HELLO_OK server_time) — engine state never sees it
        "*server/server.py",
    )
    _banned = {
        "time.time": "use the Clock seam (core/clock.py), not time.time()",
        "datetime.now": "use the Clock seam, not datetime.now()",
        "datetime.utcnow": "use the Clock seam, not datetime.utcnow()",
        "datetime.today": "use the Clock seam, not datetime.today()",
        "datetime.datetime.now": "use the Clock seam, not datetime.now()",
        "datetime.datetime.utcnow": "use the Clock seam, not utcnow()",
        "date.today": "use the Clock seam, not date.today()",
    }

    def check(self, tree: ast.Module, relpath: str) -> List[Finding]:
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name in self._banned:
                findings.append(
                    _finding(self, relpath, node, self._banned[name])
                )
        return findings


@register_rule
class GlobalRandomRule(Rule):
    name = "global-random"
    approved = ("*repro/testing.py", "*simtest/*")
    _instance_factories = {"Random", "SystemRandom", "default_rng",
                          "RandomState", "Generator", "seed"}

    def check(self, tree: ast.Module, relpath: str) -> List[Finding]:
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func)
            if name is None:
                continue
            parts = name.split(".")
            if parts[:1] == ["random"] or parts[:2] in (
                ["np", "random"],
                ["numpy", "random"],
            ):
                if parts[-1] in self._instance_factories:
                    continue
                findings.append(
                    _finding(
                        self,
                        relpath,
                        node,
                        f"module-level {name}() breaks episode "
                        f"determinism; use a seeded instance from "
                        f"repro.testing",
                    )
                )
        return findings


@register_rule
class BareLockRule(Rule):
    name = "bare-lock"
    approved = (
        "*core/factory.py",
        "*durability/manager.py",
        "*analysis/lockorder.py",
    )

    def check(self, tree: ast.Module, relpath: str) -> List[Finding]:
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("acquire", "release")
                and isinstance(func.value, ast.Attribute)
                and func.value.attr == "lock"
            ):
                findings.append(
                    _finding(
                        self,
                        relpath,
                        node,
                        f"bare .lock.{func.attr}() outside the approved "
                        f"multi-lock helpers; use 'with x.lock:'",
                    )
                )
        return findings


def _acquires_lock(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if (
            isinstance(sub, ast.Call)
            and isinstance(sub.func, ast.Attribute)
            and sub.func.attr == "acquire"
            and isinstance(sub.func.value, ast.Attribute)
            and sub.func.value.attr == "lock"
        ):
            return True
        if isinstance(sub, (ast.With, ast.AsyncWith)):
            for item in sub.items:
                ctx = item.context_expr
                if isinstance(ctx, ast.Attribute) and ctx.attr == "lock":
                    return True
    return False


def _is_ordered_source(node: ast.AST, assignments: Dict[str, ast.AST]) -> bool:
    """True if the iterable provably came from sorted()/a lock-order helper."""
    if isinstance(node, ast.Name):
        node = assignments.get(node.id, node)
    if isinstance(node, ast.Call):
        name = _dotted(node.func) or ""
        if name.split(".")[-1] == "sorted" or "lock_order" in name:
            return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "reversed" and all(
            _is_ordered_source(a, assignments) for a in node.args
        )
    return False


def _scope_nodes(scope: ast.AST):
    """Walk ``scope`` without descending into nested function scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@register_rule
class LockOrderRule(Rule):
    name = "lock-order"
    approved = ("*analysis/*",)

    def check(self, tree: ast.Module, relpath: str) -> List[Finding]:
        findings = []
        for scope in ast.walk(tree):
            if not isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
            ):
                continue
            assignments: Dict[str, ast.AST] = {}
            for node in _scope_nodes(scope):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name):
                        assignments[target.id] = node.value
            for node in _scope_nodes(scope):
                if not isinstance(node, ast.For):
                    continue
                body_acquires = any(
                    _acquires_lock(stmt) for stmt in node.body
                )
                if not body_acquires:
                    continue
                if not _is_ordered_source(node.iter, assignments):
                    findings.append(
                        _finding(
                            self,
                            relpath,
                            node,
                            "loop acquires .lock per element but the "
                            "iterable is not provably name-ordered "
                            "(sorted(...) or a *lock_order* helper); "
                            "Algorithm-1 discipline prevents deadlock",
                        )
                    )
        return findings


@register_rule
class SysNameRule(Rule):
    name = "sys-name"
    approved = ("*obs/sysstreams.py", "*core/engine.py", "*analysis/*")
    _creators = {"create_basket", "create_table", "register", "Basket"}

    def check(self, tree: ast.Module, relpath: str) -> List[Finding]:
        findings = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _dotted(node.func) or ""
            if name.split(".")[-1] not in self._creators:
                continue
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value.lower().startswith("sys.")
                ):
                    findings.append(
                        _finding(
                            self,
                            relpath,
                            node,
                            f"reserved name {arg.value!r}: the sys.* "
                            f"namespace belongs to the system streams",
                        )
                    )
        return findings


@register_rule
class SqlStructureRule(Rule):
    name = "sql-structure"
    approved = ("*sql/resolve.py", "*sql/parser.py", "*sql/ast_nodes.py")
    _clauses = {"sources", "group_by", "having", "order_by"}

    def check(self, tree: ast.Module, relpath: str) -> List[Finding]:
        message = "reads a SELECT clause; use the resolver's ResolvedSelect"
        return [
            _finding(self, relpath, node, f".{node.attr} {message}")
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in self._clauses
        ]


@register_rule
class LrColumnarRule(Rule):
    name = "lr-columnar"
    #: the one module the rule covers
    scope = "*linearroad/queries.py"
    _banned = {"python_list", "bat_from_values"}

    def applies_to(self, relpath: str) -> bool:
        return fnmatch.fnmatch(relpath, self.scope)

    def check(self, tree: ast.Module, relpath: str) -> List[Finding]:
        message = "in a Linear Road plan; read tails, emit adopted arrays"
        findings = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", ""))
            elif isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names} & self._banned
                name = min(names, default="")
            else:
                continue
            if name in self._banned:
                findings.append(
                    _finding(self, relpath, node, f"{name} {message}"))
        return findings


# ----------------------------------------------------------------------
# suppression + driving
# ----------------------------------------------------------------------
_SUPPRESS = re.compile(r"#\s*dc-lint:\s*disable=([\w,-]+)")
_SUPPRESS_FILE = re.compile(r"#\s*dc-lint:\s*disable-file(?:=([\w,-]+))?")


def _suppressions(source: str) -> Tuple[Dict[int, Set[str]], Optional[Set[str]]]:
    """(line -> rules suppressed there, file-wide rules or empty-set=all)."""
    per_line: Dict[int, Set[str]] = {}
    file_wide: Optional[Set[str]] = None
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS.search(line)
        if match:
            per_line[lineno] = set(match.group(1).split(","))
        if lineno <= 10:
            match = _SUPPRESS_FILE.search(line)
            if match:
                rules = match.group(1)
                file_wide = set(rules.split(",")) if rules else set()
    return per_line, file_wide


def lint_file(
    path: Path,
    root: Path,
    select: Optional[Set[str]] = None,
) -> List[Finding]:
    source = path.read_text()
    relpath = str(path.relative_to(root) if root in path.parents or path == root
                  else path).replace("\\", "/")
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as exc:
        return [
            Finding(relpath, exc.lineno or 0, exc.offset or 0,
                    "syntax", f"cannot parse: {exc.msg}")
        ]
    per_line, file_wide = _suppressions(source)
    findings: List[Finding] = []
    for rule in RULES:
        if select is not None and rule.name not in select:
            continue
        if not rule.applies_to(relpath):
            continue
        if file_wide is not None and (not file_wide or rule.name in file_wide):
            continue
        for finding in rule.check(tree, relpath):
            suppressed = per_line.get(finding.line, set())
            if finding.rule in suppressed:
                continue
            findings.append(finding)
    return findings


def lint_paths(
    paths: Sequence[str], select: Optional[Set[str]] = None
) -> List[Finding]:
    findings: List[Finding] = []
    for raw in paths:
        base = Path(raw)
        root = base if base.is_dir() else base.parent
        files = sorted(base.rglob("*.py")) if base.is_dir() else [base]
        for path in files:
            if "__pycache__" in path.parts:
                continue
            findings.extend(lint_file(path, root, select))
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="DataCell engine-invariant linter",
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text"
    )
    parser.add_argument(
        "--select", default=None,
        help="comma-separated rule names to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rules and exit"
    )
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule in RULES:
            print(rule.name)
        return 0
    select = set(args.select.split(",")) if args.select else None
    findings = lint_paths(args.paths, select)
    if args.format == "json":
        print(json.dumps([f.to_dict() for f in findings], indent=2))
    else:
        for finding in findings:
            print(finding.render())
        print(f"{len(findings)} finding(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
