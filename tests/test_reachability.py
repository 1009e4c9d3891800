"""Whole-program reachability: nothing in ``src/`` is reached only by tests.

Two checks, both over the whole program (``analysis/lint.py`` checks one
file at a time, so they live here):

* **Modules.**  Imports are walked by name from the entry points — the
  ``repro`` and ``repro.server`` packages, ``python -m repro.server.cli``
  and every script under ``examples/``, ``scripts/`` and
  ``benchmarks/``.  A package ``__init__``'s ``from … import name`` is a
  re-export: it reaches its module only when the package is itself a
  root, or when an importer names that symbol.  Every ``repro`` module
  the walk misses must be excused by :data:`ALLOWED_UNREACHED`.
* **Opcodes.**  Every routing-golden query and :data:`CONTINUOUS` query is
  compiled in both forms (SELECT and view), plus :data:`ONE_TIME` one-time
  statements; the opcodes of the final optimized programs (so an
  optimizer rewrite counts) must cover
  :data:`~repro.kernel.interpreter.OPCODES` except
  :data:`ALLOWED_UNEMITTED`.

An allow-list entry that no longer excuses anything — it became reached,
or names nothing — fails the check too, so the lists only shrink.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Set, Tuple

import pytest

from repro import DataCell
from repro.kernel.interpreter import OPCODES

from .test_sql_routing_golden import FORMS, QUERIES, _cell

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

MODULE_ROOTS = ("repro", "repro.server", "repro.server.cli")
SCRIPT_DIRS = ("examples", "scripts", "benchmarks")

#: module prefix -> why nothing outside the tests imports it
ALLOWED_UNREACHED = {
    "repro.simtest": "test tooling: the simulator and the differential "
                     "oracles run from CI jobs and tier-1 tests",
    "repro.analysis": "test tooling: the lint, the verifier corpus and "
                      "the lock-order recorder run from CI jobs and tests "
                      "(the verifier itself is reached from the engine)",
    "repro.core.topology": "a documented debug view of a cell's Petri net",
    "repro.core.strategies": "the paper's processing strategies (§3); "
                             "ROADMAP items 6 and 7 replace them",
    "repro.core.splitting": "§3.2 query splitting; ROADMAP items 6 and 7 "
                            "replace it",
}

#: opcode prefix -> why no code generator emits it
ALLOWED_UNEMITTED = {
    "language.pass": "the optimizer's CSE alias for a merged output or "
                     "protected root; no compiled SQL program merges "
                     "one",
}

#: continuous queries over the routing golden's schema, for the opcodes
#: no golden query emits
CONTINUOUS = (
    # a simple conjunct, then a residual one: algebra.compose
    "select * from [select * from s where s.k > 0 and (s.v < 5 or s.k > 3)]"
    " as x",
)

#: one-time statements over :data:`ONE_TIME_SCHEMA`, for the opcodes only
#: one-time SQL emits (scalar functions, set operations, ORDER BY ...)
ONE_TIME_SCHEMA = (
    "create table t (a int, b double, s varchar(8))",
    "insert into t values (1, 1.5, 'Ab'), (null, -2.25, null), "
    "(3, 2.0, ' xy ')",
)
ONE_TIME = (
    "select ceil(b), floor(b), round(b, 1), abs(b), sqrt(abs(b)) from t",
    "select lower(s), upper(s), trim(s), length(s), substring(s, 1, 1) "
    "from t",
    "select s like 'A%', a is null, a is not null from t",
    "select a - 1, a * 2, a / 2, a % 2, -a from t",
    "select a != 1, a <= 1, a >= 1, a > 1 and b < 2, a = 1 or b > 0 "
    "from t",
    "select not (a = 1), cast(a as double) from t",
    "select * from t where a is null",
    "select * from t where s like 'A%'",
    "select count(a), count(*), min(b), max(b), sum(a), avg(b) from t",
    "select a, s, count(*), max(b) from t group by a, s",
    "select a from t order by a, b desc limit 2",
    "select a from t union all select a from t",
    "select distinct a from t",
    "select case when a > 1 then b else 0.0 end from t",
    "select x.a from t as x, t as y where x.a = y.a and x.b > 0",
    "select a from t where a in (1, 3) and b between 0 and 5",
)


# ----------------------------------------------------------------------
# module walk
# ----------------------------------------------------------------------
def module_files(src: Path) -> Dict[str, Path]:
    """Dotted name -> file of every module under ``src``."""
    out = {}
    for path in sorted(src.rglob("*.py")):
        parts = list(path.relative_to(src).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = path
    return out


def _edges(path: Path, module: Optional[str] = None, package=False):
    """``(source, aliases)`` per import in ``path``: ``aliases`` is
    ``None`` for ``import source``.  A relative import resolves against
    ``module`` (a script has none, so it reaches no ``repro`` module)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                if module is None:
                    continue
                base = module.split(".")[: None if package else -1]
                base = base[: len(base) - node.level + 1]
                source = ".".join(base + ([source] if source else []))
            yield source, node.names


class ImportGraph:
    """Who imports what, by name, over the modules in ``modules``.

    ``imports[m]`` holds the ``(module, names)`` pairs ``m`` imports from:
    ``names`` is ``None`` for ``import module`` and the imported names
    for ``from module import names``.  ``reexports[p]`` maps a package's
    ``from … import`` names to the ``(module, name)`` they come from.
    """

    def __init__(self, modules: Dict[str, Path]):
        self.modules = modules
        self.imports: Dict[str, list] = {}
        self.reexports: Dict[str, Dict[str, Tuple[str, str]]] = {}
        for name, path in modules.items():
            package = path.name == "__init__.py"
            self.add(name, path, package)
            if package:
                self.reexports[name] = {
                    alias.asname or alias.name: (source, alias.name)
                    for source, aliases in _edges(path, name, package)
                    for alias in aliases or ()
                }

    def add(self, name: str, path: Path, package=False, script=False):
        """Record the imports of module (or script) ``name``."""
        self.imports[name] = [
            (source, None if aliases is None else
             tuple(alias.name for alias in aliases))
            for source, aliases in _edges(
                path, None if script else name, package)
        ]

    @classmethod
    def of_scripts(cls, modules: Dict[str, Path], scripts: Iterable[Path]):
        """The graph of ``modules`` plus each script as a root module."""
        graph = cls(modules)
        roots = []
        for path in scripts:
            roots.append(f"<script>{path}")
            graph.add(roots[-1], path, script=True)
        return graph, roots

    def reached(self, roots: Iterable[str]) -> Set[str]:
        """Every module the roots reach.

        A root, and every plain module reached, follows all of its
        imports.  Any other package follows only its re-exports of the
        names imported from it.
        """
        roots = set(roots)
        seen: Set[Tuple[str, Optional[str]]] = set()
        todo = [(root, None) for root in roots]
        while todo:
            item = todo.pop()
            if item in seen:
                continue
            seen.add(item)
            module, name = item
            if name is None:
                for source, names in self.imports.get(module, ()):
                    todo += self._targets(source, names, roots)
            elif name in self.reexports.get(module, {}):
                source, original = self.reexports[module][name]
                todo += self._targets(source, (original,), roots)
        return {module for module, _ in seen if module in self.modules}

    def _node(self, module: str, roots: Set[str]):
        """``module`` as reached whole (``None``), or as a non-root
        package by no name yet (``""``)."""
        path = self.modules.get(module)
        package = path is not None and path.name == "__init__.py"
        return (module, "" if package and module not in roots else None)

    def _targets(self, source: str, names, roots: Set[str]):
        """What importing ``names`` from ``source`` reaches: its parent
        packages, ``source`` itself, and each name — a submodule, or a
        package's symbol through its re-export."""
        parts = source.split(".")
        out = [self._node(".".join(parts[:i]), roots)
               for i in range(1, len(parts) + 1)]
        whole = out[-1][1] is None  # a plain module, or a root
        for name in names or ():
            sub = f"{source}.{name}"
            if sub in self.modules:
                out.append(self._node(sub, roots))
            elif name == "*" and not whole:
                out += [(source, n) for n in self.reexports.get(source, {})]
            elif not whole:
                out.append((source, name))
        return out


def unreached(modules, reached, allowed) -> Tuple[List[str], List[str]]:
    """``(unexcused modules, allow-list entries excusing nothing)``."""
    missed = sorted(set(modules) - reached)

    def excused(module, prefix):
        return module == prefix or module.startswith(prefix + ".")

    unexcused = [m for m in missed
                 if not any(excused(m, p) for p in allowed)]
    idle = [p for p in allowed if not any(excused(m, p) for m in missed)]
    return unexcused, idle


def _scripts() -> List[Path]:
    return sorted(
        path for folder in SCRIPT_DIRS for path in (REPO / folder).rglob("*.py")
    )


class TestModules:
    def test_every_module_is_reached_or_allowed(self):
        modules = module_files(SRC)
        graph, scripts = ImportGraph.of_scripts(modules, _scripts())
        reached = graph.reached(list(MODULE_ROOTS) + scripts)
        unexcused, idle = unreached(modules, reached, ALLOWED_UNREACHED)
        assert unexcused == [], (
            f"modules only the tests reach: {unexcused}; delete them or "
            f"add them to ALLOWED_UNREACHED with a reason")
        assert idle == [], (
            f"ALLOWED_UNREACHED entries that excuse nothing: {idle}")


def _plant(tmp_path: Path, files: Dict[str, str]) -> Dict[str, Path]:
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return module_files(tmp_path)


class TestPlantedModules:
    def test_unreached_module_is_flagged(self, tmp_path):
        modules = _plant(tmp_path, {
            "pkg/__init__.py": "from .used import run\n",
            "pkg/used.py": "def run():\n    pass\n",
            "pkg/orphan.py": "from .used import run\n",
        })
        reached = ImportGraph(modules).reached(["pkg"])
        assert unreached(modules, reached, {}) == (["pkg.orphan"], [])

    def test_reexport_reaches_only_named_symbols(self, tmp_path):
        modules = _plant(tmp_path, {
            "pkg/__init__.py": "",
            "pkg/main.py": "from pkg.sub import used\n",
            "pkg/sub/__init__.py": (
                "from .impl import used\nfrom .extra import unused\n"),
            "pkg/sub/impl.py": "used = 1\n",
            "pkg/sub/extra.py": "unused = 2\n",
        })
        reached = ImportGraph(modules).reached(["pkg.main"])
        # pkg.sub is imported from, so it is reached, but its re-export
        # of ``unused`` reaches nothing: no importer names it
        assert unreached(modules, reached, {}) == (["pkg.sub.extra"], [])
        # the package as a root follows every re-export
        assert unreached(
            modules, ImportGraph(modules).reached(["pkg.main", "pkg.sub"]),
            {}) == ([], [])

    def test_idle_allow_list_entry_is_flagged(self, tmp_path):
        modules = _plant(tmp_path, {
            "pkg/__init__.py": "from . import tool\n",
            "pkg/tool.py": "",
        })
        reached = ImportGraph(modules).reached(["pkg"])
        assert unreached(
            modules, reached, {"pkg.tool": "reached now", "pkg.gone": "?"}
        ) == ([], ["pkg.tool", "pkg.gone"])


# ----------------------------------------------------------------------
# opcode coverage
# ----------------------------------------------------------------------
def _opcodes(program) -> Set[str]:
    return {f"{ins.module}.{ins.fn}" for ins in program.instructions}


def continuous_opcodes() -> Set[str]:
    """Opcodes of every registered MAL stage of the continuous queries."""
    emitted: Set[str] = set()
    for sql in (*QUERIES.values(), *CONTINUOUS):
        for form in FORMS.values():
            cell = _cell()
            try:
                handle = cell.submit_continuous(form.format(sql), name="q")
            except Exception:  # a rejected query registers nothing
                continue
            finally:
                cell.stop()
            for stage in getattr(handle.factory.plan, "stages", None) or ():
                emitted |= _opcodes(stage.program)
    return emitted


def one_time_opcodes() -> Set[str]:
    """Opcodes of the optimized programs :data:`ONE_TIME` runs."""
    cell = DataCell()
    for statement in ONE_TIME_SCHEMA:
        cell.execute(statement)
    emitted: Set[str] = set()
    run = cell.interpreter.run

    def recording(program, *args, **kwargs):
        emitted.update(_opcodes(program))
        return run(program, *args, **kwargs)

    cell.interpreter.run = recording
    for sql in ONE_TIME:
        cell.query(sql)
    cell.stop()
    return emitted


def unemitted(opcodes, emitted, allowed) -> Tuple[List[str], List[str]]:
    """``(unexcused opcodes, allow-list entries excusing nothing)``."""
    missed = sorted(set(opcodes) - emitted)
    unexcused = [op for op in missed
                 if not any(op.startswith(p) for p in allowed)]
    idle = [p for p in allowed if not any(op.startswith(p) for op in missed)]
    return unexcused, idle


@pytest.fixture(scope="module")
def one_time():
    return one_time_opcodes()


@pytest.fixture(scope="module")
def emitted(one_time):
    return continuous_opcodes() | one_time


class TestOpcodes:
    def test_every_opcode_is_emitted_or_allowed(self, emitted):
        unexcused, idle = unemitted(OPCODES, emitted, ALLOWED_UNEMITTED)
        assert unexcused == [], (
            f"opcodes no code generator emits: {unexcused}; delete them "
            f"or add them to ALLOWED_UNEMITTED with a reason")
        assert idle == [], (
            f"ALLOWED_UNEMITTED entries that excuse nothing: {idle}")
        assert set(OPCODES) - emitted == {"language.pass"}

    def test_one_time_sql_reaches_the_scalar_functions(self, one_time):
        assert {
            "batmath.ceil", "batstr.lower", "batstr.like", "batcalc.isnil",
        } <= one_time

    def test_extra_opcode_is_flagged(self, emitted, monkeypatch):
        monkeypatch.setitem(OPCODES, "algebra.unused", OPCODES["algebra.join"])
        assert unemitted(OPCODES, emitted, ALLOWED_UNEMITTED) == (
            ["algebra.unused"], [])
