"""MAL — the kernel's assembly language.

MonetDB executes plans written in MAL, a virtual-machine assembly where each
instruction wraps one optimized relational primitive.  We reproduce the same
shape: a :class:`Program` is a straight-line SSA-ish list of
:class:`Instr` uctions, each calling ``module.function`` on variables and
constants and binding (possibly several) result variables.

Control flow (Algorithm 1's ``while true`` / ``suspend``) deliberately lives
*outside* MAL, in the factory shell (:mod:`repro.core.factory`): the paper's
factories are "ordinary functions whose execution state is saved between
calls", and the saved state here is the basket read-cursor plus the python
generator's frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..errors import MalError
from .bat import BAT
from .types import AtomType, python_values

__all__ = ["Var", "Const", "Instr", "PlanNode", "Program", "ResultSet"]

_count = attrgetter("count")


@dataclass(frozen=True)
class Var:
    """Reference to a MAL variable by name."""

    name: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return self.name


@dataclass(frozen=True)
class Const:
    """A literal argument embedded in an instruction."""

    value: Any

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return repr(self.value)


Arg = Union[Var, Const]


@dataclass(frozen=True)
class Instr:
    """One MAL instruction: ``results := module.fn(args)``.

    ``node`` is the id of the logical-plan node (:class:`PlanNode`) this
    instruction implements — the EXPLAIN ANALYZE back-pointer letting the
    interpreter aggregate per-opcode timings onto the plan tree.  ``None``
    for instructions emitted outside any node scope (glue code).
    """

    results: Tuple[str, ...]
    module: str
    fn: str
    args: Tuple[Arg, ...]
    node: Optional[int] = None

    def render(self) -> str:
        """Human-readable MAL-like text (used by EXPLAIN and tests)."""
        lhs = ", ".join(self.results)
        rhs = ", ".join(repr(a) for a in self.args)
        head = f"{lhs} := " if self.results else ""
        return f"{head}{self.module}.{self.fn}({rhs})"


@dataclass
class PlanNode:
    """One logical-plan operator (scan, where, aggregate, ...).

    Forms a tree via ``children``; compiled MAL instructions point back at
    their node through :attr:`Instr.node`, so runtime opcode timings can
    be re-aggregated onto the operator that asked for them.
    """

    node_id: int
    label: str
    parent: Optional[int] = None
    children: List[int] = field(default_factory=list)


class Program:
    """A straight-line MAL program plus symbolic metadata.

    ``inputs`` names the free variables the caller must provide (for
    factories these are bound baskets); ``output`` names the variable whose
    value is the program's result (usually a :class:`ResultSet`).
    """

    def __init__(
        self,
        name: str = "main",
        inputs: Optional[Sequence[str]] = None,
        output: Optional[str] = None,
    ):
        self.name = name
        self.instructions: List[Instr] = []
        self.inputs: List[str] = list(inputs or [])
        self.output = output
        self._counter = 0
        # logical-plan annotation layer (EXPLAIN ANALYZE): node registry,
        # the open-node stack driving emit() tagging, and the runtime
        # stats the interpreter flushes back ({node_id: [calls, s, rows]})
        self.nodes: Dict[int, PlanNode] = {}
        self.plan_root: Optional[int] = None
        self._node_stack: List[int] = []
        self._node_counter = 0
        self.node_stats: Dict[Optional[int], List[float]] = {}
        # nodes holding table steps (run once per table version, see
        # kernel.interpreter): {node_id: [executions that ran them,
        # executions]}
        self.table_runs: Dict[int, List[int]] = {}
        # the interpreter's execution binding, built on first execution
        # (kernel.interpreter._Bound) — not at compile time, so compiling
        # a query pays nothing for it
        self._bound: Any = None

    def fresh(self, prefix: str = "v") -> str:
        """Allocate a fresh variable name."""
        self._counter += 1
        return f"{prefix}{self._counter}"

    # ------------------------------------------------------------------
    # logical-plan nodes (EXPLAIN ANALYZE)
    # ------------------------------------------------------------------
    def begin_node(self, label: str) -> int:
        """Open a plan node; instructions emitted until the matching
        :meth:`end_node` are tagged with it.  Nested opens build the
        operator tree."""
        self._node_counter += 1
        node_id = self._node_counter
        parent = self._node_stack[-1] if self._node_stack else None
        node = PlanNode(node_id, label, parent=parent)
        self.nodes[node_id] = node
        if parent is not None:
            self.nodes[parent].children.append(node_id)
        elif self.plan_root is None:
            self.plan_root = node_id
        self._node_stack.append(node_id)
        return node_id

    def end_node(self) -> None:
        if not self._node_stack:
            raise MalError("end_node() without a matching begin_node()")
        self._node_stack.pop()

    def node(self, label: str) -> "_NodeScope":
        """``with program.node("where"): ...`` — scoped begin/end."""
        return _NodeScope(self, label)

    def current_node(self) -> Optional[int]:
        return self._node_stack[-1] if self._node_stack else None

    def emit(
        self,
        module: str,
        fn: str,
        args: Sequence[Arg],
        results: Union[int, Sequence[str]] = 1,
        prefix: str = "v",
    ) -> Union[str, Tuple[str, ...]]:
        """Append an instruction, auto-naming results.

        ``results`` is either a count (fresh names are allocated) or explicit
        names.  Returns the single name or the tuple of names.
        """
        if isinstance(results, int):
            names = tuple(self.fresh(prefix) for _ in range(results))
        else:
            names = tuple(results)
        self.instructions.append(
            Instr(names, module, fn, tuple(args), node=self.current_node())
        )
        if len(names) == 1:
            return names[0]
        return names

    def render(self) -> str:
        """The whole program as MAL-like text."""
        header = f"function {self.name}({', '.join(self.inputs)}):"
        body = "\n".join("    " + ins.render() for ins in self.instructions)
        footer = f"    return {self.output};" if self.output else ""
        return "\n".join(x for x in (header, body, footer) if x)

    def __len__(self) -> int:
        return len(self.instructions)

    def validate(self) -> None:
        """Check SSA-style def-before-use over the instruction list."""
        defined = set(self.inputs)
        for ins in self.instructions:
            for arg in ins.args:
                if isinstance(arg, Var) and arg.name not in defined:
                    raise MalError(
                        f"variable {arg.name!r} used before definition in "
                        f"{ins.render()}"
                    )
            defined.update(ins.results)
        if self.output and self.output not in defined:
            raise MalError(f"output variable {self.output!r} never defined")

    # ------------------------------------------------------------------
    # EXPLAIN ANALYZE rendering
    # ------------------------------------------------------------------
    def analyzed_seconds(self) -> float:
        """Total interpreter seconds attributed to plan nodes (or glue)."""
        return sum(slot[1] for slot in self.node_stats.values())

    def render_analyze(self) -> str:
        """The annotated plan tree: cumulative time, calls, and rows per
        operator, aggregated from interpreter opcode timings.

        Node times are *cumulative over activations* — a continuous query
        runs the same program on every firing, so EXPLAIN ANALYZE here
        answers "where has query Q spent its time so far", the streaming
        analogue of the one-shot variant.
        """
        lines = [f"continuous query {self.name}"]
        if self.plan_root is None:
            lines.append("  (no plan annotations)")
        else:
            self._render_node(self.plan_root, 1, lines)
        glue = self.node_stats.get(None)
        if glue is not None:
            lines.append(
                "  (glue) " + self._format_stats(glue)
            )
        total = self.analyzed_seconds()
        lines.append(f"total analyzed: {total * 1e3:.3f} ms")
        return "\n".join(lines)

    def _render_node(self, node_id: int, depth: int, lines: List[str]) -> None:
        node = self.nodes[node_id]
        stats = self.node_stats.get(node_id)
        suffix = (
            "  " + self._format_stats(stats)
            if stats is not None
            else "  (never executed)"
        )
        runs = self.table_runs.get(node_id)
        if runs is not None:
            computed, executions = runs
            suffix += (
                f"  once per table version: computed {computed} of "
                f"{executions} runs"
            )
        lines.append("  " * depth + node.label + suffix)
        for child in node.children:
            self._render_node(child, depth + 1, lines)

    @staticmethod
    def _format_stats(slot: List[float]) -> str:
        calls, seconds, rows = slot
        return (
            f"[time={seconds * 1e3:.3f} ms, calls={int(calls)}, "
            f"rows={int(rows)}]"
        )


class _NodeScope:
    """Context manager pairing ``begin_node``/``end_node``."""

    __slots__ = ("_program", "_label", "_node_id")

    def __init__(self, program: Program, label: str):
        self._program = program
        self._label = label

    def __enter__(self) -> int:
        self._node_id = self._program.begin_node(self._label)
        return self._node_id

    def __exit__(self, *exc: Any) -> None:
        self._program.end_node()


class ResultSet:
    """A named, aligned collection of result columns.

    The shape every query evaluation produces: column names plus BATs of
    equal length.  Also what factories append to output baskets and what
    emitters serialize to clients.
    """

    def __init__(self, names: Sequence[str], bats: Sequence[BAT]):
        if len(names) != len(bats):
            raise MalError("result set names/columns arity mismatch")
        counts = set(map(_count, bats))
        if len(counts) > 1:
            raise MalError(f"result set columns differ in length: {counts}")
        self.names = list(names)
        self.bats = list(bats)
        #: rows (the columns are fixed, so it is counted once)
        self.count = counts.pop() if counts else 0

    def __len__(self) -> int:
        return self.count

    def column(self, name: str) -> BAT:
        try:
            return self.bats[self.names.index(name)]
        except ValueError:
            raise MalError(f"result has no column {name!r}") from None

    def rows(self) -> List[Tuple[Any, ...]]:
        """Materialize as python tuples (NULL → None)."""
        cols = [python_values(b.atom, b.tail) for b in self.bats]
        return list(zip(*cols)) if cols and self.count else []

    def atoms(self) -> List[AtomType]:
        return [b.atom for b in self.bats]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultSet({self.names}, rows={self.count})"
