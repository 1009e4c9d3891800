"""The MAL virtual machine: executes :class:`~repro.kernel.mal.Program`.

The interpreter resolves each instruction's ``module.fn`` against
:data:`OPCODES`, the one table of primitives that wrap the kernel operator
modules.  Each entry also declares the primitive's signature and, where the
kernel decides one, its result-atom rule; the plan verifier and the SQL
compiler read those instead of keeping their own copies.  The environment
maps variable names to values (BATs, candidate arrays, scalars, tables,
result sets).  Factories re-execute the same program against fresh basket
snapshots on every activation; the interpreter itself is stateless.

A program that reads a table runs its table-only steps once per table
version, as a MAL factory keeps state between calls.  Binding a program
(:class:`_Bound`) marks the *table steps*: the steps of a ``pure``
(deterministic) opcode whose every variable input is the result of a
``sql.bind`` with constant arguments or of another table step — a table
scan's ``densecands``/``projection`` and any filter on table columns.
Those binds and steps move ahead of the rest (they read nothing else).
Every execution runs the binds; when each bound BAT is the same object
with the same ``count`` as when the table steps last ran, their saved
results go back into the environment and the steps are skipped
(:class:`_TableSteps`).  That check is sound because BATs are
append-only: an append moves ``count``, and ``Table.truncate``,
``Table.replace_bats`` and a basket's compaction of its dead rows (which
``Basket.bat`` runs before it hands a column out) swap in new BAT
objects.  Skipped steps are not
counted as invocations anywhere (profile, metrics, EXPLAIN ANALYZE, a
traced firing's opcode spans).
"""

from __future__ import annotations

import threading
import time
from threading import get_ident
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..errors import MalError, ReproError, TypeMismatchError
from ..obs.metrics import MetricsRegistry, Tally, default_registry
from ..obs.tracing import traced_firing
from . import aggregate as _aggregate
from . import calc as _calc
from . import candidates as _cand
from . import group as _group
from . import join as _join
from . import mathops as _mathops
from . import select as _select
from . import sort as _sort
from . import strings as _strings
from .bat import BAT
from .catalog import Catalog, Table
from .mal import Const, Instr, Program, ResultSet, Var
from .types import AtomType, atom_named, compare_atom, python_values

__all__ = ["MalInterpreter", "MalContext", "Opcode", "OPCODES"]

Primitive = Callable[..., Any]
AtomRule = Callable[..., Optional[AtomType]]


@dataclass(frozen=True)
class Opcode:
    """One MAL primitive: its implementation and its declared signature.

    ``params`` holds one kind spec per parameter — ``bat``, ``cand``,
    ``candopt`` (a candidate list or a literal ``None``), ``scalar``,
    ``table``, ``result`` or ``any`` — a ``?`` suffix marking it optional;
    ``varargs`` is the spec of any number of trailing arguments.
    ``returns`` holds the kind of each result the primitive assigns.

    ``pure`` marks a deterministic primitive — its results depend on its
    arguments only, and it writes none of them — whose results may be
    reused while its inputs are unchanged (table steps, see the module
    docstring).

    ``atom``, where the kernel decides one, is the rule typing the first
    result.  It takes one item per argument — a ``scalar`` argument's
    value, any other argument's atom (``None``: unknown) — and returns an
    atom (``None``: unknown) or raises :class:`~repro.errors.KernelError`.
    The kernel operator behind ``fn`` types its output with the same rule.

    ``bind`` lets an instruction whose arguments from the first
    ``scalar`` parameter on are constants run as ``bind(*those)(*rest)``:
    work that does not depend on the data is done once, at bind time.
    """

    fn: Primitive
    params: Tuple[str, ...]
    returns: Tuple[str, ...]
    varargs: Optional[str] = None
    atom: Optional[AtomRule] = None
    pure: bool = False
    bind: Optional[Callable[..., Callable[..., Any]]] = None

    @property
    def bound_arity(self) -> int:
        """How many leading arguments a :attr:`bind` result takes."""
        return [p.startswith("scalar") for p in self.params].index(True)

    @property
    def min_arity(self) -> int:
        return sum(1 for p in self.params if not p.endswith("?"))

    @property
    def max_arity(self) -> Optional[int]:
        return None if self.varargs else len(self.params)

    def spec(self, position: int) -> str:
        """Kind spec of argument ``position``, without its ``?``."""
        if position < len(self.params):
            return self.params[position].rstrip("?")
        return self.varargs or "any"


#: every MAL opcode, by ``module.fn``
OPCODES: Dict[str, Opcode] = {}


def primitive(
    name: str,
    params: str = "",
    returns: str = "bat",
    varargs: Optional[str] = None,
    atom: Any = None,
    pure: bool = False,
    bind: Optional[Callable[..., Callable[..., Any]]] = None,
) -> Callable[[Primitive], Primitive]:
    """Register ``fn`` as the implementation of MAL ``name``.

    ``params`` and ``returns`` are space-separated kind specs (see
    :class:`Opcode`); an :class:`AtomType` ``atom`` is a fixed result atom;
    ``pure`` marks a deterministic primitive; ``bind`` is
    :attr:`Opcode.bind`.
    """
    rule = (lambda *_: atom) if isinstance(atom, AtomType) else atom

    def wrap(fn: Primitive) -> Primitive:
        if name in OPCODES:
            raise MalError(f"duplicate primitive {name}")
        OPCODES[name] = Opcode(
            fn, tuple(params.split()), tuple(returns.split()), varargs, rule,
            pure, bind,
        )
        return fn

    return wrap


class MalContext:
    """Runtime context passed to primitives: the catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog


def _unknown(ins: Instr) -> Primitive:
    def fail(*_: Any) -> Any:
        raise MalError(f"unknown MAL primitive {ins.module}.{ins.fn}")

    return fail


class _Step:
    """One instruction, resolved for execution: ``fn(*args)`` runs it,
    ``args`` being ``template`` with each ``(position, variable)`` of
    ``slots`` filled from the environment.

    ``fn`` is the primitive with the context bound in; for an opcode
    that binds its trailing arguments (:attr:`Opcode.bind`) and an
    instruction passing them as constants, it is what they bound, and
    the template holds only the leading arguments.  ``key`` and ``node``
    index the program's profile-key and plan-node tables (:class:`_Bound`).
    """

    __slots__ = ("fn", "template", "slots", "results", "single", "key",
                 "node", "ins")

    def __init__(self, ins: Instr, key: int, node: int, ctx: MalContext):
        opcode = OPCODES.get(f"{ins.module}.{ins.fn}")
        args = ins.args
        if opcode is None:
            fn = _unknown(ins)
        elif (
            opcode.bind is not None
            and len(args) == len(opcode.params)
            and all(
                isinstance(arg, Const) for arg in args[opcode.bound_arity:]
            )
        ):
            kept = opcode.bound_arity
            fn = opcode.bind(*(arg.value for arg in args[kept:]))
            args = args[:kept]
        else:
            fn = partial(opcode.fn, ctx)
        self.fn = fn
        self.template = [
            None if isinstance(arg, Var) else _const(arg, ins) for arg in args
        ]
        self.slots = tuple(
            (i, arg.name) for i, arg in enumerate(args) if isinstance(arg, Var)
        )
        self.results = ins.results
        self.single = ins.results[0] if len(ins.results) == 1 else None
        self.key = key
        self.node = node
        self.ins = ins


def _const(arg: Any, ins: Instr) -> Any:
    if not isinstance(arg, Const):  # pragma: no cover - defensive
        raise MalError(f"bad argument {arg!r} in {ins.render()}")
    return arg.value


class _Bound:
    """A program's instructions bound once, on first execution, for one
    interpreter's context.

    ``keys`` holds each distinct ``module.fn`` profile key with its call
    count per execution; ``nodes`` each plan node id with its call count
    and its instructions' result variables, the last instruction's first
    (a node's row count is what its final row-producing instruction
    produced: its first result that holds rows — a join's right oids when
    its left side is the all-rows candidate ``None``).  ``table`` is
    the program's :class:`_TableSteps` (``None``: it has none), and
    ``segments`` the one step list a program without them runs.

    The profile slots an execution adds to are resolved here too:
    ``slots`` are the opcode slots (aligned with ``keys``) of the thread
    that ``thread`` names, ``cells`` the program's ``node_stats`` entries
    (aligned with ``nodes``, each made when its node first runs) and
    ``cpu`` the thread CPU charged to each key under resource accounting;
    ``account`` is the query account ``cpu`` has been reported to.  Kept
    on the :class:`Program` as ``_bound``; a program whose instruction
    list is replaced or grows, or that another interpreter runs, is bound
    again.
    """

    __slots__ = ("instructions", "length", "ctx", "inputs", "steps", "keys",
                 "nodes", "table", "segments", "thread", "slots", "cells",
                 "cpu", "account")

    def __init__(self, program: Program, ctx: MalContext):
        self.instructions = program.instructions
        self.length = len(program.instructions)
        self.ctx = ctx
        self.inputs = frozenset(program.inputs)
        key_index: Dict[str, int] = {}
        node_index: Dict[Optional[int], int] = {}
        keys: List[List[Any]] = []
        nodes: List[List[Any]] = []
        self.steps: List[_Step] = []
        for ins in program.instructions:
            key = f"{ins.module}.{ins.fn}"
            k = key_index.setdefault(key, len(keys))
            if k == len(keys):
                keys.append([key, 0])
            keys[k][1] += 1
            n = node_index.setdefault(ins.node, len(nodes))
            if n == len(nodes):
                nodes.append([ins.node, 0, []])
            nodes[n][1] += 1
            nodes[n][2][:0] = ins.results
            self.steps.append(_Step(ins, k, n, ctx))
        self.keys = [(key, calls) for key, calls in keys]
        self.nodes = [(node, calls, tuple(rows)) for node, calls, rows in nodes]
        self.segments = (self.steps,)
        self.table = _TableSteps.mark(program, self)
        self.thread: Optional[int] = None
        self.slots: List[List[Optional[Tally]]] = []
        self.cells: List[Optional[List[float]]] = [None] * len(nodes)
        self.cpu = [0.0] * len(keys)
        self.account: Any = None


class _TableSteps:
    """A program's table steps (see the module docstring) and the results
    they produced when they last ran.

    ``binds`` are the program's ``sql.bind`` steps with constant arguments,
    ``steps`` its table steps and ``rest`` every other step, each in
    program order.  ``keys``/``nodes`` are the :class:`_Bound` tables less
    the table steps' calls: what an execution that skips them ran.
    ``node_ids`` are the plan nodes holding table steps.  ``values`` holds
    each table step result, and ``versions`` each bind's BAT with its
    ``count``, as of when the steps last ran; ``hit`` says whether the
    latest execution reused them.
    """

    __slots__ = ("binds", "steps", "rest", "bind_results", "step_results",
                 "keys", "nodes", "node_ids", "values", "versions", "hit")

    @classmethod
    def mark(cls, program: Program, bound: _Bound) -> Optional["_TableSteps"]:
        """The table steps of ``bound``, or ``None`` if it has none."""
        results = [name for ins in program.instructions for name in ins.results]
        assigned = set(results)
        if len(assigned) != len(results) or assigned & set(program.inputs):
            return None  # a variable assigned twice: keep program order
        table_vars: set = set()
        binds, steps, rest = [], [], []
        for step in bound.steps:
            ins = step.ins
            names = [name for _, name in step.slots]
            opcode = OPCODES.get(f"{ins.module}.{ins.fn}")
            if opcode is None:
                rest.append(step)
            elif opcode.fn is _sql_bind and not names:
                binds.append(step)
                table_vars.update(ins.results)
            elif opcode.pure and names and table_vars.issuperset(names):
                steps.append(step)
                table_vars.update(ins.results)
            else:
                rest.append(step)
        if not steps:
            return None
        table = cls()
        table.binds, table.steps, table.rest = binds, steps, rest
        table.bind_results = [step.single for step in binds]
        table.step_results = [name for step in steps for name in step.results]
        key_calls = [0] * len(bound.keys)
        node_calls = [0] * len(bound.nodes)
        for step in steps:
            key_calls[step.key] += 1
            node_calls[step.node] += 1
        table.keys = [
            (key, calls - skipped)
            for (key, calls), skipped in zip(bound.keys, key_calls)
        ]
        table.nodes = [
            (node, calls - skipped, rows)
            for (node, calls, rows), skipped in zip(bound.nodes, node_calls)
        ]
        table.node_ids = sorted({step.ins.node for step in steps} - {None})
        table.values = table.versions = None
        table.hit = False
        return table

    def segments(self, env: Dict[str, Any]) -> Iterator[List[_Step]]:
        """The step lists of one execution, in order: the binds; then,
        once they ran, the table steps unless every bound BAT is the one
        they last ran on, at the same count; then the rest."""
        yield self.binds
        bats = [env[name] for name in self.bind_results]
        versions = self.versions
        self.hit = versions is not None and all(
            bat is seen and bat.count == count
            for bat, (seen, count) in zip(bats, versions)
        )
        if self.hit:
            env.update(self.values)
        else:
            self.values = self.versions = None  # one saved version at most
            yield self.steps
            self.values = {name: env[name] for name in self.step_results}
            self.versions = [(bat, bat.count) for bat in bats]
        yield self.rest


class MalInterpreter:
    """Executes MAL programs against a catalog.

    Each program is bound once (:class:`_Bound`): primitives resolved
    with the context bound in, constant selection bounds bound,
    constants placed, profile keys and plan nodes numbered.  When built
    against an enabled metrics registry the interpreter keeps an opcode
    profile: per-``module.fn`` invocation counts and cumulative wall time.
    An execution reads ``perf_counter`` once per instruction boundary
    and adds the times, without a lock, to slots its thread owns: one
    set of opcode tallies per thread (the registry sums them) and the
    program's per-node EXPLAIN ANALYZE cells.  Under resource accounting
    it reads the thread-CPU clock only at the two ends of the
    instruction chain.  :meth:`render_profile` is the ``explain``-style
    view.
    """

    def __init__(
        self,
        catalog: Catalog,
        metrics: Optional[MetricsRegistry] = None,
        accountant: Optional[Any] = None,
    ):
        self.catalog = catalog
        self._ctx = MalContext(catalog)
        self.metrics = metrics if metrics is not None else default_registry()
        self._profiling = self.metrics.enabled
        # resource accounting: when enabled, an execution inside an
        # accounted firing (the accountant's thread-local account) charges
        # its chain's thread CPU to the account, per opcode
        self._firing = (
            accountant.firing
            if accountant is not None and accountant.enabled
            else None
        )
        # per thread id, per opcode: [calls, wall seconds, thread-CPU
        # seconds] tallies the registry reads; only that thread adds to
        # them.  The lock guards making them; the CPU tally (and its
        # series) is opened when CPU is first measured for the opcode
        self._profile_lock = threading.Lock()
        self._thread_slots: Dict[int, Dict[str, List[Optional[Tally]]]] = {}
        self._m_calls = self.metrics.counter(
            "datacell_mal_opcode_invocations_total",
            "MAL primitive invocations, per opcode",
            ("opcode",),
        )
        self._m_seconds = self.metrics.counter(
            "datacell_mal_opcode_seconds_total",
            "Cumulative wall time inside each MAL primitive",
            ("opcode",),
        )
        self._m_cpu_seconds = self.metrics.counter(
            "datacell_mal_opcode_cpu_seconds_total",
            "Cumulative thread CPU inside each MAL primitive",
            ("opcode",),
        )

    def execute(
        self,
        program: Program,
        env: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        """Run ``program``; returns the final environment.

        ``env`` must provide every name in ``program.inputs``.
        """
        env = dict(env) if env else {}
        bound = program._bound
        if (
            bound is None
            or bound.instructions is not program.instructions
            or bound.length != len(program.instructions)
            or bound.ctx is not self._ctx
        ):
            bound = program._bound = _Bound(program, self._ctx)
        if not env.keys() >= bound.inputs:
            missing = [name for name in program.inputs if name not in env]
            raise MalError(f"missing program inputs: {missing}")
        table = bound.table
        segments = bound.segments if table is None else table.segments(env)
        profiling = self._profiling
        if profiling:
            key_secs = [0.0] * len(bound.keys)
            node_secs = [0.0] * len(bound.nodes)
            # a traced factory firing collects its opcode timings here
            opcodes = traced_firing.opcodes
            # opcode thread-CPU is only measured inside an accounted
            # continuous-query firing, and only at the chain's two ends:
            # the start is the factory's plan-boundary reading when it
            # handed one over.  The chain's CPU — interpreter bookkeeping
            # between steps included, so it stays inside the plan's
            # attributed total — is shared out over the opcodes in
            # proportion to their wall time.
            firing = self._firing
            account = firing.account if firing is not None else None
            if account is not None:
                cpu_started = account.cpu_mark
                if cpu_started is None:
                    cpu_started = time.thread_time()
                else:
                    account.cpu_mark = None  # a reading is shared once
            # one clock reading per instruction boundary: an instruction's
            # time runs from the previous one's end to its own
            clock = time.perf_counter
            started = clock()
        for steps in segments:
            for step in steps:
                args = step.template
                if step.slots:
                    args = args.copy()
                    try:
                        for position, name in step.slots:
                            args[position] = env[name]
                    except KeyError as exc:
                        raise MalError(
                            f"undefined variable {exc.args[0]!r} in "
                            f"{step.ins.render()}"
                        ) from None
                try:
                    value = step.fn(*args)
                except ReproError:
                    raise  # the library's own errors keep their class
                except Exception as exc:  # a python bug in a primitive
                    raise MalError(
                        f"primitive failed in {step.ins.render()}: {exc}"
                    ) from exc
                if step.single is not None:
                    env[step.single] = value
                elif step.results:
                    _assign(step, value, env)
                if profiling:
                    ended = clock()
                    elapsed = ended - started
                    key_secs[step.key] += elapsed
                    node_secs[step.node] += elapsed
                    if opcodes is not None:
                        opcodes.append(
                            (bound.keys[step.key][0], started, elapsed,
                             step.ins.node)
                        )
                    started = ended
        if not profiling:
            return env
        # only the steps that ran are counted: skipped table steps are not
        ran = table if table is not None and table.hit else bound
        slots = bound.slots
        if bound.thread != get_ident():
            slots = self._bind_slots(bound)
        for (_, calls), slot, seconds in zip(ran.keys, slots, key_secs):
            if calls:
                slot[0].value += calls
                slot[1].value += seconds
        if account is not None:
            self._charge_cpu(
                bound, account, key_secs, time.thread_time() - cpu_started
            )
        cells = bound.cells
        node_stats = program.node_stats
        for n, (node_id, calls, results) in enumerate(ran.nodes):
            if not calls:
                continue
            cell = cells[n]
            if cell is None:
                cell = cells[n] = node_stats.setdefault(node_id, [0, 0.0, 0])
            cell[0] += calls
            cell[1] += node_secs[n]
            # the node's rows: its last row-producing result's count
            for name in results:
                value = env.get(name)
                kind = type(value)
                if kind is BAT or kind is ResultSet:
                    cell[2] += value.count
                    break
                if kind is np.ndarray:
                    cell[2] += len(value)
                    break
        if table is not None:
            for node_id in table.node_ids:
                runs = program.table_runs.setdefault(node_id, [0, 0])
                runs[0] += not table.hit
                runs[1] += 1
        return env

    def _bind_slots(self, bound: _Bound) -> List[List[Optional[Tally]]]:
        """Resolve ``bound``'s opcode slots for the calling thread,
        making (and exposing) the ones it lacks."""
        thread = get_ident()
        with self._profile_lock:
            owned = self._thread_slots.setdefault(thread, {})
            slots = []
            for key, _ in bound.keys:
                slot = owned.get(key)
                if slot is None:
                    slot = owned[key] = [Tally(), Tally(), None]
                    self._m_calls.read_from(slot[0], key)
                    self._m_seconds.read_from(slot[1], key)
                slots.append(slot)
        bound.slots, bound.thread = slots, thread
        return slots

    def _charge_cpu(
        self,
        bound: _Bound,
        account: Any,
        key_secs: List[float],
        chain_cpu: float,
    ) -> None:
        """Share one accounted execution's chain CPU out over its opcodes
        by wall time: into the thread's opcode slots and the program's
        per-key CPU, which ``account`` reads (it is told of the program
        once)."""
        wall = sum(key_secs)
        if wall <= 0.0:
            return
        if bound.account is not account:
            bound.account = account
            account.programs.append(bound)
        scale = chain_cpu / wall
        for k, seconds in enumerate(key_secs):
            if seconds:
                slot = bound.slots[k]
                if slot[2] is None:
                    slot[2] = Tally(0.0)
                    self._m_cpu_seconds.read_from(slot[2], bound.keys[k][0])
                slot[2].value += seconds * scale
                bound.cpu[k] += seconds * scale

    # ------------------------------------------------------------------
    # opcode profile surface
    # ------------------------------------------------------------------
    def profile(self) -> Dict[str, Dict[str, float]]:
        """Per-opcode invocation counts and cumulative seconds, summed
        over the threads that ran them.

        ``cpu_seconds`` stays 0.0 unless resource accounting is on —
        thread-CPU deltas are only captured with an enabled accountant.
        """
        with self._profile_lock:
            owned = [dict(slots) for slots in self._thread_slots.values()]
        out: Dict[str, Dict[str, float]] = {}
        for slots in owned:
            for key, (calls, seconds, cpu) in slots.items():
                entry = out.setdefault(
                    key, {"calls": 0, "seconds": 0.0, "cpu_seconds": 0.0}
                )
                entry["calls"] += int(calls.value)
                entry["seconds"] += seconds.value
                if cpu is not None:
                    entry["cpu_seconds"] += cpu.value
        return dict(sorted(out.items()))

    def render_profile(self) -> str:
        """Aligned text profile, hottest opcode first (explain-style)."""
        profile = self.profile()
        if not profile:
            return "(no MAL instructions profiled)"
        ranked = sorted(
            profile.items(), key=lambda kv: -kv[1]["seconds"]
        )
        width = max(len(op) for op, _ in ranked)
        lines = [f"{'opcode'.ljust(width)}  {'calls':>10}  {'total ms':>12}"]
        for op, stats in ranked:
            lines.append(
                f"{op.ljust(width)}  {stats['calls']:>10}  "
                f"{stats['seconds'] * 1e3:>12.3f}"
            )
        return "\n".join(lines)

    def run(self, program: Program, env: Optional[Dict[str, Any]] = None) -> Any:
        """Execute and return the program's declared output value."""
        final = self.execute(program, env)
        if program.output is None:
            return None
        try:
            return final[program.output]
        except KeyError:
            raise MalError(
                f"program never bound output {program.output!r}"
            ) from None


def _assign(step: _Step, value: Any, env: Dict[str, Any]) -> None:
    """Bind a multi-result instruction's results."""
    results = step.results
    if not isinstance(value, tuple) or len(value) != len(results):
        ins = step.ins
        raise MalError(
            f"{ins.module}.{ins.fn} returned wrong arity for {results}"
        )
    for name, item in zip(results, value):
        env[name] = item


# ----------------------------------------------------------------------
# sql module: catalog access and result construction
# ----------------------------------------------------------------------
@primitive("sql.bind", "any scalar")
def _sql_bind(ctx: MalContext, table: Any, column: str) -> BAT:
    """Bind a column BAT from the catalog (or directly from a Table)."""
    tbl = table if isinstance(table, Table) else ctx.catalog.get(table)
    return tbl.bat(column)


@primitive("sql.resultset", "scalar", "result", varargs="bat")
def _sql_resultset(ctx: MalContext, names: Any, *bats: BAT) -> ResultSet:
    return ResultSet(list(names), list(bats))


# ----------------------------------------------------------------------
# algebra module: selections, projections, joins, ordering
# ----------------------------------------------------------------------
@primitive(
    "algebra.select", "bat candopt scalar scalar scalar scalar scalar", "cand",
    atom=lambda column, cands, low, high, *flags: _select.check_bounds(
        column, low, high
    ),
    pure=True,
    bind=_select.Range,
)
def _algebra_select(
    ctx: MalContext,
    bat: BAT,
    cands: Optional[np.ndarray],
    low: Any,
    high: Any,
    li: bool,
    hi: bool,
    anti: bool,
) -> np.ndarray:
    return _select.range_select(bat, low, high, cands, li, hi, anti)


@primitive(
    "algebra.thetaselect", "bat candopt scalar scalar", "cand",
    atom=lambda column, cands, op, value: _select.theta_check(
        column, op, value
    ),
    pure=True,
    bind=_select.Range.theta,
)
def _algebra_thetaselect(
    ctx: MalContext, bat: BAT, cands: Optional[np.ndarray], op: str, value: Any
) -> np.ndarray:
    return _select.theta_select(bat, op, value, cands)


@primitive("algebra.selectnil", "bat candopt", "cand", pure=True)
def _algebra_selectnil(
    ctx: MalContext, bat: BAT, cands: Optional[np.ndarray]
) -> np.ndarray:
    return _select.select_nil(bat, cands)


@primitive("algebra.selectnotnil", "bat candopt", "cand", pure=True)
def _algebra_selectnotnil(
    ctx: MalContext, bat: BAT, cands: Optional[np.ndarray]
) -> np.ndarray:
    return _select.select_non_nil(bat, cands)


@primitive(
    "algebra.likeselect", "bat candopt scalar scalar?", "cand",
    atom=lambda column, *_: _strings.str_atom("like", column), pure=True,
)
def _algebra_likeselect(ctx, bat, cands, pattern, negated=False):
    return _strings.like_select(bat, pattern, cands, bool(negated))


@primitive(
    "algebra.projection", "cand bat",
    atom=lambda cands, column: column, pure=True,
)
def _algebra_projection(
    ctx: MalContext, cands: Optional[np.ndarray], bat: BAT
) -> BAT:
    return _join.projection(cands, bat)


@primitive(
    "algebra.join", "bat bat", "cand cand", atom=compare_atom, pure=True
)
def _algebra_join(ctx: MalContext, left: BAT, right: BAT):
    return _join.hash_join(left, right)


@primitive("algebra.crossproduct", "bat bat", "cand cand", pure=True)
def _algebra_crossproduct(ctx, left: BAT, right: BAT):
    """Cross-product position pairs for two dense-0 relations."""
    return _join.cross_positions(left.count, right.count)


@primitive("algebra.sort", "bat candopt scalar", "cand", pure=True)
def _algebra_sort(
    ctx: MalContext, bat: BAT, cands: Optional[np.ndarray], descending: bool
) -> np.ndarray:
    return _sort.order(bat, cands, descending)


@primitive("algebra.refine", "bat cand scalar", "cand", pure=True)
def _algebra_refine(
    ctx: MalContext, bat: BAT, ordered: np.ndarray, descending: bool
) -> np.ndarray:
    return _sort.refine(bat, ordered, descending)


@primitive("algebra.firstn", "cand scalar", "cand", pure=True)
def _algebra_firstn(
    ctx: MalContext, cands: np.ndarray, n: int
) -> np.ndarray:
    return np.asarray(cands, dtype=np.int64)[: max(int(n), 0)]


@primitive(
    "algebra.slice", "bat scalar scalar",
    atom=lambda column, start, stop: column, pure=True,
)
def _algebra_slice(ctx: MalContext, bat: BAT, start: int, stop: int) -> BAT:
    return bat.slice(int(start), int(stop))


@primitive(
    "algebra.mask2cand", "bat", "cand", atom=_calc.logic_atom, pure=True
)
def _algebra_mask2cand(ctx: MalContext, mask: BAT) -> np.ndarray:
    """Candidates where a bool BAT is true (NULL counts as false)."""
    _calc.logic_atom(mask.atom)
    return _cand.from_mask(mask, mask.tail == 1)


@primitive("algebra.densecands", "bat", "cand", pure=True)
def _algebra_densecands(ctx: MalContext, bat: BAT) -> np.ndarray:
    return _cand.all_candidates(bat)


@primitive("algebra.compose", "cand cand", "cand", pure=True)
def _algebra_compose(
    ctx, outer: Optional[np.ndarray], inner: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """Compose candidate lists: positions-of-positions.

    ``outer`` maps an intermediate relation back to the base; ``inner``
    selects positions of the intermediate.  Result: base positions.  The
    all-rows candidate ``None`` on either side maps positions to
    themselves.
    """
    if outer is None or inner is None:
        return inner if outer is None else outer
    outer = np.asarray(outer, dtype=np.int64)
    inner = np.asarray(inner, dtype=np.int64)
    return outer[inner]


# ----------------------------------------------------------------------
# batcalc module
# ----------------------------------------------------------------------
def _register_batcalc(op: str, kernel_fn, rule: AtomRule) -> None:
    @primitive(f"batcalc.{op}", "any any", atom=rule, pure=True)
    def fn(ctx, left, right):
        return kernel_fn(op, left, right)


for _op in _calc.ARITHMETIC:
    _register_batcalc(
        _op, _calc.calc_binary, partial(_calc.arith_atom, _op)
    )
for _op in _calc.COMPARISONS:
    _register_batcalc(_op, _calc.calc_compare, compare_atom)


@primitive("batcalc.and", "any any", atom=_calc.logic_atom, pure=True)
def _batcalc_and(ctx, left, right):
    return _calc.calc_and(left, right)


@primitive("batcalc.or", "any any", atom=_calc.logic_atom, pure=True)
def _batcalc_or(ctx, left, right):
    return _calc.calc_or(left, right)


@primitive("batcalc.not", "bat", atom=_calc.logic_atom, pure=True)
def _batcalc_not(ctx, operand):
    return _calc.calc_not(operand)


@primitive("batcalc.isnil", "bat", atom=AtomType.BOOL, pure=True)
def _batcalc_isnil(ctx, operand):
    return _calc.calc_isnil(operand)


@primitive("batcalc.neg", "bat", atom=_calc.neg_atom, pure=True)
def _batcalc_neg(ctx, operand):
    return _calc.calc_neg(operand)


@primitive(
    "batcalc.ifthenelse", "bat any any", atom=_calc.ifthenelse_atom,
    pure=True,
)
def _batcalc_ifthenelse(ctx, cond, then_val, else_val):
    return _calc.calc_ifthenelse(cond, then_val, else_val)


@primitive(
    "batcalc.cast", "bat scalar",
    atom=lambda operand, target: atom_named(target), pure=True,
)
def _batcalc_cast(ctx, operand: BAT, atom: str) -> BAT:
    """Cast a column to another atom type (NULL-preserving)."""
    target = atom_named(atom)
    out = BAT(target, hseqbase=operand.hseqbase, capacity=max(operand.count, 1))
    out.append_many(python_values(operand.atom, operand.tail))
    return out


@primitive(
    "batcalc.const", "scalar bat scalar?",
    atom=lambda value, like, atom=None: _calc.const_atom(value, atom),
    pure=True,
)
def _batcalc_const(ctx, value, like, atom=None):
    return _calc.const_bat(value, like, atom)


# ----------------------------------------------------------------------
# group / aggr modules
# ----------------------------------------------------------------------
@primitive(
    "group.group", "bat candopt?", "bat cand scalar", atom=AtomType.OID,
    pure=True,
)
def _group_group(ctx, bat, cands=None):
    return _group.group(bat, cands)


@primitive(
    "group.subgroup", "bat bat candopt?", "bat cand scalar",
    atom=AtomType.OID, pure=True,
)
def _group_subgroup(ctx, bat, prev_groups, cands=None):
    return _group.subgroup(bat, prev_groups, cands)


def _register_aggr(name: str) -> None:
    @primitive(
        f"aggr.sub{name}", "bat bat scalar candopt?",
        atom=lambda operand, *_: _aggregate.aggregate_atom(name, operand),
        pure=True,
    )
    def grouped(ctx, bat, groups, ngroups, cands=None):
        return _aggregate.grouped_aggregate(
            name, bat, groups, int(ngroups), cands
        )


for _name in _aggregate.AGGREGATE_NAMES:
    _register_aggr(_name)


# ----------------------------------------------------------------------
# batstr / batmath modules — scalar functions over columns
# ----------------------------------------------------------------------
def _str_rule(name: str) -> AtomRule:
    return lambda operand, *_: _strings.str_atom(name, operand)


def _register_str(name: str, kernel_fn: Callable[[BAT], BAT]) -> None:
    @primitive(f"batstr.{name}", "bat", atom=_str_rule(name), pure=True)
    def fn(ctx, bat):
        return kernel_fn(bat)


_register_str("upper", _strings.str_upper)
_register_str("lower", _strings.str_lower)
_register_str("trim", _strings.str_trim)
_register_str("length", _strings.str_length)


@primitive(
    "batstr.substring", "bat scalar scalar?", atom=_str_rule("substring"),
    pure=True,
)
def _batstr_substring(ctx, bat, start, length=None):
    return _strings.str_substring(
        bat, int(start), None if length is None else int(length)
    )


@primitive(
    "batstr.like", "bat scalar scalar?", atom=_str_rule("like"), pure=True
)
def _batstr_like(ctx, bat, pattern, negated=False):
    return _strings.like_mask(bat, pattern, bool(negated))


def _register_math(name: str) -> None:
    @primitive(
        f"batmath.{name}", "bat scalar?",
        atom=partial(_mathops.math_atom, name), pure=True,
    )
    def fn(ctx, bat, digits=0):
        return _mathops.math_unary(name, bat, digits)


for _name in _mathops.MATH_FUNCTIONS:
    _register_math(_name)


def _concat_atom(
    left: Optional[AtomType], right: Optional[AtomType]
) -> Optional[AtomType]:
    """Result atom of ``bat.concat``: the inputs' one atom
    (``append_bat`` appends only identical atoms)."""
    if left is not None and right is not None and left is not right:
        raise TypeMismatchError(
            f"cannot concatenate {left.value} with {right.value}"
        )
    return left or right


@primitive("bat.concat", "bat bat", atom=_concat_atom, pure=True)
def _bat_concat(ctx, left: BAT, right: BAT) -> BAT:
    """Concatenate two columns (UNION ALL building block)."""
    out = BAT(
        _concat_atom(left.atom, right.atom),
        hseqbase=0,
        capacity=max(left.count + right.count, 1),
    )
    out.append_bat(left)
    out.append_bat(right)
    return out


# ----------------------------------------------------------------------
# language niceties
# ----------------------------------------------------------------------
@primitive("language.pass", "any?", "any")
def _language_pass(ctx, value=None):
    return value
