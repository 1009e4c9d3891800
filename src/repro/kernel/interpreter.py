"""The MAL virtual machine: executes :class:`~repro.kernel.mal.Program`.

The interpreter resolves each instruction's ``module.fn`` against
:data:`OPCODES`, the one table of primitives that wrap the kernel operator
modules.  Each entry also declares the primitive's signature and, where the
kernel decides one, its result-atom rule; the plan verifier and the SQL
compiler read those instead of keeping their own copies.  The environment
maps variable names to values (BATs, candidate arrays, scalars, tables,
result sets).  Factories re-execute the same program against fresh basket
snapshots on every activation; the interpreter itself is stateless.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import MalError, TypeMismatchError
from ..obs.metrics import MetricsRegistry, Tally, default_registry
from ..obs.tracing import traced_firing
from . import aggregate as _aggregate
from . import calc as _calc
from . import candidates as _cand
from . import delta as _delta
from . import group as _group
from . import join as _join
from . import mathops as _mathops
from . import select as _select
from . import sort as _sort
from . import strings as _strings
from .bat import BAT, bat_from_values
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

    ``atom``, where the kernel decides one, is the rule typing the first
    result.  It takes one item per argument — a ``scalar`` argument's
    value, any other argument's atom (``None``: unknown) — and returns an
    atom (``None``: unknown) or raises :class:`~repro.errors.KernelError`.
    The kernel operator behind ``fn`` types its output with the same rule.
    """

    fn: Primitive
    params: Tuple[str, ...]
    returns: Tuple[str, ...]
    varargs: Optional[str] = None
    atom: Optional[AtomRule] = None

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
) -> Callable[[Primitive], Primitive]:
    """Register ``fn`` as the implementation of MAL ``name``.

    ``params`` and ``returns`` are space-separated kind specs (see
    :class:`Opcode`); an :class:`AtomType` ``atom`` is a fixed result atom.
    """
    rule = (lambda *_: atom) if isinstance(atom, AtomType) else atom

    def wrap(fn: Primitive) -> Primitive:
        if name in OPCODES:
            raise MalError(f"duplicate primitive {name}")
        OPCODES[name] = Opcode(
            fn, tuple(params.split()), tuple(returns.split()), varargs, rule
        )
        return fn

    return wrap


class MalContext:
    """Runtime context passed to primitives: the catalog."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog


class _Step:
    """One instruction, resolved for execution.

    ``fn`` is the primitive (``None`` if the opcode is unknown),
    ``template`` the argument list with every constant in place and
    ``slots`` the ``(position, variable)`` pairs filled from the
    environment; ``key`` and ``node`` index the program's profile-key and
    plan-node tables (:class:`_Bound`).
    """

    __slots__ = ("fn", "template", "slots", "results", "single", "key",
                 "node", "ins")

    def __init__(self, ins: Instr, key: int, node: int):
        opcode = OPCODES.get(f"{ins.module}.{ins.fn}")
        self.fn = opcode.fn if opcode is not None else None
        self.template = [
            None if isinstance(arg, Var) else _const(arg, ins)
            for arg in ins.args
        ]
        self.slots = tuple(
            (i, arg.name) for i, arg in enumerate(ins.args)
            if isinstance(arg, Var)
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
    """A program's instructions bound once, on first execution.

    ``keys`` holds each distinct ``module.fn`` profile key with its call
    count per execution; ``nodes`` each plan node id with its call count
    and its instructions' result variables, last first (a node's row count
    is what its final row-producing instruction produced).  Kept on the
    :class:`Program` as ``_bound``; a program whose instruction list is
    replaced or grows is bound again.
    """

    __slots__ = ("instructions", "length", "steps", "keys", "nodes")

    def __init__(self, program: Program):
        self.instructions = program.instructions
        self.length = len(program.instructions)
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
            if ins.results:
                nodes[n][2].insert(0, ins.results[0])
            self.steps.append(_Step(ins, k, n))
        self.keys = [(key, calls) for key, calls in keys]
        self.nodes = [(node, calls, tuple(rows)) for node, calls, rows in nodes]


def _bound(program: Program) -> _Bound:
    bound = program._bound
    if (
        bound is None
        or bound.instructions is not program.instructions
        or bound.length != len(program.instructions)
    ):
        bound = program._bound = _Bound(program)
    return bound


class MalInterpreter:
    """Executes MAL programs against a catalog.

    Each program is bound once (:class:`_Bound`): primitives resolved,
    constants placed, profile keys and plan nodes numbered.  When built
    against an enabled metrics registry the interpreter keeps an opcode
    profile: per-``module.fn`` invocation counts and cumulative wall time.
    An execution brackets each instruction with two ``perf_counter``
    readings into per-key and per-node slots and flushes them once at the
    end; under resource accounting it reads the thread-CPU clock only at
    the two ends of the instruction chain.
    :meth:`render_profile` is the ``explain``-style view.
    """

    def __init__(
        self,
        catalog: Catalog,
        metrics: Optional[MetricsRegistry] = None,
        accountant: Optional[Any] = None,
    ):
        self.catalog = catalog
        self.metrics = metrics if metrics is not None else default_registry()
        self._profiling = self.metrics.enabled
        # resource accounting: when enabled, per-instruction thread-CPU
        # deltas are captured alongside wall time and folded into the
        # currently-firing query's account (accountant.current()).
        self.accountant = (
            accountant
            if accountant is not None and accountant.enabled
            else None
        )
        self._profile_lock = threading.Lock()
        # per opcode: [calls, wall seconds, thread-CPU seconds] tallies,
        # which the registry reads; the CPU tally (and its series) is
        # opened when CPU is first measured for the opcode
        self._opcode_stats: Dict[str, List[Optional[Tally]]] = {}
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
        env = dict(env or {})
        missing = [name for name in program.inputs if name not in env]
        if missing:
            raise MalError(f"missing program inputs: {missing}")
        ctx = MalContext(self.catalog)
        bound = _bound(program)
        run = self._run
        if not self._profiling:
            for step in bound.steps:
                run(ctx, step, env)
            return env
        key_secs = [0.0] * len(bound.keys)
        node_secs = [0.0] * len(bound.nodes)
        # a traced factory firing collects its opcode timings here
        opcodes = getattr(traced_firing, "opcodes", None)
        # opcode thread-CPU is only measured when a resource account is on
        # the thread (i.e. inside an accounted continuous-query firing),
        # and only at the chain's two ends: the start is the factory's
        # plan-boundary reading when it handed one over.  The chain's CPU
        # — interpreter bookkeeping between steps included, so it stays
        # inside the plan's attributed total — is shared out over the
        # opcodes in proportion to their wall time.
        account = (
            self.accountant.current() if self.accountant is not None else None
        )
        if account is not None:
            cpu_started = account.cpu_mark
            if cpu_started is None:
                cpu_started = time.thread_time()
            else:
                account.cpu_mark = None  # a reading is shared once
        clock = time.perf_counter
        for step in bound.steps:
            started = clock()
            run(ctx, step, env)
            elapsed = clock() - started
            key_secs[step.key] += elapsed
            node_secs[step.node] += elapsed
            if opcodes is not None:
                opcodes.append(
                    (bound.keys[step.key][0], started, elapsed,
                     step.ins.node)
                )
        key_cpu = None
        if account is not None:
            chain_cpu = time.thread_time() - cpu_started
            wall = sum(key_secs)
            if wall > 0.0:
                key_cpu = [chain_cpu * seconds / wall for seconds in key_secs]
        self._flush(program, bound, env, key_secs, key_cpu, node_secs,
                    account)
        return env

    def _flush(
        self,
        program: Program,
        bound: _Bound,
        env: Dict[str, Any],
        key_secs: List[float],
        key_cpu: Optional[List[float]],
        node_secs: List[float],
        account: Optional[Any],
    ) -> None:
        """Fold one execution's slots into the opcode profile (whose
        tallies the registry's opcode series read) and the program's
        per-node EXPLAIN ANALYZE stats under one lock (the program is the
        natural per-query aggregation point: cumulative node stats *are*
        the query's EXPLAIN ANALYZE state), then into the firing's
        resource account."""
        cpus = key_cpu if key_cpu is not None else [0.0] * len(key_secs)
        with self._profile_lock:
            stats = self._opcode_stats
            for (key, calls), seconds, cpu in zip(bound.keys, key_secs, cpus):
                slot = stats.get(key)
                if slot is None:
                    slot = stats[key] = [Tally(), Tally(), None]
                    self._m_calls.read_from(slot[0], key)
                    self._m_seconds.read_from(slot[1], key)
                slot[0].value += calls
                slot[1].value += seconds
                if cpu:
                    if slot[2] is None:
                        slot[2] = Tally()
                        self._m_cpu_seconds.read_from(slot[2], key)
                    slot[2].value += cpu
            node_stats = program.node_stats
            for (node_id, calls, results), seconds in zip(
                bound.nodes, node_secs
            ):
                rows = _rows_out(results, env)
                slot = node_stats.get(node_id)
                if slot is None:
                    node_stats[node_id] = [calls, seconds, rows]
                else:
                    slot[0] += calls
                    slot[1] += seconds
                    slot[2] += rows
        if key_cpu is not None:
            cpu_by_op = {
                key: cpu for (key, _), cpu in zip(bound.keys, key_cpu) if cpu
            }
            self.accountant.fold_opcode_cpu(
                account, cpu_by_op, sum(cpu_by_op.values())
            )

    # ------------------------------------------------------------------
    # opcode profile surface
    # ------------------------------------------------------------------
    def profile(self) -> Dict[str, Dict[str, float]]:
        """Per-opcode invocation counts and cumulative seconds.

        ``cpu_seconds`` stays 0.0 unless resource accounting is on —
        thread-CPU deltas are only captured with an enabled accountant.
        """
        with self._profile_lock:
            return {
                key: {
                    "calls": int(calls.value),
                    "seconds": seconds.value,
                    "cpu_seconds": cpu.value if cpu is not None else 0.0,
                }
                for key, (calls, seconds, cpu) in sorted(
                    self._opcode_stats.items()
                )
            }

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

    def reset_profile(self) -> None:
        with self._profile_lock:
            self._opcode_stats.clear()

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

    @staticmethod
    def _run(ctx: MalContext, step: _Step, env: Dict[str, Any]) -> None:
        ins = step.ins
        if step.fn is None:
            raise MalError(f"unknown MAL primitive {ins.module}.{ins.fn}")
        args = step.template
        if step.slots:
            args = args.copy()
            try:
                for position, name in step.slots:
                    args[position] = env[name]
            except KeyError as exc:
                raise MalError(
                    f"undefined variable {exc.args[0]!r} in {ins.render()}"
                ) from None
        try:
            value = step.fn(ctx, *args)
        except MalError:
            raise
        except Exception as exc:
            raise MalError(f"primitive failed in {ins.render()}: {exc}") from exc
        if step.single is not None:
            env[step.single] = value
        elif step.results:
            results = step.results
            if not isinstance(value, tuple) or len(value) != len(results):
                raise MalError(
                    f"{ins.module}.{ins.fn} returned wrong arity for "
                    f"{results}"
                )
            for name, item in zip(results, value):
                env[name] = item


def _rows_out(results: Tuple[str, ...], env: Dict[str, Any]) -> float:
    """Row count of a node's last row-producing instruction (0 if none)."""
    for name in results:
        value = env.get(name)
        if isinstance(value, (BAT, ResultSet)):
            return float(value.count)
        if isinstance(value, np.ndarray):
            return float(len(value))
    return 0.0


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


@primitive("sql.single_row", "scalar scalar", "result", varargs="scalar")
def _sql_single_row(ctx: MalContext, names: Any, atoms: Any, *values: Any) -> ResultSet:
    """Build a one-row result from scalar values (scalar aggregates)."""
    out = [
        bat_from_values(atom_named(atom), [value])
        for atom, value in zip(atoms, values)
    ]
    return ResultSet(list(names), out)


@primitive("sql.result_column", "result scalar")
def _sql_result_column(ctx, result: ResultSet, index: int) -> BAT:
    return result.bats[int(index)]


# ----------------------------------------------------------------------
# algebra module: selections, projections, joins, ordering
# ----------------------------------------------------------------------
@primitive(
    "algebra.select", "bat candopt scalar scalar scalar scalar scalar", "cand",
    atom=lambda column, cands, low, high, *flags: _select.check_bounds(
        column, low, high
    ),
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
)
def _algebra_thetaselect(
    ctx: MalContext, bat: BAT, cands: Optional[np.ndarray], op: str, value: Any
) -> np.ndarray:
    return _select.theta_select(bat, op, value, cands)


@primitive("algebra.selectnil", "bat candopt", "cand")
def _algebra_selectnil(
    ctx: MalContext, bat: BAT, cands: Optional[np.ndarray]
) -> np.ndarray:
    return _select.select_nil(bat, cands)


@primitive("algebra.selectnotnil", "bat candopt", "cand")
def _algebra_selectnotnil(
    ctx: MalContext, bat: BAT, cands: Optional[np.ndarray]
) -> np.ndarray:
    return _select.select_non_nil(bat, cands)


@primitive(
    "algebra.likeselect", "bat candopt scalar scalar?", "cand",
    atom=lambda column, *_: _strings.str_atom("like", column),
)
def _algebra_likeselect(ctx, bat, cands, pattern, negated=False):
    return _strings.like_select(bat, pattern, cands, bool(negated))


@primitive("algebra.projection", "cand bat", atom=lambda cands, column: column)
def _algebra_projection(ctx: MalContext, cands: np.ndarray, bat: BAT) -> BAT:
    return _join.projection(cands, bat)


@primitive("algebra.join", "bat bat", "cand cand", atom=compare_atom)
def _algebra_join(ctx: MalContext, left: BAT, right: BAT):
    return _join.hash_join(left, right)


@primitive("algebra.crossproduct", "bat bat", "cand cand")
def _algebra_crossproduct(ctx, left: BAT, right: BAT):
    """Cross-product position pairs for two dense-0 relations."""
    return _join.cross_positions(left.count, right.count)


@primitive("algebra.sort", "bat candopt scalar", "cand")
def _algebra_sort(
    ctx: MalContext, bat: BAT, cands: Optional[np.ndarray], descending: bool
) -> np.ndarray:
    return _sort.order(bat, cands, descending)


@primitive("algebra.refine", "bat cand scalar", "cand")
def _algebra_refine(
    ctx: MalContext, bat: BAT, ordered: np.ndarray, descending: bool
) -> np.ndarray:
    return _sort.refine(bat, ordered, descending)


@primitive("algebra.firstn", "cand scalar", "cand")
def _algebra_firstn(
    ctx: MalContext, cands: np.ndarray, n: int
) -> np.ndarray:
    return np.asarray(cands, dtype=np.int64)[: max(int(n), 0)]


@primitive(
    "algebra.slice", "bat scalar scalar",
    atom=lambda column, start, stop: column,
)
def _algebra_slice(ctx: MalContext, bat: BAT, start: int, stop: int) -> BAT:
    return bat.slice(int(start), int(stop))


@primitive("algebra.mask2cand", "bat", "cand", atom=_calc.logic_atom)
def _algebra_mask2cand(ctx: MalContext, mask: BAT) -> np.ndarray:
    """Candidates where a bool BAT is true (NULL counts as false)."""
    _calc.logic_atom(mask.atom)
    return _cand.from_mask(mask, mask.tail == 1)


@primitive("algebra.densecands", "bat", "cand")
def _algebra_densecands(ctx: MalContext, bat: BAT) -> np.ndarray:
    return _cand.all_candidates(bat)


@primitive("algebra.compose", "cand cand", "cand")
def _algebra_compose(ctx, outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Compose candidate lists: positions-of-positions.

    ``outer`` maps an intermediate relation back to the base; ``inner``
    selects positions of the intermediate.  Result: base positions.
    """
    outer = np.asarray(outer, dtype=np.int64)
    inner = np.asarray(inner, dtype=np.int64)
    return outer[inner]


# ----------------------------------------------------------------------
# batcalc module
# ----------------------------------------------------------------------
def _register_batcalc(op: str, kernel_fn, rule: AtomRule) -> None:
    @primitive(f"batcalc.{op}", "any any", atom=rule)
    def fn(ctx, left, right):
        return kernel_fn(op, left, right)


for _op in _calc.ARITHMETIC:
    _register_batcalc(
        _op, _calc.calc_binary, partial(_calc.arith_atom, _op)
    )
for _op in _calc.COMPARISONS:
    _register_batcalc(_op, _calc.calc_compare, compare_atom)


@primitive("batcalc.and", "any any", atom=_calc.logic_atom)
def _batcalc_and(ctx, left, right):
    return _calc.calc_and(left, right)


@primitive("batcalc.or", "any any", atom=_calc.logic_atom)
def _batcalc_or(ctx, left, right):
    return _calc.calc_or(left, right)


@primitive("batcalc.not", "bat", atom=_calc.logic_atom)
def _batcalc_not(ctx, operand):
    return _calc.calc_not(operand)


@primitive("batcalc.isnil", "bat", atom=AtomType.BOOL)
def _batcalc_isnil(ctx, operand):
    return _calc.calc_isnil(operand)


@primitive("batcalc.neg", "bat", atom=_calc.neg_atom)
def _batcalc_neg(ctx, operand):
    return _calc.calc_neg(operand)


@primitive("batcalc.ifthenelse", "bat any any", atom=_calc.ifthenelse_atom)
def _batcalc_ifthenelse(ctx, cond, then_val, else_val):
    return _calc.calc_ifthenelse(cond, then_val, else_val)


@primitive(
    "batcalc.cast", "bat scalar",
    atom=lambda operand, target: atom_named(target),
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
)
def _batcalc_const(ctx, value, like, atom=None):
    return _calc.const_bat(value, like, atom)


# ----------------------------------------------------------------------
# group / aggr modules
# ----------------------------------------------------------------------
@primitive("group.group", "bat candopt?", "bat cand scalar", atom=AtomType.OID)
def _group_group(ctx, bat, cands=None):
    return _group.group(bat, cands)


@primitive(
    "group.subgroup", "bat bat candopt?", "bat cand scalar", atom=AtomType.OID
)
def _group_subgroup(ctx, bat, prev_groups, cands=None):
    return _group.subgroup(bat, prev_groups, cands)


def _register_aggr(name: str) -> None:
    def rule(operand, *_):
        return _aggregate.aggregate_atom(name, operand)

    @primitive(f"aggr.{name}", "bat candopt?", "scalar", atom=rule)
    def scalar(ctx, bat, cands=None):
        return _aggregate.scalar_aggregate(name, bat, cands)

    @primitive(f"aggr.sub{name}", "bat bat scalar candopt?", atom=rule)
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
    @primitive(f"batstr.{name}", "bat", atom=_str_rule(name))
    def fn(ctx, bat):
        return kernel_fn(bat)


_register_str("upper", _strings.str_upper)
_register_str("lower", _strings.str_lower)
_register_str("trim", _strings.str_trim)
_register_str("length", _strings.str_length)


@primitive(
    "batstr.substring", "bat scalar scalar?", atom=_str_rule("substring")
)
def _batstr_substring(ctx, bat, start, length=None):
    return _strings.str_substring(
        bat, int(start), None if length is None else int(length)
    )


@primitive("batstr.like", "bat scalar scalar?", atom=_str_rule("like"))
def _batstr_like(ctx, bat, pattern, negated=False):
    return _strings.like_mask(bat, pattern, bool(negated))


def _register_math(name: str) -> None:
    @primitive(
        f"batmath.{name}", "bat scalar?",
        atom=partial(_mathops.math_atom, name),
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


@primitive("bat.concat", "bat bat", atom=_concat_atom)
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
# delta module — weighted (Z-set) relations for incremental execution
# ----------------------------------------------------------------------
@primitive("delta.canonicalize", "result", "result")
def _delta_canonicalize(ctx, result):
    return _delta.canonicalize(result)


@primitive("delta.expand", "result", "result")
def _delta_expand(ctx, result):
    return _delta.expand(result)


@primitive("delta.subsum", "bat bat bat scalar", atom=AtomType.DBL)
def _delta_subsum(ctx, values: BAT, weights: BAT, gids, ngroups: int):
    sums = _delta.weighted_grouped_sum(
        values.tail, weights.tail, gids.tail, int(ngroups)
    )
    out = BAT(AtomType.DBL, capacity=max(len(sums), 1))
    out.append_array(sums)
    return out


@primitive("delta.subcount", "bat bat scalar", atom=AtomType.LNG)
def _delta_subcount(ctx, weights: BAT, gids, ngroups: int):
    counts = _delta.weighted_grouped_count(
        weights.tail, gids.tail, int(ngroups)
    )
    out = BAT(AtomType.LNG, capacity=max(len(counts), 1))
    out.append_array(counts)
    return out


# ----------------------------------------------------------------------
# language niceties
# ----------------------------------------------------------------------
@primitive("language.pass", "any?", "any")
def _language_pass(ctx, value=None):
    return value
