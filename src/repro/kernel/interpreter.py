"""The MAL virtual machine: executes :class:`~repro.kernel.mal.Program`.

The interpreter resolves each instruction's ``module.fn`` against a registry
of primitives that wrap the kernel operator modules.  The environment maps
variable names to values (BATs, candidate arrays, scalars, tables,
result sets).  Factories re-execute the same program against fresh basket
snapshots on every activation; the interpreter itself is stateless.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..errors import MalError
from ..obs.metrics import MetricsRegistry, default_registry
from ..obs.spans import SpanRecorder
from . import aggregate as _aggregate
from . import calc as _calc
from . import candidates as _cand
from . import group as _group
from . import join as _join
from . import select as _select
from . import sort as _sort
from .bat import BAT, bat_from_values
from .catalog import Catalog, Table
from .mal import Const, Instr, Program, ResultSet, Var
from .types import AtomType, python_values

__all__ = ["MalInterpreter", "MalContext"]

Primitive = Callable[..., Any]

_REGISTRY: Dict[str, Primitive] = {}


def primitive(name: str) -> Callable[[Primitive], Primitive]:
    """Register ``fn`` as the implementation of MAL ``module.fn``."""

    def wrap(fn: Primitive) -> Primitive:
        if name in _REGISTRY:
            raise MalError(f"duplicate primitive {name}")
        _REGISTRY[name] = fn
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
        self.fn = _REGISTRY.get(f"{ins.module}.{ins.fn}")
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
        tracer: Optional[SpanRecorder] = None,
        accountant: Optional[Any] = None,
    ):
        self.catalog = catalog
        self.metrics = metrics if metrics is not None else default_registry()
        self._profiling = self.metrics.enabled
        self.tracer = tracer
        self._tracing = tracer is not None and tracer.enabled
        # resource accounting: when enabled, per-instruction thread-CPU
        # deltas are captured alongside wall time and folded into the
        # currently-firing query's account (accountant.current()).
        self.accountant = (
            accountant
            if accountant is not None and accountant.enabled
            else None
        )
        self._profile_lock = threading.Lock()
        # [calls, wall seconds, thread-CPU seconds]
        self._opcode_stats: Dict[str, List[float]] = {}
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
        # per-opcode [calls, seconds, cpu] counter children, resolved once
        self._counters: Dict[str, List[Any]] = {}

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
        stage = self.tracer.current_stage() if self._tracing else None
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
            if stage is not None:
                self.tracer.add_opcode(
                    stage, bound.keys[step.key][0], started, elapsed,
                    node=step.ins.node,
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
        """Fold one execution's slots into the opcode profile and the
        program's per-node EXPLAIN ANALYZE stats under one lock (the
        program is the natural per-query aggregation point: cumulative
        node stats *are* the query's EXPLAIN ANALYZE state), then into the
        opcode counters and the firing's resource account."""
        cpus = key_cpu if key_cpu is not None else [0.0] * len(key_secs)
        with self._profile_lock:
            stats = self._opcode_stats
            for (key, calls), seconds, cpu in zip(bound.keys, key_secs, cpus):
                slot = stats.get(key)
                if slot is None:
                    stats[key] = [calls, seconds, cpu]
                else:
                    slot[0] += calls
                    slot[1] += seconds
                    slot[2] += cpu
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
        counters = self._counters
        for (key, calls), seconds, cpu in zip(bound.keys, key_secs, cpus):
            children = counters.get(key)
            if children is None:
                children = counters[key] = [
                    self._m_calls.labels(key),
                    self._m_seconds.labels(key),
                    None,  # the CPU series exists once CPU is measured
                ]
            children[0].inc(calls)
            children[1].inc(seconds)
            if cpu:
                if children[2] is None:
                    children[2] = self._m_cpu_seconds.labels(key)
                children[2].inc(cpu)
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
                    "calls": int(calls),
                    "seconds": seconds,
                    "cpu_seconds": cpu,
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
@primitive("sql.bind")
def _sql_bind(ctx: MalContext, table: Any, column: str) -> BAT:
    """Bind a column BAT from the catalog (or directly from a Table)."""
    tbl = table if isinstance(table, Table) else ctx.catalog.get(table)
    return tbl.bat(column)


@primitive("sql.bind_table")
def _sql_bind_table(ctx: MalContext, name: str) -> Table:
    return ctx.catalog.get(name)


@primitive("sql.resultset")
def _sql_resultset(ctx: MalContext, names: Any, *bats: BAT) -> ResultSet:
    return ResultSet(list(names), list(bats))


@primitive("sql.single_row")
def _sql_single_row(ctx: MalContext, names: Any, atoms: Any, *values: Any) -> ResultSet:
    """Build a one-row result from scalar values (scalar aggregates)."""
    out = [
        bat_from_values(AtomType(atom), [value])
        for atom, value in zip(atoms, values)
    ]
    return ResultSet(list(names), out)


# ----------------------------------------------------------------------
# algebra module: selections, projections, joins, ordering
# ----------------------------------------------------------------------
@primitive("algebra.select")
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


@primitive("algebra.thetaselect")
def _algebra_thetaselect(
    ctx: MalContext, bat: BAT, cands: Optional[np.ndarray], op: str, value: Any
) -> np.ndarray:
    return _select.theta_select(bat, op, value, cands)


@primitive("algebra.selectnil")
def _algebra_selectnil(
    ctx: MalContext, bat: BAT, cands: Optional[np.ndarray]
) -> np.ndarray:
    return _select.select_nil(bat, cands)


@primitive("algebra.selectnotnil")
def _algebra_selectnotnil(
    ctx: MalContext, bat: BAT, cands: Optional[np.ndarray]
) -> np.ndarray:
    return _select.select_non_nil(bat, cands)


@primitive("algebra.projection")
def _algebra_projection(ctx: MalContext, cands: np.ndarray, bat: BAT) -> BAT:
    return _join.projection(cands, bat)


@primitive("algebra.join")
def _algebra_join(ctx: MalContext, left: BAT, right: BAT):
    return _join.hash_join(left, right)


@primitive("algebra.thetajoin")
def _algebra_thetajoin(ctx: MalContext, left: BAT, right: BAT, op: str):
    return _join.theta_join(left, right, op)


@primitive("algebra.leftouterjoin")
def _algebra_leftouterjoin(ctx: MalContext, left: BAT, right: BAT):
    return _join.left_outer_join(left, right)


@primitive("algebra.sort")
def _algebra_sort(
    ctx: MalContext, bat: BAT, cands: Optional[np.ndarray], descending: bool
) -> np.ndarray:
    return _sort.order(bat, cands, descending)


@primitive("algebra.refine")
def _algebra_refine(
    ctx: MalContext, bat: BAT, ordered: np.ndarray, descending: bool
) -> np.ndarray:
    return _sort.refine(bat, ordered, descending)


@primitive("algebra.firstn")
def _algebra_firstn(
    ctx: MalContext, cands: np.ndarray, n: int
) -> np.ndarray:
    return np.asarray(cands, dtype=np.int64)[: max(int(n), 0)]


@primitive("algebra.slice")
def _algebra_slice(ctx: MalContext, bat: BAT, start: int, stop: int) -> BAT:
    return bat.slice(int(start), int(stop))


@primitive("algebra.mask2cand")
def _algebra_mask2cand(ctx: MalContext, mask: BAT) -> np.ndarray:
    """Candidates where a bool BAT is true (NULL counts as false)."""
    return _cand.from_mask(mask, mask.tail == 1)


@primitive("algebra.densecands")
def _algebra_densecands(ctx: MalContext, bat: BAT) -> np.ndarray:
    return _cand.all_candidates(bat)


@primitive("algebra.compose")
def _algebra_compose(ctx, outer: np.ndarray, inner: np.ndarray) -> np.ndarray:
    """Compose candidate lists: positions-of-positions.

    ``outer`` maps an intermediate relation back to the base; ``inner``
    selects positions of the intermediate.  Result: base positions.
    """
    outer = np.asarray(outer, dtype=np.int64)
    inner = np.asarray(inner, dtype=np.int64)
    return outer[inner]


@primitive("algebra.crossproduct")
def _algebra_crossproduct(ctx, left: BAT, right: BAT):
    """Cross-product position pairs for two dense-0 relations."""
    return _join.cross_positions(left.count, right.count)


@primitive("sql.result_column")
def _sql_result_column(ctx, result: ResultSet, index: int) -> BAT:
    return result.bats[int(index)]


# ----------------------------------------------------------------------
# candidate-list algebra
# ----------------------------------------------------------------------
@primitive("cand.intersect")
def _cand_intersect(ctx, left, right):
    return _cand.intersect(left, right)


@primitive("cand.union")
def _cand_union(ctx, left, right):
    return _cand.union(left, right)


@primitive("cand.difference")
def _cand_difference(ctx, left, right):
    return _cand.difference(left, right)


# ----------------------------------------------------------------------
# batcalc module
# ----------------------------------------------------------------------
def _register_batcalc() -> None:
    for op in ("+", "-", "*", "/", "%"):
        def make(o):
            def fn(ctx, left, right):
                return _calc.calc_binary(o, left, right)

            return fn

        _REGISTRY[f"batcalc.{op}"] = make(op)
    for op in ("==", "!=", "<", "<=", ">", ">="):
        def make_cmp(o):
            def fn(ctx, left, right):
                return _calc.calc_compare(o, left, right)

            return fn

        _REGISTRY[f"batcalc.{op}"] = make_cmp(op)


_register_batcalc()


@primitive("batcalc.and")
def _batcalc_and(ctx, left, right):
    return _calc.calc_and(left, right)


@primitive("batcalc.or")
def _batcalc_or(ctx, left, right):
    return _calc.calc_or(left, right)


@primitive("batcalc.not")
def _batcalc_not(ctx, operand):
    return _calc.calc_not(operand)


@primitive("batcalc.isnil")
def _batcalc_isnil(ctx, operand):
    return _calc.calc_isnil(operand)


@primitive("batcalc.neg")
def _batcalc_neg(ctx, operand):
    return _calc.calc_neg(operand)


@primitive("batcalc.ifthenelse")
def _batcalc_ifthenelse(ctx, cond, then_val, else_val):
    return _calc.calc_ifthenelse(cond, then_val, else_val)


@primitive("batcalc.cast")
def _batcalc_cast(ctx, operand: BAT, atom: str) -> BAT:
    """Cast a column to another atom type (NULL-preserving)."""
    target = AtomType(atom)
    out = BAT(target, hseqbase=operand.hseqbase, capacity=max(operand.count, 1))
    out.append_many(python_values(operand.atom, operand.tail))
    return out


@primitive("batcalc.const")
def _batcalc_const(ctx, value, like, atom=None):
    atom_type = AtomType(atom) if atom else None
    return _calc.const_bat(value, like, atom_type)


# ----------------------------------------------------------------------
# group / aggr modules
# ----------------------------------------------------------------------
@primitive("group.group")
def _group_group(ctx, bat, cands=None):
    return _group.group(bat, cands)


@primitive("group.subgroup")
def _group_subgroup(ctx, bat, prev_groups, cands=None):
    return _group.subgroup(bat, prev_groups, cands)


def _register_aggr() -> None:
    for name in _aggregate.AGGREGATE_NAMES:
        def make_scalar(agg):
            def fn(ctx, bat, cands=None):
                return _aggregate.scalar_aggregate(agg, bat, cands)

            return fn

        def make_grouped(agg):
            def fn(ctx, bat, groups, ngroups, cands=None):
                return _aggregate.grouped_aggregate(
                    agg, bat, groups, int(ngroups), cands
                )

            return fn

        _REGISTRY[f"aggr.{name}"] = make_scalar(name)
        _REGISTRY[f"aggr.sub{name}"] = make_grouped(name)


_register_aggr()


# ----------------------------------------------------------------------
# batstr / batmath modules — scalar functions over columns
# ----------------------------------------------------------------------
def _register_strings() -> None:
    from . import strings as _strings

    _REGISTRY["batstr.upper"] = lambda ctx, b: _strings.str_upper(b)
    _REGISTRY["batstr.lower"] = lambda ctx, b: _strings.str_lower(b)
    _REGISTRY["batstr.trim"] = lambda ctx, b: _strings.str_trim(b)
    _REGISTRY["batstr.length"] = lambda ctx, b: _strings.str_length(b)
    _REGISTRY["batstr.substring"] = (
        lambda ctx, b, start, length=None: _strings.str_substring(
            b, int(start), None if length is None else int(length)
        )
    )
    _REGISTRY["batstr.like"] = (
        lambda ctx, b, pattern, negated=False: _strings.like_mask(
            b, pattern, bool(negated)
        )
    )
    _REGISTRY["algebra.likeselect"] = (
        lambda ctx, b, cands, pattern, negated=False: _strings.like_select(
            b, pattern, cands, bool(negated)
        )
    )


_register_strings()


def _register_math() -> None:
    from . import mathops as _mathops

    for fn_name in _mathops.MATH_FUNCTIONS:
        def make(n):
            def fn(ctx, bat, digits=0):
                return _mathops.math_unary(n, bat, int(digits))

            return fn

        _REGISTRY[f"batmath.{fn_name}"] = make(fn_name)


_register_math()


# ----------------------------------------------------------------------
# basket module — Algorithm 1's primitives, operating on basket Tables.
# ----------------------------------------------------------------------
@primitive("basket.bind")
def _basket_bind(ctx, name: str) -> Table:
    table = ctx.catalog.get(name)
    return table


@primitive("basket.lock")
def _basket_lock(ctx, table: Table) -> Table:
    table.lock.acquire()
    return table


@primitive("basket.unlock")
def _basket_unlock(ctx, table: Table) -> Table:
    table.lock.release()
    return table


@primitive("basket.count")
def _basket_count(ctx, table: Table) -> int:
    return table.count


@primitive("basket.empty")
def _basket_empty(ctx, table: Table) -> int:
    return table.truncate()


@primitive("basket.append")
def _basket_append(ctx, table: Table, result: ResultSet) -> int:
    for col, bat in zip(table.schema, result.bats):
        table.bat(col.name).append_bat(bat)
    table.check_alignment()
    return result.count


@primitive("basket.snapshot")
def _basket_snapshot(ctx, table: Table, column: str) -> BAT:
    return table.bat(column)


@primitive("bat.concat")
def _bat_concat(ctx, left: BAT, right: BAT) -> BAT:
    """Concatenate two columns (UNION ALL building block)."""
    out = BAT(left.atom, hseqbase=0, capacity=max(left.count + right.count, 1))
    out.append_bat(left)
    out.append_bat(right)
    return out


# ----------------------------------------------------------------------
# delta module — weighted (Z-set) relations for incremental execution
# ----------------------------------------------------------------------
def _register_delta() -> None:
    from . import delta as _delta
    from .bat import BAT as _BAT

    _REGISTRY["delta.canonicalize"] = (
        lambda ctx, result: _delta.canonicalize(result)
    )
    _REGISTRY["delta.expand"] = lambda ctx, result: _delta.expand(result)

    def _wsum(ctx, values: _BAT, weights: _BAT, gids, ngroups: int):
        sums = _delta.weighted_grouped_sum(
            values.tail, weights.tail, gids.tail, int(ngroups)
        )
        out = _BAT(AtomType.DBL, capacity=max(len(sums), 1))
        out.append_array(sums)
        return out

    def _wcount(ctx, weights: _BAT, gids, ngroups: int):
        counts = _delta.weighted_grouped_count(
            weights.tail, gids.tail, int(ngroups)
        )
        out = _BAT(AtomType.LNG, capacity=max(len(counts), 1))
        out.append_array(counts)
        return out

    _REGISTRY["delta.subsum"] = _wsum
    _REGISTRY["delta.subcount"] = _wcount


_register_delta()


# ----------------------------------------------------------------------
# language niceties
# ----------------------------------------------------------------------
@primitive("language.pass")
def _language_pass(ctx, value=None):
    return value
