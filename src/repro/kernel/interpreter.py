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
from typing import Any, Callable, Dict, List, Optional

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
    """Runtime context passed to primitives: catalog plus statistics."""

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.instructions_executed = 0


class MalInterpreter:
    """Executes MAL programs against a catalog.

    When built against an enabled metrics registry the interpreter keeps
    an opcode profile: per-``module.fn`` invocation counts and cumulative
    wall time, accumulated locally per ``execute`` and flushed once, so
    the per-instruction overhead is two ``perf_counter`` calls and a dict
    update.  :meth:`render_profile` is the ``explain``-style view.
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
        if not self._profiling:
            for ins in program.instructions:
                self._step(ctx, ins, env)
            return env
        local: Dict[str, List[float]] = {}
        # per-plan-node accumulation: [calls, seconds, last rows-out].
        # rows-out overwrites rather than sums within one execution — a
        # node's row count is what its *final* instruction produced.
        node_local: Dict[Optional[int], List[float]] = {}
        stage = self.tracer.current_stage() if self._tracing else None
        # opcode thread-CPU is only sampled when a resource account is on
        # the thread (i.e. inside an accounted continuous-query firing);
        # readings are chained — one clock call per instruction boundary —
        # so interpreter bookkeeping between steps stays inside the plan's
        # attributed total instead of leaking out of it
        account = (
            self.accountant.current() if self.accountant is not None else None
        )
        measure_cpu = account is not None
        cpu_prev = time.thread_time() if measure_cpu else 0.0
        for ins in program.instructions:
            started = time.perf_counter()
            self._step(ctx, ins, env)
            elapsed = time.perf_counter() - started
            if measure_cpu:
                cpu_now = time.thread_time()
                cpu_elapsed = cpu_now - cpu_prev
                cpu_prev = cpu_now
            else:
                cpu_elapsed = 0.0
            key = f"{ins.module}.{ins.fn}"
            slot = local.get(key)
            if slot is None:
                local[key] = [1, elapsed, cpu_elapsed]
            else:
                slot[0] += 1
                slot[1] += elapsed
                slot[2] += cpu_elapsed
            node_slot = node_local.get(ins.node)
            if node_slot is None:
                node_local[ins.node] = node_slot = [0, 0.0, 0.0]
            node_slot[0] += 1
            node_slot[1] += elapsed
            rows = self._rows_out(ins, env)
            if rows is not None:
                node_slot[2] = rows
            if stage is not None:
                self.tracer.add_opcode(
                    stage, key, started, elapsed,
                    node=ins.node,
                )
        self._flush_profile(local)
        self._flush_node_stats(program, node_local)
        if measure_cpu:
            cpu_by_op = {k: v[2] for k, v in local.items() if v[2]}
            self.accountant.fold_opcode_cpu(
                account, cpu_by_op, sum(cpu_by_op.values())
            )
        return env

    @staticmethod
    def _rows_out(ins: Instr, env: Dict[str, Any]) -> Optional[float]:
        """Row-count estimate of an instruction's primary result."""
        if not ins.results:
            return None
        value = env.get(ins.results[0])
        if isinstance(value, (BAT, ResultSet)):
            return float(value.count)
        if isinstance(value, np.ndarray):
            return float(len(value))
        return None

    def _flush_node_stats(
        self,
        program: Program,
        node_local: Dict[Optional[int], List[float]],
    ) -> None:
        """Fold one execution's per-node timings into the program.

        The program object is the natural per-query aggregation point: a
        continuous query owns its compiled program, so cumulative node
        stats *are* the query's EXPLAIN ANALYZE state.
        """
        with self._profile_lock:
            stats = program.node_stats
            for node_id, (calls, seconds, rows) in node_local.items():
                slot = stats.get(node_id)
                if slot is None:
                    stats[node_id] = [calls, seconds, rows]
                else:
                    slot[0] += calls
                    slot[1] += seconds
                    slot[2] += rows

    def _flush_profile(self, local: Dict[str, List[float]]) -> None:
        with self._profile_lock:
            for key, (calls, seconds, cpu) in local.items():
                slot = self._opcode_stats.setdefault(key, [0, 0.0, 0.0])
                slot[0] += calls
                slot[1] += seconds
                slot[2] += cpu
        for key, (calls, seconds, cpu) in local.items():
            self._m_calls.labels(key).inc(calls)
            self._m_seconds.labels(key).inc(seconds)
            if cpu:
                self._m_cpu_seconds.labels(key).inc(cpu)

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

    def _step(self, ctx: MalContext, ins: Instr, env: Dict[str, Any]) -> None:
        fn = _REGISTRY.get(f"{ins.module}.{ins.fn}")
        if fn is None:
            raise MalError(f"unknown MAL primitive {ins.module}.{ins.fn}")
        args = []
        for arg in ins.args:
            if isinstance(arg, Var):
                try:
                    args.append(env[arg.name])
                except KeyError:
                    raise MalError(
                        f"undefined variable {arg.name!r} in {ins.render()}"
                    ) from None
            elif isinstance(arg, Const):
                args.append(arg.value)
            else:  # pragma: no cover - defensive
                raise MalError(f"bad argument {arg!r}")
        try:
            value = fn(ctx, *args)
        except MalError:
            raise
        except Exception as exc:
            raise MalError(f"primitive failed in {ins.render()}: {exc}") from exc
        ctx.instructions_executed += 1
        if len(ins.results) == 1:
            env[ins.results[0]] = value
        elif len(ins.results) > 1:
            if not isinstance(value, tuple) or len(value) != len(ins.results):
                raise MalError(
                    f"{ins.module}.{ins.fn} returned wrong arity for "
                    f"{ins.results}"
                )
            for name, item in zip(ins.results, value):
                env[name] = item


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
