"""The DataCell engine façade.

Positioned exactly where the paper puts the DataCell — "between the
SQL-to-MAL compiler and the MonetDB kernel": this class owns the catalog,
the MAL interpreter, and the scheduler, extends the SQL runtime with
baskets and continuous queries, and exposes the full user journey:

>>> cell = DataCell()
>>> cell.execute("create basket sensors (sensor int, temp double)")
>>> q = cell.submit_continuous(
...     "select s.sensor, s.temp from "
...     "[select * from sensors where sensors.temp > 30.0] as s")
>>> cell.insert("sensors", [(1, 45.0), (2, 20.0)])
>>> cell.run_until_quiescent()
3
>>> q.fetch()
[(1, 45.0)]
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple, Union

from ..adapters.channels import Channel, InMemoryChannel
from ..analysis.diagnostics import raise_on_errors
from ..analysis.lockorder import LockOrderRecorder, global_recorder
from ..analysis.verifier import verify_circuit, verify_continuous
from ..durability.manager import DurabilityManager
from ..durability.wal import DurabilityConfig
from ..errors import BindError, DataCellError, SqlError
from ..kernel.catalog import Catalog, Table
from ..kernel.interpreter import MalInterpreter
from ..kernel.mal import ResultSet
from ..kernel.types import AtomType
from ..obs.dashboard import format_table, render_dashboard
from ..obs.flightrec import FlightRecorder
from ..obs.metrics import MetricsRegistry
from ..obs.resources import ResourceAccountant, ResourceBudget
from ..obs.sysstreams import (
    AlertRule,
    SystemStreamsConfig,
    TelemetrySampler,
    is_system_name,
)
from ..obs.tracing import chrome_trace, write_json
from ..sql.ast_nodes import (
    CreateBasket,
    CreateTable,
    Drop,
    Insert,
    Literal,
    Select,
    UnaryOp,
    UnionSelect,
    contains_basket_expr,
)
from ..sql.binder import type_name_to_atom
from ..sql.compiler import CompiledQuery, compile_select, compile_union
from ..sql.optimizer import OptimizerReport, optimize
from ..sql.parser import parse_statement
from .basket import Basket, TIME_COLUMN
from .clock import Clock, WallClock
from .continuous import ContinuousQuery
from .emitter import CollectingClient, Emitter
from .factory import ConsumeMode, ContinuousPlan, Factory, InputBinding
from .lowering import lower_continuous
from .receptor import Receptor
from .scheduler import Scheduler
from .windows import WindowAggregatePlan, WindowSpec

__all__ = ["DataCell"]


class DataCell:
    """A data-stream engine on top of a relational column-store kernel."""

    def __init__(
        self,
        clock: Optional[Clock] = None,
        scheduler: Optional[Scheduler] = None,
        metrics: Optional[MetricsRegistry] = None,
        durability: Optional[DurabilityConfig] = None,
        system_streams: Union[bool, SystemStreamsConfig, None] = None,
        execution: str = "reeval",
        lock_order: Optional[LockOrderRecorder] = None,
    ):
        self.clock = clock or WallClock()
        self.catalog = Catalog()
        # lock-order recorder seam: explicit instance, or whatever the
        # simtest harness installed process-wide (None = disabled)
        recorder = lock_order if lock_order is not None else global_recorder()
        if recorder is not None:
            self.catalog.lock_observer = recorder
        self.lock_order = recorder
        # default execution mode for continuous queries: "reeval" runs
        # every firing over the full MAL program; "incremental" compiles
        # supported shapes to Z-set circuits (repro.incremental) and
        # falls back to re-eval per query, recording the reason in
        # ``incremental_fallbacks`` as (query name, reason) pairs.  Window
        # queries run on the one window plan in either mode.
        if execution not in ("reeval", "incremental"):
            raise DataCellError(
                f"execution must be 'reeval' or 'incremental', "
                f"got {execution!r}"
            )
        self.execution = execution
        self.incremental_fallbacks: List[Tuple[str, str]] = []
        # every component this cell creates publishes into one registry,
        # so stats()/render_dashboard() see the whole engine; pass
        # MetricsRegistry(enabled=False) to run dark
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # per-query resource accounting follows the metrics switch too: a
        # dark cell installs no hot-path hooks at all.  The accountant
        # object always exists so stats()/top() have one surface to ask.
        self.resources = ResourceAccountant(
            self, enabled=self.metrics.enabled, metrics=self.metrics
        )
        self.interpreter = MalInterpreter(
            self.catalog, metrics=self.metrics, accountant=self.resources,
        )
        self.scheduler = scheduler or Scheduler(metrics=self.metrics)
        # the cell's one event log is its scheduler's: every event, the
        # scheduler's firings and errors included, lands in one place
        self.trace = self.scheduler.trace
        if self.resources.enabled:
            self.scheduler.accountant = self.resources
        self.flight = FlightRecorder(self)
        self._query_counter = 0
        self._queries: List[ContinuousQuery] = []
        # durability is opt-in: with no config the engine is pure
        # main-memory and every WAL hook is a single None check
        self.durability: Optional[DurabilityManager] = (
            DurabilityManager(self, durability)
            if durability is not None
            else None
        )
        # self-monitoring (opt-in): the sys.* streams
        self.sys: Optional[TelemetrySampler] = None
        # the network front door (opt-in via serve()), which also
        # answers the telemetry GETs
        self.server: Optional[Any] = None
        if system_streams:
            self.enable_system_streams(
                system_streams
                if isinstance(system_streams, SystemStreamsConfig)
                else None
            )

    # ------------------------------------------------------------------
    # DDL / DML / one-time queries
    # ------------------------------------------------------------------
    def execute(self, sql: str) -> Optional[Union[ResultSet, ContinuousQuery]]:
        """Execute one SQL statement.

        DDL returns ``None``; one-time SELECTs return a
        :class:`ResultSet`; continuous SELECTs (containing a basket
        expression) are registered and return a :class:`ContinuousQuery`.
        A commit point: with ``fsync="always"`` every WAL record written
        so far is durable when it returns.
        """
        result = self._execute_statement(sql)
        if self.durability is not None:
            self.durability.commit()
        return result

    def _execute_statement(
        self, sql: str
    ) -> Optional[Union[ResultSet, ContinuousQuery]]:
        stmt = parse_statement(sql)
        if isinstance(stmt, CreateTable):
            self.create_table(
                stmt.name,
                [(n, type_name_to_atom(t)) for n, t in stmt.columns],
            )
            return None
        if isinstance(stmt, CreateBasket):
            self.create_basket(
                stmt.name,
                [(n, type_name_to_atom(t)) for n, t in stmt.columns],
            )
            return None
        if isinstance(stmt, Drop):
            if is_system_name(stmt.name):
                raise SqlError(
                    f"cannot drop reserved system stream {stmt.name!r}"
                )
            self.catalog.drop(stmt.name)
            return None
        if isinstance(stmt, Insert):
            self._execute_insert(stmt)
            return None
        if isinstance(stmt, UnionSelect):
            compiled = compile_union(self.catalog, stmt)
        elif contains_basket_expr(stmt):
            return self._submit_select(stmt, sql)
        else:
            compiled = compile_select(self.catalog, stmt)
        _optimize(compiled)
        return self.interpreter.run(compiled.program)

    def query(self, sql: str) -> List[Tuple[Any, ...]]:
        """Run a one-time SELECT and return plain python rows."""
        result = self.execute(sql)
        if not isinstance(result, ResultSet):
            raise SqlError("query() expects a one-time SELECT")
        return result.rows()

    def explain(self, sql: str) -> str:
        """EXPLAIN / EXPLAIN ANALYZE.

        Given the *name* of a registered continuous query, renders its
        annotated plan tree — cumulative time, calls, and rows per
        operator, aggregated from interpreter opcode timings across every
        activation so far (the continuous EXPLAIN ANALYZE).  Given SQL
        text, lowers it as registration would (without registering or
        running) and returns each optimized MAL program, or the
        description of a window plan.
        """
        for query in self._queries:
            if query.name == sql:
                return query.explain_analyze()
        stmt = parse_statement(sql)
        if isinstance(stmt, UnionSelect):
            stages = [compile_union(self.catalog, stmt)]
        elif isinstance(stmt, Select) and contains_basket_expr(stmt):
            plan = lower_continuous(
                self.catalog, stmt, self.interpreter, "explain_out",
                self.execution,
            ).plan
            if isinstance(plan, WindowAggregatePlan):
                return plan.describe()
            stages = plan.stages
        elif isinstance(stmt, Select):
            stages = [compile_select(self.catalog, stmt)]
        else:
            raise SqlError("EXPLAIN applies to SELECT statements")
        parts = []
        for stage in stages:
            report = _optimize(stage)
            parts.append(
                f"-- optimizer: {report.instructions_before} -> "
                f"{report.instructions_after} instructions "
                f"(cse={report.cse_merged}, dce={report.dce_removed})"
            )
            parts.append(stage.program.render())
        return "\n".join(parts)

    def _execute_insert(self, stmt: Insert) -> None:
        if is_system_name(stmt.table):
            raise SqlError(
                f"system stream {stmt.table!r} is read-only: its rows are "
                "produced by the telemetry sampler"
            )
        table = self.catalog.get(stmt.table)
        rows = [
            [_literal_of(expr) for expr in row] for row in stmt.rows
        ]
        if stmt.columns is not None:
            user = (
                [c.name for c in table.user_columns]
                if isinstance(table, Basket)
                else table.schema.names()
            )
            order = [c.lower() for c in stmt.columns]
            if sorted(order) != sorted(n.lower() for n in user):
                raise BindError(
                    f"INSERT column list must cover exactly {user}"
                )
            index = [order.index(n.lower()) for n in user]
            rows = [[row[i] for i in index] for row in rows]
        if isinstance(table, Basket):
            table.insert_rows(rows)
        else:
            table.append_rows(rows)

    # ------------------------------------------------------------------
    # schema management
    # ------------------------------------------------------------------
    def create_table(
        self, name: str, columns: Sequence[Tuple[str, AtomType]]
    ) -> Table:
        """Create a persistent (static) relational table."""
        self._reject_system_name(name)
        return self.catalog.create_table(name, columns)

    def create_basket(
        self, name: str, columns: Sequence[Tuple[str, AtomType]]
    ) -> Basket:
        """Create a stream basket and register it in the catalog."""
        self._reject_system_name(name)
        basket = Basket(name, columns, self.clock, metrics=self.metrics)
        if self.durability is not None:
            basket.wal_sink = self.durability
        self.catalog.register(basket)
        return basket

    def _reject_system_name(self, name: str) -> None:
        if is_system_name(name):
            raise SqlError(
                f"the sys. schema is reserved for system streams "
                f"(cannot create {name!r})"
            )

    def _create_system_basket(
        self,
        name: str,
        columns: Sequence[Tuple[str, AtomType]],
        retention: int,
    ) -> Basket:
        """Create one reserved ``sys.*`` basket (telemetry sampler only).

        System baskets never get a ``wal_sink`` — their rows are derived
        measurements, recomputed by any run — and are bounded by ring
        retention rather than the shedding watermark.
        """
        if self.catalog.has(name):
            raise DataCellError(f"system stream {name!r} already exists")
        basket = Basket(name, columns, self.clock, metrics=self.metrics)
        basket.is_system = True
        basket.retention = retention
        self.catalog.register(basket)
        return basket

    def basket(self, name: str) -> Basket:
        table = self.catalog.get(name)
        if not isinstance(table, Basket):
            raise DataCellError(f"{name!r} is a table, not a basket")
        return table

    def insert(self, name: str, rows: Sequence[Sequence[Any]]) -> int:
        """Append tuples to a basket (stamping time) or plain table."""
        table = self.catalog.get(name)
        if isinstance(table, Basket):
            if table.is_system:
                raise SqlError(
                    f"system stream {name!r} is read-only: its rows are "
                    "produced by the telemetry sampler"
                )
            return table.insert_rows(rows)
        return table.append_rows(rows)

    # ------------------------------------------------------------------
    # continuous queries
    # ------------------------------------------------------------------
    def submit_continuous(
        self,
        sql: str,
        name: Optional[str] = None,
        tenant: str = "default",
        execution: Optional[str] = None,
    ) -> ContinuousQuery:
        """Register a continuous SQL query; returns its handle.

        The query must contain a basket expression (``[select ...]``),
        which is what distinguishes continuous from one-time queries.
        ``tenant`` labels the query's resource account so tenant-scoped
        :class:`~repro.obs.resources.ResourceBudget` caps can aggregate
        over it.  ``execution`` overrides the engine-wide mode for this
        query (``"reeval"`` or ``"incremental"``).
        """
        stmt = parse_statement(sql)
        if not isinstance(stmt, Select):
            raise SqlError("submit_continuous expects a SELECT statement")
        return self._submit_select(stmt, sql, name, tenant, execution)

    def _submit_select(
        self,
        stmt: Select,
        sql: str,
        name: Optional[str] = None,
        tenant: str = "default",
        execution: Optional[str] = None,
    ) -> ContinuousQuery:
        """Lower ``stmt`` (:func:`~repro.core.lowering.lower_continuous`)
        and register its plan: the one registration path of SQL."""
        execution = execution or self.execution
        if execution not in ("reeval", "incremental"):
            raise DataCellError(
                f"execution must be 'reeval' or 'incremental', "
                f"got {execution!r}"
            )
        name = name or self._fresh_name("q" if stmt.window is None else "w")
        lowered = lower_continuous(
            self.catalog, stmt, self.interpreter, f"{name}_out", execution
        )
        plan = lowered.plan
        if isinstance(plan, WindowAggregatePlan):
            bindings = [InputBinding(self.basket(plan.input_basket))]
        else:
            for i, stage in enumerate(plan.stages):
                _optimize(stage)
                # EXPLAIN ANALYZE renders each program under the query's name
                stage.program.name = (
                    name if len(plan.stages) == 1 else f"{name}[{i}]"
                )
            # static plan verification (repro.analysis): a bad plan fails
            # here with a plan-node-anchored diagnostic instead of
            # mid-firing in a factory thread
            raise_on_errors(
                verify_circuit(plan, self.catalog)
                if plan.weighted
                else verify_continuous(plan.compiled, self.catalog),
                context=f"continuous query {name!r} failed verification",
            )
            inputs = [b for stage in plan.stages for b in stage.basket_inputs]
            # A multi-input weighted plan (a delta join) must fire when
            # EITHER side has fresh tuples: a required binding on each side
            # would stall the factory whenever one stream runs ahead of the
            # other, leaving single-sided residue unprocessed at quiescence.
            # An empty side simply contributes an empty delta to the stage.
            bindings = [
                InputBinding(
                    self.basket(b.basket),
                    ConsumeMode.PLAN,
                    refire_on_consumption=b.result_constrained,
                    optional=plan.weighted and len(inputs) > 1,
                )
                for b in inputs
            ]
        columns = [
            ("ts" if col_name.lower() == TIME_COLUMN else col_name, atom)
            for col_name, atom in plan.output_schema()
        ]
        handle = self._register_query(
            name, sql, plan, bindings, columns, tenant=tenant
        )
        handle.execution = lowered.execution
        handle.weighted = handle.output_basket.weighted = plan.weighted
        if lowered.fallback is not None:
            # per-query fallback: the shape has no circuit — it runs on
            # the re-eval path, and the reason is recorded
            self.incremental_fallbacks.append((name, lowered.fallback))
        return handle

    def submit_plan(
        self,
        name: str,
        plan: ContinuousPlan,
        inputs: Sequence[Union[Basket, InputBinding, str]],
        output_columns: Sequence[Tuple[str, AtomType]],
        priority: int = 0,
        tenant: str = "default",
    ) -> ContinuousQuery:
        """Register a hand-built continuous plan (window plans, joins...).

        ``inputs`` may be baskets, bindings, or basket names; the output
        basket ``{name}_out`` is created with ``output_columns``.
        """
        bindings = []
        for item in inputs:
            if isinstance(item, InputBinding):
                bindings.append(item)
            elif isinstance(item, Basket):
                bindings.append(InputBinding(item))
            else:
                bindings.append(InputBinding(self.basket(item)))
        return self._register_query(
            name, None, plan, bindings, output_columns, priority, tenant
        )

    def submit_window_aggregate(
        self,
        input_basket: str,
        value_column: str,
        aggregates: Sequence[str],
        spec: WindowSpec,
        group_by: Optional[str] = None,
        name: Optional[str] = None,
        tenant: str = "default",
    ) -> ContinuousQuery:
        """Register a sliding/tumbling window aggregate over a stream.

        Every window query runs on :class:`~repro.core.windows
        .WindowAggregatePlan` (paper §3.1), whatever the engine's
        ``execution`` mode; the group key keeps its basket atom.
        """
        name = name or self._fresh_name("w")
        plan = WindowAggregatePlan(
            input_basket,
            value_column,
            aggregates,
            spec,
            f"{name}_out",
            group_column=group_by,
            group_atom=(
                self.basket(input_basket).schema.atom(group_by)
                if group_by else AtomType.STR
            ),
        )
        return self.submit_plan(
            name, plan, [input_basket], plan.output_schema(), tenant=tenant
        )

    def _register_query(
        self,
        name: str,
        sql: Optional[str],
        plan: ContinuousPlan,
        bindings: Sequence[InputBinding],
        output_columns: Sequence[Tuple[str, AtomType]],
        priority: int = 0,
        tenant: str = "default",
    ) -> ContinuousQuery:
        output = self.create_basket(f"{name}_out", output_columns)
        factory = Factory(
            name, plan, bindings, [output],
            priority=priority, metrics=self.metrics,
        )
        collector = CollectingClient()
        emitter = Emitter(
            f"{name}_emitter", output,
            metrics=self.metrics,
        )
        if self.durability is not None:
            emitter.wal_sink = self.durability
            factory.wal_sink = self.durability
        emitter.subscribe(collector)
        self.scheduler.register(factory)
        self.scheduler.register(emitter)
        handle = ContinuousQuery(
            name, sql, factory, output, emitter, collector, self
        )
        self._queries.append(handle)
        if self.resources.enabled:
            factory.accountant = self.resources
            self.resources.bind(handle, tenant)
        return handle

    def remove_continuous(self, handle: ContinuousQuery) -> None:
        """Unregister a standing query (scheduler + shared readers)."""
        self.scheduler.unregister(handle.factory.name)
        self.scheduler.unregister(handle.emitter.name)
        self.resources.unbind(handle.name)
        handle.factory.close()
        if handle in self._queries:
            self._queries.remove(handle)
        if self.catalog.has(handle.output_basket.name):
            self.catalog.drop(handle.output_basket.name)

    def continuous_queries(self) -> List[ContinuousQuery]:
        return list(self._queries)

    # ------------------------------------------------------------------
    # periphery
    # ------------------------------------------------------------------
    def add_receptor(
        self,
        name: str,
        targets: Sequence[Union[str, Basket]],
        channel: Optional[Channel] = None,
        batch_size: int = 1024,
    ) -> Receptor:
        """Attach a receptor thread/transition feeding the target baskets.

        Returns the receptor; its channel (created if not given) is where
        producers push textual or structured tuples.
        """
        channel = channel or InMemoryChannel(f"{name}_channel")
        baskets = [
            t if isinstance(t, Basket) else self.basket(t) for t in targets
        ]
        receptor = Receptor(
            name, channel, baskets, batch_size,
            metrics=self.metrics,
        )
        self.scheduler.register(receptor)
        return receptor

    def add_emitter(
        self,
        name: str,
        source: Union[str, Basket],
        include_time: bool = False,
    ) -> Emitter:
        """Attach an extra emitter on any basket."""
        basket = source if isinstance(source, Basket) else self.basket(source)
        emitter = Emitter(
            name, basket, include_time=include_time,
            metrics=self.metrics,
        )
        if self.durability is not None:
            emitter.wal_sink = self.durability
        self.scheduler.register(emitter)
        return emitter

    # ------------------------------------------------------------------
    # driving
    # ------------------------------------------------------------------
    def step(self) -> int:
        """One synchronous scheduler iteration."""
        return self.scheduler.step()

    def run_until_quiescent(self, max_steps: int = 100_000) -> int:
        """Drive synchronously until the network drains.

        A commit point: with ``fsync="always"`` every WAL record written
        so far is durable when it returns.
        """
        steps = self.scheduler.run_until_quiescent(max_steps)
        if self.durability is not None:
            self.durability.commit()
        return steps

    def start(self) -> None:
        """Start threaded mode: one dispatcher thread fires transitions
        as their input places change."""
        self.scheduler.start()
        if self.durability is not None:
            self.durability.start_checkpointer()

    def stop(self, timeout: float = 5.0) -> List[str]:
        """Stop threaded mode; returns names of threads that failed to
        join within ``timeout`` (empty on clean shutdown).

        Shutdown order matters and is fixed (see ``docs/server.md``):

        1. **server** — stop accepting, drain client output queues,
           close sockets, then unregister the ingest pump.  Whatever
           the pump applied before this point is WAL-logged; whatever
           was still queued is unacknowledged and simply dropped.
        2. **scheduler** — join the dispatcher thread, so no basket
           mutates after this returns.
        3. **durability** — stop the checkpointer and fsync the WAL
           tail; runs after the scheduler so the flushed log covers
           every applied firing.
        """
        if self.server is not None:
            self.trace.record("shutdown", "engine", stage="server")
            self.server.close(timeout)
            self.server = None
        self.trace.record("shutdown", "engine", stage="scheduler")
        leftovers = self.scheduler.stop(timeout)
        if self.durability is not None:
            self.trace.record("shutdown", "engine", stage="durability")
            self.durability.stop_checkpointer(timeout)
            self.durability.flush()
        return leftovers

    # ------------------------------------------------------------------
    # the network front door (repro.server)
    # ------------------------------------------------------------------
    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[Any] = None,
    ) -> Any:
        """Start (or return) the network front door.

        Binds an asyncio TCP listener (port ``0`` = any free port; see
        ``cell.server.address`` for the resolved one) speaking the
        :mod:`repro.server.protocol` frame format, with a WebSocket
        upgrade and the HTTP telemetry GETs (``/metrics``, ...) on the
        same port.  The engine should also be running in threaded mode
        (:meth:`start`) so ingest and queries fire.
        """
        if self.server is None:
            from ..server import DataCellServer

            self.server = DataCellServer(
                self, host=host, port=port, config=config
            ).start()
        return self.server

    # ------------------------------------------------------------------
    # self-monitoring surface (system streams, alerts)
    # ------------------------------------------------------------------
    def enable_system_streams(
        self, config: Optional[SystemStreamsConfig] = None
    ) -> TelemetrySampler:
        """Turn on the ``sys.*`` streams (idempotent-hostile: once).

        Registers the :class:`TelemetrySampler` transition with the
        scheduler; from then on ``sys.metrics`` / ``sys.queries`` /
        ``sys.baskets`` / ``sys.events`` exist in the catalog and
        meta-queries over them are ordinary continuous queries.
        """
        if self.sys is not None:
            raise DataCellError("system streams are already enabled")
        self.sys = TelemetrySampler(self, config)
        self.scheduler.register(self.sys)
        return self.sys

    def disable_system_streams(self) -> None:
        """Unregister the sampler, cancel alerts, drop ``sys.*`` baskets."""
        if self.sys is None:
            return
        self.sys.close()
        self.sys = None

    def add_alert(
        self,
        name: str,
        sql: str,
        callback: Optional[Callable[[AlertRule, List[Tuple]], None]] = None,
    ) -> AlertRule:
        """Register an alert rule: a meta-query with firing semantics.

        ``sql`` is a continuous query (normally over ``sys.*`` streams)
        whose non-empty deliveries constitute a breach; the rule fires
        once per breach window (see :class:`AlertRule`) into ``callback``
        and an ``alert`` event.
        """
        if self.sys is None:
            raise DataCellError(
                "enable system streams before adding alerts "
                "(enable_system_streams())"
            )
        if name in self.sys.alerts:
            raise DataCellError(f"alert {name!r} already exists")
        query = self.submit_continuous(sql, name=f"alert_{name}")
        return AlertRule(name, query, self.sys, callback, self.metrics)

    # ------------------------------------------------------------------
    # durability surface
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Write a consistent checkpoint now; returns its id.

        Raises :class:`DataCellError` when the cell was built without a
        :class:`~repro.durability.DurabilityConfig`.
        """
        if self.durability is None:
            raise DataCellError(
                "durability is not enabled on this cell "
                "(pass durability=DurabilityConfig(...))"
            )
        return self.durability.checkpoint()

    def recover(self) -> "RecoveryReport":
        """Restore state from the newest checkpoint + WAL suffix.

        The cell must already hold the same topology (baskets, queries,
        emitters under the same names) that existed when the log was
        written — recovery restores *state*, not structure.  Call before
        driving the scheduler.
        """
        if self.durability is None:
            raise DataCellError(
                "durability is not enabled on this cell "
                "(pass durability=DurabilityConfig(...))"
            )
        return self.durability.recover()

    # ------------------------------------------------------------------
    # observability surface
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """A structured snapshot of the whole engine's measurements.

        Shape::

            {"scheduler": {"iterations", "firings",
                           "transitions": {name: {"firings", "idle_polls",
                                                  "activation_seconds"}}},
             "baskets":   {name: {"depth", "high_water", "inserted",
                                  "consumed", "shed"}},
             "queries":   {name: {"delivered", "activations", "latency"}},
             "mal":       {opcode: {"calls", "seconds"}},
             "spans":     {"batches_seen", "sampled_batches", "finished"}}

        Histogram entries carry ``count/sum/min/max/p50/p95/p99``.  Works
        in both driving modes; safe to call while threads run (values are
        individually consistent, not a global atomic cut).
        """
        m = self.metrics
        transitions = {}
        receptors = []
        for t in self.scheduler.transitions():
            if isinstance(t, Receptor):
                receptors.append(t)
            firings, idle_polls = self.scheduler.counts(t.name)
            transitions[t.name] = {
                "firings": firings,
                "idle_polls": idle_polls,
                "activation_seconds": m.histogram_snapshot(
                    "datacell_transition_activation_seconds", (t.name,)
                ) or {},
            }
        baskets = {}
        for table in self.catalog.baskets():
            if not isinstance(table, Basket):  # pragma: no cover - defensive
                continue
            baskets[table.name] = {
                "depth": table.count,
                "high_water": table.high_water,
                "inserted": table.total_in,
                "consumed": table.total_out,
                "shed": table.total_shed,
            }
        queries = {}
        for q in self._queries:
            queries[q.name] = {
                "delivered": q.results_delivered,
                "activations": q.activations,
                "latency": m.histogram_snapshot(
                    "datacell_query_latency_seconds",
                    (q.output_basket.name,),
                ) or {},
            }
        out = {
            "scheduler": {
                "iterations": self.scheduler.total_iterations,
                "firings": self.scheduler.total_firings,
                "transitions": transitions,
            },
            "baskets": baskets,
            "queries": queries,
            "mal": self.interpreter.profile(),
            "spans": {
                "batches_seen": sum(r.batches_seen for r in receptors),
                "sampled_batches": sum(r.sampled_batches for r in receptors),
                # the traced fire records still in the log's ring
                "finished": sum(
                    1 for e in self.trace.events(kind="fire")
                    if "trace" in e.detail
                ),
            },
        }
        if self.durability is not None:
            out["durability"] = self.durability.stats()
        if self.sys is not None:
            out["sys"] = {
                "samples": self.sys.samples_taken,
                "rows": self.sys.rows_emitted,
                "streams": {
                    name: b.count for name, b in self.sys.baskets.items()
                },
                "alerts": {
                    name: rule.firings
                    for name, rule in self.sys.alerts.items()
                },
            }
        if self.server is not None:
            out["server"] = self.server.stats()
        if self.resources.enabled:
            out["resources"] = self.resources.stats()
        return out

    def top(self, limit: int = 10) -> str:
        """A ``top``-style text table of queries ranked by CPU spent.

        Columns: firing-boundary CPU, plan CPU, per-opcode CPU, state
        memory, mean queue-wait, rows in/out, firings.  Returns a
        one-line notice when resource accounting is disabled.
        """
        if not self.resources.enabled:
            return "(resource accounting disabled: metrics are off)\n"
        headers = (
            "query", "tenant", "cpu_ms", "plan_ms", "opcode_ms",
            "mem_kb", "wait_ms", "rows_in", "rows_out", "firings",
        )
        rows = [
            (
                name, tenant,
                f"{cpu:.3f}", f"{plan:.3f}", f"{opcode:.3f}",
                str(mem_kb), f"{wait:.3f}",
                str(rows_in), str(rows_out), str(firings),
            )
            for (
                name, tenant, cpu, plan, opcode,
                mem_kb, wait, rows_in, rows_out, firings,
            ) in self.resources.top_rows(limit)
        ]
        return format_table("Top queries by CPU", headers, rows)

    def set_budget(
        self,
        name: str,
        query: Optional[str] = None,
        tenant: Optional[str] = None,
        cpu_delta: Optional[float] = None,
        memory_bytes: Optional[int] = None,
        queue_wait_delta: Optional[float] = None,
        callback: Optional[Callable[[ResourceBudget, dict], None]] = None,
    ) -> ResourceBudget:
        """Register a per-query or per-tenant resource budget.

        Caps are evaluated once per telemetry-sampler tick against the
        sample's deltas (CPU/queue-wait) or instantaneous footprint
        (memory); breaches fire once per breach window into a
        ``budget_breach`` event (in ``sys.events`` the same tick), the
        ``datacell_budget_breaches_total`` counter, and ``callback``.
        Requires resource accounting; system streams must be enabled for
        breaches to be *checked* (the sampler drives evaluation).
        """
        if not self.resources.enabled:
            raise DataCellError(
                "resource budgets need resource accounting "
                "(build the cell with an enabled MetricsRegistry)"
            )
        return self.resources.add_budget(
            ResourceBudget(
                name,
                query=query,
                tenant=tenant,
                cpu_delta=cpu_delta,
                memory_bytes=memory_bytes,
                queue_wait_delta=queue_wait_delta,
                callback=callback,
            )
        )

    def remove_budget(self, name: str) -> None:
        self.resources.remove_budget(name)

    def render_dashboard(self, trace_events: int = 10) -> str:
        """The engine's live state as an aligned text dashboard."""
        return render_dashboard(
            self.stats(), trace=self.trace, trace_events=trace_events
        )

    def prometheus_text(self) -> str:
        """This cell's registry in Prometheus text exposition format."""
        return self.metrics.to_prometheus_text()

    def export_chrome_trace(self, path: str) -> None:
        """Write the sampled batches' spans — the traced ``fire`` records
        in the log's ring — as Chrome trace-event JSON (Perfetto)."""
        write_json(path, chrome_trace(self.trace.events()))

    def dump_flight_record(self, path: str) -> dict:
        """Write the flight-recorder post-mortem JSON; returns the doc."""
        return self.flight.dump(path, reason="manual")

    # ------------------------------------------------------------------
    def _fresh_name(self, prefix: str) -> str:
        self._query_counter += 1
        return f"{prefix}{self._query_counter}"


def _literal_of(expr: Any) -> Any:
    """Extract a python value from an INSERT literal expression."""
    if isinstance(expr, Literal):
        return expr.value
    if (
        isinstance(expr, UnaryOp)
        and expr.op == "-"
        and isinstance(expr.operand, Literal)
        and isinstance(expr.operand.value, (int, float))
    ):
        return -expr.operand.value
    raise BindError("INSERT VALUES must be literals")


def _optimize(compiled: CompiledQuery) -> OptimizerReport:
    """Optimize ``compiled``'s program in place, keeping the variables
    that carry its baskets' consumed positions."""
    compiled.program, report = optimize(
        compiled.program,
        protected=[b.consumed_var for b in compiled.basket_inputs],
    )
    return report
