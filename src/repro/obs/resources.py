"""Per-query resource accounting: CPU, memory, and queue-wait attribution.

The paper's premise — continuous queries are ordinary relational plans
run by the kernel's scheduler — means every query spends CPU, basket
memory, and queue capacity that the earlier observability layers never
attributed to anyone: latency (emitter histograms) and liveness
(``sys.*`` streams) say *how the engine feels*, not *who is spending
what*.  This module closes that gap with one passive accounting seam:

* **CPU** — ``time.thread_time()`` deltas captured at three nested
  boundaries that bracket each other: the scheduler's firing boundary
  (:meth:`ResourceAccountant.begin_firing` / ``end_firing``, covering
  the whole activation including basket I/O), the factory's plan
  boundary (``plan.run`` alone), and the MAL interpreter's per-opcode
  fold.  ``opcode <= plan <= firing`` by construction, and the
  per-bucket breakdown is *exhaustive*: firing CPU the interpreter did
  not claim as a real opcode is reported, when the breakdown is read,
  in synthetic ``engine.factory`` / ``engine.emitter`` buckets, so the
  accuracy contract (pinned by ``tests/test_obs_resources.py``) — the
  breakdown sums to >= 90% of the scheduler-measured thread CPU — holds
  even on plans whose snapshot/emit I/O dwarfs the columnar kernels.
* **Memory** — an ``nbytes()`` contract on BAT columns, baskets, and
  continuous plans, rolled up per query (output basket + plan state +
  an equal share of each input basket split across its reading
  queries) and engine-wide (every basket plus every plan's state).
  Byte counts are O(1) estimates, not allocator truth: fixed-width
  columns report ``count * itemsize``; string columns estimate a flat
  per-element object cost.
* **Queue-wait** — the time a batch sat in a basket between insert and
  the consuming factory's snapshot (monotonic arrival stamps minus
  snapshot time), split out from execution time so backpressure is
  distinguishable from a slow plan.

The accountant is deliberately *passive*: it never changes ``enabled()``
decisions, consumption, or scheduling, so deterministic-simulation and
crash-recovery differentials stay byte-identical with accounting on.

:class:`ResourceBudget` is the enforcement hook ROADMAP item 4 (tenant
quotas / admission control) attaches to: a per-query or per-tenant cap
on CPU-per-sample, memory, or queue-wait-per-sample, evaluated on each
telemetry-sampler tick, with breaches emitted into ``sys.events`` (kind
``budget_breach``) exactly once per breach window.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..errors import ObservabilityError
from .metrics import MetricsRegistry, Tally

__all__ = [
    "QueryResourceAccount",
    "ResourceAccountant",
    "ResourceBudget",
    "estimate_nbytes",
    "plan_nbytes",
]


def plan_nbytes(plan: Any) -> int:
    """A plan's saved-state estimate; 0 for plans without the
    ``nbytes()`` hook (plans are duck-typed, not all subclass
    ``ContinuousPlan``)."""
    hook = getattr(plan, "nbytes", None)
    return int(hook()) if callable(hook) else 0


#: Flat per-element estimate (bytes) for object-dtype columns: one
#: CPython pointer plus a small string object.  An estimate by contract
#: — see docs/observability.md, "Resource accounting and budgets".
OBJECT_ELEMENT_BYTES = 56


def estimate_nbytes(obj: Any, _depth: int = 0) -> int:
    """Recursive O(state) byte estimate of plain data structures.

    Understands numpy arrays, BATs (anything with a callable
    ``nbytes``), containers, scalars (flat 8 bytes — payload, not
    python object overhead), and plain-data objects (``__dict__`` or
    ``__slots__`` holders such as window-plan buffers and summaries).
    Depth-capped so a cyclic or engine-shaped object cannot blow the
    stack.
    """
    if _depth > 6 or obj is None:
        return 0
    if isinstance(obj, np.ndarray):
        if obj.dtype == object:
            return int(obj.size) * OBJECT_ELEMENT_BYTES
        return int(obj.nbytes)
    nbytes = getattr(obj, "nbytes", None)
    if callable(nbytes):
        return int(nbytes())
    if isinstance(obj, dict):
        return sum(
            estimate_nbytes(k, _depth + 1) + estimate_nbytes(v, _depth + 1)
            for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple, set)):
        return sum(estimate_nbytes(v, _depth + 1) for v in obj)
    if isinstance(obj, (str, bytes)):
        return len(obj)
    if isinstance(obj, (int, float, complex, np.number)):
        return 8
    inner = getattr(obj, "__dict__", None)
    if inner is not None:
        return estimate_nbytes(inner, _depth + 1)
    slots = getattr(type(obj), "__slots__", None)
    if slots is not None:
        return sum(
            estimate_nbytes(getattr(obj, s, None), _depth + 1)
            for s in slots
        )
    return 0


class QueryResourceAccount:
    """Cumulative resource usage of one continuous query.

    All counters are lifetime totals; deltas are computed by readers
    (the telemetry sampler keeps previous-sample values).  Mutated from
    the firing thread, read from anywhere — individual fields are
    consistent under the GIL, the set of fields is not an atomic cut
    (same contract as :meth:`DataCell.stats`).  The totals the registry
    exports (firing CPU and the four flow counters) live in tallies it
    reads when it exposes them.
    """

    def __init__(self, name: str, tenant: str = "default"):
        self.name = name
        self.tenant = tenant
        # bound engine objects (set by the accountant)
        self.factory: Any = None
        self.emitter: Any = None
        self.output_basket: Any = None
        self.input_baskets: List[Any] = []
        # CPU, outermost to innermost boundary: the scheduler's firing
        # boundary, one tally per transition (in threaded mode each is
        # written by its own thread), plan.run alone, and the per-MAL-
        # opcode fold
        self._factory_cpu = Tally(0.0)
        self._emitter_cpu = Tally(0.0)
        self.plan_cpu_seconds = 0.0
        self.opcode_cpu_seconds = 0.0
        self._opcode_cpu: Dict[str, float] = {}
        # a thread-CPU reading the factory took at its plan boundary,
        # handed once to the MAL interpreter as the start of its opcode
        # chain (one clock read for both); None outside that window
        self.cpu_mark: Optional[float] = None
        # queue-wait: insert -> consuming snapshot, per tuple
        self.queue_wait_seconds = 0.0
        self.queue_wait_tuples = 0
        # scheduler firings, one tally per transition like the CPU above
        self._factory_firings = Tally()
        self._emitter_firings = Tally()
        # flow
        self.activations = 0  # factory activations alone
        self._rows_in = Tally()
        self._rows_out = Tally()
        self._bytes_in = Tally()
        self._bytes_out = Tally()

    @property
    def cpu_seconds(self) -> float:
        """Thread CPU at the scheduler's firing boundary (factory and
        emitter firings)."""
        return self._factory_cpu.value + self._emitter_cpu.value

    @property
    def firings(self) -> int:
        """Scheduler firings of the query's factory and emitter."""
        return self._factory_firings.value + self._emitter_firings.value

    @property
    def rows_in(self) -> int:
        return self._rows_in.value

    @property
    def rows_out(self) -> int:
        return self._rows_out.value

    @property
    def bytes_in(self) -> int:
        return self._bytes_in.value

    @property
    def bytes_out(self) -> int:
        return self._bytes_out.value

    @property
    def opcode_cpu(self) -> Dict[str, float]:
        """Firing CPU broken down per MAL opcode, made exhaustive by two
        synthetic buckets computed here: ``engine.factory`` is the
        factory firings' CPU the interpreter did not claim as a real
        opcode (basket snapshots, consumption, interpreter bookkeeping),
        and ``engine.emitter`` the emitter firings' CPU (delivery) —
        so the buckets sum to the scheduler-measured total, the >=90%
        attribution contract pinned by ``tests/test_obs_resources.py``.
        """
        breakdown = dict(self._opcode_cpu)
        for stage, residual in (
            ("engine.factory",
             self._factory_cpu.value - self.opcode_cpu_seconds),
            ("engine.emitter", self._emitter_cpu.value),
        ):
            if residual > 0:
                breakdown[stage] = residual
        return breakdown

    def memory_bytes(self, input_shares: Dict[str, int]) -> int:
        """Current state footprint: output basket + plan state + the
        query's share of each input basket (split equally across the
        accounts reading it, per ``input_shares``)."""
        total = 0
        if self.output_basket is not None:
            total += int(self.output_basket.nbytes())
        factory = self.factory
        if factory is not None and factory.plan is not None:
            total += plan_nbytes(factory.plan)
        for basket in self.input_baskets:
            readers = max(1, input_shares.get(basket.name.lower(), 1))
            total += int(basket.nbytes()) // readers
        return total

    def snapshot(self, input_shares: Dict[str, int]) -> Dict[str, Any]:
        """Plain-dict view (JSON-serializable) for stats()/sampling."""
        return {
            "tenant": self.tenant,
            "cpu_seconds": self.cpu_seconds,
            "plan_cpu_seconds": self.plan_cpu_seconds,
            "opcode_cpu_seconds": self.opcode_cpu_seconds,
            "queue_wait_seconds": self.queue_wait_seconds,
            "queue_wait_tuples": self.queue_wait_tuples,
            "memory_bytes": self.memory_bytes(input_shares),
            "firings": self.firings,
            "activations": self.activations,
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"QueryResourceAccount({self.name!r}, tenant={self.tenant!r}, "
            f"cpu={self.cpu_seconds:.6f}s)"
        )


class ResourceBudget:
    """A cap on one query's (or one tenant's) per-sample resource use.

    Caps are checked once per telemetry-sampler tick against the deltas
    since the previous tick (CPU and queue-wait) or the instantaneous
    value (memory).  A breach fires exactly once per *breach window*:
    the first breached tick alerts, consecutive breached ticks stay
    silent, and a clean tick followed by a new breach alerts again —
    the same once-per-window semantics as :class:`AlertRule`.
    """

    def __init__(
        self,
        name: str,
        query: Optional[str] = None,
        tenant: Optional[str] = None,
        cpu_delta: Optional[float] = None,
        memory_bytes: Optional[int] = None,
        queue_wait_delta: Optional[float] = None,
        callback: Optional[Callable[["ResourceBudget", Dict], None]] = None,
    ):
        if (query is None) == (tenant is None):
            raise ObservabilityError(
                "a budget is scoped to exactly one of query= or tenant="
            )
        if cpu_delta is None and memory_bytes is None \
                and queue_wait_delta is None:
            raise ObservabilityError(
                "a budget needs at least one cap (cpu_delta, memory_bytes, "
                "queue_wait_delta)"
            )
        self.name = name
        self.query = query
        self.tenant = tenant
        self.cpu_delta = cpu_delta
        self.memory_bytes = memory_bytes
        self.queue_wait_delta = queue_wait_delta
        self.callback = callback
        self.breaches = 0
        self.last_breach: Optional[Dict[str, Any]] = None
        self._last_breach_tick: Optional[int] = None

    def scope_key(self) -> str:
        return f"query:{self.query}" if self.query else f"tenant:{self.tenant}"

    def evaluate(self, usage: Dict[str, float]) -> List[Dict[str, Any]]:
        """Which caps does ``usage`` exceed?  Returns one record per
        exceeded dimension (empty list: within budget)."""
        exceeded: List[Dict[str, Any]] = []
        checks = (
            ("cpu_delta", self.cpu_delta, usage.get("cpu_delta", 0.0)),
            ("memory_bytes", self.memory_bytes,
             usage.get("memory_bytes", 0)),
            ("queue_wait_delta", self.queue_wait_delta,
             usage.get("queue_wait_delta", 0.0)),
        )
        for dimension, cap, observed in checks:
            if cap is not None and observed > cap:
                exceeded.append({
                    "dimension": dimension,
                    "cap": cap,
                    "observed": observed,
                })
        return exceeded

    def record_tick(self, tick: int, breached: bool) -> bool:
        """Advance the breach-window state machine; True = fire now."""
        if not breached:
            return False
        new_window = (
            self._last_breach_tick is None
            or tick - self._last_breach_tick > 1
        )
        self._last_breach_tick = tick
        return new_window

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResourceBudget({self.name!r}, {self.scope_key()}, "
            f"breaches={self.breaches})"
        )


class ResourceAccountant:
    """The engine's resource-attribution hub.

    One per :class:`~repro.core.engine.DataCell`.  When ``enabled`` the
    engine wires it into the scheduler (firing-boundary CPU via the
    thread-local *current account*), the MAL interpreter (per-opcode
    CPU fold), and every factory (plan CPU, queue-wait, rows/bytes);
    when disabled none of those hooks are installed and the hot path
    pays nothing.
    """

    def __init__(
        self,
        cell: Any,
        enabled: bool = True,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.cell = cell
        self.enabled = enabled
        self.metrics = metrics if metrics is not None else cell.metrics
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._accounts: Dict[str, QueryResourceAccount] = {}
        self._by_transition: Dict[str, QueryResourceAccount] = {}
        self.budgets: Dict[str, ResourceBudget] = {}
        # engine-level breach observers (the network front door uses
        # this to throttle over-budget tenants at the socket)
        self._breach_listeners: List[Callable[..., Any]] = []
        m = self.metrics
        self._m_cpu = m.counter(
            "datacell_query_cpu_seconds_total",
            "Thread CPU attributed to each query at the firing boundary",
            ("query",),
        )
        self._m_rows_in = m.counter(
            "datacell_query_rows_in_total",
            "Tuples consumed from input baskets, per query",
            ("query",),
        )
        self._m_rows_out = m.counter(
            "datacell_query_rows_out_total",
            "Tuples produced into output baskets, per query",
            ("query",),
        )
        self._m_bytes_in = m.counter(
            "datacell_query_bytes_in_total",
            "Estimated bytes consumed from input baskets, per query",
            ("query",),
        )
        self._m_bytes_out = m.counter(
            "datacell_query_bytes_out_total",
            "Estimated bytes produced into output baskets, per query",
            ("query",),
        )
        self._m_wait = m.histogram(
            "datacell_query_queue_wait_seconds",
            "Time a consumed tuple sat in its basket before the plan ran",
            ("query",),
        )
        self._m_memory = m.gauge(
            "datacell_engine_memory_bytes",
            "Engine-wide estimated basket + plan-state footprint",
        )
        self._m_breaches = m.counter(
            "datacell_budget_breaches_total",
            "Resource-budget breach windows, per budget",
            ("budget",),
        )

    # ------------------------------------------------------------------
    # binding queries
    # ------------------------------------------------------------------
    def bind(self, handle: Any, tenant: str = "default") -> QueryResourceAccount:
        """Open an account for one registered continuous query."""
        account = QueryResourceAccount(handle.name, tenant)
        account.factory = handle.factory
        account.emitter = handle.emitter
        account.output_basket = handle.output_basket
        account.input_baskets = [
            b.basket for b in handle.factory.inputs
        ]
        for family, tally in (
            (self._m_cpu, account._factory_cpu),
            (self._m_cpu, account._emitter_cpu),
            (self._m_rows_in, account._rows_in),
            (self._m_rows_out, account._rows_out),
            (self._m_bytes_in, account._bytes_in),
            (self._m_bytes_out, account._bytes_out),
        ):
            family.read_from(tally, handle.name)
        account._m_wait = self._m_wait.labels(handle.name)
        with self._lock:
            self._accounts[handle.name] = account
            self._by_transition[handle.factory.name] = account
            self._by_transition[handle.emitter.name] = account
        return account

    def unbind(self, name: str) -> None:
        with self._lock:
            account = self._accounts.pop(name, None)
            if account is None:
                return
            for key in (
                account.factory.name if account.factory else None,
                account.emitter.name if account.emitter else None,
            ):
                if key is not None and self._by_transition.get(key) is account:
                    self._by_transition.pop(key, None)

    def account(self, name: str) -> Optional[QueryResourceAccount]:
        return self._accounts.get(name)

    def account_for(self, transition_name: str) -> Optional[QueryResourceAccount]:
        """The account a factory/emitter transition is bound to."""
        return self._by_transition.get(transition_name)

    def accounts(self) -> List[QueryResourceAccount]:
        with self._lock:
            return list(self._accounts.values())

    # ------------------------------------------------------------------
    # scheduler hook: firing-boundary CPU + the thread-local account
    # ------------------------------------------------------------------
    def begin_firing(self, transition_name: str):
        """Called by the scheduler just before ``activate()``.

        Returns an opaque token for :meth:`end_firing`, or ``None`` for
        transitions not bound to any account (receptors, the sampler) —
        the scheduler then skips ``end_firing`` entirely.
        """
        account = self._by_transition.get(transition_name)
        if account is None:
            return None
        self._tls.account = account
        factory = account.factory
        is_factory = factory is not None and transition_name == factory.name
        return account, is_factory, time.thread_time()

    def end_firing(self, token) -> None:
        """Close the firing boundary opened by :meth:`begin_firing`:
        charge the firing's thread CPU to the account's factory or
        emitter tally (see ``QueryResourceAccount.opcode_cpu``)."""
        account, is_factory, cpu_start = token
        if is_factory:
            cpu, firings = account._factory_cpu, account._factory_firings
        else:
            cpu, firings = account._emitter_cpu, account._emitter_firings
        cpu.value += time.thread_time() - cpu_start
        firings.value += 1
        self._tls.account = None

    def current(self) -> Optional[QueryResourceAccount]:
        """The account of the transition firing on *this* thread."""
        return getattr(self._tls, "account", None)

    # ------------------------------------------------------------------
    # factory hook: plan CPU, queue-wait, flow counters
    # ------------------------------------------------------------------
    def record_activation(
        self,
        account: QueryResourceAccount,
        plan_cpu: float,
        queue_wait: float,
        waited_tuples: int,
        rows_in: int,
        rows_out: int,
        bytes_in: int,
        bytes_out: int,
    ) -> None:
        account.plan_cpu_seconds += plan_cpu
        account.queue_wait_seconds += queue_wait
        account.queue_wait_tuples += waited_tuples
        account.activations += 1
        account._rows_in.value += rows_in
        account._rows_out.value += rows_out
        account._bytes_in.value += bytes_in
        account._bytes_out.value += bytes_out
        if waited_tuples:
            account._m_wait.observe(queue_wait / waited_tuples)

    # ------------------------------------------------------------------
    # interpreter hook: per-opcode CPU fold
    # ------------------------------------------------------------------
    def fold_opcode_cpu(
        self,
        account: QueryResourceAccount,
        local: Dict[str, float],
        total: float,
    ) -> None:
        """Fold one program execution's per-opcode CPU into the account
        (called once per ``execute``, not per instruction)."""
        with self._lock:
            account.opcode_cpu_seconds += total
            cpu = account._opcode_cpu
            for key, seconds in local.items():
                cpu[key] = cpu.get(key, 0.0) + seconds

    # ------------------------------------------------------------------
    # memory rollup
    # ------------------------------------------------------------------
    def input_shares(self) -> Dict[str, int]:
        """How many accounts read each input basket (for fair shares)."""
        shares: Dict[str, int] = {}
        for account in self.accounts():
            for basket in account.input_baskets:
                key = basket.name.lower()
                shares[key] = shares.get(key, 0) + 1
        return shares

    def engine_memory_bytes(self) -> int:
        """Every basket plus every bound plan's state, engine-wide."""
        total = 0
        for basket in self.cell.catalog.baskets():
            total += int(basket.nbytes())
        for account in self.accounts():
            if account.factory is not None:
                total += plan_nbytes(account.factory.plan)
        return total

    # ------------------------------------------------------------------
    # budgets
    # ------------------------------------------------------------------
    def add_budget(self, budget: ResourceBudget) -> ResourceBudget:
        with self._lock:
            if budget.name in self.budgets:
                raise ObservabilityError(
                    f"budget {budget.name!r} already exists"
                )
            self.budgets[budget.name] = budget
        return budget

    def remove_budget(self, name: str) -> None:
        with self._lock:
            self.budgets.pop(name, None)

    def usage_for_scope(
        self, budget: ResourceBudget, deltas: Dict[str, Dict[str, float]]
    ) -> Dict[str, float]:
        """Aggregate per-sample deltas to the budget's scope."""
        if budget.query is not None:
            return deltas.get(budget.query, {})
        usage: Dict[str, float] = {
            "cpu_delta": 0.0, "memory_bytes": 0, "queue_wait_delta": 0.0,
        }
        for name, d in deltas.items():
            account = self._accounts.get(name)
            if account is None or account.tenant != budget.tenant:
                continue
            usage["cpu_delta"] += d.get("cpu_delta", 0.0)
            usage["memory_bytes"] += d.get("memory_bytes", 0)
            usage["queue_wait_delta"] += d.get("queue_wait_delta", 0.0)
        return usage

    def check_budgets(
        self, deltas: Dict[str, Dict[str, float]], tick: int
    ) -> List[Dict[str, Any]]:
        """Evaluate every budget against this tick's deltas.

        Returns one breach record per budget that *fires* this tick
        (first breached tick of a window); consecutive breached ticks
        return nothing for that budget.
        """
        fired: List[Dict[str, Any]] = []
        for budget in list(self.budgets.values()):
            usage = self.usage_for_scope(budget, deltas)
            exceeded = budget.evaluate(usage)
            if budget.record_tick(tick, bool(exceeded)):
                budget.breaches += 1
                record = {
                    "budget": budget.name,
                    "scope": budget.scope_key(),
                    "exceeded": exceeded,
                    "tick": tick,
                }
                budget.last_breach = record
                self._m_breaches.labels(budget.name).inc()
                if budget.callback is not None:
                    budget.callback(budget, record)
                for listener in list(self._breach_listeners):
                    listener(budget, record)
                fired.append(record)
        return fired

    def add_breach_listener(
        self, listener: Callable[[ResourceBudget, Dict[str, Any]], None]
    ) -> None:
        """Register an engine-level observer fired on every budget
        breach (after the budget's own callback)."""
        if listener not in self._breach_listeners:
            self._breach_listeners.append(listener)

    def remove_breach_listener(self, listener: Callable[..., Any]) -> None:
        if listener in self._breach_listeners:
            self._breach_listeners.remove(listener)

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Structured snapshot for ``DataCell.stats()`` / the flight
        recorder; also refreshes the engine-wide memory gauge."""
        shares = self.input_shares()
        queries = {
            account.name: account.snapshot(shares)
            for account in self.accounts()
        }
        engine_memory = self.engine_memory_bytes()
        self._m_memory.set(engine_memory)
        return {
            "queries": queries,
            "engine": {
                "memory_bytes": engine_memory,
                "accounts": len(queries),
            },
            "budgets": {
                name: {
                    "scope": b.scope_key(),
                    "breaches": b.breaches,
                }
                for name, b in self.budgets.items()
            },
        }

    def top_rows(self, limit: int = 10) -> List[tuple]:
        """Ranked (by firing-boundary CPU) rows for ``DataCell.top()``."""
        shares = self.input_shares()
        ranked = sorted(
            self.accounts(), key=lambda a: -a.cpu_seconds
        )[: max(0, int(limit))]
        rows = []
        for a in ranked:
            avg_wait = (
                a.queue_wait_seconds / a.queue_wait_tuples
                if a.queue_wait_tuples
                else 0.0
            )
            rows.append((
                a.name,
                a.tenant,
                a.cpu_seconds * 1e3,
                a.plan_cpu_seconds * 1e3,
                a.opcode_cpu_seconds * 1e3,
                a.memory_bytes(shares) // 1024,
                avg_wait * 1e3,
                a.rows_in,
                a.rows_out,
                a.firings,
            ))
        return rows
