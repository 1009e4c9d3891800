"""Factories — continuous queries as resumable co-routines (paper §2.3).

A factory contains the compiled continuous query plan.  It has at least one
input and one output basket; each activation reads the inputs, processes
them, writes qualifying tuples to the outputs, and consumes the input
tuples it has seen.  Execution state is saved between calls: the factory is
a python generator whose frame persists across activations, mirroring
MonetDB's factory co-routines, and whatever state the plan object carries
(window buffers, cursors) survives with it.

Algorithm 1 fidelity — every activation performs, in order::

    lock(inputs); lock(outputs)
    result = plan(inputs)           # any relational computation
    consume(inputs)                 # empty / partial / cursor advance
    append(outputs, result)
    unlock(...); suspend()

Locks are acquired in a global order (basket name) to stay deadlock-free
when factories share baskets.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..errors import DataCellError
from ..kernel.mal import ResultSet
from ..obs.metrics import MetricsRegistry, Tally, default_registry
from ..obs.tracing import traced_firing
from .basket import Basket, BasketSnapshot

__all__ = [
    "ConsumeMode",
    "InputBinding",
    "PlanOutput",
    "ContinuousPlan",
    "CallablePlan",
    "Factory",
    "ActivationResult",
]


class ConsumeMode(enum.Enum):
    """What happens to input tuples after a factory has processed them.

    A PLAN binding's plan decides per tuple, by a predicate over the
    tuple alone (a basket expression's WHERE): a tuple it leaves behind
    stays buffered for other readers, but this binding never reads it
    again — each activation reads only the tuples past its
    ``last_seen_seq`` watermark.  An inner LIMIT (``refire_on_consumption``)
    leaves qualifying tuples behind, so such a binding re-reads them, as
    PEEK does.
    """

    ALL = "all"  # bulk empty — the Algorithm 1 default (separate baskets)
    PLAN = "plan"  # the plan's basket expression decides (predicate window)
    SHARED = "shared"  # per-reader cursor; removal at low-water mark (§2.5)
    PEEK = "peek"  # no consumption: basket read as a plain table (§2.6)


# the modes whose leftovers can enable the factory again
_REFIRING = (ConsumeMode.PLAN, ConsumeMode.PEEK)


@dataclass
class InputBinding:
    """How a factory reads one input basket.

    ``last_seen_seq`` is the factory's high-water mark on this basket: for
    PLAN/PEEK modes (where tuples may legitimately stay behind), the
    factory only re-fires when tuples beyond the mark exist — this is the
    paper's "auxiliary baskets regulate when a transition runs" without the
    extra basket object.
    """

    basket: Basket
    mode: ConsumeMode = ConsumeMode.ALL
    min_tuples: int = 1
    last_seen_seq: int = -1
    optional: bool = False  # does not gate enablement (side inputs)
    # Result-set-constraint windows (inner LIMIT) leave qualifying tuples
    # behind on purpose; such bindings stay enabled while the previous
    # activation still consumed something.
    refire_on_consumption: bool = False
    last_consumed: int = 0


def _set_min_tuples(binding: InputBinding, value: int) -> None:
    binding.__dict__["min_tuples"] = value
    if "basket" in binding.__dict__:  # a lower threshold may enable it
        binding.basket.changed()


# a property over the dataclass field: only a threshold change pays
InputBinding.min_tuples = property(  # type: ignore[assignment]
    lambda binding: binding.__dict__["min_tuples"], _set_min_tuples
)


@dataclass
class PlanOutput:
    """What one plan execution produced.

    ``results`` maps output basket name → rows to append.  ``consumed``
    maps input basket name → snapshot positions the plan's basket
    expression referenced (only consulted for ``ConsumeMode.PLAN`` inputs).
    """

    results: Dict[str, ResultSet] = field(default_factory=dict)
    consumed: Dict[str, np.ndarray] = field(default_factory=dict)


class ContinuousPlan:
    """Interface implemented by compiled continuous-query plans."""

    # True when output rows carry a trailing ``dc_weight`` (Z-set deltas)
    weighted = False

    def run(self, snapshots: Dict[str, BasketSnapshot]) -> PlanOutput:
        raise NotImplementedError  # pragma: no cover - interface

    def describe(self) -> str:
        return type(self).__name__

    # -- resource accounting hook --------------------------------------
    def nbytes(self) -> int:
        """Estimated bytes of state the plan carries across activations.

        The default contract mirrors :meth:`export_state`: a stateless
        plan holds nothing.  Stateful plans (window buffers, join
        caches) override this with an estimate of their buffered state;
        it is read at telemetry-sampling cadence, not on the hot path.
        """
        return 0

    # -- durability hooks ----------------------------------------------
    # A plan that carries saved state across activations (window
    # buffers, join caches) overrides these so checkpoints capture it.
    # The default contract is "stateless": export nothing, and refuse a
    # blob on import — silently dropping saved state would un-recover a
    # window mid-stream.
    def export_state(self) -> Optional[bytes]:
        return None

    def import_state(self, blob: Optional[bytes]) -> None:
        if blob is not None:
            raise DataCellError(
                f"plan {self.describe()!r} is stateless but a checkpoint "
                "carries saved state for it (plan/engine version mismatch?)"
            )


class CallablePlan(ContinuousPlan):
    """Adapter turning a python callable into a plan.

    The callable receives ``{basket_name: BasketSnapshot}`` and returns
    either a :class:`PlanOutput`, a ``{basket: ResultSet}`` dict, a single
    :class:`ResultSet` (routed to ``default_output``), or ``None``.
    """

    def __init__(
        self,
        fn: Callable[[Dict[str, BasketSnapshot]], Any],
        default_output: Optional[str] = None,
        name: Optional[str] = None,
    ):
        self._fn = fn
        self._default_output = default_output
        self._name = name or getattr(fn, "__name__", "callable_plan")

    def run(self, snapshots: Dict[str, BasketSnapshot]) -> PlanOutput:
        raw = self._fn(snapshots)
        if raw is None:
            return PlanOutput()
        if isinstance(raw, PlanOutput):
            return raw
        if isinstance(raw, ResultSet):
            if self._default_output is None:
                raise DataCellError(
                    f"plan {self._name!r} returned a bare ResultSet but has "
                    "no default output basket"
                )
            return PlanOutput(results={self._default_output: raw})
        if isinstance(raw, dict):
            return PlanOutput(results=raw)
        raise DataCellError(
            f"plan {self._name!r} returned unsupported type {type(raw)!r}"
        )

    def describe(self) -> str:
        return self._name


@dataclass
class ActivationResult:
    """Statistics of one transition activation (its wall time is the
    scheduler's to measure).

    ``drained`` says the firing left the transition disabled until one of
    its input places changes, so the scheduler need not check it again
    before then; the default keeps a fired transition a candidate.
    ``trace`` is the token of the sampled batch the firing worked on (0:
    none), which the scheduler puts in the firing's ``fire`` event
    together with the ``opcodes`` a traced factory firing timed.
    """

    fired: bool
    tuples_in: int = 0
    tuples_out: int = 0
    consumed: int = 0
    drained: bool = False
    trace: int = 0
    opcodes: Sequence[Any] = ()


class Factory:
    """A continuous query wrapped as a schedulable transition."""

    def __init__(
        self,
        name: str,
        plan: ContinuousPlan,
        inputs: Sequence[Union[InputBinding, Basket]],
        outputs: Sequence[Basket],
        priority: int = 0,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if not inputs:
            raise DataCellError(
                f"factory {name!r} needs at least one input basket"
            )
        self.name = name
        self.plan = plan
        self.inputs: List[InputBinding] = [
            b if isinstance(b, InputBinding) else InputBinding(b)
            for b in inputs
        ]
        self.outputs: List[Basket] = list(outputs)
        self.priority = priority
        self.activations = 0
        self._tuples_in = Tally()
        self._tuples_out = Tally()
        self.metrics = metrics if metrics is not None else default_registry()
        # the query's resource account (QueryResourceAccount), bound by
        # the accountant when accounting is enabled: the factory adds its
        # plan thread-CPU, queue-wait and rows/bytes flow to it (the
        # factory is the only writer of those slots)
        self.account = None
        # durability hook (DurabilityManager); set by the engine when
        # durability is on.  Each productive activation is logged as a
        # firing boundary so recovery replays the same schedule.
        self.wal_sink = None
        self.metrics.counter(
            "datacell_factory_tuples_in_total",
            "Tuples read from input baskets",
            ("factory",),
        ).read_from(self._tuples_in, name)
        self.metrics.counter(
            "datacell_factory_tuples_out_total",
            "Tuples emitted to output baskets",
            ("factory",),
        ).read_from(self._tuples_out, name)
        for binding in self.inputs:
            if binding.mode is ConsumeMode.SHARED:
                binding.basket.register_reader(self.name)
        # a factory's baskets are fixed: lock order and output map are
        # computed once, not per activation
        touched = {id(b.basket): b.basket for b in self.inputs}
        touched.update((id(b), b) for b in self.outputs)
        self._locks = sorted(touched.values(), key=lambda b: b.name.lower())
        self._outputs_by_name = {b.name.lower(): b for b in self.outputs}
        # The saved-state co-routine: created lazily on first activation,
        # then resumed forever (the paper: "the first time that the factory
        # is called, a thread is created ... the next time it is called it
        # continues from the point where it stopped").
        self._coroutine: Optional[Iterator[ActivationResult]] = None
        # the exception the co-routine died with, once it has
        self._failure: Optional[Exception] = None

    @property
    def total_in(self) -> int:
        """Tuples read from the input baskets, over every activation."""
        return self._tuples_in.value

    @property
    def total_out(self) -> int:
        """Tuples appended to the output baskets, over every activation."""
        return self._tuples_out.value

    # ------------------------------------------------------------------
    def input_places(self) -> List[Basket]:
        """The baskets whose changes can enable this factory."""
        return [binding.basket for binding in self.inputs]

    def enabled(self) -> bool:
        """Petri-net firing condition: every input has enough tuples."""
        has_required = False
        any_optional_ready = False
        for binding in self.inputs:
            threshold = max(binding.min_tuples, binding.basket.min_count)
            if binding.mode is ConsumeMode.SHARED:
                ready = binding.basket.unseen_count(self.name) >= threshold
            elif binding.mode in (ConsumeMode.PLAN, ConsumeMode.PEEK):
                # fire only on tuples beyond the high-water mark, or the
                # transition would re-fire forever on leftovers
                fresh = (
                    binding.basket.frontier_seq() > binding.last_seen_seq
                )
                making_progress = (
                    binding.refire_on_consumption
                    and binding.last_consumed > 0
                )
                ready = binding.basket.count >= threshold and (
                    fresh or making_progress
                )
            else:
                ready = binding.basket.count >= threshold
            if binding.optional:
                any_optional_ready = any_optional_ready or ready
                continue
            has_required = True
            if not ready:
                return False
        if not has_required:
            # a factory whose inputs are all optional side-inputs still
            # needs *something* to chew on, or it would fire forever
            return any_optional_ready
        return True

    def activate(self) -> ActivationResult:
        """Resume the factory co-routine for one iteration of its loop."""
        if self._failure is not None:
            # the co-routine died with its first error; resuming it would
            # raise a bare StopIteration
            raise DataCellError(
                f"query {self.name!r} stopped at an earlier firing: "
                f"{type(self._failure).__name__}: {self._failure}"
            ) from self._failure
        if self._coroutine is None:
            self._coroutine = self._loop()
        try:
            result = next(self._coroutine)
        except Exception as exc:
            self._failure = exc
            raise
        self.activations += 1
        self._tuples_in.value += result.tuples_in
        self._tuples_out.value += result.tuples_out
        return result

    def close(self) -> None:
        """Tear down: drop shared-reader registrations."""
        for binding in self.inputs:
            if binding.mode is ConsumeMode.SHARED:
                try:
                    binding.basket.unregister_reader(self.name)
                except DataCellError:  # pragma: no cover - defensive
                    pass
        self._coroutine = None

    # ------------------------------------------------------------------
    # durability export/import
    # ------------------------------------------------------------------
    def export_state(self) -> dict:
        """Binding cursors + the plan's saved state, for a checkpoint.

        Called inside the checkpointer's all-baskets cut: plan state is
        only ever mutated while the factory holds its baskets' locks, so
        what we copy here is activation-boundary consistent.
        """
        blob = self.plan.export_state()
        return {
            "bindings": [
                [int(b.last_seen_seq), int(b.last_consumed)]
                for b in self.inputs
            ],
            "plan": blob.hex() if blob is not None else None,
        }

    def import_state(self, state: dict) -> None:
        """Restore what :meth:`export_state` captured (same topology)."""
        pairs = state.get("bindings", [])
        if len(pairs) != len(self.inputs):
            raise DataCellError(
                f"factory {self.name!r}: checkpoint has {len(pairs)} input "
                f"bindings, the live factory has {len(self.inputs)}"
            )
        for binding, (seen, consumed) in zip(self.inputs, pairs):
            binding.last_seen_seq = int(seen)
            binding.last_consumed = int(consumed)
        blob = state.get("plan")
        self.plan.import_state(bytes.fromhex(blob) if blob else None)

    # ------------------------------------------------------------------
    def _lock_order(self) -> List[Basket]:
        """All touched baskets, deduped, in global (name) lock order."""
        return self._locks

    def _loop(self) -> Iterator[ActivationResult]:
        """The infinite factory loop of Algorithm 1.

        ``yield`` is the ``suspend()`` call: control returns to the
        scheduler with all locks released, and the next activation resumes
        right after it.
        """
        ordered = self._lock_order()
        # bytes per result row, per output basket and arity: a result's
        # atoms are its basket's, so the width is fixed; so is each input
        # basket's row width
        widths: Dict[Any, int] = {}
        row_widths = [binding.basket.row_nbytes() for binding in self.inputs]
        keys = [binding.basket.name.lower() for binding in self.inputs]
        while True:
            account = self.account
            queue_wait = 0.0
            rows_fresh = 0
            bytes_in = 0
            bytes_out = 0
            plan_cpu = 0.0
            now_mono = time.monotonic() if account is not None else 0.0
            acquired = []
            try:
                for basket in ordered:
                    basket.lock.acquire()
                    acquired.append(basket)
            except BaseException:
                # an observed lock may refuse the acquisition (strict
                # lock-order recorder); don't leak the ones already held
                for basket in reversed(acquired):
                    basket.lock.release()
                raise
            try:
                snapshots: Dict[str, BasketSnapshot] = {}
                tuples_in = 0
                origin_mono: Optional[float] = None
                origin_token = 0
                for binding, row_width, key in zip(
                    self.inputs, row_widths, keys
                ):
                    basket = binding.basket
                    prev_seen = binding.last_seen_seq
                    mode = binding.mode
                    if mode is ConsumeMode.SHARED:
                        snap = basket.read_new(self.name)
                    elif (
                        mode is ConsumeMode.PLAN
                        and not binding.refire_on_consumption
                    ):
                        # a basket expression's WHERE is a per-tuple
                        # predicate: a tuple it left behind never
                        # qualifies later, so only the suffix past the
                        # watermark is read
                        snap = basket.snapshot(prev_seen)
                    else:
                        snap = basket.snapshot()
                    count = snap.count
                    if count:
                        tuples_in += count
                        seqs = snap.seqs
                        newest = int(seqs[-1])  # seqs ascend
                        if newest > prev_seen:
                            binding.last_seen_seq = newest
                        runs = snap.runs
                        oldest = runs.oldest()
                        if origin_mono is None or oldest < origin_mono:
                            origin_mono = oldest
                        if not origin_token:
                            origin_token = runs.first_token()
                        if account is not None:
                            # queue-wait/flow charge each tuple once: on
                            # first observation by this query.  Seqs
                            # ascend, so the fresh tuples are the suffix
                            # after the previous high-water mark and
                            # re-read leftovers (inner LIMIT, PEEK) are
                            # never charged twice.
                            first = (
                                0 if prev_seen < seqs[0]
                                else int(seqs.searchsorted(prev_seen, "right"))
                            )
                            n_fresh = count - first
                            if n_fresh:
                                rows_fresh += n_fresh
                                bytes_in += n_fresh * row_width
                                queue_wait += runs.wait(now_mono, first)
                    snapshots[key] = snap
                if account is not None:
                    # one reading for two boundaries: the plan's start is
                    # the start of the interpreter's opcode chain
                    plan_cpu_started = account.cpu_mark = time.thread_time()
                opcodes: Sequence[Any] = ()
                if origin_token:
                    # a traced firing: the MAL interpreter hands over the
                    # opcode timings it measures anyway
                    opcodes = traced_firing.opcodes = []
                    try:
                        output = self.plan.run(snapshots)
                    finally:
                        traced_firing.opcodes = None
                else:
                    output = self.plan.run(snapshots)
                if account is not None:
                    account.cpu_mark = None
                    plan_cpu = time.thread_time() - plan_cpu_started
                consumed = self._consume(snapshots, output)
                tuples_out = self._emit(output, origin_mono, origin_token)
                # ALL and SHARED inputs are used up; only PLAN/PEEK
                # leftovers it may refire on keep the factory enabled
                drained = True
                for b in self.inputs:
                    if b.mode in _REFIRING and (
                        b.basket.frontier_seq() > b.last_seen_seq
                        or b.refire_on_consumption and b.last_consumed > 0
                    ):
                        drained = False
                        break
                if self.wal_sink is not None and (tuples_in or tuples_out):
                    self.wal_sink.log_firing(self.name)
                if account is not None:
                    for name, rs in output.results.items():
                        key = (name, len(rs.bats))
                        width = widths.get(key)
                        if width is None:
                            width = widths[key] = sum(
                                b.element_nbytes() for b in rs.bats
                            )
                        bytes_out += rs.count * width
            finally:
                for basket in reversed(ordered):
                    basket.lock.release()
            if account is not None:
                account.plan_cpu_seconds += plan_cpu
                account._queue_wait.value += queue_wait
                account._rows_in.value += rows_fresh
                account._bytes_in.value += bytes_in
                account._bytes_out.value += bytes_out
            yield ActivationResult(
                fired=True,
                tuples_in=tuples_in,
                tuples_out=tuples_out,
                consumed=consumed,
                drained=drained,
                trace=origin_token,
                opcodes=opcodes,
            )

    def _consume(
        self,
        snapshots: Dict[str, BasketSnapshot],
        output: PlanOutput,
    ) -> int:
        """Apply each input's consumption mode after the plan ran.

        The basket locks are still held, so each snapshot's positions are
        its basket's: ALL and PLAN consume by position.
        """
        removed = 0
        for binding in self.inputs:
            key = binding.basket.name.lower()
            snap = snapshots[key]
            if binding.mode is ConsumeMode.ALL:
                removed += binding.basket.consume_positions(snap)
            elif binding.mode is ConsumeMode.PLAN:
                positions = output.consumed.get(key)
                binding.last_consumed = 0
                if positions is not None and len(positions):
                    taken = binding.basket.consume_positions(snap, positions)
                    binding.last_consumed = taken
                    removed += taken
            elif binding.mode is ConsumeMode.SHARED:
                if snap.count:
                    binding.basket.advance_reader(
                        self.name, int(snap.seqs[-1])
                    )
                removed += binding.basket.gc_shared()
            # PEEK consumes nothing
        return removed

    def _emit(
        self,
        output: PlanOutput,
        origin_mono: Optional[float] = None,
        origin_token: int = 0,
    ) -> int:
        """Append plan results to the output baskets.

        ``origin_mono`` (the earliest monotonic arrival stamp among this
        activation's inputs) is propagated so downstream emitters measure
        true insert→emit latency across factory chains; ``origin_token``
        carries the sampled trace token the same way.
        """
        produced = 0
        for name, result in output.results.items():
            basket = self._outputs_by_name.get(name.lower())
            if basket is None:
                raise DataCellError(
                    f"factory {self.name!r} produced rows for unknown "
                    f"output basket {name!r}"
                )
            produced += basket.append_result(
                result, mono=origin_mono, trace_token=origin_token
            )
        return produced

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        ins = ", ".join(b.basket.name for b in self.inputs)
        outs = ", ".join(b.name for b in self.outputs)
        return f"Factory({self.name!r}: [{ins}] -> [{outs}])"
