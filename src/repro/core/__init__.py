"""The DataCell core: baskets, factories, scheduler, strategies, windows."""

from .basket import Basket, BasketSnapshot, TIME_COLUMN
from .clock import Clock, LogicalClock, VirtualClock, WallClock
from .continuous import ContinuousQuery
from .emitter import CollectingClient, DeliveryBatch, Emitter
from .engine import DataCell
from .factory import (
    ActivationResult,
    CallablePlan,
    ConsumeMode,
    ContinuousPlan,
    Factory,
    InputBinding,
    PlanOutput,
)
from .places import Place
from .receptor import Receptor
from .scheduler import FiringPolicy, PriorityPolicy, Scheduler
from .topology import NetworkTopology, build_topology
from .windows import WindowAggregatePlan, WindowMode, WindowSpec

__all__ = [
    "Basket",
    "BasketSnapshot",
    "TIME_COLUMN",
    "Clock",
    "LogicalClock",
    "VirtualClock",
    "WallClock",
    "ContinuousQuery",
    "CollectingClient",
    "DeliveryBatch",
    "Emitter",
    "DataCell",
    "ActivationResult",
    "CallablePlan",
    "ConsumeMode",
    "ContinuousPlan",
    "Factory",
    "InputBinding",
    "PlanOutput",
    "Place",
    "Receptor",
    "Scheduler",
    "FiringPolicy",
    "PriorityPolicy",
    "NetworkTopology",
    "build_topology",
    "WindowSpec",
    "WindowMode",
    "WindowAggregatePlan",
]
