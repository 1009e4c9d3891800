"""Topology introspection: the scheduler's network as an explicit Petri net.

The paper models the DataCell as a Petri net (baskets = places,
receptors/factories/emitters = transitions).  This module recovers that
net from a live :class:`~repro.core.scheduler.Scheduler` — for debugging,
documentation, and the structural assertions in tests — and renders it as
Graphviz DOT.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from .basket import Basket
from .emitter import Emitter
from .factory import Factory
from .receptor import Receptor
from .scheduler import Scheduler, input_places
from .strategies import ReplicatorTransition

__all__ = ["NetworkTopology", "build_topology"]

_KINDS = (
    (Receptor, "receptor"),
    (Factory, "factory"),
    (Emitter, "emitter"),
    (ReplicatorTransition, "replicator"),
)


@dataclass
class NetworkTopology:
    """Places, transitions and arcs of the running query network."""

    places: List[str] = field(default_factory=list)  # basket/channel names
    transitions: List[Tuple[str, str]] = field(default_factory=list)
    # arcs: (source node, target node); nodes are place or transition names
    arcs: List[Tuple[str, str]] = field(default_factory=list)

    def successors(self, node: str) -> List[str]:
        return sorted(t for s, t in self.arcs if s == node)

    def predecessors(self, node: str) -> List[str]:
        return sorted(s for s, t in self.arcs if t == node)

    def downstream_of(self, node: str) -> Set[str]:
        """Every node reachable from ``node`` (the data's future)."""
        seen: Set[str] = set()
        frontier = [node]
        while frontier:
            current = frontier.pop()
            for nxt in self.successors(current):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen

    def to_dot(self) -> str:
        """Graphviz DOT: places as ellipses, transitions as boxes."""
        lines = ["digraph datacell {", "  rankdir=LR;"]
        for place in self.places:
            lines.append(f'  "{place}" [shape=ellipse];')
        for name, kind in self.transitions:
            lines.append(f'  "{name}" [shape=box, label="{name}\\n({kind})"];')
        for src, dst in self.arcs:
            lines.append(f'  "{src}" -> "{dst}";')
        lines.append("}")
        return "\n".join(lines)


def build_topology(scheduler: Scheduler) -> NetworkTopology:
    """Recover the Petri net from the scheduler's registered transitions:
    each transition's input places are the ones the ready set watches."""
    topo = NetworkTopology()
    for transition in scheduler.transitions():
        name = transition.name
        kind = next(
            (k for cls, k in _KINDS if isinstance(transition, cls)),
            type(transition).__name__,
        )
        topo.transitions.append((name, kind))
        inputs = [
            place.name if isinstance(place, Basket)
            else f"channel:{getattr(place, 'name', 'channel')}"
            for place in input_places(transition) or ()
        ]
        outputs = [f"clients:{name}"] if kind == "emitter" else [
            basket.name
            for basket in getattr(transition, "targets", None)
            or getattr(transition, "outputs", ())
        ]
        for label in inputs + outputs:
            if label not in topo.places:
                topo.places.append(label)
        topo.arcs += [(label, name) for label in inputs]
        topo.arcs += [(name, label) for label in outputs]
    return topo
