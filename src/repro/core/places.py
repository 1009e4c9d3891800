"""Input places: what wakes the scheduler (paper §2.4).

A place keeps the wake callbacks of the transitions reading it (the
baskets, channels and queues they name in ``input_places()``); a change
that can enable a reader — an append, a lowered threshold, room freed in
a bounded queue — calls :meth:`Place.changed`.  A change that can only
disable a reader (a consume, a shed) need not.
"""

from __future__ import annotations

import threading
from typing import Callable, Tuple

__all__ = ["Place"]

Wake = Callable[[], None]

# watch/unwatch are rare (registration); one lock serves every place
_watch_lock = threading.Lock()


class Place:
    """Mixin for anything a transition reads as an input place."""

    _wakers: Tuple[Wake, ...] = ()  # copy-on-write: changed() never locks

    def watch(self, wake: Wake) -> None:
        """Call ``wake`` on every change of this place."""
        with _watch_lock:
            self._wakers = self._wakers + (wake,)

    def unwatch(self, wake: Wake) -> None:
        with _watch_lock:
            wakers = list(self._wakers)
            if wake in wakers:
                wakers.remove(wake)
            self._wakers = tuple(wakers)

    def changed(self) -> None:
        """The place changed in a way that may enable its readers."""
        for wake in self._wakers:
            wake()
