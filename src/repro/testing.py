"""The one seeding path for every stochastic component.

Property tests, fuzzers and workload generators all draw their base
seed from here, so a whole run is reproducible from a single number:
set ``DATACELL_SEED`` (default 42) and every hypothesis example and
generated workload replays identically.  The pytest header echoes the
active seed, so any failure can name the seed that produced it.  (The
benchmark suite takes its own ``--seed`` and records it in every
result file.)

The simulation harness (:mod:`repro.simtest`) keeps *per-episode* seeds
on top of this — an episode must be reproducible in isolation from its
own ``EpisodeSpec`` — but its CI entry point derives its base seed from
here too.
"""

from __future__ import annotations

import os
import random
from typing import Optional

__all__ = ["DEFAULT_SEED", "seed_all", "current_seed", "derive_rng"]

DEFAULT_SEED = 42

_current: Optional[int] = None


def seed_all(seed: Optional[int] = None) -> int:
    """Seed every process-global generator; returns the seed used.

    ``seed=None`` reads ``DATACELL_SEED`` from the environment, falling
    back to :data:`DEFAULT_SEED`.  Seeds python's global ``random`` and
    (when importable) numpy's legacy global generator; components that
    keep their own ``random.Random`` should construct it via
    :func:`derive_rng` instead of reaching for the globals.
    """
    global _current
    if seed is None:
        seed = int(os.environ.get("DATACELL_SEED", DEFAULT_SEED))
    _current = int(seed)
    random.seed(_current)
    try:
        import numpy as np

        np.random.seed(_current % (2**32))
    except ImportError:  # pragma: no cover - numpy is a core dependency
        pass
    return _current


def current_seed() -> int:
    """The active base seed, seeding everything on first use."""
    if _current is None:
        return seed_all()
    return _current


def derive_rng(name: str) -> random.Random:
    """A private generator derived from the base seed and a label.

    Distinct labels give decorrelated streams (two generators in one
    benchmark must not mirror each other), while everything still rolls
    up to the single base seed.  String seeding is stable across
    processes, unlike ``hash()``.
    """
    return random.Random(f"datacell:{current_seed()}:{name}")
