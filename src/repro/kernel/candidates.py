"""Candidate lists: sorted oid arrays threaded through kernel operators.

MonetDB's operators accept an optional *candidate list* restricting which
head oids participate.  We represent candidates as sorted ``int64`` numpy
arrays of oids.  ``None`` means "all tuples of the BAT".
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .bat import BAT

__all__ = [
    "all_candidates",
    "resolve_positions",
    "candidate_tail",
    "from_mask",
    "validate",
]


def all_candidates(bat: BAT) -> np.ndarray:
    """Candidate list covering every tuple of ``bat``."""
    return bat.head_oids()


def resolve_positions(bat: BAT, candidates: Optional[np.ndarray]) -> np.ndarray:
    """0-based tail positions selected by ``candidates`` (None = all)."""
    if candidates is None:
        return np.arange(bat.count, dtype=np.int64)
    return np.asarray(candidates, dtype=np.int64) - bat.hseqbase


def candidate_tail(bat: BAT, candidates: Optional[np.ndarray]) -> np.ndarray:
    """Tail values of the candidates, in candidate order: the tail itself
    (a view, no copy and no position array) when there are none."""
    if candidates is None:
        return bat.tail
    return bat.tail[resolve_positions(bat, candidates)]


def from_mask(bat: BAT, mask: np.ndarray) -> np.ndarray:
    """Candidate list of the tuples whose mask position is True."""
    return np.flatnonzero(mask).astype(np.int64) + bat.hseqbase


def validate(bat: BAT, candidates: Optional[np.ndarray]) -> None:
    """Raise if any candidate oid falls outside the BAT's head range."""
    if candidates is None or len(candidates) == 0:
        return
    lo, hi = int(candidates[0]), int(candidates[-1])
    if lo < bat.hseqbase or hi >= bat.hseq_end:
        from ..errors import KernelError

        raise KernelError(
            f"candidate oids [{lo},{hi}] outside head range "
            f"[{bat.hseqbase},{bat.hseq_end})"
        )
