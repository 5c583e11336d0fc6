"""Application-pattern oracle: the biased scatter drawn one try at a time.

:func:`repro.apps.patterns.biased_scattered_channels` draws candidate
offsets in chunks and rewinds its bit generator to the draws this loop
consumes; ``tests/test_columnar_equivalence.py`` pins it to this loop on
channels and on the generator state after the call.
"""

from __future__ import annotations

import numpy as np

from repro.apps.base import Channels


def biased_scattered_reference(
    num_ranks: int,
    partners_per_rank: int,
    rng: np.random.Generator,
    distance: str,
    partner_w: np.ndarray,
    total_weight: float,
    max_off: int,
) -> Channels:
    """Draw-by-draw form of the biased scatter: two ``rng.random()`` per try."""
    srcs: list[int] = []
    dsts: list[int] = []
    wts: list[float] = []
    for r in range(num_ranks):
        chosen: set[int] = set()
        guard = 0
        while len(chosen) < partners_per_rank and guard < 40 * partners_per_rank:
            guard += 1
            u = rng.random()
            if distance == "uniform":
                d = int(u * max_off) + 1
            elif distance == "loguniform":
                d = int(np.exp(u * np.log(max_off))) or 1
            else:  # quadratic
                d = int(u * u * max_off) + 1
            d = min(d, max_off)
            sign = 1 if rng.random() < 0.5 else -1
            dst = r + sign * d
            if not 0 <= dst < num_ranks:
                dst = r - sign * d
            if dst == r or not 0 <= dst < num_ranks:
                continue
            chosen.add(dst)
        for j, dst in enumerate(sorted(chosen)):
            srcs.append(r)
            dsts.append(dst)
            wts.append(partner_w[j % partners_per_rank])
    w = np.array(wts, dtype=np.float64)
    w *= total_weight / w.sum()
    return Channels(np.array(srcs, dtype=np.int64), np.array(dsts, dtype=np.int64), w)
