"""Counter-over-tuples form of the trace measures in cnets.analysis, kept as a test oracle.

A trace here is a list of rows of Python numbers, one row per time step.
Each outcome is counted with Counter, which yields the outcomes in the
order they first occur, and the entropy terms are added in that order.
"""
from __future__ import annotations

import math
from collections import Counter
from typing import Hashable, Sequence


def discretize(rows: Sequence[Sequence[float]], bins: int) -> list[list[int]]:
    """Each node's values in equal-width bins over its observed range, the
    top of the range in the last bin; a node that never changes is all 0."""
    columns = []
    for column in zip(*rows):
        lo, span = min(column), max(column) - min(column)
        columns.append(
            [0 if span == 0 else min(int((v - lo) / span * bins), bins - 1) for v in column]
        )
    return [list(row) for row in zip(*columns)]


def entropy(outcomes: Sequence[Hashable]) -> float:
    """Plug-in Shannon entropy of the outcomes, in bits."""
    counts = Counter(outcomes).values()
    total = sum(counts)
    h = 0.0
    for c in counts:
        p = c / total
        h -= p * math.log2(p)
    return h


def node_scale_info(rows: Sequence[Sequence[int]]) -> float:
    """Sum over nodes of each node's marginal entropy."""
    return sum(
        entropy(tuple(row[node] for row in rows)) for node in range(len(rows[0]))
    )


def network_scale_info(rows: Sequence[Sequence[int]]) -> float:
    """Entropy of whole rows."""
    return entropy([tuple(row) for row in rows])
