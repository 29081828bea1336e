"""Redundancy grouping and stratified variate-token sampling.

Variates sharing a dominant-frequency hash form a group; a batch keeps at
most ``gs`` members per group, drawn uniformly without replacement. The
token reduction ratio is ``delta = 1 - |retained| / N``, always below 1
because every group keeps at least one member. Sampling is deterministic
per (seed, group key): a group larger than ``gs`` draws from its own
generator, so plans replay exactly and no two groups share a random stream;
a smaller group is kept whole without drawing. A group key is the hash's
text, its bins joined by ``-`` (``"4-12-8"``).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, require

__all__ = [
    "GroupTable",
    "ReductionPlan",
    "derive_seed",
    "group_by_hash",
    "stratified_sample",
]


def derive_seed(base_seed: int, tag: str) -> int:
    """Stable sub-seed for a named stream: sha256 over ``"{base_seed}:{tag}"``."""
    digest = hashlib.sha256(f"{base_seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class GroupTable:
    """Partition of variate indices by hash text, in lexicographic bin order."""

    groups: dict[str, tuple[int, ...]]

    def __post_init__(self) -> None:
        if not self.groups:
            raise ParameterError("a group table needs at least one group")
        seen: set[int] = set()
        total = 0
        for key, idx in self.groups.items():
            if not idx:
                raise ParameterError(f"group {key} has no members")
            if tuple(sorted(idx)) != tuple(idx):
                raise ParameterError(f"group {key} members not ascending")
            seen.update(idx)
            total += len(idx)
        if seen != set(range(total)):
            raise ParameterError("groups do not partition the variate indices")

    @property
    def G(self) -> int:
        return len(self.groups)

    @property
    def n_variates(self) -> int:
        return sum(len(idx) for idx in self.groups.values())


def group_by_hash(bins: np.ndarray) -> GroupTable:
    """Group variate indices by identical rows of an ``N x k`` int bins array.

    Each group is keyed by its row's text, bins joined by ``-``. Groups
    iterate in ``np.unique``'s lexicographic row order; members ascend, as
    a stable argsort of the row labels keeps them. Every variate lands in
    exactly one group.
    """
    bins = np.asarray(bins)
    if bins.ndim != 2 or bins.size == 0 or not np.issubdtype(bins.dtype, np.integer):
        raise ParameterError(
            f"expected a non-empty N x k int bins array, got {bins.dtype} {bins.shape}"
        )
    rows, inverse, counts = np.unique(
        bins, axis=0, return_inverse=True, return_counts=True
    )
    order = np.argsort(inverse.reshape(-1), kind="stable")
    members = np.split(order, np.cumsum(counts)[:-1])
    return GroupTable(
        groups={
            "-".join(map(str, row)): tuple(idx.tolist())
            for row, idx in zip(rows.tolist(), members)
        }
    )


@dataclass(frozen=True)
class ReductionPlan:
    """Which variates a batch keeps and the per-group draws that chose them;
    a dense plan keeps every variate in order, at delta 0, with no draws."""

    retained: tuple[int, ...]
    per_group: dict[str, tuple[int, ...]]
    delta: float
    seed: int


def stratified_sample(table: GroupTable, gs: int, seed: int) -> ReductionPlan:
    """Keep ``min(|G_i|, gs)`` members of each group, uniformly at random.

    A group of size at most ``gs`` is kept whole, with no generator; a larger
    group contributes ``gs`` members sampled without replacement from a
    generator seeded by sha256 over ``"{seed}:{group key}"``. Retained
    indices are sorted.
    """
    require("gs", gs >= 1, "[1, inf)", gs)
    per_group: dict[str, tuple[int, ...]] = {}
    retained: list[int] = []
    for key, idx in table.groups.items():
        chosen = tuple(idx)
        if len(idx) > gs:
            rng = np.random.default_rng(derive_seed(seed, key))
            drawn = rng.choice(np.array(idx, dtype=np.int64), size=gs, replace=False)
            chosen = tuple(int(i) for i in np.sort(drawn))
        per_group[key] = chosen
        retained.extend(chosen)
    retained_sorted = tuple(sorted(retained))
    delta = 1.0 - len(retained_sorted) / table.n_variates
    return ReductionPlan(
        retained=retained_sorted, per_group=per_group, delta=delta, seed=seed
    )

