"""Redundancy grouping and stratified variate-token sampling.

Variates sharing a dominant-frequency hash form a group; a batch keeps at
most ``gs`` members per group, drawn uniformly without replacement. The
token reduction ratio is ``delta = 1 - |retained| / N``, always below 1
because every group keeps at least one member. Sampling is deterministic
per (seed, group key): a group larger than ``gs`` draws from its own
generator, so plans replay exactly and no two groups share a random stream;
a smaller group is kept whole without drawing.
"""

from __future__ import annotations

import hashlib
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .spectral import HashValue

__all__ = [
    "GroupTable",
    "ReductionPlan",
    "ReductionSummary",
    "derive_seed",
    "group_by_hash",
    "stratified_sample",
    "reduction_report",
]


def derive_seed(base_seed: int, tag: str) -> int:
    """Stable sub-seed for a named stream: sha256 over ``"{base_seed}:{tag}"``."""
    digest = hashlib.sha256(f"{base_seed}:{tag}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class GroupTable:
    """Partition of variate indices by hash, in lexicographic key order."""

    groups: dict[HashValue, tuple[int, ...]]

    def __post_init__(self) -> None:
        seen: set[int] = set()
        total = 0
        for key, idx in self.groups.items():
            if tuple(sorted(idx)) != tuple(idx):
                raise ParameterError(f"group {key.text} members not ascending")
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

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(idx) for idx in self.groups.values())


def group_by_hash(hashes: list[HashValue]) -> GroupTable:
    """Group variate indices by identical hash value.

    Groups iterate in lexicographic key order; members ascend. Every variate
    lands in exactly one group.
    """
    if not hashes:
        raise ParameterError("cannot group an empty hash list")
    collected: dict[HashValue, list[int]] = {}
    for i, h in enumerate(hashes):
        collected.setdefault(h, []).append(i)
    ordered = sorted(collected.items(), key=lambda item: item[0].key)
    return GroupTable(groups={k: tuple(v) for k, v in ordered})


@dataclass(frozen=True)
class ReductionPlan:
    """Which variates survive sampling and the per-group draws that chose them."""

    retained: tuple[int, ...]
    per_group: dict[HashValue, tuple[int, ...]]
    gs: int
    delta: float
    seed: int


def stratified_sample(table: GroupTable, gs: int, seed: int) -> ReductionPlan:
    """Keep ``min(|G_i|, gs)`` members of each group, uniformly at random.

    A group of size at most ``gs`` is kept whole, with no generator; a larger
    group contributes ``gs`` members sampled without replacement from a
    generator seeded by sha256 over ``"{seed}:{group key}"``. Retained
    indices are sorted.
    """
    if gs < 1:
        raise ParameterError(f"gs must be >= 1, got {gs}")
    per_group: dict[HashValue, tuple[int, ...]] = {}
    retained: list[int] = []
    for key, idx in table.groups.items():
        chosen = tuple(idx)
        if len(idx) > gs:
            rng = np.random.default_rng(derive_seed(seed, key.text))
            drawn = rng.choice(np.array(idx, dtype=np.int64), size=gs, replace=False)
            chosen = tuple(int(i) for i in np.sort(drawn))
        per_group[key] = chosen
        retained.extend(chosen)
    retained_sorted = tuple(sorted(retained))
    delta = 1.0 - len(retained_sorted) / table.n_variates
    return ReductionPlan(
        retained=retained_sorted, per_group=per_group, gs=gs, delta=delta, seed=seed
    )


@dataclass(frozen=True)
class ReductionSummary:
    """Spread of retained-token counts over an epoch's plans.

    ``std_tokens`` is the population standard deviation (divide by n): the
    plans of an epoch are the whole population being described, not a sample
    from a larger one.
    """

    mean_tokens: float
    std_tokens: float
    mean_delta: float
    n_plans: int


def reduction_report(plans: Sequence[ReductionPlan]) -> ReductionSummary:
    """Mean/stddev of retained counts and mean delta across plans."""
    if not plans:
        raise ParameterError("reduction report needs at least one plan")
    tokens = np.array([len(p.retained) for p in plans], dtype=np.float64)
    deltas = np.array([p.delta for p in plans], dtype=np.float64)
    return ReductionSummary(
        mean_tokens=float(tokens.mean()),
        std_tokens=float(tokens.std()),
        mean_delta=float(deltas.mean()),
        n_plans=len(plans),
    )
