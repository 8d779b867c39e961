"""Interaction logs: parsing, binarization, and holdout splitting."""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import IO, Iterable, Sequence

import numpy as np

RATING_MIN = 0
RATING_MAX = 5
DEFAULT_THRESHOLD = 4


class LoopKind(str, Enum):
    """Provenance of a feedback log: collected under a deployed system
    (closed) or under uniform-random exposure (open)."""

    CLOSED = "closed"
    OPEN = "open"


class ParseError(ValueError):
    """Malformed interaction file; message carries the line number."""


class SplitError(ValueError):
    """Dataset too small (or ratio out of range) to split."""


@dataclass(frozen=True)
class Interaction:
    user: str
    item: str
    rating: int
    relevant: bool = False


@dataclass(frozen=True)
class ColumnSchema:
    """Zero-based column positions of the user, item and rating fields."""

    user: int = 0
    item: int = 1
    rating: int = 2

    @property
    def min_columns(self) -> int:
        return max(self.user, self.item, self.rating) + 1


class Dataset:
    """An immutable, indexed collection of user-item interactions.

    (user, item) pairs are unique; indices map the opaque identifiers to
    contiguous integers in sorted-identifier order.
    """

    def __init__(self, interactions: Sequence[Interaction], loop_kind: LoopKind = LoopKind.CLOSED):
        # canonical (user, item) order makes a dataset's behaviour independent
        # of the order its interactions were collected in
        self.interactions: tuple[Interaction, ...] = tuple(
            sorted(interactions, key=lambda x: (x.user, x.item))
        )
        self.loop_kind = loop_kind
        self.user_index: dict[str, int] = {
            u: k for k, u in enumerate(sorted({x.user for x in self.interactions}))
        }
        self.item_index: dict[str, int] = {
            i: k for k, i in enumerate(sorted({x.item for x in self.interactions}))
        }
        counts: dict[str, int] = {}
        for x in self.interactions:
            counts[x.item] = counts.get(x.item, 0) + 1
        self.item_counts = counts

    @classmethod
    def from_interactions(
        cls,
        interactions: Iterable[Interaction],
        loop_kind: LoopKind = LoopKind.CLOSED,
    ) -> "Dataset":
        """Build a Dataset; duplicate (user, item) pairs keep the last occurrence."""
        seen: dict[tuple[str, str], Interaction] = {}
        for x in interactions:
            seen[(x.user, x.item)] = x
        return cls(list(seen.values()), loop_kind)

    def __len__(self) -> int:
        return len(self.interactions)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.loop_kind == other.loop_kind and self.interactions == other.interactions

    @property
    def users(self) -> list[str]:
        return list(self.user_index)

    @property
    def items(self) -> list[str]:
        return list(self.item_index)

    # Integer views used by the model and evaluator code paths.
    @cached_property
    def user_ids(self) -> np.ndarray:
        return np.fromiter(
            (self.user_index[x.user] for x in self.interactions), dtype=np.int64, count=len(self)
        )

    @cached_property
    def item_ids(self) -> np.ndarray:
        return np.fromiter(
            (self.item_index[x.item] for x in self.interactions), dtype=np.int64, count=len(self)
        )

    @cached_property
    def ratings(self) -> np.ndarray:
        return np.fromiter((x.rating for x in self.interactions), dtype=np.float64, count=len(self))



@dataclass(frozen=True)
class Split:
    train: Dataset
    test: Dataset


def parse_interactions(
    stream: IO[str],
    schema: ColumnSchema = ColumnSchema(),
    delimiter: str = ",",
    loop_kind: LoopKind = LoopKind.CLOSED,
) -> Dataset:
    """Parse a delimiter-separated interaction log into a Dataset.

    Lines beginning with '#' and blank lines are skipped. Columns beyond
    those named by the schema (e.g. a trailing timestamp) are ignored.
    Duplicate (user, item) pairs keep the last occurrence.
    """
    interactions: list[Interaction] = []
    for lineno, raw in enumerate(stream, start=1):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        cols = line.split(delimiter)
        if len(cols) < schema.min_columns:
            raise ParseError(
                f"line {lineno}: expected at least {schema.min_columns} columns, got {len(cols)}"
            )
        user = cols[schema.user].strip()
        item = cols[schema.item].strip()
        raw_rating = cols[schema.rating].strip()
        try:
            rating = int(raw_rating)
        except ValueError:
            raise ParseError(f"line {lineno}: non-integer rating {raw_rating!r}") from None
        if not RATING_MIN <= rating <= RATING_MAX:
            raise ParseError(
                f"line {lineno}: rating {rating} outside [{RATING_MIN}, {RATING_MAX}]"
            )
        if not user or not item:
            raise ParseError(f"line {lineno}: empty user or item identifier")
        interactions.append(Interaction(user, item, rating))
    return Dataset.from_interactions(interactions, loop_kind)


def write_dataset(dataset: Dataset, stream: IO[str]) -> None:
    """Serialize in canonical order (by user, then item); round-trips with
    parse_interactions up to the loop_kind flag, which lives outside the file."""
    for x in sorted(dataset.interactions, key=lambda i: (i.user, i.item)):
        stream.write(f"{x.user},{x.item},{x.rating}\n")


def binarize(dataset: Dataset, threshold: int = DEFAULT_THRESHOLD) -> Dataset:
    """Set each interaction's relevance flag to (rating >= threshold)."""
    if not RATING_MIN <= threshold <= RATING_MAX:
        raise ValueError(f"threshold {threshold} outside [{RATING_MIN}, {RATING_MAX}]")
    updated = [replace(x, relevant=x.rating >= threshold) for x in dataset.interactions]
    return Dataset(updated, dataset.loop_kind)


def split_holdout(dataset: Dataset, ratio: float = 0.8, seed: int = 0) -> Split:
    """Global uniform random split of interactions into train/test.

    Deterministic for a fixed seed; both parts carry rebuilt indices and
    counts and inherit the source loop_kind.
    """
    if not 0.0 < ratio < 1.0:
        raise SplitError(f"ratio must lie in (0, 1), got {ratio}")
    n = len(dataset)
    if n < 2:
        raise SplitError(f"need at least 2 interactions to split, got {n}")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    n_train = int(round(ratio * n))
    n_train = min(max(n_train, 1), n - 1)
    train_idx = sorted(order[:n_train])
    test_idx = sorted(order[n_train:])
    train = Dataset([dataset.interactions[i] for i in train_idx], dataset.loop_kind)
    test = Dataset([dataset.interactions[i] for i in test_idx], dataset.loop_kind)
    return Split(train=train, test=test)
