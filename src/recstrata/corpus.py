"""Interaction logs: parsing, binarization, and holdout splitting."""

from __future__ import annotations

import random
from dataclasses import dataclass
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
    """An interaction log, held once as columns sorted by (user, item).

    `users` and `items` are the distinct identifiers, sorted; row r says user
    `users[user_ids[r]]` rated item `items[item_ids[r]]` `ratings[r]`, with
    relevance flag `relevant[r]`. (user, item) pairs are unique, and user
    u's rows are `user_bounds[u]:user_bounds[u + 1]`.

    The constructor's id columns may come in any row order and index label
    lists in any order, with repeats (per-row labels with ids 0..n-1 work):
    a pair given twice keeps its last row, and a label no row uses is
    dropped. `Interaction` records are the edge format: `from_interactions`
    reads them and `interactions` gives them back.
    """

    def __init__(self, users: Sequence[str], items: Sequence[str], user_ids: Sequence[int],
                 item_ids: Sequence[int], ratings: Sequence[int], relevant: Sequence[bool],
                 loop_kind: LoopKind = LoopKind.CLOSED):
        self.users, u = _compact(users, user_ids)
        self.items, i = _compact(items, item_ids)
        # the first of each key in the reversed rows is the pair's last row;
        # np.unique returns the keys sorted, so the rows come in (user, item) order
        _, last = np.unique((u * len(self.items) + i)[::-1], return_index=True)
        rows = len(u) - 1 - last
        self.user_ids, self.item_ids = u[rows], i[rows]
        self.ratings = np.asarray(ratings, dtype=np.int64)[rows]
        self.relevant = np.asarray(relevant, dtype=bool)[rows]
        self.user_bounds = np.searchsorted(self.user_ids, np.arange(len(self.users) + 1))
        self.loop_kind = loop_kind

    @classmethod
    def from_interactions(cls, interactions: Iterable[Interaction],
                          loop_kind: LoopKind = LoopKind.CLOSED) -> "Dataset":
        """Build a Dataset; duplicate (user, item) pairs keep the last occurrence."""
        xs = list(interactions)
        rows = np.arange(len(xs))
        return cls([x.user for x in xs], [x.item for x in xs], rows, rows,
                   [x.rating for x in xs], [x.relevant for x in xs], loop_kind)

    def __len__(self) -> int:
        return len(self.user_ids)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.loop_kind == other.loop_kind and self.interactions == other.interactions

    @cached_property
    def user_index(self) -> dict[str, int]:
        return {u: k for k, u in enumerate(self.users)}

    @cached_property
    def item_index(self) -> dict[str, int]:
        return {i: k for k, i in enumerate(self.items)}

    @cached_property
    def item_counts(self) -> dict[str, int]:
        """Rows per item, in the order of each item's first row."""
        _, first = np.unique(self.item_ids, return_index=True)
        counts = np.bincount(self.item_ids, minlength=len(self.items)).tolist()
        return {self.items[j]: counts[j] for j in np.argsort(first).tolist()}

    @cached_property
    def interactions(self) -> tuple[Interaction, ...]:
        """The rows as records, in (user, item) order."""
        users = [self.users[u] for u in self.user_ids.tolist()]
        items = [self.items[i] for i in self.item_ids.tolist()]
        return tuple(map(Interaction, users, items, self.ratings.tolist(), self.relevant.tolist()))


def _compact(labels: Sequence[str], ids: Sequence[int]) -> tuple[list[str], np.ndarray]:
    """The distinct labels that `ids` use, sorted, and `ids` renumbered to index them."""
    used, ids = np.unique(ids, return_inverse=True)
    names = sorted({labels[k] for k in used.tolist()})
    index = {x: k for k, x in enumerate(names)}
    return names, np.array([index[labels[k]] for k in used.tolist()], dtype=np.int64)[ids]


def _rows(dataset: Dataset, rows, relevant: np.ndarray) -> Dataset:
    """The rows `rows` of `dataset`, with relevance flags from the full column `relevant`."""
    return Dataset(dataset.users, dataset.items, dataset.user_ids[rows], dataset.item_ids[rows],
                   dataset.ratings[rows], relevant[rows], dataset.loop_kind)


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
    users: list[str] = []
    items: list[str] = []
    ratings: list[int] = []
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
        users.append(user)
        items.append(item)
        ratings.append(rating)
    rows = np.arange(len(ratings))
    return Dataset(users, items, rows, rows, ratings, np.zeros(len(rows), dtype=bool), loop_kind)


def write_dataset(dataset: Dataset, stream: IO[str]) -> None:
    """Serialize in canonical order (by user, then item); round-trips with
    parse_interactions up to the loop_kind flag, which lives outside the file."""
    users, items = dataset.users, dataset.items
    stream.writelines(f"{users[u]},{items[i]},{r}\n" for u, i, r in zip(
        dataset.user_ids.tolist(), dataset.item_ids.tolist(), dataset.ratings.tolist()))


def binarize(dataset: Dataset, threshold: int = DEFAULT_THRESHOLD) -> Dataset:
    """Set each interaction's relevance flag to (rating >= threshold)."""
    if not RATING_MIN <= threshold <= RATING_MAX:
        raise ValueError(f"threshold {threshold} outside [{RATING_MIN}, {RATING_MAX}]")
    return _rows(dataset, slice(None), dataset.ratings >= threshold)


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
    return Split(train=_rows(dataset, order[:n_train], dataset.relevant),
                 test=_rows(dataset, order[n_train:], dataset.relevant))
