"""The region index (paper §4.3).

The index is a relational ``start|end|id`` table kept **clustered on
start** (ties broken on end, then id, so scans are deterministic).
Non-contiguous areas that consist of multiple regions are represented by
repeating the same node id in several entries.  Node ids are pre-order
ranks in MonetDB/XQuery; here they are whatever integer identifier the
document store assigns (we also use pre-order ranks).

The index supports the two access paths of §4.3:

* **full scan** — when a StandOff step has no selection, the entire index
  is the candidate sequence;
* **index intersection** — when a candidate node-id sequence is passed in
  (e.g. produced by an element-name index), an intersection on node-id is
  performed *preserving the start ordering* of the region index.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.core.region import Area, Region
from repro.errors import RegionError


def _position_column(values) -> np.ndarray:
    """Coerce a start/end column to an explicit little-endian dtype.

    ``np.asarray`` alone would infer a *platform* dtype (e.g. big-endian
    int64 on s390x, int32 on some Windows builds), which would leak into
    the on-disk store format.  Integral positions become ``<i8``;
    floating positions (``xs:double`` standoff configs) become ``<f8``.
    On little-endian hosts these are the native dtypes, so the
    ``astype(copy=False)`` is free.
    """
    # repro: lint-ok[RL001] dtype dispatch point: the inferred kind
    arr = np.asarray(values)   # picks <i8 vs <f8 on the next line
    target = "<f8" if arr.dtype.kind in "fc" else "<i8"
    return arr.astype(target, copy=False)


class RegionTable:
    """An immutable, start-clustered ``start|end|id`` column triple.

    This is the unit the merge-join algorithms consume: both the candidate
    sequence and the (fetched, re-sorted) context sequence are
    ``RegionTable`` instances.
    """

    __slots__ = ("starts", "ends", "ids", "_meta")

    def __init__(self, starts: np.ndarray, ends: np.ndarray,
                 ids: np.ndarray, *, presorted: bool = False):
        starts = _position_column(starts)
        ends = _position_column(ends)
        ids = np.asarray(ids).astype("<i8", copy=False)
        if not (len(starts) == len(ends) == len(ids)):
            raise RegionError(
                "start/end/id columns must have equal length "
                f"({len(starts)}/{len(ends)}/{len(ids)})"
            )
        if len(starts) and np.any(starts > ends):
            bad = int(np.argmax(starts > ends))
            raise RegionError(
                f"row {bad}: start {starts[bad]!r} exceeds end {ends[bad]!r}"
            )
        if not presorted and len(starts):
            order = np.lexsort((ids, ends, starts))
            starts, ends, ids = starts[order], ends[order], ids[order]
        # The table is shared across queries (and, memory-mapped,
        # across processes): physically immutable columns only.
        starts.flags.writeable = False
        ends.flags.writeable = False
        ids.flags.writeable = False
        self.starts = starts
        self.ends = ends
        self.ids = ids
        #: lazily computed column metadata (the table is immutable, so
        #: derived values are cached: unique ids, max region length)
        self._meta: dict = {}

    def __len__(self) -> int:
        return len(self.starts)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RegionTable):
            return NotImplemented
        return (np.array_equal(self.starts, other.starts)
                and np.array_equal(self.ends, other.ends)
                and np.array_equal(self.ids, other.ids))

    def __repr__(self) -> str:
        return f"RegionTable(n={len(self)})"

    def row(self, i: int) -> tuple:
        """The ``(start, end, id)`` triple at position *i*."""
        return (self.starts[i].item(), self.ends[i].item(),
                int(self.ids[i]))

    def iter_rows(self) -> Iterable[tuple]:
        """Yield ``(start, end, id)`` triples in clustering order.

        Columns are converted to Python scalars in one batch (per-row
        ``.item()`` calls are an order of magnitude slower).
        """
        return zip(self.starts.tolist(), self.ends.tolist(),
                   self.ids.tolist())

    @classmethod
    def from_rows(cls, rows: Iterable[tuple]) -> "RegionTable":
        """Build from an iterable of ``(start, end, id)`` triples."""
        rows = list(rows)
        if not rows:
            return cls(np.empty(0, np.int64), np.empty(0, np.int64),
                       np.empty(0, np.int64), presorted=True)
        starts, ends, ids = zip(*rows)
        # __init__ routes starts/ends through _position_column, which
        # pins the explicit little-endian dtype.
        return cls(starts, ends, np.asarray(ids, dtype=np.int64))

    @classmethod
    def from_areas(cls, pairs: Iterable[tuple[int, Area]]) -> "RegionTable":
        """Build from ``(node_id, Area)`` pairs, one row per region."""
        rows = [(r.start, r.end, node_id)
                for node_id, area in pairs for r in area.regions]
        return cls.from_rows(rows)

    def restrict_to_ids(self, candidate_ids: Sequence[int] | np.ndarray
                        ) -> "RegionTable":
        """Index intersection on node-id, preserving start order (§4.3)."""
        wanted = np.asarray(candidate_ids, dtype=np.int64)
        if len(self) == 0 or len(wanted) == 0:
            return RegionTable.from_rows([])
        mask = np.isin(self.ids, wanted)
        return RegionTable(self.starts[mask], self.ends[mask],
                           self.ids[mask], presorted=True)

    def multiplicity(self) -> dict[int, int]:
        """Map node id -> number of regions (for ∀-quantified containment)."""
        uniq, counts = np.unique(self.ids, return_counts=True)
        return {int(i): int(c) for i, c in zip(uniq, counts)}

    def unique_ids(self) -> np.ndarray:
        """Sorted unique node ids; cached (the table is immutable)."""
        cached = self._meta.get("unique_ids")
        if cached is None:
            cached = np.unique(self.ids)
            self._meta["unique_ids"] = cached
        return cached

    def has_multi_region_areas(self) -> bool:
        """True when some node id occurs in more than one row."""
        return len(self.unique_ids()) < len(self)

    def max_length(self):
        """The largest ``end - start`` over all rows; cached.

        Bounds the candidate windows of the vectorized overlap kernel: a
        region can only overlap candidates starting at most this far
        before it.
        """
        cached = self._meta.get("max_length")
        if cached is None:
            cached = (self.ends - self.starts).max() if len(self) else 0
            self._meta["max_length"] = cached
        return cached


class RegionIndex:
    """A per-document region index with incremental build and lookups.

    Mirrors the paper's design: one index per XML document (fragment),
    clustered on ``start``.  Built once after shredding and immutable
    afterwards: a write to the document publishes a *new* index spliced
    from this one (rows of removed elements dropped, surviving ids
    shifted to their new pre ranks, rows of the inserted subtrees
    added; see :meth:`repro.xmldb.store.StoredDocument.apply`), so a
    reader holding this one keeps a consistent table.  Only a write
    that changes a region reaching outside the written subtrees drops
    the index for a lazy rebuild.
    """

    #: ``(store path, uri)`` when the table columns are mmap views of a
    #: store file — the handle worker processes use to re-open it.
    store_ref: tuple[str, str] | None = None

    def __init__(self, table: RegionTable):
        self._table = table
        self._multiplicity: dict[int, int] | None = None

    @classmethod
    def build(cls, entries: Iterable[tuple[int, int | float, int | float]]
              ) -> "RegionIndex":
        """Build from ``(node_id, start, end)`` entries (any order)."""
        rows = [(start, end, node_id) for node_id, start, end in entries]
        return cls(RegionTable.from_rows(rows))

    @property
    def table(self) -> RegionTable:
        """The full start-clustered table (the no-selection access path)."""
        return self._table

    def __len__(self) -> int:
        return len(self._table)

    def candidates(self, candidate_ids: Sequence[int] | None = None
                   ) -> RegionTable:
        """The candidate sequence for a StandOff step.

        Without *candidate_ids* the entire index is returned; otherwise an
        id-intersection is performed, preserving start order.
        """
        if candidate_ids is None:
            return self._table
        return self._table.restrict_to_ids(candidate_ids)

    def fetch(self, node_ids: Sequence[int]) -> RegionTable:
        """Fetch the regions of the given nodes, re-clustered on start.

        This is the "fetch the [start,end] values for all context node-ids
        and sort the context sequence on start" step of §4.4.  Node ids
        without region information are silently absent from the result
        (they are not area-annotations and cannot participate in joins).
        """
        return self._table.restrict_to_ids(node_ids)

    def region_count(self, node_id: int) -> int:
        """Number of regions attached to *node_id* (0 if none)."""
        if self._multiplicity is None:
            self._multiplicity = self._table.multiplicity()
        return self._multiplicity.get(node_id, 0)

    def area_of(self, node_id: int) -> Area | None:
        """Materialise the :class:`Area` of a node, or None."""
        mask = self._table.ids == node_id
        if not mask.any():
            return None
        regions = [Region(s, e)
                   for s, e in zip(self._table.starts[mask].tolist(),
                                   self._table.ends[mask].tolist())]
        return Area(regions)

    def annotated_ids(self) -> np.ndarray:
        """Sorted unique node ids that carry at least one region."""
        return self._table.unique_ids()

    def has_multi_region_areas(self) -> bool:
        """True when any node id occurs more than once in the index."""
        if len(self._table) == 0:
            return False
        return self._table.has_multi_region_areas()
