"""Document store: named documents, shredded columns, region indexes.

The store owns everything the engine needs per document:

* the DOM (for the tree-walking evaluator and serialization);
* the shredded column representation (for Staircase Join and the
  element-name index);
* the **region index** extracted according to a
  :class:`~repro.config.StandoffConfig` (attribute or element
  representation, configurable names — paper §2).

Because the region representation is a *run-time* setting (a query's
``declare option`` preamble may change it), region indexes are built
lazily per (document, config) pair and cached.

Builds happen once per document; writes maintain what is built.  An
``insert_nodes``/``delete_nodes`` write runs through
:meth:`DocumentStore.touch`, which splices the DOM numbering, the
shredded columns and every cached region index in place of the old
ones (cost: the written subtrees plus numpy copies of the columns).
Two cases still fall back to a lazy rebuild: a region index whose
write changes a region with an endpoint outside the written subtrees
(a start/end attribute of a kept element, or anything under a
``<region>`` in element form), because the subtree alone cannot say
what that region became; and the mmap backend, whose spill file is
immutable and is re-spilled after a write.
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.exec import lockcheck
from repro.config import (
    DEFAULT_CONFIG,
    STORAGE_MMAP,
    StandoffConfig,
    normalize_storage_backend,
)
from repro.core.region import Area
from repro.core.region_index import RegionIndex, RegionTable
from repro.errors import RegionError, ReproError, StorageFormatError
from repro.xmldb.dom import Attr, Document, Element, Node, Splice
from repro.xmldb.parser import parse_document
from repro.xmldb.shred import ShreddedDocument, rank_map, shred


def extract_regions(source: Document | list[Node],
                    config: StandoffConfig = DEFAULT_CONFIG
                    ) -> Iterator[tuple[int, int | float, int | float]]:
    """Yield ``(pre, start, end)`` for every area-annotation element.

    *source* is a document (all of its nodes) or a pre-order node list
    — the subtrees a write inserted, say.  The existing numbering is
    read, never reassigned.

    Under the attribute representation an element is an area-annotation
    when it carries *both* the start and the end attribute; under the
    element representation when it has at least one ``<region>`` child
    with start/end child elements.  Elements with only one half of a
    region raise :class:`RegionError` — silently ignoring them would turn
    data errors into empty query results.
    """
    nodes = source.all_nodes() if isinstance(source, Document) else source
    for node in nodes:
        if not isinstance(node, Element):
            continue
        if config.uses_region_elements:
            for region_el in node.elements(config.region_name):
                start_el = region_el.find(config.start_name)
                end_el = region_el.find(config.end_name)
                if start_el is None and end_el is None:
                    continue
                if start_el is None or end_el is None:
                    raise RegionError(
                        f"<{config.region_name}> under <{node.tag}> has "
                        f"only one of <{config.start_name}>/"
                        f"<{config.end_name}>")
                start = config.parse_position(start_el.string_value())
                end = config.parse_position(end_el.string_value())
                _check(start, end, node)
                yield node.pre, start, end
        else:
            raw_start = node.get_attribute(config.start_name)
            raw_end = node.get_attribute(config.end_name)
            if raw_start is None and raw_end is None:
                continue
            if raw_start is None or raw_end is None:
                raise RegionError(
                    f"element <{node.tag}> (pre {node.pre}) has only one "
                    f"of @{config.start_name}/@{config.end_name}")
            start = config.parse_position(raw_start)
            end = config.parse_position(raw_end)
            _check(start, end, node)
            yield node.pre, start, end


def _check(start, end, node: Element) -> None:
    if start > end:
        raise RegionError(
            f"element <{node.tag}> (pre {node.pre}) has start {start!r} "
            f"> end {end!r}")


def _splice_is_local(splice: Splice, config: StandoffConfig) -> bool:
    """Whether every region *splice* changes has both endpoints in the
    written subtrees, so that dropping and adding their rows is the
    whole index update.

    It is not when the write adds or removes a start/end attribute of
    an element it keeps (attribute form), or writes a ``<region>``
    child, or anything under a region, start or end element (element
    form): those change the region of an element outside the write.
    """
    if not config.uses_region_elements:
        bounds = (config.start_name, config.end_name)
        return not any(isinstance(root, Attr) and root.name in bounds
                       for root in splice.roots)
    if any(isinstance(root, Element) and root.tag == config.region_name
           for root in splice.roots):
        return False
    tags = {config.region_name, config.start_name, config.end_name}
    return not any(isinstance(node, Element) and node.tag in tags
                   for anchor in splice.anchors
                   for node in (anchor, *anchor.ancestors()))


def _spliced_index(index: RegionIndex, config: StandoffConfig,
                   splice: Splice, ranks: np.ndarray) -> RegionIndex | None:
    """*index* after the write *splice*, or ``None`` when the config's
    index must be rebuilt (see :func:`_splice_is_local`).

    Rows of removed elements are dropped, the remaining ids move to
    their new ranks, and the inserted subtrees' rows come from
    :func:`extract_regions` over those subtrees alone.  A data error in
    them (half a region, say) also returns ``None``: the lazy rebuild
    raises it at read time, as a full build would.
    """
    if not _splice_is_local(splice, config):
        return None
    try:
        added = RegionTable.from_rows(
            (start, end, pre) for pre, start, end in extract_regions(
                [node for _at, block in splice.inserted for node in block],
                config))
    except RegionError:
        return None
    table = index.table
    ids = ranks[table.ids]
    kept = (ids >= 0) if splice.cuts else slice(None)
    return RegionIndex(RegionTable(
        np.concatenate((table.starts[kept], added.starts)),
        np.concatenate((table.ends[kept], added.ends)),
        np.concatenate((ids[kept], added.ids))))


@lockcheck.audit_lazy_stores(("_shredded", "_document"))
class StoredDocument:
    """A document plus its derived structures, behind a storage seam.

    Under the default ``memory`` backend the shredded columns and region
    indexes are plain in-process arrays built on first use.  Under the
    ``mmap`` backend (``REPRO_STORAGE=mmap``, or ``storage_backend=``
    on the owning :class:`DocumentStore`/``Database``) the columns are
    *spilled* once to a store file (:mod:`repro.storage`) and mapped
    back — byte-identical answers, but the columns become shareable
    read-only pages that worker processes can re-open by path.
    """

    def __init__(self, document: Document | None, *,
                 storage_backend: str | None = None):
        self._document = document
        self._shredded: ShreddedDocument | None = None
        self._region_indexes: dict[StandoffConfig, RegionIndex] = {}
        self.storage_backend = normalize_storage_backend(storage_backend)
        self._spill_path: str | None = None
        # Serializes the lazy builds below with each other and with
        # writes (apply/invalidate), which rewrite the DOM's
        # pre/size/level ranks that the builds read: a first-touch
        # build under concurrent queries (the serving layer) must never
        # see a half-spliced numbering, and two must not both build.
        # Reentrant because region_index() may take it around
        # _ensure_spilled().
        self._build_lock = lockcheck.new_rlock("StoredDocument._build_lock")

    @property
    def document(self) -> Document:
        return self._document

    @property
    def doc_id(self) -> int:
        return self.document.doc_id

    @property
    def uri(self) -> str:
        return self.document.uri

    @property
    def shredded(self) -> ShreddedDocument:
        # Double-checked: the unlocked hit is the hot path (a plain
        # attribute read of an already-built, immutable structure);
        # only first touch pays the lock.
        shredded = self._shredded
        if shredded is not None:
            return shredded
        with self._build_lock:
            if self._shredded is None:
                if self.storage_backend == STORAGE_MMAP:
                    self._ensure_spilled()
                else:
                    self._shredded = shred(self.document)
            return self._shredded

    def region_index(self, config: StandoffConfig = DEFAULT_CONFIG
                     ) -> RegionIndex:
        index = self._region_indexes.get(config)
        if index is not None:
            return index
        with self._build_lock:
            index = self._region_indexes.get(config)
            if index is None:
                if self.storage_backend == STORAGE_MMAP \
                        and config == DEFAULT_CONFIG:
                    self._ensure_spilled()
                    index = self._region_indexes.get(config)
                    if index is not None:
                        return index
                index = RegionIndex.build(
                    extract_regions(self.document, config))
                lockcheck.assert_locked(self._build_lock,
                                        "StoredDocument._region_indexes")
                self._region_indexes[config] = index
            return index

    def _ensure_spilled(self) -> None:
        """Round-trip the derived structures through a spill store.

        The shred and default region table are computed once, written
        to a store file, and re-opened memory-mapped; the in-memory DOM
        is kept for node decoding.  Custom standoff configs still build
        in memory (the store persists the default config's table).
        A document the store format cannot hold stays in memory: a
        write can leave adjacent text nodes, which the serialized text
        the store keeps for DOM recovery would merge on reparse.
        Callers hold ``_build_lock``; the lock is re-entrant, so the
        method still takes it itself — the derived-structure stores
        below must never run unguarded.
        """
        with self._build_lock:
            if self._spill_path is not None:
                return
            from repro import storage

            try:
                path, reader = storage.spill_document(self.document)
            except StorageFormatError:
                if self._shredded is None:
                    self._shredded = shred(self.document)
                return
            self._spill_path = path
            self._shredded = reader.shredded(self.uri,
                                             document=self.document)
            if reader.has_regions(self.uri):
                self._region_indexes[DEFAULT_CONFIG] = \
                    reader.region_index(self.uri)

    def area_of_node(self, pre: int,
                     config: StandoffConfig = DEFAULT_CONFIG) -> Area | None:
        """The area of the node with the given pre rank, if annotated."""
        return self.region_index(config).area_of(pre)

    def apply(self, write: Callable[[Document], Splice]) -> None:
        """Run *write* on the DOM and maintain the derived structures.

        *write* mutates the document through
        :meth:`~repro.xmldb.dom.Document.insert_children` or
        :meth:`~repro.xmldb.dom.Document.remove_nodes`, which splice the
        numbering, and returns the :class:`~repro.xmldb.dom.Splice`.
        Under the memory backend the built shred and every built region
        index are then spliced too (:meth:`ShreddedDocument.spliced`,
        :func:`_spliced_index`): the cost is the written subtrees plus
        numpy copies of the columns, the paper's *per-document* index
        maintenance (§3.3 (ii)) without a rebuild.  A region index
        whose write changes a region reaching outside the written
        subtrees is dropped and rebuilt on next use.  Each new
        structure is published with one attribute store, so a reader
        holding the old shred keeps consistent columns.  Under the
        mmap backend the spill file is immutable: the derived
        structures are dropped and rebuilt (and re-spilled) lazily.
        """
        with self._build_lock:
            splice = write(self.document)
            if self.storage_backend == STORAGE_MMAP:
                self.invalidate()
                return
            ranks = rank_map(splice)
            if self._shredded is not None:
                self._shredded = self._shredded.spliced(
                    splice, ranks, self.document.all_nodes())
            indexes = {}
            for config, index in self._region_indexes.items():
                index = _spliced_index(index, config, splice, ranks)
                if index is not None:
                    indexes[config] = index
            self._region_indexes = indexes

    def invalidate(self) -> None:
        """Drop the derived structures; they rebuild lazily on next use.

        The rebuild fallback of :meth:`apply`, taken under the mmap
        backend only: a spill file is immutable, so after a write it is
        stale and dropped, and the next use shreds and spills afresh.
        The memory backend splices instead (the DOM numbering always
        is), and drops single region indexes a write cannot splice.
        """
        with self._build_lock:
            self._shredded = None
            self._region_indexes.clear()
            self._drop_spill()

    def _drop_spill(self) -> None:
        if self._spill_path is not None:
            try:
                import os

                os.unlink(self._spill_path)
            except OSError:
                pass
            self._spill_path = None


class DocumentStore:
    """All documents known to a database instance, keyed by URI."""

    def __init__(self, *, storage_backend: str | None = None) -> None:
        self._by_uri: dict[str, StoredDocument] = {}
        self._by_id: dict[int, StoredDocument] = {}
        self._next_id = 1
        #: bumped on every add/remove; global index caches key on it
        self.version = 0
        self._global_indexes: dict = {}
        self.storage_backend = normalize_storage_backend(storage_backend)

    def add(self, uri: str, xml: str | Document, *,
            keep_whitespace_text: bool = False) -> StoredDocument:
        """Parse (if given text) and register a document under *uri*."""
        if uri in self._by_uri:
            raise ReproError(f"document {uri!r} already stored")
        if isinstance(xml, Document):
            document = xml
            document.uri = uri
            document.doc_id = self._next_id
            document.renumber()
        else:
            document = parse_document(
                xml, uri=uri, doc_id=self._next_id,
                keep_whitespace_text=keep_whitespace_text)
        self._next_id += 1
        stored = StoredDocument(document,
                                storage_backend=self.storage_backend)
        self._by_uri[uri] = stored
        self._by_id[document.doc_id] = stored
        self.version += 1
        return stored

    def register(self, stored: StoredDocument) -> StoredDocument:
        """Register an externally constructed stored document.

        The seam :func:`repro.storage.open_store` uses: a
        ``MappedStoredDocument`` carries its uri/doc id in the store
        header, so registration stays O(1) — no parse, no shred.
        """
        uri = stored.uri
        if uri in self._by_uri:
            raise ReproError(f"document {uri!r} already stored")
        self._by_uri[uri] = stored
        self._by_id[stored.doc_id] = stored
        self._next_id = max(self._next_id, stored.doc_id + 1)
        self.version += 1
        return stored

    def remove(self, uri: str) -> None:
        stored = self._by_uri.pop(uri, None)
        if stored is None:
            raise ReproError(f"document {uri!r} not stored")
        del self._by_id[stored.doc_id]
        self.version += 1

    def get(self, uri: str) -> StoredDocument:
        try:
            return self._by_uri[uri]
        except KeyError:
            raise ReproError(f"document {uri!r} not stored") from None

    def by_id(self, doc_id: int) -> StoredDocument:
        try:
            return self._by_id[doc_id]
        except KeyError:
            raise ReproError(f"no document with id {doc_id}") from None

    def by_document(self, document: Document) -> StoredDocument | None:
        stored = self._by_id.get(document.doc_id)
        if stored is not None and stored.document is document:
            return stored
        return None

    def __contains__(self, uri: str) -> bool:
        return uri in self._by_uri

    def __iter__(self) -> Iterator[StoredDocument]:
        return iter(self._by_uri.values())

    def __len__(self) -> int:
        return len(self._by_uri)

    def uris(self) -> list[str]:
        return list(self._by_uri)

    def touch(self, uri: str, write: Callable[[Document], Splice]
              ) -> StoredDocument:
        """Run the structural update *write* on *uri* and invalidate
        the collection-global index.

        The document's own derived structures are spliced, not
        rebuilt: see :meth:`StoredDocument.apply`.
        """
        stored = self.get(uri)
        stored.apply(write)
        self.version += 1
        return stored

    def region_indexes(self, config: StandoffConfig = DEFAULT_CONFIG
                       ) -> dict[int, "RegionIndex"]:
        """Per-fragment region indexes, keyed by doc id."""
        return {stored.doc_id: stored.region_index(config)
                for stored in self._by_uri.values()}

    def global_region_index(self, config: StandoffConfig = DEFAULT_CONFIG):
        """The collection-wide region index (paper §3.3 (ii)).

        Cached per (store version, config): any document add/remove
        invalidates the *whole* global index — exactly the maintenance
        cost the paper warns about (a per-document index would only
        rebuild locally).
        """
        from repro.core.global_index import GlobalRegionIndex

        key = (self.version, config)
        index = self._global_indexes.get(key)
        if index is None:
            self._global_indexes.clear()     # old versions are garbage
            index = GlobalRegionIndex(self.region_indexes(config))
            self._global_indexes[key] = index
        return index
