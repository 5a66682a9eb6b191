"""A compact DOM with MonetDB-style node numbering.

Nodes carry the pre-order rank (``pre``), subtree ``size`` and tree
``level`` assigned by :meth:`Document.renumber` — the region-encoding used
by Staircase Join and as node identity in the region index.  Document
order between nodes of the same document is the ``pre`` order; across
documents, the store's ``doc_id`` order.

The DOM is mutable while a document is being built or constructed by a
query; ``renumber()`` numbers it once.  A stored document's writes go
through :meth:`Document.insert_children` and
:meth:`Document.remove_nodes`, which keep the numbering current by
splicing it (cost: the written subtree plus one shift of the following
nodes' ``pre``) and describe the change as a :class:`Splice` that the
derived structures replay.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from repro.errors import ShredError
from repro.xmldb.escape import escape_attribute, escape_text
from repro.xmldb.names import local_name, require_qname

# Node kinds, matching the shredded table encoding.
KIND_DOCUMENT = 0
KIND_ELEMENT = 1
KIND_TEXT = 2
KIND_COMMENT = 3
KIND_PI = 4
KIND_ATTRIBUTE = 5

_KIND_NAMES = {
    KIND_DOCUMENT: "document",
    KIND_ELEMENT: "element",
    KIND_TEXT: "text",
    KIND_COMMENT: "comment",
    KIND_PI: "processing-instruction",
    KIND_ATTRIBUTE: "attribute",
}


class Node:
    """Base class of all DOM nodes."""

    kind: int = -1
    __slots__ = ("parent", "pre", "size", "level")

    def __init__(self) -> None:
        self.parent: "Element | Document | None" = None
        self.pre = -1
        self.size = 0
        self.level = -1

    # -- tree access -----------------------------------------------------

    @property
    def children(self) -> list["Node"]:
        return []

    @property
    def kind_name(self) -> str:
        return _KIND_NAMES[self.kind]

    @property
    def document(self) -> "Document | None":
        """The owning document (root of the parent chain)."""
        node: Node | None = self
        while node is not None and not isinstance(node, Document):
            node = node.parent
        return node

    @property
    def root(self) -> "Node":
        """The topmost node of this fragment (document or orphan subtree)."""
        node: Node = self
        while node.parent is not None:
            node = node.parent
        return node

    def ancestors(self) -> Iterator["Node"]:
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def descendants(self) -> Iterator["Node"]:
        """Descendants in document order (iterative: any depth)."""
        open_ = [iter(self.children)]
        while open_:
            for node in open_[-1]:
                yield node
                if node.children:
                    open_.append(iter(node.children))
                    break
            else:
                open_.pop()

    def descendants_or_self(self) -> Iterator["Node"]:
        yield self
        yield from self.descendants()

    # -- values ----------------------------------------------------------

    def string_value(self) -> str:
        """The XPath string value (concatenated descendant text)."""
        return "".join(node.text for node in self.descendants_or_self()
                       if isinstance(node, Text))

    def serialize(self, indent: bool = False) -> str:
        from repro.xmldb.serializer import serialize

        return serialize(self, indent=indent)

    # -- document order ---------------------------------------------------

    def sort_key(self) -> tuple[int, int]:
        doc = self.document
        doc_id = doc.doc_id if doc is not None else -1
        return (doc_id, self.pre)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} pre={self.pre}>"


class Text(Node):
    kind = KIND_TEXT
    __slots__ = ("text",)

    def __init__(self, text: str):
        super().__init__()
        self.text = text

    def string_value(self) -> str:
        return self.text


class Comment(Node):
    kind = KIND_COMMENT
    __slots__ = ("text",)

    def __init__(self, text: str):
        super().__init__()
        self.text = text

    def string_value(self) -> str:
        return self.text


class ProcessingInstruction(Node):
    kind = KIND_PI
    __slots__ = ("target", "data")

    def __init__(self, target: str, data: str):
        super().__init__()
        self.target = target
        self.data = data

    def string_value(self) -> str:
        return self.data


class Attr(Node):
    """An attribute node.  Attributes are not children of their element
    (XPath data model); they are numbered after the element they belong
    to, as in the MonetDB attribute table."""

    kind = KIND_ATTRIBUTE
    __slots__ = ("name", "value")

    def __init__(self, name: str, value: str):
        super().__init__()
        self.name = require_qname(name, "attribute name")
        self.value = value

    @property
    def local_name(self) -> str:
        return local_name(self.name)

    def string_value(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"<Attr {self.name}={self.value!r}>"


class Element(Node):
    kind = KIND_ELEMENT
    __slots__ = ("tag", "attributes", "_children")

    def __init__(self, tag: str, attrs: dict[str, str] | None = None):
        super().__init__()
        self.tag = require_qname(tag, "element name")
        self.attributes: list[Attr] = []
        self._children: list[Node] = []
        if attrs:
            for name, value in attrs.items():
                self.set_attribute(name, value)

    # -- children ----------------------------------------------------------

    @property
    def children(self) -> list[Node]:
        return self._children

    def append(self, node: Node) -> Node:
        if isinstance(node, (Document, Attr)):
            raise ShredError(
                f"a {node.kind_name} node cannot be an element child")
        node.parent = self
        self._children.append(node)
        return node

    def append_text(self, text: str) -> None:
        """Append text, merging with a trailing text sibling."""
        if self._children and isinstance(self._children[-1], Text):
            self._children[-1].text += text
        elif text:
            self.append(Text(text))

    # -- attributes ---------------------------------------------------------

    def set_attribute(self, name: str, value: str) -> Attr:
        for attr in self.attributes:
            if attr.name == name:
                attr.value = value
                return attr
        attr = Attr(name, value)
        attr.parent = self
        self.attributes.append(attr)
        return attr

    def get_attribute(self, name: str, default: str | None = None
                      ) -> str | None:
        for attr in self.attributes:
            if attr.name == name:
                return attr.value
        return default

    def attribute_node(self, name: str) -> Attr | None:
        for attr in self.attributes:
            if attr.name == name:
                return attr
        return None

    @property
    def local_name(self) -> str:
        return local_name(self.tag)

    def elements(self, tag: str | None = None) -> Iterator["Element"]:
        """Child elements, optionally filtered by tag name."""
        for child in self._children:
            if isinstance(child, Element) and (tag is None
                                               or child.tag == tag):
                yield child

    def find(self, tag: str) -> "Element | None":
        """First child element with the given tag, or None."""
        return next(self.elements(tag), None)

    def __repr__(self) -> str:
        return f"<Element {self.tag} pre={self.pre}>"


class Document(Node):
    """A document node; the root of a stored XML fragment."""

    kind = KIND_DOCUMENT
    __slots__ = ("uri", "doc_id", "_children", "_nodes_by_pre")

    def __init__(self, uri: str = "", doc_id: int = 0):
        super().__init__()
        self.uri = uri
        self.doc_id = doc_id
        self._children: list[Node] = []
        self._nodes_by_pre: list[Node] | None = None

    @property
    def children(self) -> list[Node]:
        return self._children

    def append(self, node: Node) -> Node:
        if isinstance(node, (Document, Attr)):
            raise ShredError(
                f"a {node.kind_name} node cannot be a document child")
        node.parent = self
        self._children.append(node)
        return node

    @property
    def root_element(self) -> Element:
        for child in self._children:
            if isinstance(child, Element):
                return child
        raise ShredError(f"document {self.uri!r} has no root element")

    # -- numbering -----------------------------------------------------------

    def renumber(self) -> None:
        """Assign pre-order ranks, subtree sizes and levels from scratch.

        Run once when a document is built; writes through
        :meth:`insert_children` and :meth:`remove_nodes` keep the
        numbering current without a full walk.
        """
        self._nodes_by_pre = renumber_fragment(self)

    def node_by_pre(self, pre: int) -> Node:
        """The node with the given pre rank."""
        return self._numbered()[pre]

    @property
    def node_count(self) -> int:
        return len(self._numbered())

    def all_nodes(self) -> list[Node]:
        """Every node in pre order (a copy: the numbering's own list is
        replaced, never mutated, so a caller's snapshot stays whole)."""
        return list(self._numbered())

    def _numbered(self) -> list[Node]:
        if self._nodes_by_pre is None:
            self.renumber()
        return self._nodes_by_pre

    # -- writes ----------------------------------------------------------------

    def insert_children(self, blocks: list[tuple["Element", list[Node]]]
                        ) -> "Splice":
        """Append each block's roots to its parent element and splice
        the numbering.

        Every inserted subtree is numbered at its final offset, the
        ``size`` of each parent and its ancestors grows by the block,
        and the ``pre`` of every following node shifts; nothing else
        is visited.  A block lands right after its parent's last
        descendant; blocks landing at the same old rank go deepest
        parent first, then in the given order (the order a sequence of
        appends would produce).
        """
        old = self._numbered()
        placed = sorted((parent.pre + parent.size + 1, -parent.level, i)
                        for i, (parent, _roots) in enumerate(blocks))
        nodes: list[Node] = []
        spans: list[tuple[int, list[Node]]] = []
        shift = prev = 0
        for at, _depth, i in placed:
            parent, roots = blocks[i]
            nodes += _shifted(old[prev:at], shift)
            block: list[Node] = []
            for root in roots:
                parent.append(root)
                block += renumber_fragment(root, at + shift + len(block),
                                           parent.level + 1)
            for node in (parent, *parent.ancestors()):
                node.size += len(block)
            nodes += block
            spans.append((at, block))
            shift += len(block)
            prev = at
        nodes += _shifted(old[prev:], shift)
        self._nodes_by_pre = nodes
        return Splice(len(old), spans, [],
                      [parent for parent, _roots in blocks],
                      [root for _parent, roots in blocks for root in roots])

    def remove_nodes(self, victims) -> "Splice":
        """Detach every victim from its parent and splice the numbering.

        A victim that is already detached (a repeat) is skipped; one
        inside another victim is detached from it and needs no rank
        work of its own.  The ``size`` of each removed subtree's
        ancestors shrinks and the ``pre`` of every following node
        shifts back.
        """
        old = self._numbered()
        taken: list[tuple[int, int, Node, Node]] = []
        for node in victims:
            parent = node.parent
            if parent is None:
                continue
            taken.append((node.pre, node.pre + node.size + 1, node, parent))
            if isinstance(node, Attr):
                parent.attributes.remove(node)
            else:
                parent.children.remove(node)
            node.parent = None
        taken.sort(key=lambda cut: cut[0])
        outer: list[tuple[int, int, Node, Node]] = []
        for cut in taken:
            if not outer or cut[0] >= outer[-1][1]:
                outer.append(cut)
        nodes: list[Node] = []
        shift = prev = 0
        for lo, hi, _node, parent in outer:
            nodes += _shifted(old[prev:lo], shift)
            for node in (parent, *parent.ancestors()):
                node.size -= hi - lo
            shift -= hi - lo
            prev = hi
        nodes += _shifted(old[prev:], shift)
        self._nodes_by_pre = nodes
        return Splice(len(old), [], [(lo, hi) for lo, hi, _n, _p in outer],
                      [parent for _lo, _hi, _n, parent in outer],
                      [node for _lo, _hi, node, _p in outer])

    def __repr__(self) -> str:
        return f"<Document {self.uri!r} doc_id={self.doc_id}>"


class Splice(NamedTuple):
    """What one write did to a document's numbering.

    Derived structures (the shred, region indexes) replay it on their
    old rows: old rank *r* survives unless it lies in a ``cut``, and
    moves by the rows inserted at or before it minus the rows cut
    before it.
    """

    #: node count before the write
    old_count: int
    #: ``(old rank, nodes)``: nodes inserted, in pre order, before the
    #: old row at that rank (ascending ranks)
    inserted: list[tuple[int, list[Node]]]
    #: ``[lo, hi)`` old rank ranges removed (ascending, disjoint)
    cuts: list[tuple[int, int]]
    #: the elements written under or removed from (still in the tree)
    anchors: list[Node]
    #: the inserted subtree roots, or the removed ones
    roots: list[Node]


def _shifted(nodes: list[Node], shift: int) -> list[Node]:
    if shift:
        for node in nodes:
            node.pre += shift
    return nodes


def renumber_fragment(root: Node, pre: int = 0, level: int = 0
                      ) -> list[Node]:
    """Number the subtree under *root*; return its nodes in pre order.

    The one numbering walk: it numbers whole documents, constructed
    orphan fragments and, at their final offset, subtrees a write
    inserts.  Assigns pre-order ranks from *pre*, levels from *level*
    and subtree sizes.  Attributes receive pre ranks immediately after
    their element (the MonetDB attribute encoding) and are counted in
    the element's subtree size, so that ``pre(v) < pre(a) <= pre(v) +
    size(v)`` holds for an attribute *a* of any element *v* or its
    descendants.  Iterative, so any depth numbers; re-running it on an
    already-numbered fragment is a no-op reassignment.
    """
    nodes: list[Node] = [root]
    append = nodes.append
    root.pre = pre
    root.level = level
    if isinstance(root, Element):
        for attr in root.attributes:
            attr.pre = pre + len(nodes)
            attr.level = level + 1
            attr.size = 0
            append(attr)
    # (node, its children still to visit, their level); only elements
    # below the root have children
    open_ = [(root, iter(root.children), level + 1)]
    while open_:
        parent, children, depth = open_[-1]
        for node in children:
            node.pre = here = pre + len(nodes)
            node.level = depth
            append(node)
            if isinstance(node, Element):
                for attr in node.attributes:
                    attr.pre = pre + len(nodes)
                    attr.level = depth + 1
                    attr.size = 0
                    append(attr)
                if node._children:
                    open_.append((node, iter(node._children), depth + 1))
                    break
            node.size = pre + len(nodes) - 1 - here
        else:
            open_.pop()
            parent.size = pre + len(nodes) - 1 - parent.pre
    return nodes


def document_order(nodes) -> list[Node]:
    """Sort nodes in document order, removing duplicates (by identity)."""
    seen: set[int] = set()
    unique: list[Node] = []
    for node in nodes:
        if id(node) not in seen:
            seen.add(id(node))
            unique.append(node)
    unique.sort(key=Node.sort_key)
    return unique


__all__ = [
    "Node", "Text", "Comment", "ProcessingInstruction", "Attr", "Element",
    "Document", "Splice", "document_order", "renumber_fragment",
    "escape_text", "escape_attribute",
    "KIND_DOCUMENT", "KIND_ELEMENT", "KIND_TEXT", "KIND_COMMENT",
    "KIND_PI", "KIND_ATTRIBUTE",
]
