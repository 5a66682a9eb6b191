"""DOM serialization back to XML text."""

from __future__ import annotations

from repro.xmldb.dom import (
    Comment,
    Document,
    Element,
    Node,
    ProcessingInstruction,
    Text,
)
from repro.xmldb.escape import escape_attribute, escape_text


def serialize(node: Node, *, indent: bool = False) -> str:
    """Serialize a node (and its subtree) to XML text.

    :param indent: pretty-print with two-space indentation.  Text nodes
        suppress indentation of their element (mixed content is emitted
        verbatim to keep the string value intact).

    Iterative (an explicit stack of pending work), so a tree of any
    depth serializes.
    """
    parts: list[str] = []
    append = parts.append
    # pending work, popped from the end: text to emit as is, a node to
    # write flat, or ``(node, depth)`` to write indented at that depth
    stack: list = [(node, 0) if indent else node]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            append(item)
            continue
        if item.__class__ is tuple:
            node, depth = item
            pad = "  " * depth
        else:
            node, depth, pad = item, -1, ""
        if isinstance(node, Text):
            append(escape_text(node.text))
        elif isinstance(node, Element):
            attr_text = "".join(
                f' {attr.name}="{escape_attribute(attr.value)}"'
                for attr in node.attributes)
            children = node.children
            if not children:
                append(f"{pad}<{node.tag}{attr_text}/>")
                continue
            append(f"{pad}<{node.tag}{attr_text}>")
            if depth >= 0 and _has_element_only_content(node):
                stack.append(f"\n{pad}</{node.tag}>")
                for child in reversed(children):
                    if not (isinstance(child, Text)
                            and not child.text.strip()):
                        stack.append((child, depth + 1))
                        stack.append("\n")
            else:
                # mixed content (or no indenting): children go flat
                stack.append(f"</{node.tag}>")
                stack.extend(reversed(children))
        elif isinstance(node, Document):
            for child in reversed(node.children):
                if depth >= 0:
                    stack.append("\n")
                    stack.append((child, depth))
                else:
                    stack.append(child)
        elif isinstance(node, Comment):
            append(f"{pad}<!--{node.text}-->")
        elif isinstance(node, ProcessingInstruction):
            data = f" {node.data}" if node.data else ""
            append(f"{pad}<?{node.target}{data}?>")
        else:
            append(f'{node.name}="{escape_attribute(node.value)}"')
    return "".join(parts)


def _has_element_only_content(element: Element) -> bool:
    has_child_element = False
    for child in element.children:
        if isinstance(child, Text) and child.text.strip():
            return False
        if isinstance(child, Element):
            has_child_element = True
    return has_child_element
