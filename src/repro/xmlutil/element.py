"""A lightweight XML infoset with a conformant serializer, parsed by expat.

The portal layers exchange *documents*, not streams, and need deterministic
serialization (for signing in :mod:`repro.security.saml`) plus namespace-aware
access (for SOAP envelopes).  This module provides exactly that and nothing
more: elements, attributes, character data, namespaces, comments-skipped.

The wire must read back unchanged in any conformant XML stack, so both
halves follow XML 1.0 rather than a lenient dialect of it:

- :meth:`XmlElement.serialize` escapes every character a parser would
  otherwise normalize (``\r`` in text; ``\r``, ``\n`` and ``\t`` in
  attribute values become character references) and refuses text outside
  the XML 1.0 ``Char`` production (C0 controls other than tab, LF and CR,
  lone surrogates, U+FFFE and U+FFFF) with :class:`XmlCharError`.
- :func:`parse_xml` is the standard library's expat.  A document type
  declaration is rejected, not skipped: the portal's documents never need
  one, and refusing it closes off entity expansion (billion laughs) and
  external entities in one rule.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, Iterator, Union
from xml.parsers import expat

from repro.faults import EncodingError
from repro.xmlutil.qname import QName

# "&" first: the later replacements introduce ampersands of their own
_MARKUP_TEXT = (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"))
_MARKUP_ATTR = _MARKUP_TEXT + (('"', "&quot;"),)
# whitespace a parser would normalize away unless it arrives as a reference
_SPACES_TEXT = (("\r", "&#13;"),)
_SPACES_ATTR = (("\r", "&#13;"), ("\n", "&#10;"), ("\t", "&#9;"))
#: one character outside XML 1.0 ``Char`` (tab, LF and CR are allowed)
_NON_CHAR = re.compile("[^\t\n\r\x20-\ud7ff\ue000-\ufffd\U00010000-\U0010ffff]")


class XmlParseError(ValueError):
    """Raised on malformed XML input; carries the byte offset of the error."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at offset {pos})")
        self.pos = pos


class XmlCharError(EncodingError):
    """Raised when a text or attribute value holds a character outside the
    XML 1.0 ``Char`` production, which no conformant parser would accept.

    Classified ``Portal.Encoding``, so a request or response that cannot
    go on the wire fails the same way wherever it is serialized.
    """

    code = EncodingError.code
    retryable = False  # the same text will still not serialize


def _check_chars(text: str) -> None:
    """Raise :class:`XmlCharError` unless *text* is all XML 1.0 ``Char``."""
    bad = _NON_CHAR.search(text)
    if bad:
        raise XmlCharError(
            f"character U+{ord(bad.group()):04X} is not allowed in XML 1.0"
        )


def _escape(
    text: str,
    markup: tuple[tuple[str, str], ...],
    spaces: tuple[tuple[str, str], ...],
) -> str:
    for raw, repl in markup:
        if raw in text:
            text = text.replace(raw, repl)
    # printable text holds no whitespace to escape and no illegal character
    if not text.isprintable():
        _check_chars(text)
        for raw, repl in spaces:
            if raw in text:
                text = text.replace(raw, repl)
    return text


Content = Union["XmlElement", str]


class XmlElement:
    """An XML element: qualified tag, attributes, ordered mixed content.

    Content is a list whose items are either child :class:`XmlElement` objects
    or text strings; this supports the mixed content needed by the portlet
    HTML-rewriting layer while keeping simple documents simple.
    """

    __slots__ = ("tag", "attributes", "content")

    def __init__(
        self,
        tag: QName | str,
        attributes: dict[QName | str, str] | None = None,
        content: Iterable[Content] | None = None,
        text: str | None = None,
    ):
        self.tag: QName = tag if isinstance(tag, QName) else QName.parse(tag)
        self.attributes: dict[QName, str] = {}
        for key, value in (attributes or {}).items():
            self.set(key, value)
        self.content: list[Content] = list(content or [])
        if text is not None:
            self.content.append(text)

    # -- attribute access -------------------------------------------------

    def set(self, key: QName | str, value: str) -> "XmlElement":
        qkey = key if isinstance(key, QName) else QName.parse(key)
        # "xmlns"/"xmlns:*" are namespace declarations, not attributes: the
        # serializer emits declarations from each tag's QName namespaces, and
        # the parser consumes them into the namespace map, so a literal
        # attribute by that name could never round-trip
        if not qkey.namespace and (
            qkey.local == "xmlns" or qkey.local.startswith("xmlns:")
        ):
            raise ValueError(
                f"{qkey.local!r} is a reserved namespace declaration, "
                "not an attribute"
            )
        self.attributes[qkey] = str(value)
        return self

    def get(self, key: QName | str, default: str | None = None) -> str | None:
        qkey = key if isinstance(key, QName) else QName.parse(key)
        return self.attributes.get(qkey, default)

    # -- content access ----------------------------------------------------

    @property
    def children(self) -> list["XmlElement"]:
        """Element children only (text nodes skipped)."""
        return [c for c in self.content if isinstance(c, XmlElement)]

    @property
    def text(self) -> str:
        """Concatenation of all *direct* text content."""
        return "".join(c for c in self.content if isinstance(c, str))

    def set_text(self, text: str) -> "XmlElement":
        """Replace all content with a single text node."""
        self.content = [text]
        return self

    def append(self, child: Content) -> "XmlElement":
        self.content.append(child)
        return self

    def extend(self, children: Iterable[Content]) -> "XmlElement":
        self.content.extend(children)
        return self

    def child(self, tag: QName | str, text: str | None = None) -> "XmlElement":
        """Create, append, and return a new child element (builder style)."""
        el = XmlElement(tag, text=text)
        self.content.append(el)
        return el

    def find(self, tag: QName | str) -> "XmlElement | None":
        """First direct child with the given tag.

        A bare local name matches any namespace; a full QName matches exactly.
        """
        for el in self._match(tag):
            return el
        return None

    def findall(self, tag: QName | str) -> list["XmlElement"]:
        """All direct children with the given tag (bare name = any namespace)."""
        return list(self._match(tag))

    def findtext(self, tag: QName | str, default: str = "") -> str:
        el = self.find(tag)
        return el.text if el is not None else default

    def _match(self, tag: QName | str) -> Iterator["XmlElement"]:
        if isinstance(tag, str) and not tag.startswith("{"):
            for el in self.children:
                if el.tag.local == tag:
                    yield el
            return
        qtag = tag if isinstance(tag, QName) else QName.parse(tag)
        for el in self.children:
            if el.tag == qtag:
                yield el

    def clone(self) -> "XmlElement":
        """A deep copy (children cloned, text shared — strings are immutable)."""
        copy = XmlElement(self.tag)
        copy.attributes = dict(self.attributes)
        copy.content = [
            c.clone() if isinstance(c, XmlElement) else c for c in self.content
        ]
        return copy

    def iter(self) -> Iterator["XmlElement"]:
        """Depth-first iteration over this element and all descendants."""
        yield self
        for child in self.children:
            yield from child.iter()

    # -- serialization -----------------------------------------------------

    def serialize(self, indent: int | None = None, declaration: bool = False) -> str:
        """Serialize to a string.

        Namespace prefixes are assigned deterministically in document order
        (``ns0``, ``ns1``, ...), which makes serialization canonical enough
        for the HMAC-based signing used by :mod:`repro.security.saml`.
        """
        parts: list[str] = []
        if declaration:
            parts.append('<?xml version="1.0" encoding="UTF-8"?>')
            if indent is not None:
                parts.append("\n")
        prefixes: dict[str, str] = {}
        self._serialize(parts, prefixes, indent, 0, parent_pretty=False)
        return "".join(parts)

    def _serialize(
        self,
        parts: list[str],
        prefixes: dict[str, str],
        indent: int | None,
        depth: int,
        parent_pretty: bool,
    ) -> None:
        # indentation is only safe around element-only content; a parent with
        # mixed content must not have whitespace injected between its children
        pad = "\n" + " " * (indent * depth) if parent_pretty and depth else ""
        # inherited prefixes are shared down the tree; new ones are declared
        # here, on a copy of the map made only when there is a new one
        declared: list[str] = []
        name = self.tag.local
        ns = self.tag.namespace
        if ns:
            if ns not in prefixes:
                prefixes = dict(prefixes)
                prefixes[ns] = f"ns{len(prefixes)}"
                declared.append(ns)
            name = f"{prefixes[ns]}:{name}"
        parts.append(f"{pad}<{name}")
        for key, value in self.attributes.items():
            attr = key.local
            ns = key.namespace
            if ns:
                if ns not in prefixes:
                    if not declared:
                        prefixes = dict(prefixes)
                    prefixes[ns] = f"ns{len(prefixes)}"
                    declared.append(ns)
                attr = f"{prefixes[ns]}:{attr}"
            parts.append(f' {attr}="{_escape(value, _MARKUP_ATTR, _SPACES_ATTR)}"')
        for ns in declared:
            uri = _escape(ns, _MARKUP_ATTR, _SPACES_ATTR)
            parts.append(f' xmlns:{prefixes[ns]}="{uri}"')
        content = self.content
        if not content:
            parts.append("/>")
            return
        parts.append(">")
        pretty = indent is not None and all(
            isinstance(c, XmlElement) for c in content
        )
        for item in content:
            if isinstance(item, str):
                parts.append(_escape(item, _MARKUP_TEXT, _SPACES_TEXT))
            else:
                item._serialize(parts, prefixes, indent, depth + 1, pretty)
        if pretty:
            parts.append("\n" + " " * ((indent or 0) * depth))
        parts.append(f"</{name}>")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<XmlElement {self.tag.clark()} children={len(self.children)}>"

    def __eq__(self, other: object) -> bool:
        """Structural equality ignoring pure-whitespace text nodes."""
        if not isinstance(other, XmlElement):
            return NotImplemented
        if self.tag != other.tag or self.attributes != other.attributes:
            return False
        return self._significant_content() == other._significant_content()

    def _significant_content(self) -> list[Content]:
        """Content normalized for comparison: whitespace-only text dropped,
        adjacent text runs merged (a parser cannot distinguish them)."""
        merged: list[Content] = []
        for item in self.content:
            if isinstance(item, str) and merged and isinstance(merged[-1], str):
                merged[-1] = merged[-1] + item
            else:
                merged.append(item)
        return [
            c for c in merged if isinstance(c, XmlElement) or c.strip()
        ]

    __hash__ = None  # type: ignore[assignment]  # mutable


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _qname(raw: str) -> QName:
    """The QName for an expat name (``uri}local`` or ``local``); memoized
    because the portal's vocabulary is small and QNames are immutable."""
    namespace, _, local = raw.rpartition("}")
    return QName(namespace, local)


def parse_xml(text: str | bytes) -> XmlElement:
    """Parse an XML document into an :class:`XmlElement` tree.

    Adjacent character data (text, entity and character references, CDATA
    sections, text either side of a comment) merges into one text item.
    Malformed input, a ``DOCTYPE``, an unknown encoding or a lone surrogate
    raises :class:`XmlParseError` with the byte offset of the fault.
    """
    parser = expat.ParserCreate(None, "}")
    parser.buffer_text = True
    parser.ordered_attributes = True
    stack: list[XmlElement] = []
    roots: list[XmlElement] = []
    # character data since the last tag, joined into one text item
    chunks: list[str] = []
    new = XmlElement.__new__

    def flush() -> None:
        stack[-1].content.append("".join(chunks))
        chunks.clear()

    def start(raw: str, attrs: list[str]) -> None:
        if chunks:
            flush()
        element = new(XmlElement)
        element.tag = _qname(raw)
        element.attributes = (
            {_qname(attrs[i]): attrs[i + 1] for i in range(0, len(attrs), 2)}
            if attrs else {}
        )
        element.content = []
        if stack:
            stack[-1].content.append(element)
        else:
            roots.append(element)
        stack.append(element)

    def end(_raw: str) -> None:
        if chunks:
            flush()
        stack.pop()

    def doctype(*_decl) -> None:
        raise XmlParseError(
            "document type declarations are not accepted",
            parser.CurrentByteIndex,
        )

    parser.StartElementHandler = start
    parser.EndElementHandler = end
    parser.CharacterDataHandler = chunks.append
    parser.StartDoctypeDeclHandler = doctype
    try:
        parser.Parse(text, True)
    except expat.ExpatError as exc:
        raise XmlParseError(
            expat.ErrorString(exc.code), parser.ErrorByteIndex
        ) from None
    except XmlParseError:
        raise
    except UnicodeEncodeError as exc:  # a lone surrogate has no UTF-8 form
        offset = len(text[:exc.start].encode("utf-8"))
        raise XmlParseError(f"{exc.reason} in text", offset) from None
    except (ValueError, LookupError) as exc:  # a declared encoding expat lacks
        raise XmlParseError(str(exc), parser.CurrentByteIndex) from None
    return roots[0]
