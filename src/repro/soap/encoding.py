"""SOAP-encoding of typed Python values.

Implements the subset of SOAP 1.1 Section-5 encoding that the portal
services exchange: simple types with ``xsi:type`` hints, arrays, structs,
``xsi:nil`` for nulls, base64 binary, and embedded XML-literal payloads (the
paper's job-submission and SRB services pass "an XML definition of a job ...
as an XML string"; the XML-literal form carries it without double-escaping,
while plain strings remain fully supported).

Struct members travel as child elements named after their keys.  A key
that is not a plain ASCII XML name (``"15"``, ``"a b"``, ``"{ns}x"``,
``""``) would make the document ill-formed, so member names use the
XmlConvert-style escape: every character that cannot stand where it is
becomes ``_xHHHH_`` (``_xHHHHHHHH_`` above U+FFFF), an underscore that
starts ``_x`` is itself escaped as ``_x005F_``, and the empty key is
``_x_``.  Letters, digits, ``_``, ``.`` and ``-`` (no digit, ``.`` or ``-``
first) pass through unchanged; everything else, non-ASCII included, is
escaped, so every conformant parser reads the same name.  Because a
literal ``_x`` never survives encoding, :func:`decode_member_name`
recovers the exact original key.
"""

from __future__ import annotations

import base64
import re
import string
from typing import Any

from repro.faults import EncodingError
from repro.xmlutil.element import XmlElement
from repro.xmlutil.qname import QName

SOAP_ENC_NS = "http://schemas.xmlsoap.org/soap/encoding/"
XSI_NS = "http://www.w3.org/2001/XMLSchema-instance"
XSD_NS = "http://www.w3.org/2001/XMLSchema"

_TYPE_ATTR = QName(XSI_NS, "type")
_NIL_ATTR = QName(XSI_NS, "nil")
_ARRAY_TYPE_ATTR = QName(SOAP_ENC_NS, "arrayType")


#: the SOAP layer's name for the ``Portal.Encoding`` fault: an encoding
#: failure inside one service's dispatch reaches the remote caller
#: classified, not as an opaque ``Server`` fault
SoapEncodingError = EncodingError


_NAME_START = frozenset(string.ascii_letters + "_")
_NAME_CHARS = _NAME_START | frozenset(string.digits + ".-")
_ESCAPED_CHAR = re.compile("_x([0-9A-Fa-f]{8}|[0-9A-Fa-f]{4})_")


def encode_member_name(key: str) -> str:
    """The element name carrying struct member *key* (see module docs)."""
    if key.isascii() and key.isidentifier() and "_x" not in key:
        return key
    if not key:
        return "_x_"
    out = []
    for index, ch in enumerate(key):
        allowed = _NAME_CHARS if index else _NAME_START
        if ch in allowed and not (ch == "_" and key[index + 1:index + 2] == "x"):
            out.append(ch)
        else:
            code = ord(ch)
            out.append(f"_x{code:04X}_" if code <= 0xFFFF else f"_x{code:08X}_")
    return "".join(out)


def _unescape_char(match: re.Match) -> str:
    code = int(match.group(1), 16)
    return chr(code) if code <= 0x10FFFF else match.group()


def decode_member_name(name: str) -> str:
    """The struct key carried by element name *name*; inverts
    :func:`encode_member_name`."""
    if "_x" not in name:
        return name
    if name == "_x_":
        return ""
    return _ESCAPED_CHAR.sub(_unescape_char, name)


def encode_value(name: str | QName, value: Any) -> XmlElement:
    """Encode a Python value as a SOAP-encoded element named *name*."""
    node = XmlElement(name)
    _encode_into(node, value)
    return node


def _set_type(node: XmlElement, xsd_type: str) -> None:
    node.attributes[_TYPE_ATTR] = xsd_type


def _encode_into(node: XmlElement, value: Any) -> None:
    if value is None:
        node.attributes[_NIL_ATTR] = "true"
    elif isinstance(value, bool):
        _set_type(node, "xsd:boolean")
        node.set_text("true" if value else "false")
    elif isinstance(value, int):
        _set_type(node, "xsd:int")
        node.set_text(str(value))
    elif isinstance(value, float):
        _set_type(node, "xsd:double")
        node.set_text(repr(value))
    elif isinstance(value, str):
        _set_type(node, "xsd:string")
        node.set_text(value)
    elif isinstance(value, bytes):
        _set_type(node, "xsd:base64Binary")
        node.set_text(base64.b64encode(value).decode("ascii"))
    elif isinstance(value, XmlElement):
        _set_type(node, "enc:XmlLiteral")
        node.content = [value]
    elif isinstance(value, (list, tuple)):
        _set_type(node, "enc:Array")
        node.attributes[_ARRAY_TYPE_ATTR] = f"xsd:anyType[{len(value)}]"
        for item in value:
            node.append(encode_value("item", item))
    elif isinstance(value, dict):
        _set_type(node, "enc:Struct")
        for key, item in value.items():
            if not isinstance(key, str):
                raise SoapEncodingError(
                    f"struct keys must be strings, got {type(key).__name__}"
                )
            node.append(encode_value(QName("", encode_member_name(key)), item))
    else:
        raise SoapEncodingError(
            f"cannot SOAP-encode value of type {type(value).__name__}"
        )


def decode_value(node: XmlElement) -> Any:
    """Decode a SOAP-encoded element back to a Python value.

    Text that does not parse as its declared type raises
    :class:`SoapEncodingError`, never a bare ``ValueError``.
    """
    try:
        return _decode(node)
    except SoapEncodingError:
        raise
    except ValueError as exc:  # int("x"), float("x"), bad base64
        raise SoapEncodingError(
            f"<{node.tag.local}> does not decode: {exc}"
        ) from None


def _decode_struct(node: XmlElement) -> dict[str, Any]:
    return {
        decode_member_name(child.tag.local): _decode(child)
        for child in node.children
    }


def _decode(node: XmlElement) -> Any:
    if node.attributes.get(_NIL_ATTR) == "true":
        return None
    xsi_type = node.attributes.get(_TYPE_ATTR, "")
    local = xsi_type.split(":", 1)[-1] if xsi_type else ""
    if local == "XmlLiteral":
        children = node.children
        if len(children) != 1:
            raise SoapEncodingError("XmlLiteral must wrap exactly one element")
        return children[0]
    if local == "Array" or _ARRAY_TYPE_ATTR in node.attributes:
        return [_decode(item) for item in node.children]
    if local == "Struct":
        return _decode_struct(node)
    if local in ("boolean",):
        return node.text.strip() in ("true", "1")
    if local in ("int", "integer", "long", "short"):
        return int(node.text.strip())
    if local in ("double", "float", "decimal"):
        return float(node.text.strip())
    if local in ("base64Binary",):
        return base64.b64decode(node.text.strip())
    if local in ("string", "anyURI", "dateTime"):
        return node.text
    # untyped: infer structs from element children, else treat as string
    if node.children:
        return _decode_struct(node)
    return node.text
