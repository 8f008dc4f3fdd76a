"""Differential test: our serializer and parser against stdlib ElementTree.

A round trip through our own parser proves only that the two halves agree
with each other.  Here every generated tree must also read back unchanged
through ``xml.etree.ElementTree`` — an independent conformant parser — so a
document that only our code can read fails the test.
"""

import string
import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlutil.element import XmlElement, parse_xml
from repro.xmlutil.qname import QName

NAMESPACES = ["", "urn:a", "http://example.org/b?x=1&y=<2>", "urn:é\U0001f600"]

locals_ = st.text(
    alphabet=string.ascii_letters + "_", min_size=1, max_size=6
).filter(lambda s: s != "xmlns")

qnames = st.builds(QName, st.sampled_from(NAMESPACES), locals_)


def _is_xml_char(ch: str) -> bool:
    return (
        ch in "\t\n\r"
        or "\x20" <= ch <= "\ud7ff"
        or "\ue000" <= ch <= "\ufffd"
        or ch >= "\U00010000"
    )


texts = st.text(
    alphabet=st.one_of(
        st.sampled_from("<>&\"']\r\n\t "),
        st.characters(codec="utf-8").filter(_is_xml_char),
        st.characters(min_codepoint=0x10000),
    ),
    max_size=12,
)


@st.composite
def trees(draw, depth=3):
    el = XmlElement(draw(qnames))
    for key in draw(st.lists(qnames, max_size=3, unique=True)):
        el.set(key, draw(texts))
    if depth:
        for _ in range(draw(st.integers(0, 3))):
            if draw(st.booleans()):
                el.append(draw(trees(depth=depth - 1)))
            else:
                el.append(draw(texts))
    return el


def _merge(items):
    """Adjacent text merged and empty text dropped: what any parser sees."""
    out = []
    for item in items:
        if isinstance(item, str):
            if not item:
                continue
            if out and isinstance(out[-1], str):
                out[-1] += item
                continue
        out.append(item)
    return out


def ours(el: XmlElement):
    return (
        el.tag.clark(),
        {key.clark(): value for key, value in el.attributes.items()},
        [ours(c) if isinstance(c, XmlElement) else c for c in _merge(el.content)],
    )


def theirs(el: ET.Element):
    content = [el.text or ""]
    for child in el:
        content += [theirs(child), child.tail or ""]
    return (el.tag, dict(el.attrib), _merge(content))


@given(trees())
@settings(max_examples=200, deadline=None)
def test_stdlib_parser_reads_what_we_write(tree):
    wire = tree.serialize()
    expected = ours(tree)
    assert theirs(ET.fromstring(wire)) == expected
    assert ours(parse_xml(wire)) == expected
