"""Property-based tests: serialize/parse round trip for arbitrary trees."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlutil.element import XmlElement, parse_xml

names = st.text(
    alphabet=string.ascii_letters + "_", min_size=1, max_size=8
).filter(
    # "xmlns" is a reserved namespace declaration, not an attribute name;
    # XmlElement.set rejects it (see test_element.py)
    lambda s: (s[0].isalpha() or s[0] == "_") and s != "xmlns"
)

# text content including the markup-significant characters that must be
# escaped and the whitespace XML parsers normalize unless escaped
texts = st.text(
    alphabet=st.characters(
        codec="utf-8",
        categories=("L", "N", "P", "S", "Zs"),
        include_characters="\r\n\t",
    ),
    max_size=30,
)


@st.composite
def elements(draw, depth=2):
    tag = draw(names)
    el = XmlElement(tag)
    for key in draw(st.lists(names, max_size=3, unique=True)):
        el.set(key, draw(texts))
    n_children = draw(st.integers(0, 3)) if depth else 0
    for _ in range(n_children):
        if draw(st.booleans()):
            el.append(draw(elements(depth=depth - 1)))
        else:
            value = draw(texts)
            if value:
                el.append(value)
    return el


@given(elements())
@settings(max_examples=150, deadline=None)
def test_serialize_parse_roundtrip(el):
    assert parse_xml(el.serialize()) == el


@given(elements())
@settings(max_examples=50, deadline=None)
def test_indented_serialize_parse_equal_modulo_whitespace(el):
    assert parse_xml(el.serialize(indent=2)) == el
