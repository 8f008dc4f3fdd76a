import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.xmlutil.binding import bind_schema
from repro.xmlutil.element import XmlCharError
from repro.xmlutil.schema import parse_schema

XSD = """\
<xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema" targetNamespace="urn:b">
  <xs:complexType name="Tag">
    <xs:sequence><xs:element name="value" type="xs:string"/></xs:sequence>
  </xs:complexType>
  <xs:complexType name="Record">
    <xs:sequence>
      <xs:element name="title" type="xs:string"/>
      <xs:element name="count" type="xs:int" default="1"/>
      <xs:element name="ratio" type="xs:double" minOccurs="0"/>
      <xs:element name="active" type="xs:boolean" minOccurs="0"/>
      <xs:element name="tag" type="Tag" minOccurs="0" maxOccurs="unbounded"/>
    </xs:sequence>
    <xs:attribute name="id" type="xs:string" use="required"/>
  </xs:complexType>
  <xs:element name="record" type="Record"/>
</xs:schema>
"""


@pytest.fixture(scope="module")
def classes():
    return bind_schema(parse_schema(XSD))


def test_generated_class_shape(classes):
    Record = classes["Record"]
    obj = Record(title="t", id="r1")
    assert obj.title == "t"
    assert obj.count == 1  # schema default applied
    assert obj.tag == []
    # bean-style accessors exist
    obj.set_count(7)
    assert obj.get_count() == 7


def test_nested_marshal_unmarshal(classes):
    Record, Tag = classes["Record"], classes["Tag"]
    obj = Record(title="hello", id="r2", ratio=0.5, active=True)
    obj.add_tag(Tag(value="x"))
    obj.add_tag(Tag(value="y"))
    back = Record.unmarshal(obj.marshal())
    assert back == obj
    assert [t.value for t in back.tag] == ["x", "y"]
    assert back.active is True and back.ratio == 0.5


def test_delete_from_repeated(classes):
    Record, Tag = classes["Record"], classes["Tag"]
    obj = Record(title="d", id="r3")
    tag = Tag(value="gone")
    obj.add_tag(tag)
    obj.delete_tag(tag)
    assert obj.tag == []


def test_unknown_constructor_field_rejected(classes):
    with pytest.raises(AttributeError):
        classes["Record"](bogus="x")


def test_docstring_from_schema(classes):
    assert "Generated binding" in (classes["Tag"].__doc__ or "")


def _is_xml_char(ch: str) -> bool:
    """The XML 1.0 ``Char`` production, written out from the spec."""
    return (
        ch in "\t\n\r"
        or "\x20" <= ch <= "\ud7ff"
        or "\ue000" <= ch <= "\ufffd"
        or ch >= "\U00010000"
    )


@given(
    title=st.text(max_size=20).filter(lambda s: s.strip() == s),
    count=st.integers(-10**6, 10**6),
    ratio=st.floats(allow_nan=False, allow_infinity=False, width=32),
    tags=st.lists(st.text(min_size=1, max_size=10).filter(
        lambda s: s.strip() == s), max_size=4),
)
@settings(max_examples=60, deadline=None)
def test_marshal_unmarshal_property(title, count, ratio, tags):
    classes = bind_schema(parse_schema(XSD))
    Record, Tag = classes["Record"], classes["Tag"]
    obj = Record(title=title, id="p", count=count, ratio=float(ratio))
    for tag in tags:
        obj.add_tag(Tag(value=tag))
    if not all(map(_is_xml_char, title + "".join(tags))):
        # no conformant parser would read such a document back
        with pytest.raises(XmlCharError):
            obj.marshal()
        return
    assert Record.unmarshal(obj.marshal()) == obj
