import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.soap.encoding import (
    SoapEncodingError,
    decode_member_name,
    decode_value,
    encode_member_name,
    encode_value,
)
from repro.xmlutil.element import XmlElement, parse_xml


@pytest.mark.parametrize(
    "value",
    [
        "plain string",
        "",
        42,
        -1,
        3.14,
        True,
        False,
        None,
        b"\x00\x01binary\xff",
        ["a", 1, None],
        {"k": "v", "nested": {"x": [1, 2]}},
        [],
        {},
    ],
)
def test_roundtrip_values(value):
    node = encode_value("p", value)
    assert decode_value(node) == value


def test_roundtrip_through_wire_text():
    value = {"items": [1, "two", 3.0, False, None], "blob": b"abc"}
    text = encode_value("p", value).serialize()
    assert decode_value(parse_xml(text)) == value


def test_xml_literal_passthrough():
    payload = XmlElement("jobs")
    payload.child("job", text="j1")
    node = encode_value("p", payload)
    decoded = decode_value(parse_xml(node.serialize()))
    assert isinstance(decoded, XmlElement)
    assert decoded == payload


def test_unencodable_type_rejected():
    with pytest.raises(SoapEncodingError):
        encode_value("p", object())
    with pytest.raises(SoapEncodingError):
        encode_value("p", {1: "non-string key"})


def test_bool_not_confused_with_int():
    assert decode_value(encode_value("p", True)) is True
    assert decode_value(encode_value("p", 1)) == 1


@pytest.mark.parametrize(
    "key,name",
    [
        ("jobName", "jobName"),
        ("a.b-c", "a.b-c"),
        ("15", "_x0031_5"),
        ("a b", "a_x0020_b"),
        ("{urn:x}y", "_x007B_urn_x003A_x_x007D_y"),
        ("_x", "_x005F_x"),
        ("_x0031_", "_x005F_x0031_"),
        ("", "_x_"),
        ("é", "_x00E9_"),
        ("\U0001f600", "_x0001F600_"),
        ("\ud800", "_xD800_"),
    ],
)
def test_member_names(key, name):
    assert encode_member_name(key) == name
    assert decode_member_name(name) == key


def test_numeric_struct_keys_are_well_formed():
    # replication's bucket digests are keyed by bucket number
    wire = encode_value("p", {"15": "d1", "3": "d2"}).serialize()
    ET.fromstring(wire)
    assert decode_value(parse_xml(wire)) == {"15": "d1", "3": "d2"}


@given(st.dictionaries(st.text(), st.integers(), max_size=4))
@settings(max_examples=200, deadline=None)
def test_struct_keys_property(struct):
    wire = encode_value("p", struct).serialize()
    ET.fromstring(wire)  # any conformant parser accepts the member names
    assert decode_value(parse_xml(wire)) == struct


@pytest.mark.parametrize(
    "xsd_type,text", [("xsd:int", "twelve"), ("xsd:double", "x"),
                      ("xsd:base64Binary", "abc")],
)
def test_undecodable_text_is_an_encoding_fault(xsd_type, text):
    node = XmlElement("p", {"{http://www.w3.org/2001/XMLSchema-instance}type":
                            xsd_type}, text=text)
    with pytest.raises(SoapEncodingError) as info:
        decode_value(node)
    assert info.value.code == "Portal.Encoding"


# strings that survive XML text content: every character XML 1.0 can carry
wire_text = st.text(
    alphabet=st.characters(codec="utf-8", categories=("L", "N", "P", "S", "Zs"),
                           include_characters="\r\n\t"),
    max_size=40,
)

soap_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2**53, 2**53),
        st.floats(allow_nan=False, allow_infinity=False),
        wire_text,
        st.binary(max_size=40),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.text(alphabet="abcdefgh", min_size=1, max_size=6),
            children,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


@given(soap_values)
@settings(max_examples=120, deadline=None)
def test_encode_decode_property(value):
    text = encode_value("p", value).serialize()
    assert decode_value(parse_xml(text)) == value
