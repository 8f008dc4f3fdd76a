import pytest

from repro.xmlutil.element import XmlCharError, XmlElement, XmlParseError, parse_xml
from repro.xmlutil.qname import QName


def test_builder_and_access():
    root = XmlElement("root", {"id": "1"})
    root.child("a", text="x")
    root.child("a", text="y")
    root.child("b").set("k", "v")
    assert root.get("id") == "1"
    assert [c.text for c in root.findall("a")] == ["x", "y"]
    assert root.findtext("b") == ""
    assert root.find("b").get("k") == "v"
    assert root.find("missing") is None


def test_namespaced_find():
    root = XmlElement(QName("urn:x", "root"))
    root.child(QName("urn:x", "item"), text="1")
    root.child(QName("urn:y", "item"), text="2")
    # bare name matches any namespace
    assert len(root.findall("item")) == 2
    # full QName matches exactly
    assert root.findtext(QName("urn:y", "item")) == "2"


def test_serialize_escapes_special_characters():
    el = XmlElement("t", {"a": 'x"<>&'}, text="<body> & more")
    text = el.serialize()
    assert "&lt;body&gt; &amp; more" in text
    assert "&quot;" in text
    assert parse_xml(text) == el


def test_parse_basic_document():
    doc = parse_xml(
        '<?xml version="1.0"?><!-- hi --><root a="1">text<child/>tail</root>'
    )
    assert doc.tag.local == "root"
    assert doc.get("a") == "1"
    assert doc.text == "texttail"
    assert len(doc.children) == 1


def test_parse_namespaces_and_default_ns():
    doc = parse_xml(
        '<r xmlns="urn:d" xmlns:p="urn:p" p:a="1"><p:c/><c/></r>'
    )
    assert doc.tag == QName("urn:d", "r")
    # default namespace does not apply to attributes
    assert doc.get(QName("urn:p", "a")) == "1"
    tags = [c.tag for c in doc.children]
    assert tags == [QName("urn:p", "c"), QName("urn:d", "c")]


def test_parse_cdata_and_entities():
    doc = parse_xml("<t><![CDATA[<raw> & stuff]]> &amp;&#65;&#x42;</t>")
    assert doc.text == "<raw> & stuff &AB"


def test_parse_doctype_rejected():
    # no portal document needs a DTD; refusing one closes off entity
    # expansion and external entities in one rule
    with pytest.raises(XmlParseError) as info:
        parse_xml('<!DOCTYPE html><root/>')
    assert "document type" in str(info.value)


def test_parse_error_offset_is_a_byte_index():
    # "é" is two bytes in UTF-8: the mismatched name "b" sits at byte 7,
    # character 6
    with pytest.raises(XmlParseError) as info:
        parse_xml("<a>é</b>")
    assert info.value.pos == 7


def test_parse_merges_adjacent_text_cdata_and_references():
    doc = parse_xml("<t>a<!-- c -->b<![CDATA[c]]>&#100;<?pi x?>e<u/>f</t>")
    assert doc.content[0] == "abcde"
    assert doc.content[2] == "f"


def test_serialize_escapes_what_parsers_normalize():
    el = XmlElement("t", {"a": "1\r\n2\t3"}, text="x\r\ny")
    text = el.serialize()
    assert 'a="1&#13;&#10;2&#9;3"' in text
    assert "x&#13;\ny" in text
    back = parse_xml(text)
    assert back.get("a") == "1\r\n2\t3" and back.text == "x\r\ny"


@pytest.mark.parametrize("bad", ["\x00", "\x08", "\x1f", "\ud800", "\ufffe", "\uffff"])
def test_serialize_rejects_non_xml_characters(bad):
    with pytest.raises(XmlCharError) as info:
        XmlElement("t", text=f"ok{bad}").serialize()
    assert info.value.code == "Portal.Encoding"
    with pytest.raises(XmlCharError):
        XmlElement("t", {"a": bad}).serialize()


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "<a>",
        "<a></b>",
        "<a attr></a>",
        "<a x=1/>",
        "<a/><b/>",
        "<a>&unknown;</a>",
        "no xml here",
        "<a ><b></a></b>",
        "<p:a/>",
        "<a>\x08</a>",
        "<a>&#8;</a>",
        "<a>\ud800</a>",
        b"<a>\xc3\x28</a>",
        b'<?xml version="1.0" encoding="no-such-codec"?><a/>',
        '<!DOCTYPE a [<!ENTITY e "x">]><a>&e;</a>',
    ],
)
def test_parse_errors(bad):
    with pytest.raises(XmlParseError):
        parse_xml(bad)


def test_equality_ignores_whitespace_nodes():
    a = parse_xml("<r>\n  <c>x</c>\n</r>")
    b = parse_xml("<r><c>x</c></r>")
    assert a == b


def test_iter_depth_first():
    doc = parse_xml("<a><b><c/></b><d/></a>")
    assert [e.tag.local for e in doc.iter()] == ["a", "b", "c", "d"]


def test_indent_serialization_parses_back():
    root = XmlElement("a")
    root.child("b").child("c", text="x")
    text = root.serialize(indent=2, declaration=True)
    assert text.startswith("<?xml")
    assert parse_xml(text) == root
