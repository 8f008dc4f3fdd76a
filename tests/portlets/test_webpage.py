import pytest

from repro.portlets.webpage import WebPagePortlet
from repro.transport.http import HttpRequest, HttpResponse
from repro.transport.server import HttpServer

PAGE = """\
<html><head><title>Remote</title></head>
<body><h1>Remote content</h1><p>hello</p></body></html>
"""

DOCTYPE_PAGE = "<!DOCTYPE html>\n" + PAGE


@pytest.fixture
def remote(network):
    server = HttpServer("remote.host", network)
    server.mount("/page", lambda r: HttpResponse(200, {}, PAGE))
    server.mount("/plain", lambda r: HttpResponse(200, {}, "not <xml"))
    server.mount("/doctype", lambda r: HttpResponse(200, {}, DOCTYPE_PAGE))
    return server


def test_fetch_keeps_in_memory_copy(network, remote):
    portlet = WebPagePortlet("p", "http://remote.host/page", network)
    portlet.fetch()
    assert portlet.document is not None  # the in-memory object
    assert portlet.fetches == 1


def test_render_extracts_body(network, remote):
    portlet = WebPagePortlet("p", "http://remote.host/page", network)
    fragment = portlet.render("/portal")
    assert "<h1>Remote content</h1>" in fragment
    assert "<title>" not in fragment  # head stripped


def test_non_xml_content_passes_through_raw(network, remote):
    portlet = WebPagePortlet("p", "http://remote.host/plain", network)
    assert portlet.render("/portal") == "not <xml"
    assert portlet.document is None


def test_doctype_page_passes_through_raw(network, remote):
    # the XML parser refuses a DOCTYPE, so such a page keeps its raw text
    portlet = WebPagePortlet("p", "http://remote.host/doctype", network)
    assert portlet.render("/portal") == DOCTYPE_PAGE
    assert portlet.document is None


def test_unreachable_host_renders_error_box(network, remote):
    portlet = WebPagePortlet("p", "http://gone.host/", network)
    fragment = portlet.render("/portal")
    assert "portlet-error" in fragment


def test_http_error_rendered(network, remote):
    portlet = WebPagePortlet("p", "http://remote.host/missing", network)
    fragment = portlet.render("/portal")
    assert "HTTP 404" in fragment
