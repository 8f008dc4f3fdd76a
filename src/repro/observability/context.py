"""Trace context: the identifiers that make causality portable.

The paper's architecture is a web of *composed* services — the portal calls
the batch job service, which calls the Globusrun service, which calls a GRAM
gatekeeper — and a request that crosses three hosts is only debuggable if
every hop records the same trace identity.  This module defines that
identity (:class:`TraceContext`) and its wire encoding: a SOAP header entry
in the ``urn:gce:trace`` namespace, attached by the client's header-provider
hook and extracted in server dispatch, exactly like the deadline and
idempotency headers that already cross provider boundaries.

IDs are generated by a seeded :class:`IdGenerator` — a private seeded
``random.Random``, no wall clock and no global state — so a chaos-harness
run with a fixed seed produces byte-identical traces on every run.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.headers import register_header
from repro.xmlutil.element import XmlElement
from repro.xmlutil.qname import QName

TRACE_NS = "urn:gce:trace"

#: the SOAP header entry carrying the caller's trace context
TRACE_HEADER = QName(TRACE_NS, "TraceContext")
register_header(
    TRACE_HEADER,
    description="distributed trace id, parent span id, and baggage",
    module=__name__,
)

_BAGGAGE = QName(TRACE_NS, "Baggage")

#: the transport-level trace header (W3C ``traceparent`` form) — the
#: per-request fast lane; the SOAP header above stays the interop form
TRACEPARENT = "Traceparent"


@dataclass(slots=True)
class TraceContext:
    """The propagated identity of one distributed request.

    ``trace_id`` names the whole request tree; ``span_id`` names the
    caller's span (the receiver's parent); ``baggage`` carries small
    key/value pairs end to end (user name, experiment tag).
    """

    trace_id: str
    span_id: str
    baggage: dict[str, str] = field(default_factory=dict)

    def to_header(self) -> XmlElement:
        """Encode as the SOAP header entry servers look for.

        The compact attribute form (``id``/``parent``) keeps the envelope —
        and therefore the server-side parse, the dominant tracing cost —
        small; baggage pairs, when present, ride as child elements.
        """
        entry = XmlElement(TRACE_HEADER)
        entry.set("id", self.trace_id)
        entry.set("parent", self.span_id)
        for key in sorted(self.baggage):
            entry.child(_BAGGAGE, text=self.baggage[key]).set("key", key)
        return entry

    @staticmethod
    def from_headers(headers: list[XmlElement]) -> "TraceContext | None":
        """Decode the trace header if present.

        Both the compact attribute form and the original child-element
        form (``TraceId``/``SpanId``) decode; malformed or incomplete
        entries are ignored — observability headers must never break a
        call.
        """
        for entry in headers:
            if entry.tag != TRACE_HEADER:
                continue
            trace_id = (entry.get("id") or "").strip()
            span_id = (entry.get("parent") or "").strip()
            if not trace_id or not span_id:
                # legacy child-element form
                trace_id = entry.findtext("TraceId").strip()
                span_id = entry.findtext("SpanId").strip()
            if not trace_id or not span_id:
                return None
            if not entry.content:
                return TraceContext(trace_id, span_id)
            baggage = {
                item.get("key", "") or "": item.text
                for item in entry.findall("Baggage")
                if item.get("key")
            }
            return TraceContext(trace_id, span_id, baggage)
        return None

    @staticmethod
    def from_traceparent(value: str) -> "TraceContext | None":
        """Decode the W3C-style ``traceparent`` transport header.

        ``00-<trace id>-<parent span id>-01`` — malformed values are
        ignored, the same never-break-a-call rule as :meth:`from_headers`.
        """
        parts = value.split("-")
        if len(parts) != 4 or not parts[1] or not parts[2]:
            return None
        return TraceContext(parts[1], parts[2])


class _RawHeader(XmlElement):
    """A header entry that serializes to a prebuilt string.

    Hot-path headers (trace context, sampling mode) can be attached to
    *every* outgoing request; going through ``XmlElement`` construction +
    prefix assignment for a small attribute-only element is measurable at
    that rate.  This subclass keeps the full element API (servers that
    inspect headers before the envelope hits the wire still see the
    attributes) but skips the generic serializer — the raw form declares
    its own prefix, so it drops into any envelope without touching the
    parent's prefix map.
    """

    __slots__ = ("_raw",)

    def __init__(self, tag: QName, raw: str, attributes: dict[str, str]):
        self.tag = tag
        self.attributes = {QName("", key): val for key, val in attributes.items()}
        self.content = []
        self._raw = raw

    def _serialize(self, parts, prefixes, indent, depth, parent_pretty):
        pad = "\n" + " " * ((indent or 0) * depth) if parent_pretty and depth else ""
        parts.append(pad + self._raw)


def raw_trace_header(trace_id: str, span_id: str) -> XmlElement:
    """The hot-path trace header: prebuilt wire form, no tree construction.

    Equivalent to ``TraceContext(trace_id, span_id).to_header()`` for
    baggage-free contexts (the per-request common case); ids are hex so no
    escaping is needed.
    """
    raw = (
        f'<t:TraceContext xmlns:t="{TRACE_NS}" '
        f'id="{trace_id}" parent="{span_id}"/>'
    )
    return _RawHeader(TRACE_HEADER, raw, {"id": trace_id, "parent": span_id})


def traceparent(trace_id: str, span_id: str) -> str:
    """The transport-header encoding of a trace context.

    One dict entry on the HTTP request instead of an XML header element:
    propagating causality must not grow the envelope the server has to
    parse on every dispatch (the dominant tracing cost).
    """
    return f"00-{trace_id}-{span_id}-01"


class IdGenerator:
    """Deterministic trace/span id generation.

    ``trace_id()`` returns a fresh 128-bit id (32 hex digits),
    ``span_id()`` a fresh 64-bit one (16 hex digits).  Both draw from one
    private :class:`random.Random` seeded with the generator's seed — no
    wall clock, no shared global state — so ids *look* opaque but depend
    only on (seed, allocation order): two runs with the same seed and the
    same call sequence mint identical ids, the property the chaos
    determinism tests assert.  Two distinct span ids collide with
    probability 2**-64.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._bits = random.Random(seed).getrandbits

    def trace_id(self) -> str:
        return self._bits(128).to_bytes(16, "big").hex()

    def span_id(self) -> str:
        return self._bits(64).to_bytes(8, "big").hex()
