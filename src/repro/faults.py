"""Common portal error taxonomy.

Section 3 of the paper: "Interoperability also requires consistent error
messaging.  SOAP calls to services may result in both SOAP errors and
implementation errors (such as, the file didn't get transferred because the
disk was full).  Thus the standard set of portal services that we are building
must define and relay a common set of error messages for this second class of
errors."

This module defines that common set.  Every portal web service in
:mod:`repro.services` raises subclasses of :class:`PortalError` for
*implementation* errors; the SOAP layer (:mod:`repro.soap`) maps them onto
SOAP faults with a stable ``faultcode``/``detail`` convention so that a client
written against one provider's service decodes errors from any other
provider's service identically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any


class PortalError(Exception):
    """Base class for the common portal error vocabulary.

    Attributes:
        code: stable machine-readable error code (``"Portal.<Category>"``).
        message: human-readable description.
        detail: optional structured payload (service specific, but always
            expressible as string key/value pairs so it survives SOAP detail
            encoding).
        retryable: whether a client may meaningfully retry the same request
            (possibly against another provider of the same interface).  Part
            of the common vocabulary: every provider's service classifies its
            errors identically, so retry loops written against one provider
            behave the same against all of them.
    """

    code = "Portal.Error"
    retryable = False

    def __init__(self, message: str, detail: dict[str, str] | None = None):
        super().__init__(message)
        self.message = message
        self.detail: dict[str, str] = dict(detail or {})

    def to_detail(self) -> dict[str, str]:
        """Flatten into the string map carried in a SOAP fault detail."""
        out = {"code": self.code, "message": self.message}
        for key, value in self.detail.items():
            out[f"detail.{key}"] = str(value)
        return out

    @staticmethod
    def from_detail(detail: dict[str, str]) -> "PortalError":
        """Reconstruct the matching :class:`PortalError` subclass from a SOAP
        fault detail map produced by :meth:`to_detail`."""
        code = detail.get("code", "Portal.Error")
        message = detail.get("message", "unknown portal error")
        extra = {
            key[len("detail."):]: value
            for key, value in detail.items()
            if key.startswith("detail.")
        }
        cls = _CODE_REGISTRY.get(code, PortalError)
        err = cls.__new__(cls)
        PortalError.__init__(err, message, extra)
        return err

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(code={self.code!r}, message={self.message!r})"


class AuthenticationError(PortalError):
    """The caller could not be authenticated (bad ticket, expired proxy,
    unverifiable SAML assertion)."""

    code = "Portal.Authentication"
    retryable = False  # a bad credential stays bad on retry


class AuthorizationError(PortalError):
    """The caller is authenticated but not permitted to perform the action."""

    code = "Portal.Authorization"
    retryable = False  # permission does not appear by retrying


class ResourceNotFoundError(PortalError):
    """A named resource (file, collection, context, job, host) does not exist."""

    code = "Portal.ResourceNotFound"
    retryable = False  # the name will still not exist


class ResourceExhaustedError(PortalError):
    """A backend resource limit was hit (the paper's canonical example: the
    file didn't get transferred because the disk was full)."""

    code = "Portal.ResourceExhausted"
    retryable = True


class InvalidRequestError(PortalError):
    """The request was syntactically valid SOAP but semantically invalid for
    the service (bad job description, malformed XML payload, unknown queue)."""

    code = "Portal.InvalidRequest"
    retryable = False  # the same request stays invalid


class ServiceUnavailableError(PortalError):
    """A required backend (queuing system, SRB server, KDC) is unreachable."""

    code = "Portal.ServiceUnavailable"
    retryable = True


class JobError(PortalError):
    """Job submission or execution failed on the computational backend."""

    code = "Portal.Job"
    retryable = False  # resubmission is a policy decision, not a blind retry


class DataTransferError(PortalError):
    """A data management operation failed mid-transfer."""

    code = "Portal.DataTransfer"
    retryable = True


class ContextError(PortalError):
    """Context-manager specific failure (missing context, bad hierarchy)."""

    code = "Portal.Context"
    retryable = False


class DiscoveryError(PortalError):
    """Registry lookup/publication failure (UDDI or container hierarchy)."""

    code = "Portal.Discovery"
    retryable = False


class ServerBusyError(PortalError):
    """The server refused the request under load-shedding policy.

    Raised by the admission-control layer (:mod:`repro.loadmgmt`) when a
    request would wait longer than the service's queue-wait bound, when a
    per-service rate limiter is out of tokens, or when a concurrency
    bulkhead is full.  Always retryable — the condition is transient by
    construction — and carries a ``retryAfter`` detail (virtual seconds)
    that retry loops should honour instead of blind exponential backoff.
    """

    code = "Portal.ServerBusy"
    retryable = True

    @property
    def retry_after(self) -> float | None:
        """The server's retry hint in virtual seconds, if parseable."""
        raw = self.detail.get("retryAfter")
        if raw is None:
            return None
        try:
            value = float(raw)
        except (TypeError, ValueError):
            return None
        return value if value >= 0 else None


def retry_after_hint(exc: BaseException) -> float | None:
    """The server-supplied retry-after hint carried by *exc*, if any.

    Works on a local :class:`ServerBusyError` and on any reconstructed
    :class:`PortalError` whose detail carries ``retryAfter`` (the SOAP
    fault round-trip preserves the detail map, not the subclass property).
    """
    if not isinstance(exc, PortalError):
        return None
    raw = exc.detail.get("retryAfter")
    if raw is None:
        return None
    try:
        value = float(raw)
    except (TypeError, ValueError):
        return None
    return value if value >= 0 else None


class DeadlineExceededError(PortalError):
    """The caller's deadline passed before the work completed.

    Terminal by definition: the time budget is spent, so retrying the same
    call cannot help.  Raised client-side when a retry loop runs out of time
    and server-side when a request arrives with an already-expired deadline
    header (the server sheds the doomed work instead of running it).
    """

    code = "Portal.DeadlineExceeded"
    retryable = False  # the time budget is already spent


class BudgetViolationError(PortalError):
    """A SOAP hop's deadline budget *grew* instead of shrinking.

    Every nested call must finish within its caller's budget, so the
    deadline riding a request can only move earlier (or stay put) as the
    chain deepens.  A hop that arrives with a *later* absolute deadline
    than its enclosing call means somewhere a stale or forged budget was
    propagated — the callee would happily work past the point the original
    caller gave up.  Terminal: retrying re-sends the same broken budget.
    """

    code = "Portal.BudgetViolation"
    retryable = False  # the propagated budget stays broken on retry


class SchemaError(PortalError):
    """An XML document failed schema validation or binding."""

    code = "Portal.Schema"
    retryable = False  # the document will not validate twice


class EncodingError(PortalError, ValueError):
    """A value cannot be encoded for the wire or decoded from it: text
    holding characters XML 1.0 cannot carry, a struct no encoding covers,
    a typed element whose text does not parse as its type.

    Still a ``ValueError`` for callers that treat it as a plain bad-value
    signal.
    """

    code = "Portal.Encoding"
    retryable = False  # the same value will still not encode


class ReplicationError(PortalError):
    """A replication-protocol failure (malformed sync payload, out-of-order
    operation, region mismatch)."""

    code = "Portal.Replication"
    retryable = False  # a protocol violation does not heal on retry


class QuorumLostError(ReplicationError):
    """Too few replicas acknowledged a write to meet the configured quorum.

    Retryable by construction: replicas come back (repair, partition heal,
    hinted handoff) and the coordinator's operation log preserves the
    write, so re-issuing against a healed quorum succeeds.
    """

    code = "Portal.QuorumLost"
    retryable = True


class WorkflowError(PortalError):
    """A workflow-engine failure: invalid DAG wiring, a stage driven past
    its retry budget, or a provenance-chain integrity break.

    Terminal: the DAG (or the chain) is wrong, and re-running the same
    definition reproduces the same failure.  Individual stage *attempts*
    retry under :mod:`repro.resilience` before this error is raised.
    """

    code = "Portal.Workflow"
    retryable = False  # the definition or the chain is wrong; retries ran already


class StaleReadError(ReplicationError):
    """A read could only be served by a replica whose staleness exceeds the
    caller's bound (and the caller did not opt into stale reads).

    Retryable: anti-entropy is converging the replica; the same read
    against a healed region returns fresh data.
    """

    code = "Portal.StaleRead"
    retryable = True


_CODE_REGISTRY: dict[str, type[PortalError]] = {
    cls.code: cls
    for cls in (
        PortalError,
        AuthenticationError,
        AuthorizationError,
        ResourceNotFoundError,
        ResourceExhaustedError,
        InvalidRequestError,
        ServiceUnavailableError,
        JobError,
        DataTransferError,
        ContextError,
        SchemaError,
        EncodingError,
        DiscoveryError,
        BudgetViolationError,
        DeadlineExceededError,
        ServerBusyError,
        ReplicationError,
        QuorumLostError,
        StaleReadError,
        WorkflowError,
    )
}


def retryable_codes() -> dict[str, bool]:
    """The full ``Portal.*`` code -> retryable classification table."""
    return {code: cls.retryable for code, cls in sorted(_CODE_REGISTRY.items())}


@dataclass
class ErrorReport:
    """A normalized record of a service-side error, suitable for relaying to
    monitoring portlets or archival in a user context."""

    code: str
    message: str
    service: str = ""
    operation: str = ""
    detail: dict[str, str] = field(default_factory=dict)

    @staticmethod
    def from_error(
        err: PortalError, *, service: str = "", operation: str = ""
    ) -> "ErrorReport":
        return ErrorReport(
            code=err.code,
            message=err.message,
            service=service,
            operation=operation,
            detail=dict(err.detail),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "message": self.message,
            "service": self.service,
            "operation": self.operation,
            "detail": dict(self.detail),
        }
