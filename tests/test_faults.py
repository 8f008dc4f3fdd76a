"""Tests for the common portal error vocabulary."""

import pytest

from repro import faults


ALL_ERRORS = [
    faults.PortalError,
    faults.AuthenticationError,
    faults.AuthorizationError,
    faults.ResourceNotFoundError,
    faults.ResourceExhaustedError,
    faults.InvalidRequestError,
    faults.ServiceUnavailableError,
    faults.JobError,
    faults.DataTransferError,
    faults.ContextError,
    faults.SchemaError,
    faults.EncodingError,
    faults.DiscoveryError,
    faults.BudgetViolationError,
    faults.DeadlineExceededError,
    faults.ServerBusyError,
    faults.ReplicationError,
    faults.QuorumLostError,
    faults.StaleReadError,
    faults.WorkflowError,
]

# every class the wire vocabulary can name, straight from the registry
REGISTERED = sorted(faults._CODE_REGISTRY.items())


def test_all_errors_covers_the_registry():
    assert set(faults._CODE_REGISTRY.values()) <= set(ALL_ERRORS)


@pytest.mark.parametrize("code,cls", REGISTERED)
def test_detail_roundtrip_preserves_type(code, cls):
    err = cls("something broke", {"key": "value", "n": "2"})
    assert err.code == code
    back = faults.PortalError.from_detail(err.to_detail())
    assert type(back) is cls
    assert back.message == "something broke"
    assert back.detail == {"key": "value", "n": "2"}


@pytest.mark.parametrize("code,cls", REGISTERED)
def test_retryability_survives_the_roundtrip(code, cls):
    back = faults.PortalError.from_detail(cls("x").to_detail())
    assert back.retryable == cls.retryable
    assert faults.retryable_codes()[code] == cls.retryable


def test_codes_unique():
    codes = [cls.code for cls in ALL_ERRORS]
    assert len(codes) == len(set(codes))
    assert all(code.startswith("Portal.") for code in codes if code != "Portal.Error")


def test_unknown_code_falls_back():
    err = faults.PortalError.from_detail(
        {"code": "Portal.FutureThing", "message": "m"}
    )
    assert type(err) is faults.PortalError
    # an unknown fault from a foreign provider is never blindly retried
    assert err.retryable is False


def test_detail_values_stringified():
    err = faults.JobError("x", {"count": 3})  # type: ignore[dict-item]
    assert err.to_detail()["detail.count"] == "3"


def test_error_report():
    err = faults.DataTransferError("link died", {"at": "4096"})
    report = faults.ErrorReport.from_error(err, service="srb-ws", operation="get")
    assert report.code == "Portal.DataTransfer"
    payload = report.to_dict()
    assert payload["service"] == "srb-ws"
    assert payload["detail"] == {"at": "4096"}


def test_errors_are_exceptions():
    with pytest.raises(faults.PortalError):
        raise faults.ContextError("nope")
