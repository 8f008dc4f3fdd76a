"""ResourceHygieneChecker: REP501-REP502."""

from repro.analysis.checkers.hygiene import ResourceHygieneChecker
from repro.analysis.runner import analyze_sources, load_modules

from tests.analysis.conftest import codes, write_tree

CHECKER = [ResourceHygieneChecker()]


def test_span_without_crash_safe_release(analyze):
    result = analyze({
        "mod.py": """\
            def handler(obs, work):
                span = obs.tracer.start("op")
                result = work()
                obs.tracer.end(span)
                return result
        """
    }, checkers=CHECKER)
    assert codes(result) == ["REP501"]


def test_release_only_in_except_is_not_enough(analyze):
    result = analyze({
        "mod.py": """\
            def handler(obs, work):
                span = obs.tracer.start("op")
                try:
                    return work()
                except Exception:
                    obs.tracer.end(span, error="boom")
                    raise
        """
    }, checkers=CHECKER)
    assert codes(result) == ["REP501"]


def test_finally_release_is_clean(analyze):
    result = analyze({
        "mod.py": """\
            def handler(obs, work):
                span = obs.tracer.start("op")
                try:
                    return work()
                finally:
                    obs.tracer.end(span)
        """
    }, checkers=CHECKER)
    assert codes(result) == []


def test_house_tail_end_pattern_is_clean(analyze):
    # the idiom used by the gatekeeper and SOAP client: end in the except
    # handler (then re-raise) and end again on the fall-through tail
    result = analyze({
        "mod.py": """\
            def handler(obs, work):
                span = obs.tracer.start("op")
                try:
                    result = work()
                except Exception as exc:
                    obs.tracer.end(span, error=str(exc))
                    raise
                obs.tracer.end(span)
                return result
        """
    }, checkers=CHECKER)
    assert codes(result) == []


def test_admission_ticket_finally_release_is_clean(analyze):
    result = analyze({
        "mod.py": """\
            def dispatch(self, request):
                ticket = self.admission.admit(request)
                try:
                    return self.run(request)
                finally:
                    self.admission.release(ticket)
        """
    }, checkers=CHECKER)
    assert codes(result) == []


def test_leaked_admission_ticket(analyze):
    result = analyze({
        "mod.py": """\
            def dispatch(self, request):
                ticket = self.admission.admit(request)
                result = self.run(request)
                self.admission.release(ticket)
                return result
        """
    }, checkers=CHECKER)
    assert codes(result) == ["REP501"]


def test_returned_handle_is_ownership_transfer(analyze):
    result = analyze({
        "mod.py": """\
            def admit(self, request):
                ticket = self.admission.admit(request)
                return ticket


            def admit_direct(self, request):
                return self.admission.admit(request)
        """
    }, checkers=CHECKER)
    assert codes(result) == []


def test_attribute_store_is_ownership_transfer(analyze):
    result = analyze({
        "mod.py": """\
            def begin(self, obs):
                span = obs.tracer.start("session")
                self.session_span = span
        """
    }, checkers=CHECKER)
    assert codes(result) == []


def test_dropped_handle_is_rep502(analyze):
    result = analyze({
        "mod.py": """\
            def fire_and_forget(obs):
                obs.tracer.start("op")
        """
    }, checkers=CHECKER)
    assert codes(result) == ["REP502"]


def test_dropped_journal_is_rep502_but_assigned_is_clean(analyze):
    result = analyze({
        "mod.py": """\
            def build(disk):
                Journal(disk, "orphaned")


            def wire(disk, service):
                journal = Journal(disk, "owned")
                service.attach(journal)
        """
    }, checkers=CHECKER)
    assert codes(result) == ["REP502"]
    assert result.findings[0].line == 2


def test_async_def_bodies_are_checked(tmp_path):
    """Handles leaked or dropped inside ``async def`` are reported like
    their synchronous twins."""
    write_tree(tmp_path, {
        "pkg/mod.py": """\
            async def handler(obs, work):
                span = obs.tracer.start("op")
                result = await work()
                obs.tracer.end(span)
                return result


            async def fire_and_forget(obs):
                obs.tracer.start("op")


            async def careful(obs, work):
                span = obs.tracer.start("op")
                try:
                    return await work()
                finally:
                    obs.tracer.end(span)
        """
    })
    result = analyze_sources(
        load_modules([tmp_path / "pkg"], root=tmp_path), checkers=CHECKER
    )
    assert [(f.code, f.line, f.symbol) for f in result.findings] == [
        ("REP501", 2, "handler"),
        ("REP502", 9, "fire_and_forget"),
    ]
