"""Tests for repro-lint's whole-program passes.

Covers the interprocedural PAPI typestate (``PAPI-INTERPROC``), the
journal and wire protocol-exhaustiveness passes (``PROTO-*``), the
determinism taint pass (``DET-TAINT``), fork/signal safety
(``FORK-SAFETY``/``SIGNAL-SAFETY``), the ``--changed-only`` reporting
path, and the move/rename stability of baseline fingerprints.  Each
rule gets a good/bad fixture pair; the service-seeding tests mutate a
copy of the *real* supervisor sources to prove a fresh asymmetry is
caught.
"""

from __future__ import annotations

import shutil
import textwrap
from pathlib import Path

from repro.analysis import Baseline, run_analysis
from repro.analysis.cli import changed_files

REPO_ROOT = Path(__file__).resolve().parent.parent


def lint_many(tmp_path, files, only=None, baseline=None, report_paths=None):
    """Write a multi-file fixture repo and analyze it."""
    for relpath, source in files.items():
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return run_analysis(
        tmp_path,
        paths=sorted(files),
        only_rules=only,
        baseline=baseline,
        report_paths=report_paths,
    )


def rule_ids(result):
    return sorted(f.rule for f in result.new_findings)


# -- interprocedural PAPI typestate ------------------------------------------


class TestInterprocLifecycle:
    def test_helper_created_handle_leaks_at_call_site(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/x.py": """
                def make(papi):
                    es = papi.create_eventset()
                    return es

                def use(papi):
                    es = make(papi)
                    papi.start(es)
                    papi.stop(es)
                """
            },
            only=["PAPI-INTERPROC"],
        )
        assert rule_ids(result) == ["PAPI-INTERPROC"]
        assert result.new_findings[0].symbol.endswith("use")

    def test_helper_created_handle_destroyed_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/x.py": """
                def make(papi):
                    es = papi.create_eventset()
                    return es

                def use(papi):
                    es = make(papi)
                    papi.start(es)
                    papi.stop(es)
                    papi.destroy_eventset(es)
                """
            },
            only=["PAPI-INTERPROC"],
        )
        assert result.new_findings == []

    def test_closer_helper_transitions_the_argument(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/x.py": """
                def cleanup(es, papi):
                    papi.destroy_eventset(es)

                def use(papi):
                    es = papi.create_eventset()
                    papi.start(es)
                    papi.stop(es)
                    cleanup(es, papi)
                """
            },
            only=["PAPI-INTERPROC", "PAPI-LIFECYCLE"],
        )
        assert result.new_findings == []

    def test_field_stored_handle_with_no_closing_method(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/x.py": """
                class Meter:
                    def __init__(self, papi):
                        self._es = papi.create_eventset()
                """
            },
            only=["PAPI-INTERPROC"],
        )
        assert rule_ids(result) == ["PAPI-INTERPROC"]
        assert "self._es" in result.new_findings[0].message

    def test_field_stored_handle_with_closing_method_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/x.py": """
                class Meter:
                    def __init__(self, papi):
                        self._papi = papi
                        self._es = papi.create_eventset()

                    def close(self):
                        self._papi.destroy_eventset(self._es)
                """
            },
            only=["PAPI-INTERPROC"],
        )
        assert result.new_findings == []


# -- journal protocol exhaustiveness -----------------------------------------

JOURNAL_MODULE = """
    EVENT_TYPES = ("header", "add", "done")


    class Journal:
        def append(self, event):
            pass

        def _apply(self, state, event):
            etype = event["type"]
            if etype == "header":
                return
            if etype == "add":
                state.add(event)
            elif etype == "done":
                state.done(event)
"""


class TestJournalProtocol:
    def test_matched_protocol_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/journal.py": JOURNAL_MODULE,
                "src/repro/supervisor/pool.py": """
                def produce(journal):
                    journal.append({"type": "header"})
                    journal.append({"type": "add"})
                    journal.append({"type": "done"})
                """,
            },
            only=["PROTO-JOURNAL"],
        )
        assert result.new_findings == []

    def test_undeclared_kind_is_an_error_at_the_append(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/journal.py": JOURNAL_MODULE,
                "src/repro/supervisor/pool.py": """
                def produce(journal):
                    journal.append({"type": "header"})
                    journal.append({"type": "add"})
                    journal.append({"type": "done"})
                    journal.append({"type": "retry"})
                """,
            },
            only=["PROTO-JOURNAL"],
        )
        assert rule_ids(result) == ["PROTO-JOURNAL"]
        [finding] = result.new_findings
        assert "'retry'" in finding.message
        assert finding.path == "src/repro/supervisor/pool.py"

    def test_declared_but_unconsumed_kind_is_an_error(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/journal.py": JOURNAL_MODULE.replace(
                    '("header", "add", "done")',
                    '("header", "add", "done", "metrics")',
                ),
                "src/repro/supervisor/pool.py": """
                def produce(journal):
                    journal.append({"type": "header"})
                    journal.append({"type": "add"})
                    journal.append({"type": "done"})
                    journal.append({"type": "metrics"})
                """,
            },
            only=["PROTO-JOURNAL"],
        )
        assert rule_ids(result) == ["PROTO-JOURNAL"]
        [finding] = result.new_findings
        assert "'metrics'" in finding.message
        assert "never consumed" in finding.message
        assert finding.path == "src/repro/supervisor/journal.py"

    def test_declared_but_never_produced_kind_is_a_warning(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/journal.py": JOURNAL_MODULE,
                "src/repro/supervisor/pool.py": """
                def produce(journal):
                    journal.append({"type": "header"})
                    journal.append({"type": "add"})
                """,
            },
            only=["PROTO-JOURNAL"],
        )
        [finding] = result.new_findings
        assert "'done'" in finding.message
        assert "dead protocol" in finding.message
        assert finding.severity.value == "warning"

    def test_ifexp_and_helper_returned_kinds_resolve(self, tmp_path):
        """The real repo's production idioms: IfExp kinds and records
        built by a helper the append site only calls."""
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/journal.py": JOURNAL_MODULE,
                "src/repro/supervisor/pool.py": """
                def add_event(rid):
                    return {"type": "add", "run_id": rid}

                def produce(journal, drained):
                    journal.append({"type": "header"})
                    journal.append(add_event("r1"))
                    journal.append({"type": "done" if drained else "done"})
                """,
            },
            only=["PROTO-JOURNAL"],
        )
        assert result.new_findings == []


# -- wire protocol exhaustiveness --------------------------------------------

SERVER_OK = """
    class Service:
        def _send(self, client, payload):
            pass

        def _reply(self, client, request, payload):
            out = {"op": request.get("op"), "id": request.get("id")}
            out.update(payload)
            return self._send(client, out)

        def _handle_request(self, client, request):
            op = request.get("op")
            if op == "ping":
                self._reply(client, request, {"ok": True, "pid": 1})
            elif op == "submit":
                self._reply(client, request, {"ok": True, "results": []})
            else:
                self._reply(
                    client, request, {"ok": False, "error": "unknown op"}
                )
"""

CLIENT_OK = """
    class ServiceClient:
        def ping(self):
            return self._roundtrip({"op": "ping"})

        def submit(self, specs):
            reply = self._roundtrip({"op": "submit", "specs": specs})
            return reply["results"]

        def _roundtrip(self, request):
            return {}
"""


class TestWireProtocol:
    def test_matched_endpoints_are_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/service.py": SERVER_OK,
                "src/repro/supervisor/client.py": CLIENT_OK,
            },
            only=["PROTO-WIRE"],
        )
        assert result.new_findings == []

    def test_unhandled_client_op_is_an_error(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/service.py": SERVER_OK,
                "src/repro/supervisor/client.py": CLIENT_OK + """

    class WideClient:
        def frob(self):
            return self._roundtrip({"op": "frob"})

        def _roundtrip(self, request):
            return {}
""",
            },
            only=["PROTO-WIRE"],
        )
        assert rule_ids(result) == ["PROTO-WIRE"]
        [finding] = result.new_findings
        assert "'frob'" in finding.message
        assert finding.path == "src/repro/supervisor/client.py"

    def test_missing_reply_key_is_an_error(self, tmp_path):
        server = SERVER_OK.replace('"results": []', '"out": []')
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/service.py": server,
                "src/repro/supervisor/client.py": CLIENT_OK,
            },
            only=["PROTO-WIRE"],
        )
        assert rule_ids(result) == ["PROTO-WIRE"]
        [finding] = result.new_findings
        assert "'results'" in finding.message
        assert finding.path == "src/repro/supervisor/service.py"

    def test_orphan_server_op_is_a_warning(self, tmp_path):
        server = SERVER_OK.replace(
            'elif op == "submit":',
            'elif op == "legacy":\n'
            '                self._reply(client, request, {"ok": True})\n'
            '            elif op == "submit":',
        )
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/service.py": server,
                "src/repro/supervisor/client.py": CLIENT_OK,
            },
            only=["PROTO-WIRE"],
        )
        [finding] = result.new_findings
        assert "'legacy'" in finding.message
        assert finding.severity.value == "warning"


class TestWireCorrelation:
    def test_bare_error_send_is_an_error(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/service.py": """
                class Service:
                    def _send(self, client, payload):
                        pass

                    def _handle_request(self, client, request):
                        self._send(client, {"ok": False, "error": "nope"})
                """
            },
            only=["PROTO-WIRE-CORR"],
        )
        assert rule_ids(result) == ["PROTO-WIRE-CORR"]

    def test_correlated_error_send_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/service.py": """
                class Service:
                    def _send(self, client, payload):
                        pass

                    def _handle_request(self, client, request):
                        self._send(
                            client,
                            {
                                "ok": False,
                                "error": "nope",
                                "op": request.get("op"),
                                "id": request.get("id"),
                            },
                        )
                """
            },
            only=["PROTO-WIRE-CORR"],
        )
        assert result.new_findings == []


# -- seeding asymmetries into a copy of the real service ---------------------


class TestSeededServiceAsymmetries:
    """Acceptance: mutate a fixture copy of the real supervisor sources
    and prove the protocol passes catch the fresh asymmetry."""

    def _copy_supervisor(self, tmp_path) -> Path:
        dest = tmp_path / "src" / "repro" / "supervisor"
        shutil.copytree(REPO_ROOT / "src" / "repro" / "supervisor", dest)
        return dest

    def test_real_supervisor_copy_is_clean(self, tmp_path):
        self._copy_supervisor(tmp_path)
        result = run_analysis(
            tmp_path,
            paths=["src/repro/supervisor"],
            only_rules=["PROTO-JOURNAL", "PROTO-WIRE", "PROTO-WIRE-CORR"],
        )
        assert result.new_findings == []

    def test_seeded_unhandled_journal_kind_is_detected(self, tmp_path):
        dest = self._copy_supervisor(tmp_path)
        pool = dest / "pool.py"
        text = pool.read_text()
        assert '"type": "done"' in text
        pool.write_text(text.replace('"type": "done"', '"type": "done2"', 1))
        result = run_analysis(
            tmp_path,
            paths=["src/repro/supervisor"],
            only_rules=["PROTO-JOURNAL"],
        )
        assert any(
            "'done2'" in f.message and "not declared" in f.message
            for f in result.new_findings
        )

    def test_seeded_unmatched_wire_op_is_detected(self, tmp_path):
        dest = self._copy_supervisor(tmp_path)
        client = dest / "client.py"
        text = client.read_text()
        assert '{"op": "ping"}' in text
        client.write_text(text.replace('{"op": "ping"}', '{"op": "ping2"}'))
        result = run_analysis(
            tmp_path,
            paths=["src/repro/supervisor"],
            only_rules=["PROTO-WIRE"],
        )
        assert any(
            "'ping2'" in f.message and "no _handle_request" in f.message
            for f in result.new_findings
        )


# -- determinism taint -------------------------------------------------------


class TestDeterminismTaint:
    def test_wallclock_into_journal_append(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/pool.py": """
                import time


                class Pool:
                    def __init__(self, journal):
                        self.journal = journal

                    def finish(self, rid):
                        now = time.time()
                        self.journal.append(
                            {"type": "done", "run_id": rid, "at": now}
                        )
                """
            },
            only=["DET-TAINT"],
        )
        assert rule_ids(result) == ["DET-TAINT"]
        assert "journal append" in result.new_findings[0].message

    def test_taint_through_helper_return_into_digest(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/queue.py": """
                import time


                def stamp():
                    return time.time()


                def cache_key(spec, spec_digest):
                    salt = stamp()
                    return spec_digest(spec, salt)
                """
            },
            only=["DET-TAINT"],
        )
        assert rule_ids(result) == ["DET-TAINT"]
        assert "digest input" in result.new_findings[0].message
        assert "'salt'" in result.new_findings[0].message

    def test_injected_clock_for_scheduling_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/pool.py": """
                import time


                class Pool:
                    def __init__(self, journal, clock=time.monotonic):
                        self.clock = clock
                        self.journal = journal

                    def finish(self, rid, deadline):
                        now = self.clock()
                        if now > deadline:
                            return
                        self.journal.append({"type": "done", "run_id": rid})
                """
            },
            only=["DET-TAINT"],
        )
        assert result.new_findings == []


# -- fork / signal safety ----------------------------------------------------


class TestForkSafety:
    def test_popen_without_new_session(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/pool.py": """
                import subprocess


                def launch(cmd):
                    return subprocess.Popen(cmd)
                """
            },
            only=["FORK-SAFETY"],
        )
        assert rule_ids(result) == ["FORK-SAFETY"]
        assert "start_new_session" in result.new_findings[0].message

    def test_popen_with_new_session_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/pool.py": """
                import subprocess


                def launch(cmd):
                    return subprocess.Popen(cmd, start_new_session=True)
                """
            },
            only=["FORK-SAFETY"],
        )
        assert result.new_findings == []

    def test_spawn_while_holding_a_lock(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/pool.py": """
                import subprocess


                class Pool:
                    def launch(self, cmd):
                        with self._lock:
                            return subprocess.Popen(
                                cmd, start_new_session=True
                            )
                """
            },
            only=["FORK-SAFETY"],
        )
        assert rule_ids(result) == ["FORK-SAFETY"]
        assert "holding" in result.new_findings[0].message

    def test_fork_child_that_can_return_or_skip_setsid(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/pool.py": """
                import os

                from repro.supervisor import worker


                def serve(path):
                    pid = os.fork()
                    if pid == 0:
                        worker.run_spec_file(path)
                        os.setsid()
                    return pid


                def spawn(path):
                    pid = os.fork()
                    if not pid:
                        code = 1
                        try:
                            code = worker.run_spec_file(path)
                        finally:
                            os._exit(code)
                    return pid


                def blind():
                    return os.fork()
                """
            },
            only=["FORK-SAFETY"],
        )
        messages = sorted(f.message for f in result.new_findings)
        assert rule_ids(result) == ["FORK-SAFETY"] * 4
        assert sum("before os.setsid()" in m for m in messages) == 2
        assert sum("second copy" in m for m in messages) == 1
        assert sum("recognizable child branch" in m for m in messages) == 1

    def test_fork_child_that_always_exits_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/pool.py": """
                import os

                from repro.supervisor import worker


                def serve(loop):
                    pid = os.fork()
                    if pid == 0:
                        try:
                            loop()
                        finally:
                            os._exit(0)
                    return pid


                def spawn(path):
                    pid = os.fork()
                    if pid != 0:
                        return pid
                    else:
                        code = 1
                        try:
                            os.setsid()
                            code = worker.run_spec_file(path)
                        finally:
                            os._exit(code)
                """
            },
            only=["FORK-SAFETY"],
        )
        assert result.new_findings == []


class TestSignalSafety:
    def test_logging_handler_is_flagged_transitively(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/service.py": """
                import signal


                class Service:
                    def log(self, msg):
                        print(msg)

                    def _on_term(self, signum, frame):
                        self.log("bye")

                    def serve(self):
                        signal.signal(signal.SIGTERM, self._on_term)
                """
            },
            only=["SIGNAL-SAFETY"],
        )
        assert rule_ids(result) == ["SIGNAL-SAFETY"]
        assert "print()" in result.new_findings[0].message
        assert "_on_term" in result.new_findings[0].message

    def test_flags_and_os_write_handler_is_clean(self, tmp_path):
        result = lint_many(
            tmp_path,
            {
                "src/repro/supervisor/service.py": """
                import os
                import signal


                class Service:
                    def request_drain(self):
                        self._draining = True

                    def _on_term(self, signum, frame):
                        self._shutdown = True
                        self.request_drain()
                        os.write(2, b"term\\n")

                    def serve(self):
                        signal.signal(signal.SIGTERM, self._on_term)
                """
            },
            only=["SIGNAL-SAFETY"],
        )
        assert result.new_findings == []

    def test_live_supervisor_handlers_are_safe(self):
        """The shipped service/pool/sweep handlers must stay flag-only."""
        result = run_analysis(
            REPO_ROOT,
            paths=["src/repro/supervisor", "tools"],
            only_rules=["SIGNAL-SAFETY"],
        )
        assert result.new_findings == []


# -- changed-only reporting --------------------------------------------------


class TestChangedOnly:
    FILES = {
        "src/repro/supervisor/a.py": """
            import subprocess


            def launch_a(cmd):
                return subprocess.Popen(cmd)
        """,
        "src/repro/supervisor/b.py": """
            import subprocess


            def launch_b(cmd):
                return subprocess.Popen(cmd)
        """,
    }

    def test_filtered_findings_match_the_full_run(self, tmp_path):
        full = lint_many(tmp_path, self.FILES, only=["FORK-SAFETY"])
        assert len(full.new_findings) == 2
        changed = run_analysis(
            tmp_path,
            paths=sorted(self.FILES),
            only_rules=["FORK-SAFETY"],
            report_paths=["src/repro/supervisor/a.py"],
        )
        expected = [
            f
            for f in full.new_findings
            if f.path == "src/repro/supervisor/a.py"
        ]
        assert changed.new_findings == expected

    def test_program_rule_findings_survive_filtering(self, tmp_path):
        files = {
            "src/repro/supervisor/journal.py": JOURNAL_MODULE,
            "src/repro/supervisor/pool.py": """
                def produce(journal):
                    journal.append({"type": "add"})
                    journal.append({"type": "bogus"})
            """,
        }
        full = lint_many(tmp_path, files, only=["PROTO-JOURNAL"])
        changed = run_analysis(
            tmp_path,
            paths=sorted(files),
            only_rules=["PROTO-JOURNAL"],
            report_paths=["src/repro/supervisor/pool.py"],
        )
        assert [f.message for f in changed.new_findings] == [
            f.message
            for f in full.new_findings
            if f.path == "src/repro/supervisor/pool.py"
        ]

    def test_changed_files_runs_in_a_git_checkout(self):
        files = changed_files(REPO_ROOT)
        assert files is None or isinstance(files, list)


# -- fingerprint stability across moves and renames --------------------------


class TestFingerprintStability:
    BAD = """
        import subprocess


        def launch(cmd):
            return subprocess.Popen(cmd)
    """

    def test_rename_and_line_shift_keep_the_baseline_match(self, tmp_path):
        first = lint_many(
            tmp_path / "one",
            {"src/repro/supervisor/a.py": self.BAD},
            only=["FORK-SAFETY"],
        )
        assert len(first.new_findings) == 1
        baseline = Baseline.from_findings(first.new_findings)

        moved = "# moved module\n# with a new header\n\n" + textwrap.dedent(
            self.BAD
        )
        second = lint_many(
            tmp_path / "two",
            {"src/repro/supervisor/renamed.py": moved},
            only=["FORK-SAFETY"],
            baseline=baseline,
        )
        assert second.new_findings == []
        assert len(second.baselined) == 1
        assert (
            second.baselined[0].fingerprint
            == first.new_findings[0].fingerprint
        )
