"""Crash-consistency tests: torn tails, sealing, write retries, forks.

A writer killed mid-append (the chaos layer's whole point) must never
make a store unreadable: the torn tail is tolerated and quarantined on
load, the next append seals it with a newline so debris cannot merge
with fresh records, and a transient ENOSPC at the persistence seam is
retried before it fails the campaign.  A process forked mid-append
must not inherit the append's file lock.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro import obs
from repro.cache import DiskCache, computed_events
from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.errors import CampaignError
from repro.journal import locked_append, quarantine_torn_lines
from repro.resilience import chaos_draw

GOOD = {
    "hash": "aaaa", "kind": "energy", "params": {"v": 1},
    "status": "ok", "result": {"total_pj": 1.0}, "elapsed_s": 0.1,
}
TORN = '{"hash": "bbbb", "status": "o'  # a writer died mid-line here


def one_point_spec() -> CampaignSpec:
    return CampaignSpec(
        name="crash-test",
        kind="energy",
        axes={"emt": ("none",), "voltage": (0.9,)},
        fixed={"workload": {
            "n_reads": 20_000, "n_writes": 20_000, "duration_s": 1e-3,
        }},
    )


class TestStoreTornTail:
    def test_torn_tail_tolerated_and_quarantined(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(GOOD) + "\n" + TORN, encoding="utf-8")
        store = ResultStore(path)
        records = store.load()
        assert set(records) == {"aaaa"}  # torn line skipped, not fatal
        side = tmp_path / "c.jsonl.quarantine"
        assert side.read_text(encoding="utf-8") == TORN + "\n"

    def test_quarantine_not_duplicated_across_loads(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(TORN, encoding="utf-8")
        ResultStore(path).load()
        ResultStore(path).load()  # fresh memo: the file parses again
        side = tmp_path / "c.jsonl.quarantine"
        assert side.read_text(encoding="utf-8").splitlines() == [TORN]

    def test_quarantine_helper_counts_fresh_lines_only(self, tmp_path):
        path = tmp_path / "c.jsonl"
        assert quarantine_torn_lines(path, ["x", "y"]) == 2
        assert quarantine_torn_lines(path, ["y", "z"]) == 1
        assert quarantine_torn_lines(path, []) == 0
        side = tmp_path / "c.jsonl.quarantine"
        assert side.read_text(encoding="utf-8").splitlines() == [
            "x", "y", "z",
        ]

    def test_append_seals_torn_tail_with_newline(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(TORN, encoding="utf-8")  # no trailing newline
        store = ResultStore(path)
        store.append(GOOD)
        raw = path.read_text(encoding="utf-8").splitlines()
        assert raw[0] == TORN  # sealed: debris stays an isolated line
        assert json.loads(raw[1])["hash"] == "aaaa"
        assert set(store.load()) == {"aaaa"}

    def test_append_to_clean_store_adds_no_blank_line(self, tmp_path):
        store = ResultStore(tmp_path / "c.jsonl")
        store.append(GOOD)
        store.append({**GOOD, "hash": "cccc"})
        raw = (tmp_path / "c.jsonl").read_text(encoding="utf-8")
        assert raw.count("\n") == 2 and "\n\n" not in raw
        assert set(store.load()) == {"aaaa", "cccc"}


class TestCacheEventLogTornTail:
    def test_torn_event_tail_tolerated_sealed_and_quarantined(
        self, tmp_path
    ):
        cache = DiskCache(tmp_path)
        cache.get_or_compute({"x": 1}, lambda: 1)
        cache.get_or_compute({"x": 2}, lambda: 2)
        with cache.events_path.open("ab") as handle:
            handle.write(b'{"event": "compu')  # crashed writer's debris
        # The reader tolerates and quarantines the torn line...
        assert len(computed_events(tmp_path)) == 2
        side = tmp_path / "events.jsonl.quarantine"
        assert "compu" in side.read_text(encoding="utf-8")
        # ...and the next append seals it, so the new event parses.
        cache.get_or_compute({"x": 3}, lambda: 3)
        assert len(computed_events(tmp_path)) == 3


class TestStoreWriteRetry:
    def test_transient_enospc_is_retried_then_succeeds(
        self, tmp_path, monkeypatch
    ):
        spec = one_point_spec()
        point_hash = spec.expand()[0].content_hash()
        # A seed whose ENOSPC draw fires on write attempt 1 and clears
        # on attempt 2 — the retry must land the record.
        for seed in range(500):
            if (
                chaos_draw(seed, "enospc", point_hash, 1) < 0.5
                and chaos_draw(seed, "enospc", point_hash, 2) >= 0.5
            ):
                break
        else:
            raise AssertionError("no seed found — widen the search")
        monkeypatch.setenv("REPRO_CHAOS", f"enospc:0.5,seed:{seed}")
        store = ResultStore(tmp_path / "c.jsonl")
        result = run_campaign(spec, store=store)
        assert result.n_executed == 1 and result.n_failed == 0
        assert store.completed_hashes() == {point_hash}

    def test_persistent_enospc_fails_the_campaign_bounded(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CHAOS", "enospc:1.0")
        store = ResultStore(tmp_path / "c.jsonl")
        with pytest.raises(
            CampaignError, match="store append failed after 5 attempts"
        ):
            run_campaign(one_point_spec(), store=store)


class TestForkDuringAppend:
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_fork_mid_append_does_not_inherit_the_file_lock(
        self, tmp_path, monkeypatch
    ):
        """A child forked while another thread is inside a locked append
        must not hold the file lock for its lifetime: a fresh process's
        append to the same file completes while the child still lives."""
        path = tmp_path / "journal.jsonl"
        inside = threading.Event()
        release = threading.Event()
        real_fstat = os.fstat

        def blocking_fstat(fd):
            # locked_append stats its descriptor after taking the lock.
            if threading.current_thread().name == "appender":
                inside.set()
                release.wait(10)
            return real_fstat(fd)

        monkeypatch.setattr(os, "fstat", blocking_fstat)
        appender = threading.Thread(
            target=locked_append, args=(path, b'{"a": 1}\n'),
            name="appender",
        )
        appender.start()
        assert inside.wait(10)
        # Let the append finish shortly after the fork starts, whether
        # or not the fork waits for it.
        threading.Timer(0.5, release.set).start()
        pid = os.fork()
        if pid == 0:  # child: outlive the fresh append below
            time.sleep(30)
            os._exit(0)
        try:
            appender.join(10)
            assert not appender.is_alive()
            monkeypatch.undo()
            script = (
                "import sys; from pathlib import Path; "
                "from repro.journal import locked_append; "
                "locked_append(Path(sys.argv[1]), b'{\"b\": 2}\\n')"
            )
            subprocess.run(
                [sys.executable, "-c", script, str(path)],
                check=True, timeout=5,
            )
            assert os.waitpid(pid, os.WNOHANG) == (0, 0)  # child alive
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        assert [json.loads(line) for line in path.read_text().splitlines()] == [
            {"a": 1}, {"b": 2},
        ]

    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_fork_mid_trace_flush_does_not_inherit_the_file_lock(
        self, tmp_path, monkeypatch
    ):
        """The same for a trace sink: a child forked while another
        thread flushes the tracer must not hold the sink's lock."""
        sink = tmp_path / "trace.jsonl"
        obs.enable(sink, run_id="fork-flush")
        inside = threading.Event()
        release = threading.Event()
        real_fstat = os.fstat

        def blocking_fstat(fd):
            if threading.current_thread().name == "flusher":
                inside.set()
                release.wait(10)
            return real_fstat(fd)

        def flush():
            obs.counter("flushed", 1)
            obs.flush()

        try:
            monkeypatch.setattr(os, "fstat", blocking_fstat)
            flusher = threading.Thread(target=flush, name="flusher")
            flusher.start()
            assert inside.wait(10)
            threading.Timer(0.5, release.set).start()
            pid = os.fork()
            if pid == 0:  # child: outlive the fresh append below
                time.sleep(30)
                os._exit(0)
            try:
                flusher.join(10)
                assert not flusher.is_alive()
                monkeypatch.undo()
                script = (
                    "import sys; from pathlib import Path; "
                    "from repro.journal import locked_append; "
                    "locked_append(Path(sys.argv[1]), b'{\"b\": 2}\\n')"
                )
                subprocess.run(
                    [sys.executable, "-c", script, str(sink)],
                    check=True, timeout=5,
                )
                assert os.waitpid(pid, os.WNOHANG) == (0, 0)  # child alive
            finally:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        finally:
            monkeypatch.undo()
            obs.disable()
        lines = sink.read_text().splitlines()
        assert {"b": 2} in [json.loads(line) for line in lines]
