"""Unit tests for QueryTrace, SlowQueryLog, and TraceRecorder."""

import pytest

from repro.observability.tracing import QueryTrace, SlowQueryLog, TraceRecorder


class TestQueryTrace:
    def test_accumulation(self):
        t = QueryTrace("filtering", 2)
        t.add_stage("rank", 0.25)
        t.add_stage("rank", 0.25)
        t.add_count("candidates", 10)
        t.add_count("candidates", 5)
        t.note("scan", "serial")
        assert t.stages["rank"] == pytest.approx(0.5)
        assert t.counts["candidates"] == 15
        assert t.notes["scan"] == "serial"

    def test_stage_timer(self):
        t = QueryTrace("filtering")
        with t.stage("filter"):
            pass
        assert t.stages["filter"] >= 0.0

    def test_lines_format(self):
        t = QueryTrace("filtering", 3)
        t.total_seconds = 1.5
        t.add_stage("filter", 0.5)
        t.add_count("candidates", 7)
        t.note("scan", "parallel")
        lines = t.lines()
        assert lines[0] == "method filtering"
        assert lines[1] == "queries 3"
        assert lines[2] == "total_seconds 1.500000"
        assert "stage.filter_seconds 0.500000" in lines
        assert "count.candidates 7" in lines
        assert "note.scan parallel" in lines

    def test_to_dict(self):
        t = QueryTrace("brute_force_sketch")
        t.add_count("candidates", 1)
        d = t.to_dict()
        assert d["method"] == "brute_force_sketch"
        assert d["counts"] == {"candidates": 1}


def _trace(seconds, method="filtering"):
    t = QueryTrace(method)
    t.total_seconds = seconds
    return t


class TestSlowQueryLog:
    def test_threshold(self):
        log = SlowQueryLog(capacity=4, threshold_seconds=0.5)
        assert not log.offer(_trace(0.4))
        assert log.offer(_trace(0.6))
        assert len(log) == 1
        assert log.total_recorded == 1

    def test_ring_buffer_rotation(self):
        log = SlowQueryLog(capacity=2, threshold_seconds=0.0)
        for i in range(5):
            log.offer(_trace(float(i) + 1.0))
        assert len(log) == 2
        assert log.total_recorded == 5  # rotated-out entries stay counted
        assert [t.total_seconds for t in log.entries()] == [4.0, 5.0]

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SlowQueryLog(capacity=0)

    def test_clear(self):
        log = SlowQueryLog(capacity=2, threshold_seconds=0.0)
        log.offer(_trace(1.0))
        log.clear()
        assert len(log) == 0


class TestTraceRecorder:
    def test_disabled_begin_returns_none(self):
        rec = TraceRecorder()
        assert rec.begin("filtering") is None
        rec.set_enabled(True)
        assert rec.begin("filtering") is not None

    def test_finish_publishes_last_and_slow_log(self):
        rec = TraceRecorder(enabled=True, slow_threshold_seconds=0.5)
        t = rec.begin("filtering")
        rec.finish(t, 0.9)
        assert rec.last is t
        assert rec.last.total_seconds == pytest.approx(0.9)
        assert rec.slow_log.total_recorded == 1

    def test_fast_query_not_slow_logged(self):
        rec = TraceRecorder(enabled=True, slow_threshold_seconds=0.5)
        rec.finish(rec.begin("filtering"), 0.1)
        assert rec.slow_log.total_recorded == 0

    def test_observe_total_catches_untraced_slow_queries(self):
        rec = TraceRecorder(enabled=False, slow_threshold_seconds=0.5)
        rec.observe_total("filtering", 1, 0.1)
        rec.observe_total("filtering", 4, 2.0)
        assert rec.slow_log.total_recorded == 1
        entry = rec.slow_log.entries()[0]
        assert entry.num_queries == 4
        assert entry.notes["detail"] == "untraced"

    def test_slow_threshold_validation(self):
        rec = TraceRecorder()
        with pytest.raises(ValueError):
            rec.set_slow_threshold(0.0)
        rec.set_slow_threshold(0.25)
        assert rec.slow_log.threshold_seconds == 0.25

    def test_clear(self):
        rec = TraceRecorder(enabled=True, slow_threshold_seconds=0.01)
        rec.finish(rec.begin("filtering"), 1.0)
        rec.clear()
        assert rec.last is None
        assert len(rec.slow_log) == 0


class TestQueryTraceSpans:
    def test_add_span_renders_in_lines(self):
        t = QueryTrace("filtering")
        t.total_seconds = 1.0
        t.add_span("worker.0", queue_wait=0.001, compute=0.5, reply=0.002)
        t.add_span("worker.1", queue_wait=0.002, compute=0.25, reply=0.001)
        lines = t.lines()
        assert "span.worker.0.compute_seconds 0.500000" in lines
        assert "span.worker.0.queue_wait_seconds 0.001000" in lines
        assert "span.worker.0.reply_seconds 0.002000" in lines
        assert "span.worker.1.compute_seconds 0.250000" in lines
        # spans render in insertion order, after stages/counts/notes
        w0 = lines.index("span.worker.0.compute_seconds 0.500000")
        w1 = lines.index("span.worker.1.compute_seconds 0.250000")
        assert w0 < w1

    def test_to_dict_includes_spans(self):
        t = QueryTrace("filtering")
        t.add_span("worker.3", compute=0.125)
        d = t.to_dict()
        assert d["spans"] == [{"name": "worker.3", "compute": 0.125}]
        # the dict is a copy: mutating it must not touch the trace
        d["spans"][0]["compute"] = 99.0
        assert t.spans[0]["compute"] == 0.125


class TestSlowQueryLogWraparound:
    def test_deterministic_wraparound_order(self):
        """Entries past capacity drop oldest-first, and the survivors
        keep arrival order across several full wraps of the ring."""
        log = SlowQueryLog(capacity=3, threshold_seconds=0.0)
        for i in range(10):
            assert log.offer(_trace(float(i)))
            kept = [t.total_seconds for t in log.entries()]
            assert kept == [float(j) for j in range(max(0, i - 2), i + 1)]
        assert log.total_recorded == 10
        assert len(log) == 3

    def test_threaded_record_and_read(self):
        """Concurrent offer() and entries()/len() never corrupt the ring:
        every snapshot is a contiguous, in-order window of offers."""
        import threading

        log = SlowQueryLog(capacity=8, threshold_seconds=0.0)
        writers = 4
        per_writer = 500
        stop = threading.Event()
        snapshots = []

        def write(writer_id):
            for i in range(per_writer):
                log.offer(_trace(float(writer_id * per_writer + i)))

        def read():
            while not stop.is_set():
                entries = log.entries()
                assert len(entries) <= 8
                snapshots.append(len(entries))
                assert len(log) <= 8

        threads = [
            threading.Thread(target=write, args=(w,)) for w in range(writers)
        ]
        reader = threading.Thread(target=read)
        reader.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stop.set()
        reader.join()
        assert log.total_recorded == writers * per_writer
        assert len(log) == 8
        assert snapshots  # the reader actually observed mid-flight states


class TestAutoProfile:
    def test_slow_query_triggers_stack_capture(self):
        rec = TraceRecorder(enabled=True, slow_threshold_seconds=0.01)
        rec.finish(rec.begin("filtering"), 0.5)
        stats = rec.profiler.stats()
        assert stats["slow_captures"] == 1
        assert stats["unique_stacks"] >= 1
        assert rec.profiler.collapsed()  # at least this thread's stack

    def test_untraced_slow_query_also_captures(self):
        rec = TraceRecorder(enabled=False, slow_threshold_seconds=0.01)
        rec.observe_total("filtering", 1, 0.5)
        assert rec.profiler.stats()["slow_captures"] == 1

    def test_auto_profile_opt_out(self):
        rec = TraceRecorder(enabled=True, slow_threshold_seconds=0.01)
        rec.auto_profile = False
        rec.finish(rec.begin("filtering"), 0.5)
        assert rec.profiler.stats()["slow_captures"] == 0
