"""Event-journal unit tests: total order, bounds, wire rendering.

The journal's one hard promise is a **provable total order**: sequence
numbers are assigned under the same lock that appends the entry, so
"the breaker opened before the failover" is a fact, not a wall-clock
guess.  The concurrency test hammers one journal from many threads and
asserts the order survives: no duplicate or missing sequence numbers,
retained entries sorted, and every thread's own records appearing in
its call order.
"""

import threading

import pytest

from repro.observability import metrics as _metrics
from repro.observability.events import (
    Event,
    EventLog,
    get_event_log,
    set_event_log,
)


class TestEvent:
    def test_line_is_stable_and_sorted(self):
        event = Event(7, 1754600000.5, "failover", {"shard": 1, "backend": 2})
        assert event.line() == "7 1754600000.500 failover backend=2 shard=1"

    def test_line_without_fields(self):
        assert Event(0, 1.0, "node_kill").line() == "0 1.000 node_kill"


class TestEventLog:
    def test_sequences_are_monotonic_and_dense(self):
        journal = EventLog(capacity=16)
        for i in range(5):
            journal.record("tick", n=i)
        assert [e.seq for e in journal.tail()] == [0, 1, 2, 3, 4]
        assert journal.total_recorded == 5

    def test_bounded_with_surviving_sequence(self):
        journal = EventLog(capacity=4)
        for i in range(10):
            journal.record("tick", n=i)
        retained = journal.tail()
        assert len(journal) == 4
        assert [e.seq for e in retained] == [6, 7, 8, 9]
        # The gap between 0 and the first retained seq = history lost.
        assert journal.total_recorded == 10

    def test_tail_and_since(self):
        journal = EventLog()
        for i in range(6):
            journal.record("tick", n=i)
        assert [e.fields["n"] for e in journal.tail(2)] == [4, 5]
        assert journal.tail(0) == []
        assert [e.seq for e in journal.since(3)] == [4, 5]
        assert journal.since(99) == []

    def test_clear_keeps_counting(self):
        journal = EventLog()
        journal.record("tick")
        journal.clear()
        assert len(journal) == 0
        assert journal.record("tock").seq == 1

    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            EventLog(capacity=0)

    @pytest.mark.parametrize("name", ["seq", "event"])
    def test_reserved_field_is_refused_before_journalling(self, name):
        journal = EventLog(capacity=4)
        journal.record("tick")
        with pytest.raises(ValueError, match=repr(name)):
            journal.record("probe", **{name: 0})
        assert len(journal) == 1
        assert journal.total_recorded == 1

    def test_record_counts_metric(self):
        counter = _metrics.counter("events.recorded")
        before = counter.value
        EventLog().record("tick")
        assert counter.value == before + 1

    def test_concurrent_recorders_keep_total_order(self):
        threads_n, per_thread = 8, 50
        journal = EventLog(capacity=threads_n * per_thread)
        barrier = threading.Barrier(threads_n)

        def worker(tid):
            barrier.wait()
            for i in range(per_thread):
                journal.record("flip", thread=tid, n=i)

        threads = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads_n)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        entries = journal.tail()
        assert journal.total_recorded == threads_n * per_thread
        seqs = [e.seq for e in entries]
        # Dense, duplicate-free, sorted: one total order for the run.
        assert seqs == list(range(threads_n * per_thread))
        # Each thread's own events appear in its call order.
        for tid in range(threads_n):
            ns = [e.fields["n"] for e in entries if e.fields["thread"] == tid]
            assert ns == list(range(per_thread))


class TestModuleJournal:
    def test_set_event_log_swaps_and_restores(self):
        replacement = EventLog()
        previous = set_event_log(replacement)
        try:
            assert get_event_log() is replacement
            get_event_log().record("tick")
            assert replacement.total_recorded == 1
        finally:
            assert set_event_log(previous) is replacement
        assert get_event_log() is previous
