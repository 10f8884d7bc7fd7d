"""Unit and stress tests for the job tier shared by the compile and verify engines."""

import logging
import random
import sys
import threading
import time
from concurrent.futures import CancelledError, Future

import pytest

from repro.service.admission import QueueFullError
from repro.service.events import get_event_log
from repro.service.executor import ExecutorBackend, ThreadExecutor
from repro.service.tier import JobTier


class _HeldExecutor(ExecutorBackend):
    """A backend that holds every submitted job until the test releases it."""

    name = "held"

    def __init__(self, workers: int = 1, *, remote: bool = False, fail: bool = False) -> None:
        super().__init__(workers)
        self.remote = remote
        self.fail = fail
        self.jobs: list[tuple] = []

    def submit(self, run_local, target, fingerprint):
        if self.fail:
            raise RuntimeError("backend is down")
        future: Future = Future()
        future.set_running_or_notify_cancel()
        self.jobs.append((run_local, target, fingerprint, future))
        return future

    def release(self, index: int = 0, *, value=None) -> None:
        """Run held job ``index`` (or, for a remote job, deliver ``value``)."""
        run_local, target, fingerprint, future = self.jobs[index]
        future.set_result(value if self.remote else run_local(target, fingerprint))


def _counting_body(calls: list, value):
    def run_local(_target, key):
        calls.append(key)
        return value

    return run_local


class TestRun:
    def test_owner_future_is_settled_and_the_key_released(self):
        tier = JobTier(_HeldExecutor())
        future, owner = tier.run("k", lambda: 7)
        assert owner and future.result(timeout=0) == 7
        assert "k" not in tier._inflight

    def test_a_failing_body_settles_its_future_and_frees_the_key(self):
        tier = JobTier(_HeldExecutor())
        calls = []

        def body():
            calls.append(1)
            raise ValueError("bad design point")

        future, owner = tier.run("k", body)
        assert owner and isinstance(future.exception(timeout=0), ValueError)
        tier.run("k", body)  # released: the next caller runs it again
        assert len(calls) == 2

    def test_a_second_caller_joins_the_running_job(self):
        tier = JobTier(_HeldExecutor())
        entered, proceed = threading.Event(), threading.Event()

        def slow():
            entered.set()
            proceed.wait(10)
            return "owner"

        worker = threading.Thread(target=tier.run, args=("k", slow))
        worker.start()
        assert entered.wait(10)
        future, owner = tier.run("k", lambda: "joiner")
        assert not owner
        proceed.set()
        assert future.result(timeout=10) == "owner"
        worker.join(10)

    def test_a_caller_runs_an_in_process_job_no_worker_has_started(self):
        executor = _HeldExecutor()
        tier = JobTier(executor)
        calls = []
        queued, _ = tier.enqueue("k", _counting_body(calls, "queued"), None)
        future, owner = tier.run("k", lambda: "unused")
        assert not owner and future is queued
        assert future.result(timeout=0) == "queued"
        executor.release()  # the worker finds the job taken and skips it
        assert calls == ["k"]
        assert not tier._inflight and not tier._unstarted

    def test_a_remote_job_is_never_run_in_place(self):
        executor = _HeldExecutor(remote=True)
        tier = JobTier(executor)
        calls = []
        tier.enqueue("k", _counting_body(calls, "local"), None)
        future, owner = tier.run("k", lambda: "unused")
        assert not owner and not future.done()
        executor.release(value="remote")
        assert future.result(timeout=0) == "remote"
        assert calls == []


class TestEnqueue:
    def test_batch_twins_and_in_flight_jobs_share_one_dispatch(self):
        executor = _HeldExecutor()
        tier = JobTier(executor)
        calls, local = [], {}
        first, owner = tier.enqueue("k", _counting_body(calls, 1), None, local=local)
        twin, twin_owner = tier.enqueue("k", _counting_body(calls, 2), None, local=local)
        joiner, joiner_owner = tier.enqueue("k", _counting_body(calls, 3), None)
        assert owner and not twin_owner and not joiner_owner
        assert twin is first and joiner is first
        assert len(executor.jobs) == 1
        executor.release()
        assert first.result(timeout=0) == 1 and calls == ["k"]
        assert "k" not in tier._inflight

    def test_a_failed_dispatch_settles_the_future_and_frees_the_key(self):
        tier = JobTier(_HeldExecutor(fail=True))
        with pytest.raises(RuntimeError, match="backend is down"):
            tier.enqueue("k", _counting_body([], 1), None)
        assert not tier._inflight and not tier._unstarted

    def test_absorb_sees_the_result_before_the_key_is_released(self):
        seen = []
        executor = _HeldExecutor(remote=True)

        def absorb(done):
            seen.append(("k" in tier._inflight, done.result()))

        tier = JobTier(executor, absorb=absorb)
        tier.enqueue("k", _counting_body([], None), None)
        executor.release(value="result")
        assert seen == [(True, "result")]
        assert "k" not in tier._inflight


class TestAdmission:
    @staticmethod
    def _saturated(overflow: str = "shed"):
        """A width-1 tier with one job dispatched and one waiting (bound 1)."""
        executor = _HeldExecutor(workers=1)
        tier = JobTier(executor, max_pending=1, overflow=overflow)
        running, _ = tier.enqueue("a", _counting_body([], "a"), None)
        waiting, _ = tier.enqueue("b", _counting_body([], "b"), None)
        assert len(executor.jobs) == 1 and not waiting.done()
        return executor, tier, running, waiting

    def test_a_shed_job_raises_and_emits_queue_shed(self):
        _, tier, _, _ = self._saturated()
        log = get_event_log()
        log.clear()
        with pytest.raises(QueueFullError):
            tier.enqueue("c", _counting_body([], "c"), None, client="alice")
        events = log.recent("queue.shed")
        log.clear()
        assert [(e["identity"], e["fingerprint"]) for e in events] == [("alice", "c")]
        assert "c" not in tier._inflight
        assert tier.admission_stats()["rejected_total"] == 1

    def test_a_freed_slot_dispatches_the_waiting_job(self):
        executor, _, running, waiting = self._saturated()
        executor.release(0)
        assert running.result(timeout=0) == "a"
        executor.release(1)
        assert waiting.result(timeout=0) == "b"

    def test_cancel_pending_settles_waiting_jobs(self):
        _, tier, running, waiting = self._saturated()
        tier.cancel_pending()
        assert isinstance(waiting.exception(timeout=0), CancelledError)
        assert "b" not in tier._inflight
        assert not running.done()

    def test_ungated_jobs_bypass_the_queue(self):
        executor, tier, _, _ = self._saturated()
        admitted = tier.admission_stats()["admitted_total"]
        tier.enqueue("speculative", _counting_body([], None), None, gate=False)
        assert len(executor.jobs) == 2
        assert tier.admission_stats()["admitted_total"] == admitted

    def test_bounded_and_unbounded_stats_share_one_schema(self):
        unbounded = JobTier(_HeldExecutor()).admission_stats()
        bounded = JobTier(_HeldExecutor(), max_pending=4).admission_stats()
        assert unbounded.keys() == bounded.keys()
        assert unbounded["max_pending"] is None and bounded["max_pending"] == 4

    def test_unknown_overflow_policy_rejected(self):
        with pytest.raises(ValueError, match="overflow"):
            JobTier(_HeldExecutor(), overflow="drop")


def test_mixed_run_and_enqueue_settle_every_future_once(caplog):
    """Callers racing ``run`` (which may run a queued job in place) against
    ``enqueue`` on a few keys: every future settles exactly once with its
    key's value, and no key ever executes twice at the same time."""
    executor = ThreadExecutor(2)
    tier = JobTier(executor)
    lock = threading.Lock()
    active: dict[str, int] = {}
    overlaps: list[str] = []
    wrong: list[tuple[str, object]] = []

    def body(key):
        with lock:
            active[key] = active.get(key, 0) + 1
            if active[key] > 1:
                overlaps.append(key)
        time.sleep(0.0002)
        with lock:
            active[key] -= 1
        return key

    def caller(seed):
        rng = random.Random(seed)
        for _ in range(150):
            key = rng.choice("abcd")
            if rng.random() < 0.5:
                future, _ = tier.run(key, lambda key=key: body(key))
            else:
                future, _ = tier.enqueue(key, lambda _t, k: body(k), None)
            value = future.result(timeout=10)
            if value != key:
                wrong.append((key, value))

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    caplog.set_level(logging.ERROR, logger="concurrent.futures")
    try:
        threads = [threading.Thread(target=caller, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(previous)
        executor.shutdown()
    assert not overlaps
    assert not wrong
    assert not caplog.records  # no callback tried to settle a settled future
    assert not tier._inflight and not tier._unstarted
