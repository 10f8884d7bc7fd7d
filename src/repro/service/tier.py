"""The job tier shared by the compile and verify engines.

Stability: internal.

:class:`~repro.service.engine.CompileEngine` and
:class:`~repro.service.verify.VerifyEngine` each serve jobs through one
:class:`JobTier`.  The tier owns the serving chain between an engine's own
cache and its executor backend:

* the **in-flight table** — a job whose key is already running is joined,
  not run twice, whichever entry point published it;
* the optional bounded :class:`~repro.service.admission.AdmissionQueue`
  (``max_pending``/``overflow``), which dispatches at most ``workers`` jobs
  at a time and sheds or blocks beyond the bound, emitting ``queue.shed``
  events for sheds;
* **dispatch** to the :class:`~repro.service.executor.ExecutorBackend`,
  directly or deferred through the queue, and settling the published future
  when a dispatch fails or a queued job is cancelled, so no joiner ever
  waits on a future nothing will resolve.

Two entry points share the table.  :meth:`JobTier.run` executes the job on
the calling thread (warm compile hits pay no thread hop, and a verify body
compiles in place instead of queueing behind itself).  :meth:`JobTier.enqueue`
hands the job to the backend, deduplicating against a batch-local dict as
well; ``gate=False`` bypasses the admission queue for engine-initiated work.
A :meth:`~JobTier.run` caller that joins an in-process job no worker has
started yet runs that job itself rather than waiting: it may hold the very
executor slot the job is queued behind.  Caches stay with the engines: the
tier neither stores results nor knows what a job computes.
"""

from __future__ import annotations

import threading
from concurrent.futures import CancelledError, Future
from typing import Callable

from repro.service.admission import OVERFLOW_POLICIES, AdmissionQueue, QueueFullError
from repro.service.events import emit_event
from repro.service.executor import ExecutorBackend, relay_future


class _Job:
    """One enqueued job and who took it: ``"worker"`` (the backend started
    it), ``"caller"`` (a :meth:`JobTier.run` caller ran it in place) or
    ``"dispatch"`` (submission failed, was shed or was cancelled).  Exactly
    one party takes a job, and only that party settles its future."""

    __slots__ = ("body", "taken_by")

    def __init__(self, body: Callable[[], object]) -> None:
        self.body = body
        self.taken_by: str | None = None


class JobTier:
    """In-flight dedup, admission and dispatch for one engine's jobs.

    Parameters
    ----------
    executor:
        The backend :meth:`enqueue` dispatches to.
    max_pending / overflow:
        Admission bound and policy; ``max_pending=None`` disables the queue.
    retry_after:
        Seconds a shed client should wait (the engine's mean solve time).
    absorb:
        Optional callback run on every settled :meth:`enqueue` future before
        its key leaves the in-flight table (the compile engine adopts remote
        results into its memory tier here, so no submit falls between the
        two).
    """

    def __init__(
        self,
        executor: ExecutorBackend,
        *,
        max_pending: int | None = None,
        overflow: str = "shed",
        retry_after: Callable[[], float] | None = None,
        absorb: Callable[[Future], None] | None = None,
    ) -> None:
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(f"overflow must be one of {OVERFLOW_POLICIES}, got {overflow!r}")
        self.executor = executor
        self.overflow = overflow
        self._admission = (
            None
            if max_pending is None
            else AdmissionQueue(
                executor.workers,
                max_pending=max_pending,
                policy=overflow,
                retry_after=retry_after,
            )
        )
        self._absorb = absorb
        self._inflight: dict[str, Future] = {}
        #: In-process enqueued jobs nobody has taken yet.
        self._unstarted: dict[str, _Job] = {}
        self._lock = threading.Lock()

    @property
    def gated(self) -> bool:
        """Whether cold jobs must leave the calling thread (queue or remote)."""
        return self._admission is not None or self.executor.remote

    @property
    def blocking(self) -> bool:
        """Whether a full queue makes :meth:`enqueue` wait for space."""
        return self._admission is not None and self.overflow == "block"

    # ------------------------------------------------------------ entry points
    def run(self, key: str, body: Callable[[], object]) -> tuple[Future, bool]:
        """Run ``body`` on the calling thread unless ``key`` is in flight.

        Returns ``(future, owner)``.  The owner's future is already settled
        with ``body``'s result or exception; a joiner's future settles when
        the running job does, which is right away if the job had not started
        on a worker yet (the joiner runs it).  Never admission-gated.
        """
        with self._lock:
            future = self._inflight.get(key)
            owner = future is None
            if owner:
                future = self._publish_locked(key)
            else:
                job = self._unstarted.pop(key, None)
                if job is None:
                    return future, False
                job.taken_by = "caller"
                body = job.body
        try:
            future.set_result(body())
        except BaseException as exc:
            future.set_exception(exc)
        finally:
            if owner:
                self._release(key)
        return future, owner

    def enqueue(
        self,
        key: str,
        run_local: Callable,
        target,
        *,
        local: dict[str, Future] | None = None,
        client: str = "",
        gate: bool = True,
    ) -> tuple[Future, bool]:
        """Dispatch ``run_local(target, key)`` to the backend; ``(future, owner)``.

        Deduplicates against ``local`` (one batch's own twins, when given)
        and the in-flight table.  The owner's future is a placeholder the
        backend's future relays into, so the executor submission happens
        outside the tier lock.  With an admission queue (and ``gate``), the
        dispatch is deferred through it under the ``client`` identity; a shed
        settles the placeholder with :class:`QueueFullError` (joiners observe
        the same rejection) and re-raises it here.
        """
        future = local.get(key) if local is not None else None
        if future is not None:
            return future, False
        with self._lock:
            future = self._inflight.get(key)
            owner = future is None
            if owner:
                future = self._publish_locked(key)
                job = _Job(lambda: run_local(target, key))
                if not self.executor.remote:  # a remote job cannot run here
                    self._unstarted[key] = job
        if owner:
            if self._absorb is not None:
                future.add_done_callback(self._absorb)
            future.add_done_callback(lambda _done: self._release(key))

            def task(target_, key_):
                return run_local(target_, key_) if self._take(key, job, "worker") else None

            def relay(done: Future) -> None:
                if job.taken_by == "worker" or self._take(key, job, "dispatch"):
                    relay_future(done, future)

            def fail(exc: BaseException) -> None:
                if self._take(key, job, "dispatch"):
                    future.set_exception(exc)

            def dispatch() -> Future | None:
                try:
                    inner = self.executor.submit(task, target, key)
                except BaseException as exc:
                    fail(exc)
                    return None
                inner.add_done_callback(relay)
                return inner

            if self._admission is None or not gate:
                if dispatch() is None:
                    future.result()  # re-raise the submission failure
            else:
                try:
                    self._admission.submit(
                        dispatch, client=client, on_cancel=lambda: fail(CancelledError())
                    )
                except BaseException as exc:  # QueueFullError, or a broken queue
                    fail(exc)
                    if isinstance(exc, QueueFullError):
                        emit_event(
                            "queue.shed",
                            identity=client,
                            fingerprint=key,
                            retry_after=round(exc.retry_after, 3),
                        )
                    raise
        if local is not None:
            local[key] = future
        return future, owner

    # --------------------------------------------------------------- internals
    def _publish_locked(self, key: str) -> Future:
        # Marked running before publication: a joiner whose asyncio wrapper
        # is cancelled would otherwise cancel() the pending future and make
        # the owner's set_result() raise.
        future = self._inflight[key] = Future()
        future.set_running_or_notify_cancel()
        return future

    def _take(self, key: str, job: _Job, taker: str) -> bool:
        with self._lock:
            if job.taken_by is not None:
                return False
            job.taken_by = taker
            if self._unstarted.get(key) is job:
                del self._unstarted[key]
            return True

    def _release(self, key: str) -> None:
        with self._lock:
            self._inflight.pop(key, None)

    # ---------------------------------------------------------------- control
    def cancel_pending(self) -> None:
        """Drop queued-but-undispatched jobs; their futures get ``CancelledError``."""
        if self._admission is not None:
            self._admission.cancel_pending()

    def admission_stats(self) -> dict:
        """Admission-queue snapshot; the same schema, zeroed, when unbounded."""
        if self._admission is not None:
            return self._admission.stats()
        return {
            "max_pending": None,
            "overflow": self.overflow,
            "queue_depth": 0,
            "inflight": 0,
            "admitted_total": 0,
            "rejected_total": 0,
            "blocked_total": 0,
            "queued_clients": 0,
        }
