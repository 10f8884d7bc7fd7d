"""Pluggable execution backends for the compile engine.

Stability: public.

:class:`repro.service.engine.CompileEngine` fans batch and async submissions
out over an :class:`ExecutorBackend`.  The interchangeable backends are
selected with ``CompileEngine(executor=...)`` or the ``REPRO_EXECUTOR``
environment variable:

``inline``
    Runs every job synchronously on the submitting thread.  Deterministic
    ordering and zero concurrency — the backend for tests and debugging.
``thread``
    A lazily-created :class:`~concurrent.futures.ThreadPoolExecutor` (the
    historical behaviour, and the default).  Independent solves overlap on
    multi-core hosts when the HiGHS backend releases the GIL.
``process``
    A lazily-created :class:`~concurrent.futures.ProcessPoolExecutor`.  Jobs
    cross the process boundary as *wire payloads*
    (:func:`repro.service.jobs.execute_wire_job`): the target ships as
    :func:`repro.service.wire.target_to_wire` output and the full result
    returns as :func:`repro.service.wire.full_result_to_wire` output — plain
    dictionaries, never pickled closures.  This parallelizes the pure-Python
    branch-and-bound/simplex fallback too, which the thread backend cannot
    (it serializes on the GIL whenever HiGHS is unavailable).  Workers share
    the engine's disk cache volume when one is configured, so what one
    process solves every process loads warm.
``thread:auto`` / ``process:auto``
    An :class:`AutoscalingExecutor` over single-worker thread/process
    backends: the fleet starts empty, grows one worker at a time toward
    ``max_workers`` whenever a job arrives and no worker is idle, and
    retires workers that stay idle past ``idle_seconds`` (never below
    ``min_workers``).  Scaling decisions are counted and surfaced through
    :meth:`ExecutorBackend.stats` — the HTTP front republishes them on
    ``GET /v1/metrics`` — so a fleet sized for peak load sheds its idle
    processes between bursts instead of pinning memory forever.

All backends present one interface: ``submit(run_local, target, fingerprint)``
returning a :class:`concurrent.futures.Future` that resolves to a
:class:`repro.service.jobs.CompileResult`.  ``run_local`` is the engine's
in-process job body; the process backend ignores it and ships the wire
payload instead.  Futures from every backend work with
:func:`asyncio.wrap_future`, so the engine's asyncio front is backend-neutral.
"""

from __future__ import annotations

import abc
import multiprocessing
import os
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Future, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable

from repro.api.target import CompileTarget
from repro.service.events import emit_event
from repro.service.jobs import CompileResult, execute_wire_job


def relay_future(source: Future, destination: Future) -> None:
    """Copy a settled future's outcome onto another (already-running) future.

    Cancellation arrives as a ``CancelledError`` *exception* on the
    destination — it was marked running at publication so joiners' ``cancel()``
    calls are no-ops, and ``asyncio.wrap_future`` surfaces the exception as a
    normal await-side ``CancelledError``.
    """
    if source.cancelled():
        destination.set_exception(CancelledError())
        return
    exc = source.exception()
    if exc is not None:
        destination.set_exception(exc)
        return
    destination.set_result(source.result())

#: Environment variable that selects the default backend for engines that are
#: constructed without an explicit ``executor=`` argument.
EXECUTOR_ENV_VAR = "REPRO_EXECUTOR"

#: Environment variable that overrides the default worker count (shared with
#: :func:`repro.service.engine.default_worker_count`).
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Valid backend names, in documentation order.  The ``:auto`` variants wrap
#: the base backend in an :class:`AutoscalingExecutor`.
EXECUTOR_NAMES = ("inline", "thread", "process", "thread:auto", "process:auto")

#: Base backends the autoscaler can manage.
AUTOSCALABLE_MODES = ("thread", "process")

#: Default idle time, in seconds, before the autoscaler retires a worker.
DEFAULT_IDLE_SECONDS = 30.0

#: Backend used when neither ``executor=`` nor ``REPRO_EXECUTOR`` is given.
DEFAULT_EXECUTOR = "thread"


def validate_worker_count(value, *, source: str = "workers") -> int:
    """Check a worker-count setting, rejecting garbage with a clear error.

    ``REPRO_WORKERS=0``, negative counts and non-integers used to slip
    through to the pool constructor (or be silently ignored); every entry
    point now funnels through this check and raises :class:`ValueError`
    naming the offending setting instead.
    """
    try:
        workers = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            f"{source} must be a positive integer, got {value!r}"
        ) from None
    if workers != value and not isinstance(value, str):
        # int() would silently truncate e.g. 2.5 workers; refuse instead.
        raise ValueError(f"{source} must be a positive integer, got {value!r}")
    if workers < 1:
        raise ValueError(f"{source} must be >= 1, got {workers}")
    return workers


def default_executor_name() -> str:
    """Backend name used when the caller does not specify one.

    ``REPRO_EXECUTOR``, when set, must name a known backend; anything else
    raises :class:`ValueError` (misspelling a deployment knob should fail
    loudly, not silently serialize a fleet onto the wrong backend).
    """
    override = os.environ.get(EXECUTOR_ENV_VAR, "").strip().lower()
    if not override:
        return DEFAULT_EXECUTOR
    if override not in EXECUTOR_NAMES:
        raise ValueError(
            f"Invalid {EXECUTOR_ENV_VAR}={override!r}; expected one of {EXECUTOR_NAMES}"
        )
    return override


class ExecutorBackend(abc.ABC):
    """How compile jobs run: inline, on a thread pool, or on a process pool.

    Backends are lazy (no pool exists until the first job) and reusable after
    :meth:`shutdown` (the next job recreates the pool), mirroring the
    engine's historical lifecycle.
    """

    #: Backend name as used by ``CompileEngine(executor=...)``.
    name: str = "?"

    #: Whether jobs run outside the engine's process (results arrive as
    #: decoded wire payloads and the engine adopts them into its own cache).
    remote: bool = False

    def __init__(self, workers: int = 1) -> None:
        self.workers = validate_worker_count(workers)

    @abc.abstractmethod
    def submit(
        self,
        run_local: Callable[[CompileTarget, str], CompileResult],
        target: CompileTarget,
        fingerprint: str,
    ) -> "Future[CompileResult]":
        """Queue one job; the future resolves to its :class:`CompileResult`."""

    def shutdown(self, wait: bool = True, *, cancel_pending: bool = False) -> None:
        """Release pool resources (a later submit transparently recreates them)."""

    def stats(self) -> dict:
        """Operational snapshot for metrics endpoints.

        Fixed-size backends report their configured fleet; the autoscaler
        overrides this with live worker counts and scaling counters.  Keys
        are stable across backends so ``/v1/metrics`` has one schema.
        """
        return {
            "executor": self.name,
            "workers": self.workers,
            "max_workers": self.workers,
            "executor_queue_depth": 0,
            "scale_ups": 0,
            "scale_downs": 0,
        }

    def describe(self) -> str:
        return f"{self.name}(workers={self.workers})"


class InlineExecutor(ExecutorBackend):
    """Run every job synchronously on the submitting thread.

    Batches execute strictly in submission order with no concurrency — the
    deterministic backend for tests, debugging and single-core deployments.
    """

    name = "inline"

    def __init__(self, workers: int = 1) -> None:
        super().__init__(workers)

    def submit(self, run_local, target, fingerprint):
        future: Future = Future()
        future.set_running_or_notify_cancel()
        try:
            future.set_result(run_local(target, fingerprint))
        except BaseException as exc:  # run_local captures compile errors;
            future.set_exception(exc)  # anything escaping is fatal — carry it
        return future


class ThreadExecutor(ExecutorBackend):
    """Fan jobs out over a lazily-created thread pool (the default)."""

    name = "thread"

    def __init__(self, workers: int) -> None:
        super().__init__(workers)
        self._pool: ThreadPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.workers, thread_name_prefix="repro-compile"
                )
            return self._pool

    def submit(self, run_local, target, fingerprint):
        return self._ensure_pool().submit(run_local, target, fingerprint)

    def shutdown(self, wait: bool = True, *, cancel_pending: bool = False) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=cancel_pending)


def _main_module_is_importable() -> bool:
    """Whether spawn-style child preparation can re-create ``__main__``.

    Fresh-interpreter start methods re-import the parent's main module; a
    REPL, ``python - <<EOF`` or ``python -c`` parent has no main module on
    disk, so their child workers would die with ``FileNotFoundError`` before
    running a single job.
    """
    import sys

    main = sys.modules.get("__main__")
    if main is None:
        return False
    if getattr(getattr(main, "__spec__", None), "name", None) is not None:
        return True  # started via -m; re-importable by module name
    main_path = getattr(main, "__file__", None)
    return main_path is not None and os.path.exists(main_path)


def _process_pool_context():
    """Start method for compile worker processes.

    Avoid bare ``fork`` from real programs: the pool is created lazily,
    typically in an already-multithreaded parent (HTTP handler threads,
    batch submitters), and forking a multithreaded process can deadlock the
    child on locks copied mid-acquisition (CPython deprecates exactly this).
    ``forkserver`` keeps near-fork startup cost by forking from a clean
    single-threaded server process (preloaded with the worker module);
    platforms without it fall back to ``spawn``.  Both require the parent's
    main module to be re-importable — interactive parents (REPL, piped
    stdin) have none, so those keep classic ``fork``, which is safe there:
    an interactive session is effectively single-threaded.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods and not _main_module_is_importable():
        if threading.active_count() > 1:
            import warnings

            warnings.warn(
                "Creating a process-backend pool via fork from a parent that "
                "is both interactive (no importable __main__) and "
                "multithreaded; forked workers may deadlock on inherited "
                "locks. Run the program as a script or module (python file.py"
                " / python -m ...) to get the forkserver start method.",
                RuntimeWarning,
                stacklevel=4,
            )
        return multiprocessing.get_context("fork")
    if "forkserver" in methods:
        context = multiprocessing.get_context("forkserver")
        context.set_forkserver_preload(["repro.service.jobs"])
        return context
    return multiprocessing.get_context("spawn")


class ProcessExecutor(ExecutorBackend):
    """Fan jobs out over worker processes, talking wire payloads.

    ``cache_dir`` (when the engine has a disk cache tier) is forwarded, with
    its GC bounds, to every job so workers persist their solves to the
    shared volume — and keep it within its ``max_bytes``/``max_age_seconds``
    budget; the parent additionally adopts returned schedules into its
    in-memory LRU.
    """

    name = "process"
    remote = True

    def __init__(
        self,
        workers: int,
        *,
        cache_dir: str | None = None,
        cache_max_bytes: int | None = None,
        cache_max_age_seconds: float | None = None,
    ) -> None:
        super().__init__(workers)
        self.cache_dir = cache_dir
        self.cache_max_bytes = cache_max_bytes
        self.cache_max_age_seconds = cache_max_age_seconds
        self._pool: ProcessPoolExecutor | None = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=_process_pool_context()
                )
            return self._pool

    def submit(self, run_local, target, fingerprint):
        # Encode on the submitting side: a target that cannot be expressed on
        # the wire must fail the submitter, not poison a worker.
        from repro.service.wire import target_to_wire

        payload = target_to_wire(target)
        worker_future = self._ensure_pool().submit(
            execute_wire_job,
            payload,
            self.cache_dir,
            self.cache_max_bytes,
            self.cache_max_age_seconds,
        )
        # The caller-visible future resolves to the *decoded* CompileResult,
        # re-attached to the submitter's own target object.  Marked running
        # up front so a joiner's cancel() cannot flip it into a state where
        # delivery raises InvalidStateError (same invariant as inline submit).
        delivered: Future = Future()
        delivered.set_running_or_notify_cancel()
        worker_future.add_done_callback(
            lambda done, target=target: self._deliver(done, delivered, target)
        )
        return delivered

    @staticmethod
    def _deliver(worker_future: Future, delivered: Future, target: CompileTarget) -> None:
        from repro.service.wire import full_result_from_wire

        if worker_future.cancelled():
            delivered.set_exception(CancelledError())
            return
        exc = worker_future.exception()
        if exc is not None:
            delivered.set_exception(exc)
            return
        try:
            delivered.set_result(full_result_from_wire(worker_future.result(), target))
        except BaseException as decode_error:  # undecodable worker payload
            delivered.set_exception(decode_error)

    def shutdown(self, wait: bool = True, *, cancel_pending: bool = False) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=wait, cancel_futures=cancel_pending)


class _AutoWorker:
    """One managed worker slot: a single-worker backend, its jobs and idle stamp."""

    __slots__ = ("backend", "idle_since", "in_flight")

    def __init__(self, backend: ExecutorBackend) -> None:
        self.backend = backend
        self.idle_since = 0.0
        self.in_flight = 0


class AutoscalingExecutor(ExecutorBackend):
    """Demand-driven worker fleet over single-worker thread/process backends.

    Jobs are dispatched to an idle worker when one exists; otherwise the
    fleet grows by one (up to ``max_workers``, each scale-up counted and
    logged to the event ring) and, at the ceiling, jobs queue internally.  A
    process worker may hold one of those jobs queued behind the one it runs,
    so it does not idle while a result crosses back to the parent; it takes
    one only while the backlog holds a job for every busy worker.  A
    worker that finishes takes the oldest queued job or goes idle; workers
    idle longer than ``idle_seconds`` are retired down to ``min_workers`` —
    lazily on the next submission, and by a daemon timer when traffic stops
    entirely, so a quiet service really does shrink.

    ``mode="process"`` fleets are *remote* exactly like the fixed
    :class:`ProcessExecutor` (jobs cross as wire payloads, workers share the
    engine's disk-cache volume); ``mode="thread"`` fleets stay in-process.
    The ``clock`` parameter exists for deterministic idle-expiry tests.
    """

    def __init__(
        self,
        max_workers: int,
        *,
        mode: str = "process",
        min_workers: int = 0,
        idle_seconds: float = DEFAULT_IDLE_SECONDS,
        cache_dir: str | None = None,
        cache_max_bytes: int | None = None,
        cache_max_age_seconds: float | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(max_workers)
        if mode not in AUTOSCALABLE_MODES:
            raise ValueError(f"mode must be one of {AUTOSCALABLE_MODES}, got {mode!r}")
        if not 0 <= min_workers <= max_workers:
            raise ValueError(
                f"min_workers must be in [0, max_workers], got {min_workers}"
            )
        if idle_seconds <= 0:
            raise ValueError(f"idle_seconds must be > 0, got {idle_seconds}")
        self.mode = mode
        self.name = f"{mode}:auto"
        self.remote = mode == "process"
        self.min_workers = int(min_workers)
        self.idle_seconds = float(idle_seconds)
        self.cache_dir = cache_dir
        self.cache_max_bytes = cache_max_bytes
        self.cache_max_age_seconds = cache_max_age_seconds
        self._clock = clock
        self._cond = threading.Condition()
        self._idle: list[_AutoWorker] = []
        self._busy: set[_AutoWorker] = set()
        self._backlog: deque[tuple] = deque()
        self._scale_ups = 0
        self._scale_downs = 0
        self._events: deque[dict] = deque(maxlen=32)
        self._reap_timer: threading.Timer | None = None
        self._depth = 2 if self.remote else 1

    # ------------------------------------------------------------- lifecycle
    def _spawn_locked(self) -> _AutoWorker:
        if self.mode == "thread":
            backend: ExecutorBackend = ThreadExecutor(1)
        else:
            backend = ProcessExecutor(
                1,
                cache_dir=self.cache_dir,
                cache_max_bytes=self.cache_max_bytes,
                cache_max_age_seconds=self.cache_max_age_seconds,
            )
        worker = _AutoWorker(backend)
        self._scale_ups += 1
        workers = len(self._idle) + len(self._busy) + 1
        self._events.append({"action": "grow", "workers": workers, "at": self._clock()})
        emit_event("autoscaler.grow", executor=self.name, workers=workers)
        return worker

    @property
    def current_workers(self) -> int:
        with self._cond:
            return len(self._idle) + len(self._busy)

    # ----------------------------------------------------------------- submit
    def submit(self, run_local, target, fingerprint):
        placeholder: Future = Future()
        placeholder.set_running_or_notify_cancel()
        worker: _AutoWorker | None = None
        job = (run_local, target, fingerprint, placeholder)
        with self._cond:
            retired = self._reap_locked()
            if self._idle:
                # Reuse the *newest* idle worker (LIFO): the hot worker keeps
                # absorbing a light trickle while the oldest — at the front,
                # where the reaper scans — ages toward retirement.  FIFO reuse
                # would refresh every idle stamp round-robin and a fleet sized
                # for a burst would never scale down.
                worker = self._idle.pop()
                self._busy.add(worker)
            elif len(self._idle) + len(self._busy) < self.workers:
                worker = self._spawn_locked()
                self._busy.add(worker)
            else:
                self._backlog.append(job)
                worker, job = self._prefetch_locked()
            if worker is not None:
                worker.in_flight += 1
        for expired in retired:
            expired.backend.shutdown(wait=False)
        if worker is not None:
            self._dispatch(worker, *job)
        return placeholder

    def _dispatch(self, worker, run_local, target, fingerprint, placeholder) -> None:
        try:
            inner = worker.backend.submit(run_local, target, fingerprint)
        except BaseException as exc:
            placeholder.set_exception(exc)
            self._release(worker)
            return
        inner.add_done_callback(
            lambda done, w=worker, out=placeholder: self._finish(w, done, out)
        )

    def _finish(self, worker: _AutoWorker, inner: Future, placeholder: Future) -> None:
        relay_future(inner, placeholder)
        self._release(worker)

    def _release(self, worker: _AutoWorker) -> None:
        job = None
        with self._cond:
            if worker not in self._busy:
                return  # shutdown already removed it
            worker.in_flight -= 1
            if worker.in_flight:
                job = self._prefetch_locked(worker)[1]
            elif self._backlog:
                job = self._backlog.popleft()
            else:
                self._busy.discard(worker)
                worker.idle_since = self._clock()
                # Append: the list stays ordered oldest-idle first, so the
                # reaper scans from the front and submit pops the newest from
                # the back.
                self._idle.append(worker)
                self._schedule_reap_locked()
            if job is not None:
                worker.in_flight += 1
            self._cond.notify_all()
        if job is not None:
            self._dispatch(worker, *job)

    def _prefetch_locked(self, worker: _AutoWorker | None = None):
        """``(worker, job)``: the oldest backlog job, queued behind a running one.

        Only for process workers, and only while the backlog holds a job for
        every busy worker, so a worker that comes free still finds one there;
        otherwise ``(None, None)``.
        """
        if len(self._backlog) < len(self._busy):
            return None, None
        if worker is None:
            worker = min(self._busy, key=lambda w: w.in_flight)
        if worker.in_flight >= self._depth:
            return None, None
        return worker, self._backlog.popleft()

    # ---------------------------------------------------------------- reaping
    def _reap_locked(self) -> list[_AutoWorker]:
        now = self._clock()
        retired: list[_AutoWorker] = []
        total = len(self._idle) + len(self._busy)
        keep: list[_AutoWorker] = []
        for worker in self._idle:  # oldest idle first
            if total > self.min_workers and now - worker.idle_since >= self.idle_seconds:
                retired.append(worker)
                total -= 1
            else:
                keep.append(worker)
        if retired:
            self._idle = keep
            for _ in retired:
                self._scale_downs += 1
            self._events.append({"action": "shrink", "workers": total, "at": now})
            emit_event("autoscaler.shrink", executor=self.name, workers=total)
        return retired

    def _schedule_reap_locked(self) -> None:
        if self._reap_timer is not None and self._reap_timer.is_alive():
            return
        timer = threading.Timer(self.idle_seconds + 0.05, self.reap)
        timer.daemon = True
        self._reap_timer = timer
        timer.start()

    def reap(self) -> int:
        """Retire workers idle past ``idle_seconds``; returns how many.

        Called lazily on every submission and by the idle timer; tests with
        an injected ``clock`` call it directly after advancing time.
        """
        with self._cond:
            retired = self._reap_locked()
            if self._idle:  # still-idle workers may expire later
                self._schedule_reap_locked()
        for worker in retired:
            worker.backend.shutdown(wait=False)
        return len(retired)

    # ------------------------------------------------------------- inspection
    def stats(self) -> dict:
        with self._cond:
            return {
                "executor": self.name,
                "workers": len(self._idle) + len(self._busy),
                "max_workers": self.workers,
                "min_workers": self.min_workers,
                "busy_workers": len(self._busy),
                "executor_queue_depth": len(self._backlog)
                + sum(worker.in_flight - 1 for worker in self._busy),
                "scale_ups": self._scale_ups,
                "scale_downs": self._scale_downs,
                "scaling_events": list(self._events),
            }

    def describe(self) -> str:
        stats = self.stats()
        return (
            f"{self.name}(workers={stats['workers']}/{self.workers}, "
            f"scale_ups={stats['scale_ups']}, scale_downs={stats['scale_downs']})"
        )

    # --------------------------------------------------------------- shutdown
    def shutdown(self, wait: bool = True, *, cancel_pending: bool = False) -> None:
        with self._cond:
            if self._reap_timer is not None:
                self._reap_timer.cancel()
                self._reap_timer = None
            if cancel_pending or not wait:
                dropped = list(self._backlog)
                self._backlog.clear()
            else:
                dropped = []
                while self._backlog or self._busy:
                    self._cond.wait()
            workers = self._idle + list(self._busy)
            self._idle = []
            self._busy = set()
        for _, _, _, placeholder in dropped:
            placeholder.set_exception(CancelledError())
        for worker in workers:
            worker.backend.shutdown(wait=wait, cancel_pending=cancel_pending)


def resolve_executor(
    executor: str | ExecutorBackend | None,
    *,
    workers: int,
    cache_dir: str | None = None,
    cache_max_bytes: int | None = None,
    cache_max_age_seconds: float | None = None,
) -> ExecutorBackend:
    """Turn an ``executor=`` argument into a live backend.

    ``None`` consults ``REPRO_EXECUTOR`` and falls back to ``"thread"``; a
    string must be one of :data:`EXECUTOR_NAMES` (``"thread:auto"`` /
    ``"process:auto"`` build an :class:`AutoscalingExecutor` whose fleet
    grows toward ``workers``); a ready-made :class:`ExecutorBackend`
    instance is used as-is (its own worker count and cache configuration
    win — sharing one backend between engines is allowed, and constructing
    an ``AutoscalingExecutor`` directly exposes the ``min_workers`` /
    ``idle_seconds`` knobs the string form defaults).
    """
    if isinstance(executor, ExecutorBackend):
        return executor
    name = executor if executor is not None else default_executor_name()
    if name == "inline":
        return InlineExecutor()
    if name == "thread":
        return ThreadExecutor(workers)
    if name == "process":
        return ProcessExecutor(
            workers,
            cache_dir=cache_dir,
            cache_max_bytes=cache_max_bytes,
            cache_max_age_seconds=cache_max_age_seconds,
        )
    if name in ("thread:auto", "process:auto"):
        return AutoscalingExecutor(
            workers,
            mode=name.split(":", 1)[0],
            cache_dir=cache_dir,
            cache_max_bytes=cache_max_bytes,
            cache_max_age_seconds=cache_max_age_seconds,
        )
    raise ValueError(f"Unknown executor {executor!r}; expected one of {EXECUTOR_NAMES}")
