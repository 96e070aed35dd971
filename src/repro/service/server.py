"""The asyncio analysis service: job scheduling, sharding, streaming.

:class:`AnalysisService` is the in-process core -- an asyncio job
engine over a worker executor:

- **Submission** is non-blocking: :meth:`AnalysisService.submit`
  enqueues a :class:`~repro.service.jobs.JobRequest` and returns its
  :class:`~repro.service.jobs.JobRecord` immediately; a bounded
  semaphore caps simultaneously *running* jobs.
- **Shared-memory model cache**: the first job touching a geometry
  extracts it (in a worker) and publishes the parasitics into the
  :class:`~repro.service.shm.SharedParasiticsStore`; every later job
  -- and every simulation shard -- attaches zero-copy.  Extraction is
  single-flighted per geometry key, so a burst of identical requests
  costs one extraction.
- **One tiered plan for noise and sweep jobs** (screen -> group ->
  simulate -> assemble, see :meth:`AnalysisService._execute_plan`):
  a noise job screens as one work item, then partitions the escalated
  victims across the pool
  (:func:`~repro.service.workers.shard_alignments`), every shard
  simulating against the same global horizon so the merged report is
  bit-identical to the one-shot scan.  A sweep job carries a whole
  design-space grid (:class:`~repro.noise.sweep.SweepGrid`): scenarios
  screen in grid order with one streamed progress event each, each
  compatibility group simulates as one work item, and the merged
  :class:`~repro.noise.sweep.SweepReport` payload is checksum-identical
  to ``repro noise sweep``.
- **Result memo**: finished results are memoized by request content
  key -- a repeated request is answered from memory with its original
  checksum.
- **Cancellation and timeouts**: cancel flags are honored at stage
  boundaries (queued, pre-extract, post-screen, around shard
  dispatch); each job runs under ``asyncio.wait_for`` with a per-job
  or service-default timeout.  Worker failures surface through the
  :mod:`repro.health` taxonomy: the typed exception's class name is
  reported in the job's ``error["kind"]``.

:class:`ServiceServer` wraps the core in a JSON-lines TCP protocol
(one request object per line, streamed event objects per line back),
and :func:`serve` is the blocking entry point behind ``repro serve``.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field, replace
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, AsyncIterator, Dict, List, Optional, Tuple

from repro.extraction.capacitance import CapacitanceModel
from repro.extraction.constants import COPPER_RESISTIVITY
from repro.health.errors import NumericalHealthError
from repro.noise.engine import assemble_report
from repro.noise.sweep import (
    SweepReport,
    assemble_sweep_results,
    group_unresolved,
)
from repro.pipeline.cache import parasitics_key
from repro.pipeline.parallel import default_jobs
from repro.service import workers as _workers
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    TIMEOUT,
    JobCancelledError,
    JobRecord,
    JobRequest,
)
from repro.service.shm import SharedParasiticsStore

#: Protocol version reported by ``hello`` / ``stats``.
PROTOCOL_VERSION = 1


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one service instance."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Worker processes.  ``None`` uses the CPU count; ``<= 1`` runs
    #: work items on threads in-process (no pool start-up cost, the
    #: natural mode for tests and single-core machines).
    jobs: Optional[int] = None
    #: Simulation shards per noise job (default: the worker count).
    shards: Optional[int] = None
    #: Disk cache root for extraction / model artifacts (``None``
    #: disables the disk tier; shared memory still caches parasitics).
    cache_dir: Optional[str] = None
    #: Default per-job timeout, seconds (``None``: no timeout).
    job_timeout: Optional[float] = 300.0
    #: Simultaneously running jobs.
    max_concurrency: int = 8

    def worker_count(self) -> int:
        return default_jobs() if self.jobs is None else max(int(self.jobs), 1)

    def shard_count(self) -> int:
        if self.shards is not None:
            return max(int(self.shards), 1)
        return self.worker_count()


@dataclass
class ServiceStats:
    """Lifecycle tallies of one service instance."""

    submitted: int = 0
    done: int = 0
    failed: int = 0
    cancelled: int = 0
    timeout: int = 0
    memo_hits: int = 0
    started_at: float = field(default_factory=time.time)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "done": self.done,
            "failed": self.failed,
            "cancelled": self.cancelled,
            "timeout": self.timeout,
            "memo_hits": self.memo_hits,
            "uptime_seconds": time.time() - self.started_at,
        }


class AnalysisService:
    """The in-process asyncio job service (see module docstring)."""

    def __init__(self, config: ServiceConfig = ServiceConfig()) -> None:
        self.config = config
        self.stats = ServiceStats()
        self.shm = SharedParasiticsStore()
        self._records: Dict[str, JobRecord] = {}
        self._events: Dict[str, List[Dict[str, Any]]] = {}
        self._conditions: Dict[str, asyncio.Condition] = {}
        self._tasks: Dict[str, "asyncio.Task[None]"] = {}
        self._memo: Dict[str, JobRecord] = {}
        self._extract_locks: Dict[str, asyncio.Lock] = defaultdict(
            asyncio.Lock
        )
        self._executor: Optional[Executor] = None
        self._semaphore = asyncio.Semaphore(config.max_concurrency)
        self._counter = 0
        self._closed = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spin up the worker executor (idempotent)."""
        if self._executor is not None:
            return
        workers = self.config.worker_count()
        if workers > 1:
            self._executor = ProcessPoolExecutor(max_workers=workers)
        else:
            # In-process mode: threads keep the event loop responsive
            # while numpy/scipy hold the CPU.
            self._executor = ThreadPoolExecutor(
                max_workers=max(2, self.config.max_concurrency)
            )

    async def close(self) -> None:
        """Cancel outstanding jobs, stop workers, release shared memory."""
        if self._closed:
            return
        self._closed = True
        for record in self._records.values():
            record.request_cancel()
        pending = [task for task in self._tasks.values() if not task.done()]
        for task in pending:
            task.cancel()
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self.shm.close()

    # ------------------------------------------------------------------
    # Submission and observation
    # ------------------------------------------------------------------
    async def submit(
        self, request: JobRequest, timeout: Optional[float] = None
    ) -> JobRecord:
        """Enqueue a job; returns its record immediately."""
        if self._closed:
            raise RuntimeError("service is closed")
        await self.start()
        self._counter += 1
        record = JobRecord(id=f"j{self._counter:06d}", request=request)
        self._records[record.id] = record
        self._events[record.id] = []
        self._conditions[record.id] = asyncio.Condition()
        self.stats.submitted += 1
        await self._emit(record, {"event": QUEUED})
        self._tasks[record.id] = asyncio.create_task(
            self._run(record, timeout)
        )
        return record

    def record(self, job_id: str) -> JobRecord:
        return self._records[job_id]

    def cancel(self, job_id: str) -> bool:
        """Request cancellation; True if the job was still cancellable."""
        record = self._records.get(job_id)
        if record is None:
            return False
        return record.request_cancel()

    async def wait(self, job_id: str) -> JobRecord:
        """Block until a job reaches a terminal state."""
        async for _ in self.stream(job_id):
            pass
        return self._records[job_id]

    async def stream(self, job_id: str) -> AsyncIterator[Dict[str, Any]]:
        """Yield a job's events in order, finishing on the terminal one."""
        events = self._events[job_id]
        condition = self._conditions[job_id]
        index = 0
        while True:
            async with condition:
                while index >= len(events):
                    await condition.wait()
                batch = events[index:]
                index = len(events)
            for event in batch:
                yield event
                if event["event"] in (DONE, FAILED, CANCELLED, TIMEOUT):
                    return

    def stats_dict(self) -> Dict[str, Any]:
        payload = self.stats.to_dict()
        payload.update(
            {
                "protocol": PROTOCOL_VERSION,
                "workers": self.config.worker_count(),
                "shards": self.config.shard_count(),
                "shm_blocks": self.shm.stats.blocks,
                "shm_bytes": self.shm.stats.payload_bytes,
                "shm_hits": self.shm.stats.hits,
                "shm_misses": self.shm.stats.misses,
                "jobs_tracked": len(self._records),
            }
        )
        return payload

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    async def _emit(
        self, record: JobRecord, event: Dict[str, Any]
    ) -> None:
        event = {"job": record.id, **event}
        condition = self._conditions[record.id]
        async with condition:
            self._events[record.id].append(event)
            condition.notify_all()

    async def _finish(
        self, record: JobRecord, status: str, **extra: Any
    ) -> None:
        record.status = status
        record.finished = time.time()
        counter = {
            DONE: "done",
            FAILED: "failed",
            CANCELLED: "cancelled",
            TIMEOUT: "timeout",
        }[status]
        setattr(self.stats, counter, getattr(self.stats, counter) + 1)
        await self._emit(
            record,
            {
                "event": status,
                "seconds": record.seconds,
                "memoized": record.memoized,
                "checksum": record.checksum,
                "error": record.error,
                **extra,
            },
        )

    async def _run(
        self, record: JobRecord, timeout: Optional[float]
    ) -> None:
        async with self._semaphore:
            if record.cancel_requested:
                await self._finish(record, CANCELLED)
                return
            record.status = RUNNING
            record.started = time.time()
            await self._emit(record, {"event": RUNNING})
            limit = (
                timeout if timeout is not None else self.config.job_timeout
            )
            try:
                key = record.request.key()
                memo = self._memo.get(key)
                if memo is not None:
                    record.memoized = True
                    self.stats.memo_hits += 1
                    record.result = memo.result
                    record.checksum = memo.checksum
                else:
                    result = await asyncio.wait_for(
                        self._execute(record), timeout=limit
                    )
                    record.result = result
                    record.checksum = str(result.get("checksum"))
                    self._memo[key] = record
            except JobCancelledError:
                await self._finish(record, CANCELLED)
                return
            except asyncio.TimeoutError:
                record.error = {
                    "kind": "TimeoutError",
                    "message": f"job exceeded {limit} s",
                }
                await self._finish(record, TIMEOUT)
                return
            except asyncio.CancelledError:
                await self._finish(record, CANCELLED)
                raise
            except NumericalHealthError as error:
                record.error = {
                    "kind": type(error).__name__,
                    "message": str(error),
                }
                await self._finish(record, FAILED)
                return
            except Exception as error:  # noqa: BLE001 - job boundary
                record.error = {
                    "kind": type(error).__name__,
                    "message": str(error),
                }
                await self._finish(record, FAILED)
                return
            await self._finish(record, DONE, result=record.result)

    def _parasitics_key(self, request: JobRequest) -> str:
        """The disk-cache key of this geometry's default extraction."""
        assert request.geometry is not None
        return parasitics_key(
            request.geometry.build(),
            COPPER_RESISTIVITY,
            0.0,
            CapacitanceModel(),
            True,
        )

    async def _ensure_parasitics(self, record: JobRecord) -> Tuple[str, str]:
        """Publish the request's parasitics into shared memory (once)."""
        key = self._parasitics_key(record.request)
        segment = self.shm.segment_name(key)
        if segment is not None:
            return key, segment
        async with self._extract_locks[key]:
            segment = self.shm.segment_name(key)
            if segment is not None:
                return key, segment
            record.check_cancelled()
            await self._emit(
                record, {"event": "progress", "stage": "extract"}
            )
            parasitics = await self._work(
                _workers.extract_worker,
                record.request.geometry,
                self.config.cache_dir,
            )
            segment = self.shm.put(key, parasitics)
            return key, segment

    def _work(self, fn: Any, *args: Any) -> "asyncio.Future[Any]":
        """Run one work item on the executor."""
        assert self._executor is not None
        return asyncio.get_running_loop().run_in_executor(
            self._executor, fn, *args
        )

    async def _execute(self, record: JobRecord) -> Dict[str, Any]:
        request = record.request
        record.check_cancelled()
        if request.op == "sweep":
            return await self._execute_plan(record, None)
        key, segment = await self._ensure_parasitics(record)

        if request.op == "extract":
            parasitics = self.shm.get(key)
            assert parasitics is not None
            return _workers.extract_payload(parasitics)

        if request.op == "simulate":
            record.check_cancelled()
            await self._emit(
                record, {"event": "progress", "stage": "simulate"}
            )
            return await self._work(
                _workers.simulate_worker,
                segment,
                request.model,
                request.sim,
                self.config.cache_dir,
            )

        if request.verify:
            # The verify tier re-simulates victims one by one through
            # the independent path; it is a cross-check, not a serving
            # workload, so it runs as one unsharded work item.
            return await self._work(
                _workers.oneshot_worker, request, self.config.cache_dir
            )
        return await self._execute_plan(record, segment)

    async def _execute_plan(
        self, record: JobRecord, segment: Optional[str]
    ) -> Dict[str, Any]:
        """Run a noise or sweep job: screen -> group -> simulate -> assemble.

        A noise job is one scan on the shared-memory ``segment``: one
        screen work item, then its escalated columns split round-robin
        across :meth:`ServiceConfig.shard_count` simulate work items.  A
        sweep screens its scenarios one work item at a time in grid
        order -- the per-scenario progress stream is deterministic and
        the cancel flag is honored at every scenario boundary -- then
        simulates each compatibility group
        (:func:`~repro.noise.sweep.group_unresolved`) as one work item.
        Both assemble exactly as the one-shot
        :func:`~repro.service.workers.oneshot_result` path does, so the
        payloads are checksum-identical to it.
        """
        cache_dir = self.config.cache_dir
        request = record.request
        grid = request.sweep
        start = time.perf_counter()
        if grid is not None:
            units: List[Any] = list(grid.scenarios())
            config, spec = grid.base, grid.model
        else:
            units = [segment]
            config, spec = request.noise, request.model

        screened = []
        for index, unit in enumerate(units):
            record.check_cancelled()
            event: Dict[str, Any] = {"event": "progress", "stage": "screen"}
            if grid is not None:
                event.update(
                    stage="scenario",
                    index=index,
                    total=len(units),
                    label=unit.label,
                )
            await self._emit(record, event)
            screened.append(
                await self._work(
                    _workers.screen_worker, unit, config, spec, cache_dir
                )
            )
        record.check_cancelled()

        # Group: (simulation source, one list of screened scans per
        # simulate work item, progress event).
        groups: List[Tuple[Any, List[List[Any]], Dict[str, Any]]] = []
        if grid is not None:
            group_list = group_unresolved(screened)
            groups = [
                (
                    group[0].scenario.geometry(),
                    [[item.screen for item in group]],
                    {
                        "stage": "simulate_group",
                        "index": index,
                        "total": len(group_list),
                        "scenarios": [item.scenario.label for item in group],
                    },
                )
                for index, group in enumerate(group_list)
            ]
        else:
            screen = screened[0]
            if screen.escalated:
                shards = _workers.shard_alignments(
                    screen.escalated, self.config.shard_count()
                )
                groups.append((
                    segment,
                    [[replace(screen, escalated=tuple(s))] for s in shards],
                    {
                        "stage": "simulate",
                        "escalated": len(screen.escalated),
                        "shards": len(shards),
                    },
                ))

        tiers = []
        for source, batches, progress in groups:
            record.check_cancelled()
            await self._emit(record, {"event": "progress", **progress})
            parts = await asyncio.gather(*(
                self._work(
                    _workers.escalate_worker, source, spec, batch, cache_dir
                )
                for batch in batches
            ))
            tiers.append(parts)
        record.check_cancelled()

        if grid is not None:
            results = assemble_sweep_results(
                grid,
                screened,
                group_list,
                [parts[0] for parts in tiers],
                cache=_workers._disk_cache(cache_dir),
            )
            report = SweepReport(
                grid=grid,
                results=results,
                seconds=time.perf_counter() - start,
            )
            return _workers.sweep_payload(report)
        parts = tiers[0] if tiers else []
        metrics: Dict[int, Tuple[float, float]] = {}
        for part in parts:
            metrics.update(part.metrics[0])
        return _workers.noise_payload(
            assemble_report(
                spec,
                screen,
                metrics,
                sum(part.build_seconds for part in parts),
                sum(part.sim_seconds for part in parts),
            )
        )


# ----------------------------------------------------------------------
# JSON-lines TCP front-end
# ----------------------------------------------------------------------
class ServiceServer:
    """A TCP wrapper speaking one JSON object per line, both ways.

    Analysis requests (``op`` in ``extract`` / ``simulate`` /
    ``noise`` / ``sweep``) are acknowledged with an ``accepted`` event carrying the
    job id, then answered with the terminal event -- or, with
    ``"stream": true``, with every lifecycle event as it happens.
    Control ops: ``ping``, ``stats``, ``job`` (status), ``cancel``,
    ``shutdown``.  Client-supplied ``id`` tags are echoed on every
    reply, so one connection can pipeline many requests.
    """

    def __init__(
        self, service: AnalysisService, host: str, port: int
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._shutdown = asyncio.Event()
        self._handlers: "set[asyncio.Task[None]]" = set()

    async def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the actual (host, port)."""
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def serve_until_shutdown(self) -> None:
        """Serve until a ``shutdown`` request (or :meth:`close`)."""
        await self._shutdown.wait()
        await self.close()

    async def close(self) -> None:
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._handlers):
            task.cancel()
        if self._handlers:
            await asyncio.gather(*self._handlers, return_exceptions=True)
        await self.service.close()

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        write_lock = asyncio.Lock()

        async def send(payload: Dict[str, Any]) -> None:
            async with write_lock:
                writer.write(json.dumps(payload).encode() + b"\n")
                await writer.drain()

        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                task = asyncio.create_task(
                    self._handle_message(line, send)
                )
                self._handlers.add(task)
                task.add_done_callback(self._handlers.discard)
        except (ConnectionResetError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.CancelledError,
            ):
                # Loop shutdown can cancel the handler mid-close; the
                # transport is going away either way.
                pass

    async def _handle_message(
        self, line: bytes, send: Any
    ) -> None:
        try:
            message = json.loads(line)
        except json.JSONDecodeError as error:
            await send({"event": "error", "message": f"bad json: {error}"})
            return
        tag = message.get("id")

        def tagged(payload: Dict[str, Any]) -> Dict[str, Any]:
            return {"id": tag, **payload} if tag is not None else payload

        op = message.get("op")
        try:
            if op == "ping":
                await send(tagged({"event": "pong"}))
            elif op == "stats":
                await send(
                    tagged(
                        {"event": "stats", "stats": self.service.stats_dict()}
                    )
                )
            elif op == "job":
                record = self.service.record(str(message["job"]))
                await send(tagged({"event": "job", **record.to_dict()}))
            elif op == "cancel":
                ok = self.service.cancel(str(message["job"]))
                await send(tagged({"event": "cancel", "ok": ok}))
            elif op == "shutdown":
                await send(tagged({"event": "shutdown"}))
                self._shutdown.set()
            else:
                request = JobRequest.from_dict(message)
                timeout = message.get("timeout")
                record = await self.service.submit(
                    request,
                    timeout=float(timeout) if timeout is not None else None,
                )
                await send(tagged({"event": "accepted", "job": record.id}))
                if message.get("stream"):
                    async for event in self.service.stream(record.id):
                        await send(tagged(event))
                else:
                    final = await self.service.wait(record.id)
                    payload = {
                        "event": final.status,
                        "job": final.id,
                        "seconds": final.seconds,
                        "memoized": final.memoized,
                        "checksum": final.checksum,
                        "error": final.error,
                    }
                    if final.status == DONE:
                        payload["result"] = final.result
                    await send(tagged(payload))
        except KeyError as error:
            await send(tagged({"event": "error", "message": f"unknown: {error}"}))
        except (ValueError, TypeError) as error:
            await send(tagged({"event": "error", "message": str(error)}))


async def serve(config: ServiceConfig = ServiceConfig()) -> None:
    """Run a service server until it is told to shut down."""
    service = AnalysisService(config)
    server = ServiceServer(service, config.host, config.port)
    host, port = await server.start()
    print(
        f"repro service listening on {host}:{port} "
        f"({config.worker_count()} workers, "
        f"{config.shard_count()} shards)",
        flush=True,
    )
    try:
        await server.serve_until_shutdown()
    finally:
        await server.close()
