"""The ``service_mix`` workload: a closed loop against an in-process service.

Two TCP clients each send their next request only after the previous
one completes.  The server is :class:`repro.service.server.ServiceServer`
with ``ServiceConfig(jobs=2)``: two worker processes, noise scans
sharded across them, parasitics shared through POSIX shared memory.
An operation is one request round trip.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import host
import inputs
from repro.service import workers
from repro.service.client import ServiceClient
from repro.service.jobs import JobRequest
from repro.service.server import AnalysisService, ServiceConfig, ServiceServer

CLIENTS = 2
WORKERS = 2
#: At least this many timed requests, so ten samples lie beyond p90.
MIN_REQUESTS = 100
#: Pre-generated request rounds; a run sends a prefix of them.
ROUNDS = 100


@dataclass
class Reply:
    index: int
    payload: Dict[str, Any]
    sent: float
    received: float
    final: Dict[str, Any]
    lane: int
    #: (receive time, event) of every streamed intermediate event.
    events: List[Tuple[float, Dict[str, Any]]] = field(default_factory=list)
    #: Reference-kernel seconds before and after the request's round.
    reference: Tuple[float, float] = (0.0, 0.0)

    @property
    def seconds(self) -> float:
        return self.received - self.sent


class ServiceMix:
    name = "service_mix"
    imports = ("repro.service.server", "repro.service.client")

    def __init__(self, seed: int, workdir: Path, setup: int = 0) -> None:
        self.seed = seed
        self.workdir = workdir
        #: Which set-up of the run this is; each draws its own requests.
        self.setup = setup
        self.next = 0
        self.loop: Optional[asyncio.AbstractEventLoop] = None

    def prepare(self) -> None:
        rng = inputs.rng_for(self.name, self.seed, self.setup)
        self.payloads = inputs.service_requests(rng, ROUNDS)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self._start())

    async def _start(self) -> None:
        self.service = AnalysisService(ServiceConfig(jobs=WORKERS))
        self.server = ServiceServer(self.service, "127.0.0.1", 0)
        address, port = await self.server.start()
        self.clients = [await ServiceClient.connect(address, port)
                        for _ in range(CLIENTS)]

    # ------------------------------------------------------------------
    def run(self, seconds: float = 0.0, min_requests: int = 0,
            max_requests: Optional[int] = None,
            stream: bool = False) -> List[Reply]:
        """Closed loop, in whole rounds, until ``seconds`` and
        ``min_requests`` are both reached, or ``max_requests`` were sent.

        The clients meet at the end of every round of requests, and the
        reference kernel runs then, while the service is idle.
        """
        assert self.loop is not None
        replies: List[Reply] = []
        start = time.perf_counter()

        def more() -> bool:
            if max_requests is not None:
                return len(replies) < max_requests
            return (len(replies) < min_requests
                    or time.perf_counter() - start < seconds)

        before = host.reference_seconds()
        while more():
            round_replies = self.loop.run_until_complete(
                self._round(stream))
            after = host.reference_seconds()
            for reply in round_replies:
                reply.reference = (before, after)
            before = after
            replies.extend(round_replies)
        return replies

    async def _round(self, stream: bool) -> List[Reply]:
        replies: List[Reply] = []
        end = self.next + len(inputs.SERVICE_ROUND)

        async def client_loop(lane: int, client: ServiceClient) -> None:
            while self.next < end:
                index = self.next
                self.next += 1
                payload = self.payloads[index]
                events: List[Tuple[float, Dict[str, Any]]] = []
                message = dict(payload, stream=True) if stream else payload
                began = time.perf_counter()
                final = await client.request(
                    message,
                    on_event=lambda e: events.append(
                        (time.perf_counter(), e)),
                )
                replies.append(Reply(index, payload, began,
                                     time.perf_counter(), final, lane,
                                     events))

        await asyncio.gather(*(client_loop(lane, client)
                               for lane, client in enumerate(self.clients)))
        replies.sort(key=lambda r: r.index)
        return replies

    def warm_up(self) -> None:
        self.run(max_requests=len(inputs.SERVICE_ROUND))

    # ------------------------------------------------------------------
    def worker_peak_mb(self) -> float:
        """Summed peak resident set of this process's live children."""
        total = 0.0
        me = str(os.getpid())
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    stat = handle.read()
                if stat.rsplit(")", 1)[1].split()[1] != me:
                    continue
                with open(f"/proc/{entry}/status") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total += int(line.split()[1]) / 1024.0
            except (OSError, IndexError, ValueError):
                continue
        return total

    def shm_stats(self) -> Dict[str, int]:
        stats = self.service.stats_dict()
        return {"hits": stats["shm_hits"], "misses": stats["shm_misses"]}

    def check(self, replies: List[Reply]) -> List[Tuple[int, str]]:
        """Each reply against the one-shot reference path.

        Runs after the service has stopped, on as many processes as it
        had workers.  The replay shares a scratch pipeline cache, so
        requests on one geometry reuse extraction and model builds
        exactly as repeated one-shot CLI runs would.
        """
        cache_dir = str(self.workdir / "oneshot-cache")
        requests = [JobRequest.from_dict(r.payload) for r in replies]
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(WORKERS, mp_context=context) as pool:
            expected = list(pool.map(workers.oneshot_worker, requests,
                                     [cache_dir] * len(requests),
                                     chunksize=4))
        problems = []
        for reply, want in zip(replies, expected):
            status = reply.final.get("event")
            if status != "done":
                problems.append((reply.index,
                                 f"{status}: {reply.final.get('error')}"))
            elif reply.final.get("checksum") != want["checksum"]:
                problems.append((reply.index, "checksum differs from the "
                                 "one-shot result"))
        return problems

    def close(self) -> None:
        if self.loop is None:
            return
        self.loop.run_until_complete(self._stop())
        self.loop.close()
        self.loop = None

    async def _stop(self) -> None:
        for client in self.clients:
            await client.close()
        await self.server.close()
        # Server-side connection handlers end once they read the
        # clients' EOF; let them finish before the loop closes.
        others = asyncio.all_tasks() - {asyncio.current_task()}
        if others:
            await asyncio.wait(others, timeout=10.0)
