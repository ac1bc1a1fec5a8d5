"""Serve clients: the socket client and the load generator.

:class:`ServeClient` is the reference implementation of the
``repro.serve/1`` line protocol over a local TCP socket — one JSON
request per line out, one JSON response per line back, in order.

:func:`request_mix` builds the deterministic request workload the
throughput benchmark replays: every suite kernel x toolchain from
:mod:`repro.kernels.catalog` across both prediction tiers and several
reorder windows, with a controlled fraction of exact duplicates mixed
in (real clients repeat themselves; deduplication is a serve feature
worth measuring).  :func:`run_load` replays such a mix through N
closed-loop connections and reports wall time plus per-request
latencies — the raw material for ``BENCH_serve.json``.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from dataclasses import dataclass, field

__all__ = ["LoadResult", "ServeClient", "request_mix", "run_load"]


class ServeClient:
    """Line-protocol client for a :class:`~repro.serve.server.TcpFrontend`.

    Synchronous: :meth:`request` sends one request line and blocks for
    its response line.  Use one client per thread (the protocol answers
    a connection's lines in order, so interleaving senders on one
    socket would misattribute responses).
    """

    def __init__(self, address: tuple[str, int],
                 timeout: float | None = 120.0) -> None:
        self._sock = socket.create_connection(address, timeout=timeout)
        self._rf = self._sock.makefile("r", encoding="utf-8")
        self._wf = self._sock.makefile("w", encoding="utf-8")

    def request(self, doc: dict) -> dict:
        """One request in, one response document out."""
        self._wf.write(json.dumps(doc) + "\n")
        self._wf.flush()
        line = self._rf.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return json.loads(line)

    def ping(self) -> dict:
        """Round-trip a ``{"op": "ping"}`` control request."""
        return self.request({"op": "ping"})

    def stats(self) -> dict:
        """Fetch the serve-session counters."""
        return self.request({"op": "stats"})["stats"]

    def shutdown(self) -> dict:
        """Ask the daemon to stop (answered before it does)."""
        return self.request({"op": "shutdown"})

    def close(self) -> None:
        """Close the connection (the daemon keeps serving others).

        The line files hold references to the socket, so they are
        closed too; otherwise the descriptor stays open and the
        daemon's handler never sees end-of-stream.
        """
        self._rf.close()
        self._wf.close()
        self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
def request_mix(*, quick: bool = False, seed: int = 2021,
                duplicate_fraction: float = 0.3) -> list[dict]:
    """The deterministic benchmark workload, as raw request dicts.

    The base set covers kernels x toolchains across both tiers and a
    few windows; *duplicate_fraction* of additional exact repeats are
    sampled and the whole mix shuffled with ``random.Random(seed)``, so
    every run (and the naive baseline) replays the identical sequence.
    ``quick`` shrinks the grid for smoke tests and CI.
    """
    from repro.compilers.toolchains import TOOLCHAINS
    from repro.kernels.catalog import ALL_KERNEL_NAMES

    if quick:
        kernels = ("simple", "gather", "recip", "spmv_crs")
        toolchains = ("fujitsu", "gnu", "arm")
        engine_windows: tuple[int | None, ...] = (None,)
        ecm_threads: tuple[int, ...] = (1,)
    else:
        kernels = tuple(ALL_KERNEL_NAMES)
        toolchains = tuple(TOOLCHAINS)
        engine_windows = (None, 24)
        ecm_threads = (1, 4)

    base: list[dict] = []
    for kernel in kernels:
        for tc in toolchains:
            for window in engine_windows:
                req = {"kernel": kernel, "toolchain": tc, "tier": "engine"}
                if window is not None:
                    req["window"] = window
                base.append(req)
            for threads in ecm_threads:
                req = {"kernel": kernel, "toolchain": tc, "tier": "ecm"}
                if threads != 1:
                    req["threads"] = threads
                base.append(req)

    rng = random.Random(seed)
    mix = list(base)
    for _ in range(int(len(base) * duplicate_fraction)):
        mix.append(dict(rng.choice(base)))
    rng.shuffle(mix)
    for i, req in enumerate(mix):
        req["id"] = i
    return mix


@dataclass
class LoadResult:
    """What one closed-loop load run measured."""

    wall_s: float
    latencies_s: list[float] = field(default_factory=list)
    responses: list[dict] = field(default_factory=list)
    errors: int = 0

    @property
    def requests_per_s(self) -> float:
        """Completed requests divided by wall-clock seconds."""
        return len(self.latencies_s) / self.wall_s if self.wall_s else 0.0

    def percentile_ms(self, q: float) -> float:
        """The *q*-quantile (0..1) of per-request latency, in ms."""
        if not self.latencies_s:
            return 0.0
        ordered = sorted(self.latencies_s)
        idx = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[idx] * 1e3


def run_load(address: tuple[str, int], requests: list[dict],
             concurrency: int = 1) -> LoadResult:
    """Replay *requests* through *concurrency* closed-loop connections.

    Requests are dealt round-robin to workers; each worker opens its
    own connection and issues its share one at a time (send, wait,
    send...), so *concurrency* is exactly the number of in-flight
    requests.  Latencies and responses come back indexed by the
    original request order.
    """
    if concurrency < 1:
        raise ValueError("concurrency must be >= 1")
    n = len(requests)
    latencies: list[float | None] = [None] * n
    responses: list[dict | None] = [None] * n
    errors = [0] * concurrency

    def worker(w: int) -> None:
        assigned = range(w, n, concurrency)
        try:
            with ServeClient(address) as client:
                for i in assigned:
                    t0 = time.perf_counter()
                    resp = client.request(requests[i])
                    latencies[i] = time.perf_counter() - t0
                    responses[i] = resp
                    errors[w] += not resp.get("ok", False)
        except Exception:
            errors[w] += sum(1 for i in assigned if responses[i] is None)

    threads = [threading.Thread(target=worker, args=(w,), daemon=True)
               for w in range(min(concurrency, max(n, 1)))]
    t_start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t_start
    return LoadResult(
        wall_s=wall,
        latencies_s=[lat for lat in latencies if lat is not None],
        responses=[r for r in responses if r is not None],
        errors=sum(errors),
    )
