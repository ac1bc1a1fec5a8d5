"""Open-loop load against one ``repro serve --stdin`` daemon.

One process, two threads: a writer that sends each request at its
scheduled time (Poisson arrivals), and a reader that stamps each
response line as it arrives.  The daemon answers in submission order,
so the k-th response line belongs to the k-th line sent.  Latency is
measured from the *scheduled* send time, so a stalled generator or a
full pipe counts against the daemon rather than hiding queueing.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import threading
import time

from common import OUT, ROOT, child_env, reap


class Daemon:
    """A daemon subprocess plus the reader thread on its stdout."""

    def __init__(self, argv: list[str], tag: str) -> None:
        self.t_spawn = time.monotonic()
        OUT.mkdir(exist_ok=True)
        self._stderr = open(OUT / f"{tag}.stderr", "wb")
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self._stderr, env=child_env(), cwd=ROOT, bufsize=0,
        )
        self._fd = self.proc.stdin.fileno()
        self.exit: tuple[int, float] | None = None
        self.sent: list[float] = []       # monotonic send time per line
        self.recv: list[float] = []       # monotonic receive time per line
        self.lines: list[bytes] = []
        self._arrived = threading.Condition()
        self._want = 0
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        stream = self.proc.stdout
        while True:
            line = stream.readline()
            if not line:
                break
            now = time.monotonic()
            with self._arrived:
                self.recv.append(now)
                self.lines.append(line)
                if len(self.recv) >= self._want:
                    self._arrived.notify_all()
        with self._arrived:
            self._want = 0
            self._arrived.notify_all()

    def _write(self, data: bytes) -> None:
        view = memoryview(data)
        while view:
            view = view[os.write(self._fd, view):]

    def send_now(self, docs: list[dict]) -> int:
        """Send *docs* at once; returns the sequence number of the first."""
        first = len(self.sent)
        now = time.monotonic()
        self._write(b"".join(json.dumps(d).encode() + b"\n" for d in docs))
        self.sent.extend([now] * len(docs))
        return first

    def wait_for(self, count: int, timeout: float) -> bool:
        """Block until *count* response lines have arrived in total."""
        deadline = time.monotonic() + timeout
        with self._arrived:
            # the reader wakes this thread only once *count* is reached
            self._want = count
            while len(self.recv) < count:
                left = deadline - time.monotonic()
                if left <= 0 or not self._reader.is_alive():
                    return len(self.recv) >= count
                self._arrived.wait(left)
        return True

    def request(self, doc: dict, timeout: float = 60.0) -> dict:
        first = self.send_now([doc])
        if not self.wait_for(first + 1, timeout):
            raise RuntimeError(f"daemon did not answer {doc}")
        return json.loads(self.lines[first])

    def open_loop(self, schedule: list[tuple[float, dict]],
                  drain_s: float) -> tuple[int, int]:
        """Send each doc at its scheduled monotonic time.

        Returns the ``(first, last + 1)`` sequence range the phase used;
        responses not in by ``drain_s`` after the last send are missing.
        """
        first = len(self.sent)
        payloads = [json.dumps(d).encode() + b"\n" for _t, d in schedule]
        times = [t for t, _d in schedule]
        i, n = 0, len(schedule)
        while i < n:
            now = time.monotonic()
            if times[i] > now:
                time.sleep(times[i] - now)
                now = time.monotonic()
            j = i + 1
            while j < n and times[j] <= now:
                j += 1
            self._write(b"".join(payloads[i:j]))
            sent = time.monotonic()
            self.sent.extend([sent] * (j - i))
            i = j
        self.wait_for(first + n, drain_s)
        return first, first + n

    def close(self, timeout: float = 30.0) -> tuple[int, float]:
        """Shut the daemon down and reap it (idempotent); returns
        (exit code, peak RSS MiB)."""
        if self.exit is None:
            try:
                self.send_now([{"op": "shutdown"}])
                self.proc.stdin.close()
            except OSError:
                pass
            self.exit = reap(self.proc, timeout)
            self._reader.join(timeout)
            self.proc.stdout.close()
            self._stderr.close()
        return self.exit

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def poisson_schedule(rng: random.Random, rate: float, seconds: float,
                     start: float, pick) -> list[tuple[float, dict]]:
    """Arrival times of a Poisson process at *rate* over *seconds*."""
    out = []
    t = start
    while True:
        t += rng.expovariate(rate)
        if t >= start + seconds:
            return out
        out.append((t, pick()))
