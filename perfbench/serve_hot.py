"""``serve_hot``: open-loop Poisson load on a warm ``repro serve --stdin``.

The hot set is 300 distinct requests (15 kernels x 5 toolchains x
{engine, engine window 24, ecm 1 thread, ecm 4 threads}); every one is
sent once before timing starts, so every timed request is a cache hit.
Phases, each drawing requests uniformly from the hot set with the run's
seed:

* ``low``: 100 requests/s, where batches hold about one request and the
  2 ms batch window dominates latency.  Its 25th percentile is the
  gated ``latency_ms``: on a 2-vCPU VM whose neighbours steal time, the
  run-to-run spread of the median went from 12% to 38% while the 25th
  percentile stayed near 7%, and a slower request path moves both;
* ``high``: 800 requests/s, where micro-batching works, measured after
  an unmeasured stretch at the same rate (the first seconds at a new
  rate read up to twice as slow);
* a geometric rate ladder above ``high``: ``max_rps`` is the highest
  rung whose p99 stays under :data:`P99_LIMIT_MS`, with no response
  missing and no growing backlog (second-half p50 within
  :data:`BACKLOG_GROWTH` of the first half's);
* ``saturation``: between 512 and 1024 requests kept in flight, so the
  daemon always has a full queue; its capacity is the median
  completion rate over equal sub-windows of the phase.
"""

from __future__ import annotations

import json
import random
import sys
import time

import layers
from common import BENCH_DIR, OUT, digest, median, percentile
from passes import spawn
from serve_load import Daemon, poisson_schedule

LOW_RPS = 100.0
HIGH_RPS = 800.0
LADDER = (1131.0, 1600.0, 2263.0, 3200.0)
P99_LIMIT_MS = 25.0
BACKLOG_GROWTH = 1.5
SATURATION_CHUNK = 512
SATURATION_WINDOWS = 8
SETUP_SPAWNS = 7
DRAIN_S = 10.0

# share of --seconds given to each phase
SHARES = {"low": 0.25, "high_warmup": 0.08, "high": 0.17, "ladder": 0.25,
          "saturation": 0.25}


def daemon_argv(trace_path=None) -> list[str]:
    if trace_path is None:
        return [sys.executable, "-m", "repro", "serve", "--stdin"]
    return [sys.executable, str(BENCH_DIR / "serve_daemon.py"),
            str(trace_path)]


def start(tag: str, trace_path=None) -> tuple[Daemon, float]:
    """Spawn a daemon; returns it and its spawn-to-ping seconds."""
    daemon = Daemon(daemon_argv(trace_path), tag)
    try:
        reply = daemon.request({"op": "ping"})
        if not reply.get("ok"):
            raise RuntimeError(f"daemon ping failed: {reply}")
    except BaseException:
        daemon.close()
        raise
    return daemon, daemon.recv[0] - daemon.t_spawn


class Session:
    """One daemon plus the bookkeeping of what was sent to it."""

    def __init__(self, daemon: Daemon, hot: list[dict], seed: int) -> None:
        self.daemon = daemon
        self.hot = hot
        self.rng = random.Random(seed)
        self.next_id = 0
        self.seq_of: dict[int, int] = {}   # request id -> line number
        self.key_of: dict[int, int] = {}   # request id -> hot-set index
        self.late: set[int] = set()        # ids unanswered at phase end
        self.rows: dict[int, dict] = {}    # hot-set index -> answer seen

    def doc(self, k: int) -> dict:
        rid = self.next_id
        self.next_id += 1
        self.key_of[rid] = k
        return {"id": rid, **self.hot[k]}

    def pick(self) -> dict:
        return self.doc(self.rng.randrange(len(self.hot)))

    def warm(self) -> None:
        docs = [self.doc(k) for k in range(len(self.hot))]
        first = self.daemon.send_now(docs)
        self._note(docs, first)
        if not self.daemon.wait_for(first + len(docs), 60.0):
            raise RuntimeError("daemon did not answer the warm-up set")

    def _note(self, docs: list[dict], first: int) -> None:
        for i, d in enumerate(docs):
            self.seq_of[d["id"]] = first + i

    def stats(self) -> dict:
        return self.daemon.request({"op": "stats"})["stats"]

    def open_loop(self, rate: float, seconds: float) -> dict:
        start_t = time.monotonic() + 0.05
        schedule = poisson_schedule(self.rng, rate, seconds, start_t,
                                    self.pick)
        first, end = self.daemon.open_loop(schedule, DRAIN_S)
        self._note([d for _t, d in schedule], first)
        return self._phase(rate, seconds, schedule, first, end)

    def saturate(self, seconds: float) -> dict:
        """Keep the daemon's queue full for *seconds*.

        Requests go out in chunks of SATURATION_CHUNK whenever fewer
        than that are outstanding, so the queue never runs dry and the
        client wakes a few times a second rather than once per answer.
        """
        d = self.daemon
        first = len(d.sent)
        t0 = time.monotonic()
        done0 = len(d.recv)
        while time.monotonic() - t0 < seconds:
            docs = [self.pick() for _ in range(SATURATION_CHUNK)]
            self._note(docs, d.send_now(docs))
            if not d.wait_for(len(d.sent) - SATURATION_CHUNK, DRAIN_S):
                break
        t1 = time.monotonic()
        done = d.recv[done0:]
        d.wait_for(len(d.sent), DRAIN_S)
        self.late.update(rid for rid, seq in self.seq_of.items()
                         if seq >= len(d.recv))
        # median over equal sub-windows, so a short stall of the host
        # does not move the whole figure
        width = (t1 - t0) / SATURATION_WINDOWS
        counts = [0] * SATURATION_WINDOWS
        for t in done:
            k = int((t - t0) / width)
            if k < SATURATION_WINDOWS:
                counts[k] += 1
        return {"rps": median([c / width for c in counts]),
                "window_rps": [c / width for c in counts],
                "rps_mean": len(done) / (t1 - t0),
                "sent": len(d.sent) - first,
                "missing": len(d.sent) - len(d.recv)}

    def _phase(self, rate, seconds, schedule, first, end) -> dict:
        d = self.daemon
        got = min(len(d.recv), end) - first
        self.late.update(doc["id"] for _t, doc in schedule[got:])
        lat = [(d.recv[first + i] - schedule[i][0]) * 1e3
               for i in range(got)]
        late = [(d.sent[first + i] - schedule[i][0]) * 1e3
                for i in range(len(schedule))]
        half = len(lat) // 2
        span = (d.recv[first + got - 1] - schedule[0][0]) if got else 1.0
        return {
            "offered_rps": rate, "sent": len(schedule), "answered": got,
            "missing": len(schedule) - got,
            "achieved_rps": got / span if span > 0 else 0.0,
            "p25_ms": percentile(lat, 25), "p50_ms": percentile(lat, 50),
            "p99_ms": percentile(lat, 99),
            "p50_first_half_ms": percentile(lat[:half], 50),
            "p50_second_half_ms": percentile(lat[half:], 50),
            "gen_late_ms_p99": percentile(late, 99),
            "window": (schedule[0][0] if schedule else 0.0,
                       d.recv[first + got - 1] if got else 0.0),
            "requests": {doc["id"]: (t, d.sent[first + i], d.recv[first + i])
                         for i, (t, doc) in enumerate(schedule[:got])},
            "seconds": seconds,
        }

    def check(self, expected: list[dict]) -> tuple[int, int]:
        """(predict requests attempted, failed) against the per-point
        reference.  A request still unanswered when its phase ended
        counts as failed even if its answer came later."""
        want = [json.dumps(r, sort_keys=True) for r in expected]
        failed = 0
        for rid, seq in self.seq_of.items():
            if rid in self.late or seq >= len(self.daemon.lines):
                failed += 1
                continue
            resp = json.loads(self.daemon.lines[seq])
            got = json.dumps(resp.get("result"), sort_keys=True)
            if (resp.get("id") != rid or not resp.get("ok")
                    or got != want[self.key_of[rid]]):
                failed += 1
            else:
                self.rows[self.key_of[rid]] = resp["result"]
        return len(self.seq_of), failed


def rung_ok(phase: dict) -> bool:
    return (phase["missing"] == 0 and phase["p99_ms"] < P99_LIMIT_MS
            and phase["p50_second_half_ms"]
            <= BACKLOG_GROWTH * phase["p50_first_half_ms"] + 1.0)


def _session_ratios(before: dict, after: dict) -> tuple[float, float]:
    """Dedup and cache-hit ratios between two ``{"op": "stats"}``
    snapshots of the daemon's session counters."""
    requests = after["requests"] - before["requests"]
    return ((after["deduped"] - before["deduped"]) / requests,
            (after["cache_hits"] - before["cache_hits"]) / requests)


def _public(phase: dict) -> dict:
    return {k: v for k, v in phase.items()
            if k not in ("requests", "window")}


def run(seed: int, seconds: float, trace: bool) -> dict:
    oracle = spawn("serve_hot", seed, "oracle")
    hot, expected = oracle["hot"], oracle["expected"]
    OUT.mkdir(exist_ok=True)
    if trace:
        return _run_traced(seed, seconds, hot, expected)

    setups = []
    for i in range(SETUP_SPAWNS - 1):
        daemon, setup = start(f"serve-setup-{i}")
        setups.append(setup)
        daemon.close()
    daemon, setup = start("serve-main")
    setups.append(setup)
    with daemon:
        s = Session(daemon, hot, seed)
        s.warm()
        before = s.stats()
        low = s.open_loop(LOW_RPS, seconds * SHARES["low"])
        warmup = s.open_loop(HIGH_RPS, seconds * SHARES["high_warmup"])
        high = s.open_loop(HIGH_RPS, seconds * SHARES["high"])
        # the 800 rps phase is the ladder's first rung
        ladder, max_rps = [], HIGH_RPS if rung_ok(high) else 0.0
        rung_s = seconds * SHARES["ladder"] / len(LADDER)
        for rate in LADDER:
            if max_rps == 0.0:
                break
            rung = s.open_loop(rate, rung_s)
            ladder.append(_public(rung))
            if not rung_ok(rung):
                break
            max_rps = rate
        sat = s.saturate(seconds * SHARES["saturation"])
        after = s.stats()
    code, rss = daemon.close()
    attempted, failed = s.check(expected)
    problems = [f"{failed} of {attempted} responses missing or wrong"] \
        if failed else []
    if code != 0:
        problems.append(f"daemon exited with {code}")

    dedup, hits = _session_ratios(before, after)
    metrics = {
        "setup_s": median(setups),
        "latency_ms": low["p25_ms"],
        "throughput": sat["rps"],
        "peak_rss_mb": rss,
    }
    named = {
        "p25_ms_low": low["p25_ms"],
        "p50_ms_low": low["p50_ms"], "p99_ms_low": low["p99_ms"],
        "p50_ms_high": high["p50_ms"], "p99_ms_high": high["p99_ms"],
        "max_rps": max_rps, "saturation_rps": sat["rps"],
        "samples_low": low["answered"], "samples_high": high["answered"],
        "error_rate": failed / attempted,
        "digest": digest(list(s.rows.values())),
        "dedup_ratio": dedup, "cache_hit_ratio": hits,
        "phases": {"low": _public(low), "high_warmup": _public(warmup),
                   "high": _public(high),
                   "ladder": ladder, "saturation": sat},
    }
    return {"metrics": metrics, "named": named, "problems": problems,
            "attempted": attempted, "failed": failed}


def _run_traced(seed: int, seconds: float, hot, expected) -> dict:
    """The same phases on an untraced and then a traced daemon.

    Layer self times, queue wait and the latency reconciliation come
    from the low-rate phase (they decompose the latency behind the gated
    ``latency_ms``);
    batch size, busy fraction and generator figures from the high-rate
    phase, where batching happens.  The overhead compares the gated
    statistic, the low-rate p25, traced against untraced.
    """
    runs = {}
    for label in ("plain", "traced"):
        path = OUT / f"serve_hot-{seed}.trace.json" if label == "traced" \
            else None
        daemon, _setup = start(f"serve-{label}", path)
        with daemon:
            sess = Session(daemon, hot, seed)
            sess.warm()
            before = sess.stats()
            low = sess.open_loop(LOW_RPS, seconds / 4)
            sess.open_loop(HIGH_RPS, seconds / 8)
            high = sess.open_loop(HIGH_RPS, seconds / 8)
            after = sess.stats()
        code, _rss = daemon.close()
        runs[label] = (sess, low, high, before, after, code, path)

    sess, low, high, before, after, code, path = runs["traced"]
    trace = layers.load(path)
    path.unlink()
    metrics, recon_low = layers.serve_metrics(trace, low["requests"],
                                              low["window"])
    high_metrics, recon_high = layers.serve_metrics(trace, high["requests"],
                                                    high["window"])
    for name in ("serve.queue.batch_size_mean", "serve.server.busy_frac",
                 "load.gen_late_ms_p99"):
        metrics[name] = high_metrics[name]
    metrics["load.achieved_rps"] = high["achieved_rps"]
    dedup, hits = _session_ratios(before, after)
    metrics["serve.server.dedup_ratio"] = dedup
    metrics["serve.server.cache_hit_ratio"] = hits
    base = runs["plain"][1]["p25_ms"]
    metrics["trace.overhead_pct"] = (low["p25_ms"] - base) / base * 100.0

    problems = []
    attempted = failed = 0
    for label, (sess, _low, _high, _b, _a, code, _p) in runs.items():
        a, f = sess.check(expected)
        attempted += a
        failed += f
        if code != 0:
            problems.append(f"{label} daemon exited with {code}")
    if failed:
        problems.append(f"{failed} of {attempted} responses missing or wrong")
    return {"metrics": metrics,
            "named": {"reconciliation_low": recon_low,
                      "reconciliation_high": recon_high,
                      "p25_ms_low_untraced": base,
                      "p25_ms_low_traced": low["p25_ms"]},
            "problems": problems, "attempted": attempted, "failed": failed}
