"""Traced launcher for the ``repro serve --stdin`` daemon.

    python perfbench/serve_daemon.py TRACE_PATH [serve flags...]

Installs the layer wrappers of :mod:`tracing` plus the serve-specific
ones below, then runs the same entry point as ``python -m repro serve
--stdin``.  When the daemon exits (``{"op": "shutdown"}`` or EOF) the
spans are written to TRACE_PATH.

Serve spans carry the request id:

* ``serve.protocol.parse``: ``parse_request`` as the stdin loop calls it;
* ``serve.queue.wait``: from ``MicroBatcher.submit`` to the start of the
  batch callable the batcher was built with;
* ``serve.server.execute``: that batch callable (one span per batch;
  a ``batch`` mark lists the request ids it carried);
* ``serve.protocol.respond``: serialising the response and writing it
  to stdout.

A ``{"op": "stats"}`` request also leaves a ``cache`` mark with the
schedule- and compile-cache statistics at that moment, so a client can
bracket its timed window with two stats requests.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from tracing import Recorder, cache_stats, install


class _TracedStdout:
    """stdout proxy timing each write/flush as part of the response."""

    def __init__(self, rec: Recorder, stream) -> None:
        self._rec = rec
        self._stream = stream

    def write(self, text: str) -> int:
        frame = self._rec.begin("serve.protocol.respond")
        try:
            return self._stream.write(text)
        finally:
            self._rec.end(frame)

    def flush(self) -> None:
        frame = self._rec.begin("serve.protocol.respond")
        try:
            self._stream.flush()
        finally:
            self._rec.end(frame)

    def __getattr__(self, name):
        return getattr(self._stream, name)


class _TracedJson:
    """Stand-in for the ``json`` module the server serialises with."""

    def __init__(self, rec: Recorder) -> None:
        self._rec = rec
        self.loads = json.loads

    def dumps(self, doc, *args, **kwargs):
        rid = doc.get("id") if isinstance(doc, dict) else None
        self._rec.set_rid(rid)
        frame = self._rec.begin("serve.protocol.respond", rid=rid)
        try:
            return json.dumps(doc, *args, **kwargs)
        finally:
            self._rec.end(frame)


def install_serve(rec: Recorder) -> None:
    from repro.serve import queue, server

    parse = server.parse_request

    @functools.wraps(parse)
    def traced_parse(line):
        frame = rec.begin("serve.protocol.parse")
        try:
            parsed = parse(line)
            frame[5] = getattr(parsed, "id", None)
        finally:
            rec.end(frame)
        if parsed == "stats":
            rec.mark(kind="cache", **cache_stats())
        return parsed

    server.parse_request = traced_parse

    submitted: dict[int, float] = {}
    submit = queue.MicroBatcher.submit

    @functools.wraps(submit)
    def traced_submit(self, item):
        submitted[id(item)] = time.monotonic()
        return submit(self, item)

    init = queue.MicroBatcher.__init__

    @functools.wraps(init)
    def traced_init(self, execute, **kwargs):
        @functools.wraps(execute)
        def traced_execute(items):
            start = time.monotonic()
            rids = []
            for item in items:
                rec.record("serve.queue.wait", submitted.pop(id(item), start),
                           start, rid=item.id)
                rids.append(item.id)
            frame = rec.begin("serve.server.execute", items=len(items))
            rec.mark(kind="batch", span=frame[0], rids=rids)
            try:
                return execute(items)
            finally:
                rec.end(frame)

        init(self, traced_execute, **kwargs)

    queue.MicroBatcher.submit = traced_submit
    queue.MicroBatcher.__init__ = traced_init
    server.json = _TracedJson(rec)
    sys.stdout = _TracedStdout(rec, sys.stdout)


def main(argv: list[str]) -> int:
    trace_path, serve_args = argv[0], argv[1:]
    from repro.__main__ import main as repro_main

    rec = Recorder()
    install(rec, extra_modules=("repro.serve.server",))
    install_serve(rec)
    try:
        return repro_main(["serve", "--stdin", *serve_args])
    finally:
        rec.dump(trace_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
