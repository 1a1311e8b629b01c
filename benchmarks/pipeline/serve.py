"""The ``wire`` workload's server child: ``reproserve`` plus a report.

Boots exactly what the ``reproserve`` console script boots (its ``main``
is called, with an ephemeral port and default ``ServerConfig``) and adds
two things from outside the program:

* ``Document.touch`` — the action of the workload's IMMEDIATE rule — is
  wrapped to note ``(stamp, now - stamp)``: the client puts its
  ``perf_counter_ns`` reading into the document as field ``t`` before
  the call, and on Linux that clock is shared by all processes;
* with ``--trace 1`` the span wrappers of :mod:`spans` are installed
  before the engine is built.  SIGUSR1 starts recording (after a reset),
  SIGUSR2 stops it; each is acknowledged in ``<report>.state``.

On SIGTERM the server drains as ``reproserve`` always does, then the
report (stamps, span summary, raw spans) is written and the child exits.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-dir", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from repro.server.main import main as reproserve
    from repro.server.server import Document

    now = time.perf_counter_ns
    touches: list[tuple[int, int]] = []
    sentried_touch = Document.touch

    def touch(self):
        stamp = getattr(self, "t", 0)
        if stamp:
            touches.append((stamp, now() - stamp))
        return sentried_touch(self)

    rec = None
    uninstall = None
    if args.trace:
        from benchmarks.pipeline import spans
        rec = spans.Recorder()
        uninstall = spans.install(rec, server_side=True)
        touch = rec.wrap(touch, "oodb.sentry", "sentry:Document.touch")
        Document.set = rec.wrap(Document.set, "oodb.sentry",
                                "sentry:Document.set")

        def acknowledge(state: str) -> None:
            with open(args.report + ".state", "w") as handle:
                handle.write(state)

        def start_recording(signum, frame) -> None:
            rec.reset()
            rec.enabled = True
            acknowledge("recording")

        def stop_recording(signum, frame) -> None:
            rec.enabled = False
            acknowledge("stopped")

        signal.signal(signal.SIGUSR1, start_recording)
        signal.signal(signal.SIGUSR2, stop_recording)
    Document.touch = touch

    try:
        code = reproserve(["--port", "0", "--data-dir", args.data_dir])
    finally:
        report = {"touches": touches, "summary": None, "spans": []}
        if rec is not None:
            rec.enabled = False
            report["summary"] = rec.summary()
            report["spans"] = list(rec.raw_spans())
            uninstall()
        with open(args.report, "w") as handle:
            json.dump(report, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
