"""Run ``repro serve`` exactly as ``python -m repro serve`` would, plus one
measurement inside the server process.

Usage: ``python perfbench/serve_launcher.py MODE OUT serve --model M``.

- ``trace``: install the layer wrappers; when the server exits, write
  the span summary to ``OUT`` as JSON.  Time the loop spends blocked on
  stdin is recorded as ``serving.stdin_wait`` so that idle time is not
  mistaken for unattributed work.
- ``calibrate``: time :data:`SETUP_TICKS` calibration units
  (:mod:`calibrate`) in the server's own thread when set-up is done (at
  the first read of input), and one more, at most every
  :data:`TICK_EVERY_S`, whenever the server is about to wait for input
  and none is pending; when it exits, write the unit timings to ``OUT``
  as JSON.  The harness divides the server's CPU time by their slowness
  and takes their own time out of it.
- ``plain``: nothing besides the server (``OUT`` is ignored).
"""

from __future__ import annotations

import json
import select
import sys
import time

from calibrate import Calibrator
from layers import install_serve
from tracer import Tracer

#: Calibration units timed when set-up is done.
SETUP_TICKS = 30
#: Least wall time between two calibration units while serving.
TICK_EVERY_S = 0.1


class TimedStream:
    """A text stream whose blocking reads are spans of their own."""

    def __init__(self, stream, tracer: Tracer) -> None:
        self._stream = stream
        self._tracer = tracer

    def readline(self, *args):
        self._tracer.enter("serving.stdin_wait")
        try:
            return self._stream.readline(*args)
        finally:
            self._tracer.leave()

    def __getattr__(self, name):
        return getattr(self._stream, name)


class CalibratedStream:
    """A text stream that times calibration units before an idle wait,
    and :data:`SETUP_TICKS` of them before the first read."""

    def __init__(self, stream, calibrator: Calibrator) -> None:
        self._stream = stream
        self._calibrator = calibrator
        self._last: float | None = None

    def readline(self, *args):
        if self._last is None:
            self._calibrator.tick(SETUP_TICKS)
            self._last = time.perf_counter()
        elif (time.perf_counter() - self._last >= TICK_EVERY_S
                and not select.select([self._stream], [], [], 0)[0]):
            self._calibrator.tick()
            self._last = time.perf_counter()
        return self._stream.readline(*args)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main() -> int:
    mode, out = sys.argv[1], sys.argv[2]
    import repro.cli

    if mode == "plain":
        return repro.cli.main(sys.argv[3:])
    if mode == "calibrate":
        calibrator = Calibrator()
        sys.stdin = CalibratedStream(sys.stdin, calibrator)
        try:
            return repro.cli.main(sys.argv[3:])
        finally:
            with open(out, "w", encoding="utf-8") as fh:
                json.dump(calibrator.samples, fh)
    tracer = Tracer()
    install_serve(tracer)
    sys.stdin = TimedStream(sys.stdin, tracer)
    t0 = time.perf_counter()
    try:
        rc = repro.cli.main(sys.argv[3:])
    finally:
        wall = time.perf_counter() - t0
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(wall), fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
