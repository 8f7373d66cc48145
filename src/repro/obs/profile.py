"""Opt-in sampling profiler: wall-time by executor phase.

``cProfile``/``sys.setprofile`` instrument every call and distort the
fast paths they are meant to explain; ``SIGPROF`` timers are POSIX-only
and fight any other signal user.  This sampler does neither: a daemon
thread wakes at a configurable rate, reads the *target* thread's frame
stack out of :func:`sys._current_frames`, and increments one counter
per ``(phase, stack)`` pair.  The profiled thread executes zero extra
instructions; total overhead is the GIL time the sampler thread steals,
which at the default ~97 Hz measured under 2% on the fig-16 workloads.

Phase attribution piggybacks on the tracer: ``repro.obs.trace`` keeps
its active-tracer stack in a module global precisely so this thread can
peek at the innermost open span ("verify", "scan.columnar", ...) of
whatever the main thread is doing.  A sample outside any span lands in
``(untraced)``.

The sampling rate defaults to a prime (97 Hz, not 100) so the clock
cannot phase-lock with per-second work and systematically miss or
double-count a stage.
"""

from __future__ import annotations

import sys
import threading
from typing import Any, Dict, List, Optional, Tuple

from . import trace as _trace

__all__ = ["SamplingProfiler", "DEFAULT_HZ"]

DEFAULT_HZ = 97.0

#: Frames kept per sample, innermost first.
MAX_STACK_DEPTH = 32

IDLE_PHASE = "(untraced)"


def _format_frame(frame: Any) -> str:
    code = frame.f_code
    filename = code.co_filename
    slash = filename.rfind("/")
    if slash >= 0:
        filename = filename[slash + 1 :]
    if filename.endswith(".py"):
        filename = filename[:-3]
    return f"{filename}.{code.co_name}"


def _current_phase() -> str:
    """The innermost open span name on the active tracer, if any.

    Reads shared state without a lock — both stacks are append/pop-only
    lists mutated under the GIL, so the worst case is a one-sample
    misattribution, which sampling already tolerates by design.
    """
    try:
        active = _trace._ACTIVE
        tracer = active[-1] if active else None
        if tracer is None:
            return IDLE_PHASE
        stack = tracer._stack
        return stack[-1].name if stack else IDLE_PHASE
    except (IndexError, AttributeError):
        return IDLE_PHASE


class SamplingProfiler:
    """Samples one thread's stack at ``hz`` until stopped.

    Usage::

        profiler = SamplingProfiler(hz=97)
        with profiler:
            run_workload()
        for row in profiler.take_exemplar(top=10)["hotspots"]:
            print(row["phase"], row["stack"], row["samples"])

    It samples the thread that calls :meth:`start` — normally the
    request-serving thread — at most :data:`MAX_STACK_DEPTH` frames deep.
    """

    def __init__(self, hz: float = DEFAULT_HZ) -> None:
        if hz <= 0:
            raise ValueError(f"hz must be positive, got {hz}")
        self.hz = float(hz)
        self.interval = 1.0 / self.hz
        self._target_thread_id: Optional[int] = None
        self._samples: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self._total = 0
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ---------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        if self._target_thread_id is None:
            self._target_thread_id = threading.get_ident()
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-obs-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- the sampler thread ------------------------------------------------

    def _run(self) -> None:
        target = self._target_thread_id
        interval = self.interval
        while not self._stop.wait(interval):
            frame = sys._current_frames().get(target)
            if frame is None:
                continue
            stack: List[str] = []
            depth = 0
            while frame is not None and depth < MAX_STACK_DEPTH:
                stack.append(_format_frame(frame))
                frame = frame.f_back
                depth += 1
            stack.reverse()  # flame convention: root first, leaf last
            key = (_current_phase(), tuple(stack))
            with self._lock:
                self._samples[key] = self._samples.get(key, 0) + 1
                self._total += 1

    # -- reads -------------------------------------------------------------

    def take_exemplar(self, top: int = 10) -> Dict[str, Any]:
        """Aggregate-and-drain: the profile accumulated since the last
        exemplar, ready to attach to a slow-request trace.

        Draining keys each exemplar to *its* request's samples rather
        than the whole process history, so successive slow queries do
        not blur into one another.
        """
        with self._lock:
            items = sorted(self._samples.items(), key=lambda kv: -kv[1])
            total = self._total
            self._samples = {}
            self._total = 0
        phases: Dict[str, int] = {}
        for (phase, _stack), count in items:
            phases[phase] = phases.get(phase, 0) + count
        return {
            "hz": self.hz,
            "samples": total,
            "phase_seconds": {
                phase: round(count * self.interval, 6)
                for phase, count in sorted(phases.items(), key=lambda kv: -kv[1])
            },
            "hotspots": [
                {
                    "phase": phase,
                    "stack": ";".join(stack),
                    "samples": count,
                }
                for (phase, stack), count in items[:top]
            ],
        }
