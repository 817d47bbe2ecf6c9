"""Signal-aware graceful shutdown: drain latch + bounded drain deadline.

A campaign that dies to bare SIGINT/SIGTERM default handling loses its
in-flight files and leaves leased adapters stranded.  This module gives the
process one coordinated reaction instead:

* The **drain latch** is a process-global flag the execution layers poll at
  their natural unit boundaries — between matrix cells
  (:class:`repro.core.transplant.CellExecutor`), between files inside a shard
  (:mod:`repro.core.parallel`), and between files of serial suite execution.
  Once the latch is set, in-flight files *finish* (their results flush to
  store and journal) and everything not yet started degrades to a partial
  result carrying an :class:`~repro.core.resilience.InfraFailure` of kind
  ``"shutdown-drain"`` — so the campaign exits through the existing
  partial-results path (CLI exit code 2) and a later run re-enters exactly
  the drained cells.
* :func:`signal_aware_shutdown` installs SIGINT/SIGTERM handlers around a
  campaign: the **first** signal requests a drain and arms a force-exit
  timer (``REPRO_DRAIN_SECONDS``, default 30 — a wedged drain must not hang
  forever); a **second** signal restores the default handler and re-raises
  itself, exiting immediately with the conventional ``128 + signum`` status.

Signal handlers can only be installed from the main thread;
:func:`signal_aware_shutdown` degrades to a no-op (with a debug log) when
entered from any other thread, so library callers can wrap campaigns
unconditionally.
"""

from __future__ import annotations

import logging
import os
import signal
import sys
import threading
from contextlib import contextmanager
from typing import Iterator

logger = logging.getLogger(__name__)

#: Environment variable bounding the drain window (seconds).
DRAIN_SECONDS_ENV = "REPRO_DRAIN_SECONDS"

#: Drain window when nothing is configured.
DEFAULT_DRAIN_SECONDS = 30.0

#: ``InfraFailure.kind`` recorded for work a drain prevented from running.
SHUTDOWN_DRAIN_KIND = "shutdown-drain"


def configured_drain_seconds() -> float:
    """The drain window: ``REPRO_DRAIN_SECONDS`` or the 30s default."""
    raw = os.environ.get(DRAIN_SECONDS_ENV)
    if raw:
        try:
            value = float(raw)
        except ValueError:
            value = 0.0
        if value > 0:
            return value
    return DEFAULT_DRAIN_SECONDS


class DrainLatch:
    """A one-way (until reset) "stop starting new work" flag."""

    def __init__(self) -> None:
        self._event = threading.Event()
        self.reason: str | None = None

    def request(self, reason: str) -> None:
        if not self._event.is_set():
            self.reason = reason
            self._event.set()

    def draining(self) -> bool:
        return self._event.is_set()

    def reset(self) -> None:
        self._event.clear()
        self.reason = None


#: the process-global latch every execution layer polls
_LATCH = DrainLatch()


def draining() -> bool:
    """Whether a drain has been requested (fast path: one Event check)."""
    return _LATCH.draining()


def drain_reason() -> str:
    """Human-readable cause of the current drain ("" when not draining)."""
    return _LATCH.reason or ""


def request_drain(reason: str) -> None:
    """Set the process-global drain latch (idempotent)."""
    _LATCH.request(reason)


def reset_drain() -> None:
    """Clear the latch (end of a campaign scope; test hook)."""
    _LATCH.reset()


class ShutdownState:
    """What :func:`signal_aware_shutdown` observed, for the caller to act on."""

    def __init__(self) -> None:
        self.signum: int | None = None

    @property
    def drained(self) -> bool:
        """True when a signal requested a drain inside the guarded block."""
        return self.signum is not None

    @property
    def signal_name(self) -> str:
        if self.signum is None:
            return ""
        try:
            return signal.Signals(self.signum).name
        except ValueError:  # pragma: no cover - unknown signal number
            return str(self.signum)


@contextmanager
def signal_aware_shutdown(
    resume_command: str | None = None,
    signals: tuple[int, ...] = (signal.SIGINT, signal.SIGTERM),
    drain_seconds: float | None = None,
) -> Iterator[ShutdownState]:
    """Guard a campaign with drain-on-first-signal, die-on-second semantics.

    ``resume_command`` (when known) is printed with the drain notice so an
    operator knows exactly how to pick the campaign back up.  The force-exit
    timer uses ``drain_seconds`` (default :func:`configured_drain_seconds`)
    and exits ``128 + signum``, the same status an unhandled signal would
    have produced — a drain that wedges must look like the kill it is.

    On exit the latch, handlers, and timer are restored/cancelled, so nested
    or sequential campaigns start clean.
    """
    state = ShutdownState()
    if threading.current_thread() is not threading.main_thread():
        logger.debug("signal_aware_shutdown entered off the main thread; signals not intercepted")
        yield state
        return

    deadline = drain_seconds if drain_seconds is not None else configured_drain_seconds()
    holder: dict = {"timer": None}

    def _handler(signum, frame) -> None:
        if state.signum is not None:
            # second signal: the operator means it — die the default way
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        state.signum = signum
        request_drain(f"signal {signal.Signals(signum).name}")
        timer = threading.Timer(deadline, os._exit, args=(128 + signum,))
        timer.daemon = True
        timer.start()
        holder["timer"] = timer
        lines = [
            f"received {signal.Signals(signum).name}: draining — in-flight files finish, "
            f"remaining work is journaled for resume (deadline {deadline:.0f}s; signal again to exit now)"
        ]
        if resume_command:
            lines.append(f"resume with: {resume_command}")
        print("\n".join(lines), file=sys.stderr, flush=True)

    previous = {signum: signal.signal(signum, _handler) for signum in signals}
    try:
        yield state
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
        timer = holder["timer"]
        if timer is not None:
            timer.cancel()
        if state.signum is not None:
            reset_drain()
