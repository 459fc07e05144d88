"""A run-time guard against blocking calls on a running asyncio event loop.

An audit hook (:func:`sys.addaudithook`) watches for file opens, forks and
subprocess launches, and a wrapper around :func:`time.sleep` watches for
sleeps.  When one fires on a thread that is running an event loop, the
guard records it in :data:`VIOLATIONS` and raises
:class:`BlockingOnEventLoop`, so the blocking call never happens.

Opens made on behalf of the interpreter are allowed: those with an import
machinery frame (a lazy import, including the module body it runs) or a
:mod:`linecache` frame (source lines read to format a traceback or a
warning) on the stack.  Frames are matched by module name, so this holds
with frozen modules on or off.

Python 3.12 also raises a ``time.sleep`` audit event; the wrapper is used
on every version so that there is one code path.  It does not see a
``sleep`` bound before :func:`install` ran (``from time import sleep``).  Audit hooks cannot be
removed, so the guard is installed once per process; ``tests/conftest.py``
does so and fails any test that leaves :data:`VIOLATIONS` non-empty, which
catches a handler whose ``try``/``except`` swallowed the exception.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time

__all__ = ["VIOLATIONS", "BlockingOnEventLoop", "install", "take"]

#: Audit events that block the calling thread.
WATCHED = frozenset({"open", "os.fork", "subprocess.Popen"})

#: Modules whose frames on the stack make an open the interpreter's own.
_INTERPRETER_OPENERS = frozenset(
    {"importlib._bootstrap", "importlib._bootstrap_external", "zipimport", "linecache"}
)

#: One line per blocking call seen on an event-loop thread.
VIOLATIONS: list[str] = []


class BlockingOnEventLoop(RuntimeError):
    """A blocking call was made on a thread with a running event loop."""


def _opened_by_interpreter(frame) -> bool:
    while frame is not None:
        if frame.f_globals.get("__name__") in _INTERPRETER_OPENERS:
            return True
        frame = frame.f_back
    return False


def _check(event: str, args: tuple[object, ...]) -> None:
    if asyncio._get_running_loop() is None:
        return
    caller = sys._getframe(2)
    if event == "open" and _opened_by_interpreter(caller):
        return
    detail = args[0] if args else ""
    message = (
        f"{event}({detail!r}) on event-loop thread {threading.current_thread().name} "
        f"at {caller.f_code.co_filename}:{caller.f_lineno}"
    )
    VIOLATIONS.append(message)
    raise BlockingOnEventLoop(message)


def _hook(event: str, args: tuple[object, ...]) -> None:
    if event in WATCHED:
        _check(event, args)


def install() -> None:
    """Install the audit hook and the ``time.sleep`` wrapper.

    Call once per process: a second call would record every violation twice.
    """
    sys.addaudithook(_hook)
    original = time.sleep

    def sleep(seconds: float) -> None:
        _check("time.sleep", (seconds,))
        original(seconds)

    time.sleep = sleep


def take() -> list[str]:
    """Empty :data:`VIOLATIONS` and return what it held."""
    taken = VIOLATIONS[:]
    VIOLATIONS.clear()
    return taken
