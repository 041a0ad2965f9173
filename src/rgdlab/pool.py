"""Worker processes that run the independent units of an experiment grid.

A unit is one call ``fn(*args)`` of a module-level function.  Each worker is
a fresh Python process started with one BLAS thread and one
``multiprocessing.connection`` pipe to the parent; it runs one unit at a
time and keeps nothing between units but its imported modules.  The parent
dispatches from its own thread (it starts no helper thread) and waits on
every worker's connection at once.  A message is one pickled object, so a
received array is an ordinary writable copy, and objects shared inside one
unit's result (a stage checkpoint held by several runs) stay shared.

The pool lives as long as the process.  ``run`` starts it on first use and
again only when the worker count changes; a failure discards it, so the next
call starts a fresh one.  Workers are stopped at exit, and a worker whose
connection closes exits on its own.  A unit may write files (``_run_group``
writes its stage checkpoints): a worker is stopped with SIGTERM, which
unwinds the unit so that an atomic write removes its temporary file, and is
killed only if it has not exited after ``_STOP_GRACE_S`` seconds.
"""

from __future__ import annotations

import atexit
import os
import signal
import subprocess
import sys
import traceback
import types
from multiprocessing.connection import Connection, Pipe, wait

from .errors import RgdLabError

# The parent's BLAS threads are left alone; only the workers are pinned.
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# The worker imports the rgdlab package the parent imported, from its path.
_BOOT = ("import sys; sys.path.insert(0, sys.argv[1]); "
         "from rgdlab import pool; pool.serve(int(sys.argv[2]))")
_PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_STOP_GRACE_S = 5.0


def _exit_on_signal(signum, frame):
    raise SystemExit(128 + signum)        # unwinds the running unit, unlike SIG_DFL


def serve(fd: int) -> None:
    """Worker loop, until connection ``fd`` closes: run each unit received on it
    and send back ``(True, value)`` for each of its values, then ``(False,
    None)`` when it ends or ``(False, (exception, traceback))`` when it fails."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)      # Ctrl-C is the parent's to handle
    from . import driver  # noqa: F401  (import what units need before the first arrives)
    # After the imports, which leave nothing to clean up: a worker stopped
    # while importing ends by the default action, not midway through numpy's.
    signal.signal(signal.SIGTERM, _exit_on_signal)
    conn = Connection(fd)
    try:
        while True:
            fn, args = conn.recv()
            try:
                values = fn(*args)
                for value in values if isinstance(values, types.GeneratorType) else (values,):
                    conn.send((True, value))
                reply = (False, None)
            except Exception as err:                  # re-raised by the parent
                reply = (False, (err, traceback.format_exc()))
            conn.send(reply)
    except (EOFError, OSError):                       # the parent is gone
        return
    finally:          # no unit to unwind: exiting Python must not see SystemExit
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


class _WorkerTraceback(Exception):
    """Where in a worker a unit failed, attached as the re-raised error's cause."""


class _Worker:
    def __init__(self, index: int):
        self.index = index
        self.conn, theirs = Pipe()
        with theirs:
            self.proc = subprocess.Popen(
                [sys.executable, "-c", _BOOT, _PACKAGE_ROOT, str(theirs.fileno())],
                pass_fds=(theirs.fileno(),), stdin=subprocess.DEVNULL,
                env={**os.environ, **_WORKER_ENV})

    def fileno(self) -> int:            # so that ``wait`` takes and returns workers
        return self.conn.fileno()

    def send(self, message) -> None:
        try:
            self.conn.send(message)
        except OSError:
            raise self._died() from None

    def recv(self):
        try:
            return self.conn.recv()
        except (EOFError, OSError):
            raise self._died() from None

    def _died(self) -> RgdLabError:
        return RgdLabError(f"pool worker {self.index} (pid {self.proc.pid}) exited "
                           f"with code {self.proc.wait()}")


class _Pool:
    def __init__(self, size: int):
        self.workers = [_Worker(i) for i in range(size)]

    def run(self, units) -> None:
        queue = list(units)
        idle = list(self.workers)
        busy: dict[_Worker, object] = {}
        while queue or busy:
            while queue and idle:
                worker = idle.pop()
                fn, args, then = queue.pop(0)
                worker.send((fn, args))
                busy[worker] = then
            for worker in wait(self.workers):       # an idle worker is ready only at EOF
                more, value = worker.recv()
                if more:
                    queue[:0] = busy[worker](value) or ()
                elif value is None:
                    del busy[worker]
                    idle.append(worker)
                else:
                    error, text = value
                    raise error from _WorkerTraceback(text)

    def stop(self) -> None:
        for worker in self.workers:           # all at once, then wait for each
            worker.conn.close()
            worker.proc.terminate()
        for worker in self.workers:
            try:
                worker.proc.wait(_STOP_GRACE_S)
            except subprocess.TimeoutExpired:
                worker.proc.kill()
                worker.proc.wait()


_pool: _Pool | None = None


def start(size: int) -> None:
    """Have ``size`` workers running, starting them if needed."""
    global _pool
    if _pool is None or len(_pool.workers) != size:
        shutdown()
        _pool = _Pool(size)


def run(size: int, units) -> None:
    """Run ``units`` and the units they lead to on ``size`` workers.

    A unit is ``(fn, args, then)``: a worker computes ``fn(*args)``, and the
    parent passes the result to ``then``, which may return more units; those
    are dispatched before the ones still queued.  If ``fn`` is a generator
    function, each value it yields goes to ``then`` as soon as it arrives.
    An exception raised by ``fn`` is re-raised here with its type and
    message, and a worker that dies raises ``RgdLabError``; either way the
    pool is discarded.
    """
    start(size)
    try:
        _pool.run(units)
    except BaseException:
        shutdown()                                    # workers may be mid-unit
        raise


def shutdown() -> None:
    """Stop every worker; the next ``run`` starts new ones."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool, None
        pool.stop()


atexit.register(shutdown)
