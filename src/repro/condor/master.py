"""condor_master: keeps the other Condor daemons alive.

"There is another condor daemon, called the condor_master that is
present on both local and remote nodes; its job is to keep track of the
other Condor daemons" (Section 4.1).  Like condor_master, which spawns
and reaps the daemons it keeps, ours learns of a daemon's end from the
daemon itself: each supervised daemon posts an exit notice, and the
master's one thread, parked untimed on those notices, restarts it
through a supplied factory.  No daemon is probed.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable

from repro.util.log import get_logger
from repro.util.threads import spawn

_log = get_logger("condor.master")


class Master:
    """Daemon supervisor for one host (or one pool in the simulation)."""

    #: restarts tried at once for one exit notice before giving up
    MAX_RESTARTS = 3

    def __init__(self) -> None:
        #: name -> the factory that restarts it; a name leaves on give-up
        self._restarts: dict[str, Callable[[], Any]] = {}
        self._lock = threading.Lock()
        self._stopped = False
        #: exit notices (a daemon's name), and None once stopped
        self._notices: queue.SimpleQueue[str | None] = queue.SimpleQueue()
        self.events: list[str] = []
        self._thread = spawn(self._watch, name="condor-master")

    def supervise(self, name: str, daemon: Any, restart: Callable[[], Any]) -> None:
        """Restart ``daemon`` with ``restart()`` once it has exited: its
        ``on_exit(callback)`` calls back once, at its exit.  A restart
        whose daemon should be kept supervises the one it started."""
        with self._lock:
            self._restarts[name] = restart
        daemon.on_exit(lambda: self._notify(name))

    def _notify(self, name: str) -> None:
        """An exit notice; one after :meth:`stop` is dropped."""
        with self._lock:
            if not self._stopped:
                self._notices.put(name)

    def _watch(self) -> None:
        while (name := self._notices.get()) is not None:
            with self._lock:
                restart = None if self._stopped else self._restarts.get(name)
            if restart is not None:
                self._restart(name, restart)

    def _restart(self, name: str, restart: Callable[[], Any]) -> None:
        for attempt in range(1, self.MAX_RESTARTS + 1):
            self.events.append(f"restart:{name}")
            _log.info("master restarting %s (attempt %d)", name, attempt)
            try:
                restart()
                return
            except Exception as e:  # noqa: BLE001 — retried, then given up
                _log.warning("restart of %s failed: %s", name, e)
        self.events.append(f"gave-up:{name}")
        _log.warning("master giving up on %s", name)
        with self._lock:
            self._restarts.pop(name, None)

    def stop(self) -> None:
        with self._lock:
            self._stopped = True
        self._notices.put(None)
        self._thread.join(timeout=5.0)
