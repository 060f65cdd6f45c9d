"""Well-known attribute names and enums of the TDP protocol.

Paper Section 3.2: "there is a standard list of attribute names for the
set of data commonly exchanged between the different daemons (every RT
and RM must understand this set)"; tools and RMs may extend it with
situation-specific names.  This module is that standard list.
"""

from __future__ import annotations

import enum


class CreateMode(enum.Enum):
    """How ``tdp_create_process`` launches the application (Section 2.2)."""

    RUN = "run"        # create and start immediately (scheme 1)
    PAUSED = "paused"  # create but stop before main (scheme 2)


class Attr:
    """The standard attribute names.

    Process-scoped names are templates taking the pid; tool-scoped names
    take a tool daemon index.  The plain names (``PID``,
    ``EXECUTABLE_NAME``) are the ones the pilot exchanged (Section 4.3).
    """

    # -- the pilot's core exchange (starter -> paradynd) --------------------
    PID = "pid"                          # application process id
    EXECUTABLE_NAME = "executable_name"  # application executable
    APP_HOST = "app_host"                # host the AP runs on
    APP_ARGS = "app_args"                # flattened argument vector

    # -- tool communication (Section 2.4) -----------------------------------
    RT_FRONTEND = "rt.frontend"          # host:port of the tool front-end
    RM_PROXY = "rm.proxy"                # host:port of the RM's proxy, if any
    STDIO_ENDPOINT = "stdio.endpoint"    # host:port where job stdio connects

    # -- process status stream (Section 2.3) ----------------------------------
    @staticmethod
    def proc_status(pid: int) -> str:
        """Status attribute for one process: values ``created``,
        ``running``, ``stopped``, ``exited:<code>``."""
        return f"proc.{pid}.status"

    @staticmethod
    def proc_exit_code(pid: int) -> str:
        return f"proc.{pid}.exit_code"

    #: subscription pattern covering every process status attribute
    PROC_STATUS_PATTERN = "proc.*.status"

    # -- process control requests (RT -> RM, Section 2.3) ----------------------
    CTL_REQUEST_PREFIX = "ctl.req."

    @staticmethod
    def ctl_request(token: str) -> str:
        return f"ctl.req.{token}"

    @staticmethod
    def ctl_request_token(attribute: str) -> str:
        """Inverse of :meth:`ctl_request`: the token inside a request name."""
        return attribute[len(Attr.CTL_REQUEST_PREFIX):]

    @staticmethod
    def ctl_reply(token: str) -> str:
        return f"ctl.rep.{token}"

    CTL_REQUEST_PATTERN = "ctl.req.*"

    # -- tool metric samples (extension; pilot sent samples only on the
    # -- tool's private channel) ------------------------------------------------
    @staticmethod
    def metric_sample(metric: str, focus: str) -> str:
        """Latest sampled value of one (metric, focus) pair, published
        by the tool daemon each sampling pass so any TDP participant
        can read live performance data through the space.

        Focus strings embed ``host:pid``; ``:`` is not legal in
        attribute names, so it maps to ``+`` (legal, unused by foci).
        """
        return f"paradyn.sample.{metric}.{focus.replace(':', '+')}"

    METRIC_SAMPLE_PATTERN = "paradyn.sample.*"

    # -- presence / faults (extension; paper defers fault model) ---------------
    @staticmethod
    def presence(entity: str) -> str:
        """An ephemeral claim that ``entity``'s session is alive: its
        removal (detach, closed connection, lease expiry) is the liveness
        signal of a daemon the RM did not start, for whoever subscribes."""
        return f"presence.{entity}"

    @staticmethod
    def fault(entity: str) -> str:
        """Put by the RM when a daemon it started failed (a starter's
        tool: ``fault.<cmd>/<context>`` = ``rt:<reason>``)."""
        return f"fault.{entity}"

    # -- server statistics (observability; extension) ---------------------------
    #: prefix of the attributes a server publishes its own metrics under
    STATS_PREFIX = "tdp.stats."

    @staticmethod
    def stat(name: str) -> str:
        """Attribute carrying one server statistic, e.g. ``tdp.stats.puts``.

        A (blocking or non-blocking) get of any ``tdp.stats.*`` attribute
        makes the serving LASS/CASS refresh its whole statistics snapshot
        into the requesting context first, so tools read live values.
        """
        return f"tdp.stats.{name}"

    STATS_PATTERN = "tdp.stats.*"

    # -- auxiliary services (Section 1 "Auxiliary services") ----------------------
    @staticmethod
    def aux_endpoint(name: str) -> str:
        return f"aux.{name}.endpoint"

    @staticmethod
    def aux_status(name: str) -> str:
        return f"aux.{name}.status"


class ProcStatus:
    """Values of the ``proc.<pid>.status`` attribute."""

    CREATED = "created"    # exists, never started (create-paused window)
    RUNNING = "running"
    STOPPED = "stopped"
    EXITED_PREFIX = "exited:"

    @staticmethod
    def exited(code: int) -> str:
        return f"{ProcStatus.EXITED_PREFIX}{code}"

    @staticmethod
    def is_exited(status: str) -> bool:
        return status.startswith(ProcStatus.EXITED_PREFIX)

    @staticmethod
    def exit_code(status: str) -> int:
        if not ProcStatus.is_exited(status):
            raise ValueError(f"not an exited status: {status!r}")
        return int(status[len(ProcStatus.EXITED_PREFIX):])
