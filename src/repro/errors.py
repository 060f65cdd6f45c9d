"""Exception hierarchy for the TDP reproduction.

Every error raised by the public API derives from :class:`TdpError` so
callers can catch one base class.  The hierarchy mirrors the three service
groups of the paper (Section 3): process management, inter-daemon
communication (attribute space / transport), and event notification —
plus the substrates (cluster simulation, resource manager, run-time tool).
"""

from __future__ import annotations


class TdpError(Exception):
    """Base class for every error raised by this library."""


# ---------------------------------------------------------------------------
# Attribute space / communication errors (paper Section 2.1, 3.2)
# ---------------------------------------------------------------------------

class AttributeSpaceError(TdpError):
    """Base class for attribute-space failures."""


class NoSuchAttributeError(AttributeSpaceError, KeyError):
    """``tdp_get`` on an attribute absent from the space (non-blocking mode).

    The paper specifies that a blocking ``tdp_get`` waits; the non-blocking
    variant instead reports this error, matching the C library's error
    return.
    """

    def __init__(self, attribute: str, context: str | None = None):
        self.attribute = attribute
        self.context = context
        super().__init__(attribute)

    def __str__(self) -> str:  # KeyError quotes its arg; keep messages clean
        if self.context is not None:
            return f"no attribute {self.attribute!r} in context {self.context!r}"
        return f"no attribute {self.attribute!r}"


class AttributeFormatError(AttributeSpaceError, ValueError):
    """Attribute names/values must be non-empty strings without NUL bytes."""


class ContextError(AttributeSpaceError):
    """Unknown or already-destroyed attribute-space context."""


class SpaceClosedError(AttributeSpaceError):
    """Operation on an attribute space whose server has shut down."""


class GetTimeoutError(AttributeSpaceError, TimeoutError):
    """A blocking ``tdp_get`` exceeded its caller-supplied timeout."""


class ReconnectFailedError(SpaceClosedError):
    """A reconnecting session exhausted its :class:`ReconnectPolicy`.

    Subclasses :class:`SpaceClosedError` so existing handlers that treat
    a dead space as fatal keep working; catching this type specifically
    distinguishes "the server went away and recovery was attempted" from
    a session that never had reconnection enabled.
    """


# ---------------------------------------------------------------------------
# Transport / network errors
# ---------------------------------------------------------------------------

class TransportError(TdpError):
    """Base class for channel/listener failures."""


class ChannelClosedError(TransportError):
    """Send/receive on a closed channel."""


class ConnectError(TransportError):
    """Could not establish a channel to the requested address."""


class FirewallBlockedError(ConnectError):
    """The simulated firewall/NAT refused the connection.

    This is the failure mode that motivates the TDP proxy interface
    (paper Section 2.4): direct tool-daemon to front-end connections out
    of a private network are blocked and must go through the RM's proxy.
    """


class ProxyError(TransportError):
    """Proxy tunnel establishment or forwarding failed."""


class ProtocolError(TransportError):
    """Malformed or unexpected wire message."""


# ---------------------------------------------------------------------------
# TDP handle / lifecycle errors
# ---------------------------------------------------------------------------

class HandleError(TdpError):
    """Invalid, closed, or foreign TDP handle."""


# ---------------------------------------------------------------------------
# Process management errors (paper Section 2.2, 2.3, 3.1)
# ---------------------------------------------------------------------------

class ProcessError(TdpError):
    """Base class for process-management failures."""


class NoSuchProcessError(ProcessError):
    """Operation on a pid that does not exist on the target host."""

    def __init__(self, pid: int, host: str | None = None):
        self.pid = pid
        self.host = host
        where = f" on host {host!r}" if host else ""
        super().__init__(f"no such process {pid}{where}")


class InvalidProcessStateError(ProcessError):
    """Operation illegal in the process's current state.

    e.g. ``tdp_continue_process`` on a process that is not stopped, or
    attaching twice.
    """


class NotProcessOwnerError(ProcessError):
    """A daemon other than the controlling RM attempted a control operation.

    Paper Section 2.3: process control belongs to the RM; the single point
    of responsibility eliminates conflicting control races.  The library
    enforces it by rejecting control calls from non-owners that have not
    been delegated control.
    """


class AttachError(ProcessError):
    """``tdp_attach`` failed (already traced, bad pid, permission)."""


class ExecutableNotFoundError(ProcessError):
    """``tdp_create_process`` could not resolve the executable/program."""


# ---------------------------------------------------------------------------
# File staging errors (paper Section 1, "Tool daemon configuration and data
# files")
# ---------------------------------------------------------------------------

class StagingError(TdpError):
    """Configuration or output file transfer failed."""


# ---------------------------------------------------------------------------
# Simulation substrate errors
# ---------------------------------------------------------------------------

class SimulationError(TdpError):
    """Base class for simulated-cluster failures."""


class NoSuchHostError(SimulationError):
    """Unknown host name in the simulated cluster."""

    def __init__(self, hostname: str):
        self.hostname = hostname
        super().__init__(f"no such host {hostname!r}")


# ---------------------------------------------------------------------------
# Resource manager (Condor-like) errors
# ---------------------------------------------------------------------------

class ResourceManagerError(TdpError):
    """Base class for batch-system failures."""


class SubmitError(ResourceManagerError):
    """Malformed submit description file."""


class MatchmakingError(ResourceManagerError):
    """No machine matched the job's requirements."""


class UniverseError(ResourceManagerError):
    """Unknown or unsupported execution universe."""


# ---------------------------------------------------------------------------
# Run-time tool (Paradyn-like) errors
# ---------------------------------------------------------------------------

class ToolError(TdpError):
    """Base class for run-time tool failures."""


class InstrumentationError(ToolError):
    """Dynamic instrumentation request could not be applied."""


class MetricError(ToolError):
    """Unknown metric or invalid focus for metric collection."""


# ---------------------------------------------------------------------------
# MPI substrate errors
# ---------------------------------------------------------------------------

class MpiError(TdpError):
    """Base class for simulated-MPI failures."""


class RankError(MpiError):
    """Invalid rank in a communicator operation."""


# ---------------------------------------------------------------------------
# Concurrency sanitizer (TDP_SANITIZE=1 runtime lockset witness)
# ---------------------------------------------------------------------------

class LockOrderError(TdpError):
    """A thread violated the declared lock hierarchy.

    Raised only when the runtime lockset witness is active
    (``TDP_SANITIZE=1``): acquiring a lock out of rank order, acquiring
    an undeclared lock, or blocking while holding a lock the hierarchy
    does not sanction holding across blocking calls.  The same hierarchy
    (``repro.analysis.lockorder``) backs the static
    ``undeclared-lock-edge`` lint pass, so a witness report should
    always correspond to a fixable ordering bug, not test noise.
    """


class GuardViolationError(TdpError):
    """A shared field was touched without its declared guard held.

    Raised only by the runtime field-access witness (``TDP_SANITIZE=1``
    plus :func:`repro.util.sync.arm_guard_witness`): the committed guard
    manifest (``guards.lock.json``, maintained by ``python -m repro
    guards``) names the lock guarding each witnessed field, and the
    witness descriptor checks the calling thread's lockset on every
    post-construction read/write.  The static ``guarded-field-unlocked``
    lint pass proves the same invariant from the AST; the witness
    catches what static reachability cannot see (dynamic dispatch,
    monkeypatching, test harness threads).
    """
