"""Condor submit description files — including the Parador extensions.

The grammar is the classic ``key = value`` per line, ``#`` comments,
``queue [N]`` to enqueue, and Condor's ``+Attribute`` prefix for ad
extensions.  The pilot's new entries (paper Figure 5B) are:

* ``+SuspendJobAtExec = True`` — create the application but stop it
  before it starts executing;
* ``+ToolDaemonCmd / +ToolDaemonArgs / +ToolDaemonOutput /
  +ToolDaemonError / +ToolDaemonInput`` — "equivalent to the description
  of a regular job" for the tool daemon the starter must co-launch.

``%pid``-style placeholders in ``ToolDaemonArgs`` are expanded by the
starter at launch time from LASS-published values (Section 4.3's
"temporary mechanism", kept because it documents the data flow).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SubmitError
from repro.util.strings import split_arguments


#: submit keys we understand; unknown keys raise (catches typos loudly)
_KNOWN_KEYS = {
    "universe",
    "executable",
    "arguments",
    "input",
    "output",
    "error",
    "environment",
    "requirements",
    "rank",
    "machine_count",
    "transfer_files",
    "transfer_input_files",
    "should_transfer_files",
    "transfer_output_files",
    "notification",
    "log",
    "priority",
    # Figure 5B of the paper contains the literal line
    # "tranfer_input_files = paradynd" (sic, missing the 's'); we accept
    # the misspelling as an alias so the verbatim figure parses.
    "tranfer_input_files",
}

_TOOL_KEYS = {
    "suspendjobatexec",
    "tooldaemoncmd",
    "tooldaemonargs",
    "tooldaemonoutput",
    "tooldaemonerror",
    "tooldaemoninput",
    "tooldaemontransferinput",
}


@dataclass
class ToolDaemonSpec:
    """Everything needed to launch the run-time tool daemon (Fig. 5A/B)."""

    cmd: str
    args_template: str = ""
    output: str | None = None
    error: str | None = None
    input: str | None = None
    transfer_input: list[str] = field(default_factory=list)


@dataclass
class SubmitDescription:
    """One parsed job (one ``queue`` statement's worth)."""

    universe: str = "vanilla"
    executable: str = ""
    arguments: list[str] = field(default_factory=list)
    input: str | None = None
    output: str | None = None
    error: str | None = None
    environment: dict[str, str] = field(default_factory=dict)
    requirements: str | None = None
    rank: str | None = None
    machine_count: int = 1
    transfer_input_files: list[str] = field(default_factory=list)
    transfer_output_files: list[str] = field(default_factory=list)
    count: int = 1  # queue N

    # Parador extensions
    suspend_job_at_exec: bool = False
    tool_daemon: ToolDaemonSpec | None = None

    def validate(self) -> "SubmitDescription":
        if not self.executable:
            raise SubmitError("submit file missing 'executable'")
        if self.machine_count < 1:
            raise SubmitError(f"machine_count must be >= 1, got {self.machine_count}")
        if self.universe not in ("vanilla", "mpi"):
            raise SubmitError(f"unsupported universe {self.universe!r}")
        if self.universe == "mpi" and self.machine_count < 1:
            raise SubmitError("mpi universe requires machine_count")
        if self.tool_daemon is not None and not self.tool_daemon.cmd:
            raise SubmitError("+ToolDaemonCmd must not be empty")
        if self.suspend_job_at_exec and self.tool_daemon is None:
            # Legal but useless: nothing will ever continue the job.
            raise SubmitError(
                "+SuspendJobAtExec without +ToolDaemonCmd would hang the job"
            )
        return self

    @property
    def monitored(self) -> bool:
        """Is this a Parador-style monitored job?"""
        return self.tool_daemon is not None

    @property
    def ranks(self) -> int:
        """How many processes the job runs: one per claimed machine in the
        MPI universe, else one."""
        return self.machine_count if self.universe == "mpi" else 1


def _parse_bool(raw: str, key: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise SubmitError(f"{key}: expected boolean, got {raw!r}")


def _strip_quotes(raw: str) -> str:
    raw = raw.strip()
    if len(raw) >= 2 and raw[0] == raw[-1] and raw[0] in "\"'":
        return raw[1:-1]
    return raw


def parse_submit_file(text: str) -> list[SubmitDescription]:
    """Parse a submit description file into one job per ``queue``.

    Keys accumulate until a ``queue`` line snapshot-commits them, as in
    Condor; later sections inherit earlier keys unless overridden.
    """
    jobs: list[SubmitDescription] = []
    state: dict[str, str] = {}
    tool_state: dict[str, str] = {}

    def commit(count: int) -> None:
        desc = SubmitDescription(count=count)
        for key, raw in state.items():
            value = _strip_quotes(raw)
            if key == "universe":
                desc.universe = value.lower()
            elif key == "executable":
                desc.executable = value
            elif key == "arguments":
                desc.arguments = split_arguments(value)
            elif key == "input":
                desc.input = value
            elif key == "output":
                desc.output = value
            elif key == "error":
                desc.error = value
            elif key == "environment":
                for pair in value.split(";"):
                    if not pair.strip():
                        continue
                    if "=" not in pair:
                        raise SubmitError(f"bad environment entry {pair!r}")
                    k, _, v = pair.partition("=")
                    desc.environment[k.strip()] = v.strip()
            elif key == "requirements":
                desc.requirements = value
            elif key == "rank":
                desc.rank = value
            elif key == "machine_count":
                try:
                    desc.machine_count = int(value)
                except ValueError:
                    raise SubmitError(f"machine_count: not an int: {value!r}") from None
            elif key in ("transfer_input_files", "tranfer_input_files"):
                desc.transfer_input_files = [
                    p.strip() for p in value.split(",") if p.strip()
                ]
            elif key == "transfer_output_files":
                desc.transfer_output_files = [
                    p.strip() for p in value.split(",") if p.strip()
                ]
            # transfer_files / should_transfer_files / notification / log /
            # priority are accepted and ignored (no-ops in the simulation).
        if "suspendjobatexec" in tool_state:
            desc.suspend_job_at_exec = _parse_bool(
                tool_state["suspendjobatexec"], "+SuspendJobAtExec"
            )
        if "tooldaemoncmd" in tool_state:
            desc.tool_daemon = ToolDaemonSpec(
                cmd=_strip_quotes(tool_state["tooldaemoncmd"]),
                args_template=_strip_quotes(tool_state.get("tooldaemonargs", "")),
                output=_strip_quotes(tool_state["tooldaemonoutput"])
                if "tooldaemonoutput" in tool_state
                else None,
                error=_strip_quotes(tool_state["tooldaemonerror"])
                if "tooldaemonerror" in tool_state
                else None,
                input=_strip_quotes(tool_state["tooldaemoninput"])
                if "tooldaemoninput" in tool_state
                else None,
                transfer_input=[
                    p.strip()
                    for p in _strip_quotes(
                        tool_state.get("tooldaemontransferinput", "")
                    ).split(",")
                    if p.strip()
                ],
            )
        jobs.append(desc.validate())

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if line.lower().startswith("queue"):
            rest = line[5:].strip()
            count = 1
            if rest:
                try:
                    count = int(rest)
                except ValueError:
                    raise SubmitError(f"line {lineno}: bad queue count {rest!r}") from None
                if count < 1:
                    raise SubmitError(f"line {lineno}: queue count must be >= 1")
            commit(count)
            continue
        if "=" not in line:
            raise SubmitError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key.startswith("+"):
            tool_key = key[1:].lower()
            if tool_key not in _TOOL_KEYS and tool_key != "suspendjobatexec":
                raise SubmitError(f"line {lineno}: unknown extension attribute {key!r}")
            tool_state[tool_key] = value
        else:
            norm = key.lower()
            if norm not in _KNOWN_KEYS:
                raise SubmitError(f"line {lineno}: unknown submit key {key!r}")
            state[norm] = value

    if not jobs:
        raise SubmitError("submit file has no 'queue' statement")
    return jobs


#: The exact submit file of paper Figure 5B (adapted executable/host names
#: are preserved verbatim; used by tests and the FIG5 bench).
FIG5B_SUBMIT_FILE = """\
universe = Vanilla
executable = foo
input = infile
output = outfile
arguments = 1 2 3
transfer_files = always
+SuspendJobAtExec = True
+ToolDaemonCmd = "paradynd"
+ToolDaemonArgs = "-zunix -l3 -mpinguino.cs.wisc.edu -p2090 -P2091 -a%pid"
+ToolDaemonOutput = "daemon.out"
+ToolDaemonError = "daemon.err"
tranfer_input_files = paradynd
queue
"""
