"""Tool configuration and data file staging (paper Section 1).

"The RT may need configuration files transferred to the execution
nodes.  The RT might also generate output files that contain traces or
summary data; … they must be transferred from the execution nodes after
the application completes."

The :class:`FileStager` performs both directions over per-host
filesystems (the sim hosts' ``filesystem`` dicts) and records every
transfer so scenarios can assert and report what was staged.  The RM
calls ``stage_in`` before launching the tool daemon and ``stage_out``
after the application completes — exactly where Condor's
``transfer_input_files``/output transfer hooks sit in the pilot.
"""

from __future__ import annotations

import fnmatch
import threading
from dataclasses import dataclass

from repro.errors import StagingError
from repro.sim.cluster import SimCluster


@dataclass(frozen=True)
class TransferRecord:
    """One completed file transfer."""

    src_host: str
    dst_host: str
    path: str
    size: int
    direction: str  # "in" (to execution node) | "out" (back from it)


class FileStager:
    """Stage files between hosts of one simulated cluster."""

    def __init__(self, cluster: SimCluster):
        self._cluster = cluster
        self._lock = threading.Lock()
        self.transfers: list[TransferRecord] = []

    def _copy(
        self, src_host: str, dst_host: str, paths: list[str], direction: str
    ) -> list[TransferRecord]:
        src_fs = self._cluster.host(src_host).filesystem
        dst_fs = self._cluster.host(dst_host).filesystem
        records = []
        for path in paths:
            if path not in src_fs:
                raise StagingError(
                    f"cannot stage {path!r}: not present on {src_host}"
                )
            content = src_fs[path]
            dst_fs[path] = content
            record = TransferRecord(
                src_host=src_host,
                dst_host=dst_host,
                path=path,
                size=len(content),
                direction=direction,
            )
            records.append(record)
        with self._lock:
            self.transfers.extend(records)
        return records

    def stage_in(
        self, submit_host: str, exec_host: str, paths: list[str]
    ) -> list[TransferRecord]:
        """Copy tool config/input files to the execution node (pre-launch)."""
        return self._copy(submit_host, exec_host, paths, "in")

    def stage_out(
        self, exec_host: str, submit_host: str, patterns: list[str]
    ) -> list[TransferRecord]:
        """Copy tool output/trace files back after the job completes.

        A pattern with glob characters matches over the execution host's
        filesystem, so a tool can say "everything matching ``trace.*``"
        without knowing how many trace files it produced; a glob that
        matches nothing stages nothing.  Any other pattern names one file,
        looked up by name, and :class:`StagingError` is raised when it is
        absent.  Only globs scan the filesystem, all of them one listing.
        """
        exec_fs = self._cluster.host(exec_host).filesystem
        matched: list[str] = []
        names: list[str] | None = None
        for pattern in patterns:
            if not any(ch in pattern for ch in "*?["):
                if pattern not in exec_fs:
                    raise StagingError(
                        f"cannot stage out {pattern!r}: not present on {exec_host}"
                    )
                matched.append(pattern)
                continue
            if names is None:
                names = sorted(exec_fs)
            matched.extend(p for p in names if fnmatch.fnmatchcase(p, pattern))
        # De-duplicate while preserving order (overlapping patterns).
        seen: set[str] = set()
        unique = [p for p in matched if not (p in seen or seen.add(p))]
        return self._copy(exec_host, submit_host, unique, "out")

    def transfer_log(self, direction: str | None = None) -> list[TransferRecord]:
        with self._lock:
            records = list(self.transfers)
        if direction is not None:
            records = [r for r in records if r.direction == direction]
        return records

    def bytes_transferred(self) -> int:
        with self._lock:
            return sum(r.size for r in self.transfers)
