"""Condor-like batch resource manager (the pilot's RM, paper Section 4.1).

The daemons and their responsibilities mirror Figure 4:

* :mod:`~repro.condor.schedd` — represents resource requests on the
  submit machine; queues jobs, reacts to matches, runs the claiming
  protocol, and spawns one shadow per running job.
* :mod:`~repro.condor.shadow` — submit-side agent of one job: the target
  of remote I/O (stdio) and the collector of results.
* :mod:`~repro.condor.matchmaker` — pairs job ads with machine ads.
* :mod:`~repro.condor.startd` — represents one execution machine; when
  claimed, spawns a starter.
* :mod:`~repro.condor.starter` — sets up the execution environment and
  spawns the job; in the Parador pilot this is the daemon that speaks
  TDP to launch the application paused plus the tool daemon.
* :mod:`~repro.condor.master` — keeps the other daemons running.
* :mod:`~repro.condor.classad` / :mod:`~repro.condor.submit` — the
  ClassAd attribute/expression language and the submit description
  files (including the ``+SuspendJobAtExec`` / ``+ToolDaemon*``
  extensions of Figure 5B).
* :mod:`~repro.condor.pool` — assembles everything on a SimCluster.
"""

from repro.condor.classad import ClassAd, evaluate, matches
from repro.condor.submit import SubmitDescription, parse_submit_file, ToolDaemonSpec
from repro.condor.pool import CondorPool

__all__ = [
    "ClassAd",
    "evaluate",
    "matches",
    "SubmitDescription",
    "parse_submit_file",
    "ToolDaemonSpec",
    "CondorPool",
]
