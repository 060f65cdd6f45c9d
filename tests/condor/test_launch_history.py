"""A launch does not walk the pool's history.

Each job a pool runs leaves files on its execution host and a daemon in
the tool front end.  What the next launch does must not grow with them:
stage-out looks a literal file up by name, the tool's output file is
written once per job, and the front end lists its daemons without
sorting them.
"""

import fnmatch

import pytest

from repro.condor.job import JobStatus
from repro.condor.starter import Starter
from repro.errors import StagingError
from repro.parador.run import ParadorScenario
from repro.sim.cluster import SimCluster
from repro.tdp.files import FileStager


@pytest.fixture
def stager():
    with SimCluster.flat(["submit", "node1"]) as cluster:
        fs = cluster.host("node1").filesystem
        fs.update({f"paradyn.{n}.0.trace": "t" * n for n in range(1, 50)})
        fs.update({"daemon.out": "lines\n", "out.1": "a", "out.2": "bb"})
        yield cluster, FileStager(cluster)


@pytest.fixture
def fnmatch_calls(monkeypatch):
    calls = []
    fnmatchcase = fnmatch.fnmatchcase

    def counted(name, pattern):
        calls.append(pattern)
        return fnmatchcase(name, pattern)

    monkeypatch.setattr(fnmatch, "fnmatchcase", counted)
    return calls


class TestStageOut:
    def test_literals_are_looked_up_not_matched(self, stager, fnmatch_calls):
        cluster, files = stager
        records = files.stage_out(
            "node1", "submit", ["paradyn.7.0.trace", "daemon.out"]
        )
        assert [r.path for r in records] == ["paradyn.7.0.trace", "daemon.out"]
        assert cluster.host("submit").filesystem["paradyn.7.0.trace"] == "t" * 7
        assert fnmatch_calls == []

    def test_a_glob_still_matches(self, stager, fnmatch_calls):
        cluster, files = stager
        records = files.stage_out("node1", "submit", ["out.*", "daemon.out", "out.1"])
        assert [r.path for r in records] == ["out.1", "out.2", "daemon.out"]
        assert set(fnmatch_calls) == {"out.*"}

    def test_a_glob_that_matches_nothing_stages_nothing(self, stager):
        _cluster, files = stager
        assert files.stage_out("node1", "submit", ["*.missing"]) == []

    def test_a_missing_literal_raises(self, stager):
        _cluster, files = stager
        with pytest.raises(StagingError, match="paradyn.99.0.trace"):
            files.stage_out("node1", "submit", ["daemon.out", "paradyn.99.0.trace"])


class _CountingFs(dict):
    """A host filesystem that counts the writes to each path."""

    def __init__(self, *args):
        super().__init__(*args)
        self.writes: dict[str, int] = {}

    def __setitem__(self, path, content):
        self.writes[path] = self.writes.get(path, 0) + 1
        super().__setitem__(path, content)


def test_tool_output_lands_once_per_job_in_order(monkeypatch):
    """Two monitored jobs on one host share its ``daemon.out``: it ends
    with job 1's lines, then job 2's, every line in the order the tool
    wrote it, in one write per job."""
    starters = []
    written = []  # (job, the lines its tool wrote, in order)
    start, write = Starter.start, Starter._write_tool_output

    def recording_start(self):
        starters.append(self)
        start(self)

    def recording_write(self):
        written.append((self.job_id, list(self._tool_output)))
        write(self)

    monkeypatch.setattr(Starter, "start", recording_start)
    monkeypatch.setattr(Starter, "_write_tool_output", recording_write)
    with ParadorScenario(execute_hosts=["node1"]) as scenario:
        host = scenario.cluster.host("node1")
        host.filesystem = fs = _CountingFs(host.filesystem)
        runs = [scenario.submit_monitored("foo", "2 0.05") for _ in range(2)]
        for run in runs:
            assert run.job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        for starter in starters:
            starter.wait(timeout=30.0)  # its cleanup wrote the file
    jobs = [str(run.job.job_id) for run in runs]
    assert [job for job, _lines in written] == jobs
    assert all(lines for _job, lines in written)
    assert fs["daemon.out"] == "".join(
        line + "\n" for _job, lines in written for line in lines
    )
    assert fs.writes["daemon.out"] == 2


def test_frontend_lists_daemons_in_id_order():
    with ParadorScenario(execute_hosts=["node1", "node2"]) as scenario:
        runs = [scenario.submit_monitored("foo", "1 0.01") for _ in range(4)]
        for run in runs:
            run.job.wait_terminal(timeout=60.0)
        daemons = scenario.frontend.daemons()
        ids = [d.daemon_id for d in daemons]
        assert ids == [1, 2, 3, 4]
        assert scenario.frontend.wait_for_daemons(4, timeout=1.0) == daemons
