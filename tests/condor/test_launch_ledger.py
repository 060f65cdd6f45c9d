"""The launch ledger: what one job cycle costs, counted where it is paid.

A launch should pay only for what is per-job.  Three taps count the
rest: the session layer's one registration point (every attribute-space
request frame, by member), ``Thread.start`` (every thread a job cycle
creates) and the transport's ``connect`` (every dial).  The pins are
the warm, monitored, one-host pilot launch; the fault cases show the
long-lived state behind the counts — the schedd's channel to each peer
— survives being cut.  The gang's line adds a
fourth tap, the simulator's ``Service`` syscalls, beside the scheduler's
slice count: ranks that wait for a peer must not keep the simulator
busy while the launch's real threads work.  A fifth, on
``TdpHandle.poll``, shows which daemons woke on a timer instead of
being told; a sixth, on ``ProcessControlService._on_request``, which
thread answered each tool request.
"""

import contextlib
import sys
import threading
import time

import pytest

from repro.attrspace.client import _Session
from repro.condor.job import JobStatus
from repro.condor.pool import CondorPool
from repro.condor.submit import SubmitDescription
from repro.errors import ChannelClosedError, ResourceManagerError
from repro.mpisim.runtime import MpiRuntime
from repro.parador.run import ParadorScenario
from repro.sim.cluster import SimCluster
from repro.tdp.handle import TdpHandle
from repro.tdp.process import ProcessControlService
from repro.transport.inmem import InMemoryTransport

PER_JOB_DAEMON_THREADS = (
    "matchmaker-conn", "startd-conn-", "schedd-release-",
    "attr-client-disseminate", "paradyn-frontend-conn", "shadow-stdout-",
)
#: An in-memory session and paradynd's front-end link route each frame
#: on the thread that sent it: neither starts a receive thread.
RECEIVE_THREADS = ("attr-client-", "paradynd-cmd-")


class Ledger:
    """Frames, thread starts, dials, ``Service`` syscalls, handle polls
    and tool-request answers seen while ``recording()``."""

    def __init__(self):
        self.on = False
        #: (member, op, [(sub-op, attribute), ...] or attribute)
        self.frames = []
        self.threads = []
        #: (dialling thread's name, endpoint, channel)
        self.dials = []
        #: names of the ``Service`` syscalls simulated programs made
        self.services = []
        #: (calling function, timeout, whether an event was ready)
        self.polls = []
        #: (answering RM's member, the thread it answered on)
        self.answers = []

    @contextlib.contextmanager
    def recording(self):
        self.frames, self.threads, self.dials, self.services = [], [], [], []
        self.polls, self.answers = [], []
        self.on = True
        try:
            yield self
        finally:
            self.on = False

    def frames_of(self, member_prefix):
        return [f for f in self.frames if f[0].startswith(member_prefix)]

    def status_reads_of(self, member_prefix):
        """Gets of a ``proc.<pid>.status``, batched or not."""
        return [
            f for f in self.frames_of(member_prefix)
            if (f[1] == "get" and f[2].endswith(".status"))
            or (f[1] == "batch" and any(
                op == "get" and str(a).endswith(".status") for op, a in f[2]
            ))
        ]

    def dials_by(self, thread_prefix, endpoint=None):
        return [
            d for d in self.dials
            if d[0].startswith(thread_prefix)
            and (endpoint is None or d[1] == endpoint)
        ]


@pytest.fixture
def ledger(monkeypatch):
    book = Ledger()
    submit, start, connect, call_service, poll, on_request = (
        _Session.submit, threading.Thread.start, InMemoryTransport.connect,
        SimCluster.call_service, TdpHandle.poll, ProcessControlService._on_request,
    )

    def tapped_submit(self, request, complete, **kwargs):
        if book.on:
            detail = request.get("attribute") or [
                (sub["op"], sub.get("attribute")) for sub in request.get("ops", [])
            ]
            book.frames.append((self.member, request["op"], detail))
        return submit(self, request, complete, **kwargs)

    def tapped_start(self):
        if book.on:
            book.threads.append(self.name)
        return start(self)

    def tapped_connect(self, src_host, endpoint, timeout=None):
        channel = connect(self, src_host, endpoint, timeout=timeout)
        if book.on:
            book.dials.append((threading.current_thread().name, endpoint, channel))
        return channel

    def tapped_call_service(self, name, proc, args):
        if book.on:
            book.services.append(name)
        return call_service(self, name, proc, args)

    def tapped_poll(self, timeout=None):
        ready = poll(self, timeout)
        if book.on:
            caller = sys._getframe(1).f_code.co_name
            book.polls.append((caller, timeout, ready))
        return ready

    def tapped_on_request(self, notification, arg):
        if book.on:
            book.answers.append((self._owner, threading.current_thread().name))
        return on_request(self, notification, arg)

    monkeypatch.setattr(_Session, "submit", tapped_submit)
    monkeypatch.setattr(ProcessControlService, "_on_request", tapped_on_request)
    monkeypatch.setattr(TdpHandle, "poll", tapped_poll)
    monkeypatch.setattr(SimCluster, "call_service", tapped_call_service)
    monkeypatch.setattr(threading.Thread, "start", tapped_start)
    monkeypatch.setattr(InMemoryTransport, "connect", tapped_connect)
    return book


def settled(pool, timeout=10.0):
    """Every per-job thread gone, and with them every claim and
    reservation released: the release worker frees the claims and
    reservations before it stops the shadow."""
    deadline = time.monotonic() + timeout
    for thread in threading.enumerate():
        if thread.name.startswith(("shadow-", "stdio-collect-", "starter-",
                                   "mpi-rank-", "paradynd-")):
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    return (
        pool.matchmaker.reserved_count() == 0
        and not any(s.claimed for s in pool.startds.values())
        and not any(
            t.name.startswith(("shadow-", "stdio-collect-", "starter-",
                               "mpi-rank-", "paradynd-"))
            for t in threading.enumerate()
        )
    )


def run_monitored(scenario, executable="foo", arguments="2 0.05"):
    run = scenario.submit_monitored(executable, arguments)
    assert run.job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
    run.session.wait_state("exited", timeout=30.0)
    assert settled(scenario.pool)
    return run


def run_plain(pool, executable="hello"):
    job = pool.submit_description(SubmitDescription(executable=executable))
    assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
    assert settled(pool)
    return job


class TestWarmMonitoredLaunch:
    @pytest.fixture
    def cycle(self, ledger):
        """One whole job cycle — submit to released — on a warm pool."""
        with ParadorScenario(execute_hosts=["node1"]) as scenario:
            run_monitored(scenario)
            with ledger.recording():
                run = run_monitored(scenario)
            yield ledger, str(run.job.job_id)

    def test_request_frames_by_member(self, cycle):
        ledger, job = cycle
        assert len(ledger.frames_of(f"starter/{job}")) <= 10
        paradynd = ledger.frames_of(f"paradynd/{job}")
        samples = [
            f for f in paradynd
            if f[1] == "batch" and f[2][0][1].startswith("paradyn.sample.")
        ]
        # Besides its sample batches, paradynd sends the same 11 frames
        # however long the job runs: attach, the pid, the launch record,
        # the status subscription, three control round trips, detach.
        assert len(paradynd) - len(samples) == 11
        assert paradynd.index(samples[0]) == 10
        assert ledger.status_reads_of("paradynd/") == []
        assert not ledger.frames_of("disseminate/")
        # the schedd reads the disseminated items from its own CASS store:
        # no session reads them per launch
        assert ledger.frames_of("startd@") == []

    def test_control_round_trip_is_three_frames(self, cycle):
        """The tool's request and parked get, and one batch from the RM
        carrying the new status and the reply together."""
        ledger, job = cycle
        tokens = [
            detail[len("ctl.req."):]
            for _m, op, detail in ledger.frames_of(f"paradynd/{job}")
            if op == "put" and detail.startswith("ctl.req.")
        ]
        assert len(tokens) == 3  # attach, continue to main, continue
        for token in tokens:
            touching = [
                frame for frame in ledger.frames
                if token in str(frame[2])
            ]
            assert sorted((m.split("/")[0], op) for m, op, _d in touching) == [
                ("paradynd", "get"), ("paradynd", "put"), ("starter", "batch"),
            ]
            (reply,) = [f for f in touching if f[1] == "batch"]
            assert [attribute.split(".")[0] for _op, attribute in reply[2]] == [
                "proc", "ctl",
            ]

    def test_threads_started_per_job_cycle(self, cycle):
        ledger, _job = cycle
        # the cluster clock's timer service starts once, with the first
        # blocking get that has to park: whichever job that falls in
        started = [name for name in ledger.threads if name != "vclock-timers"]
        assert len(started) <= 5, ", ".join(started)
        assert not [
            name for name in started if name.startswith(PER_JOB_DAEMON_THREADS)
        ]
        assert not [name for name in started if name.startswith(RECEIVE_THREADS)]

    def test_tool_requests_are_answered_on_the_starter_thread(self, cycle):
        """The starter is the RM's poll loop: the thread that waits for
        the job answers its tool, and no service thread is started."""
        ledger, job = cycle
        assert ledger.answers
        assert set(ledger.answers) == {(f"starter/{job}", f"starter-{job}")}
        assert not [n for n in ledger.threads if n.startswith("tdp-service-")]

    def test_schedd_dials_nothing_after_the_first_job(self, cycle):
        ledger, _job = cycle
        assert ledger.dials_by("schedd-") == []
        # nor does the startd, for its CASS session
        assert not [d for d in ledger.dials if d[1].host == "submit"
                    and d[0].startswith("startd-")]


class TestWarmGangLaunch:
    SIZE = 8

    def submit_gang(self, scenario):
        frontend = scenario.frontend
        seen = len(frontend.daemons())
        job = scenario.pool.submit_file(
            f"universe = MPI\nexecutable = mpi_ring\narguments = 1\n"
            f"machine_count = {self.SIZE}\n+SuspendJobAtExec = True\n"
            f'+ToolDaemonCmd = "paradynd"\n'
            f'+ToolDaemonArgs = "-zunix -l3 -m{scenario.submit_host} '
            f'-p{scenario.port1} -P{scenario.port2} -a%pid"\nqueue\n'
        )[0]
        sessions = frontend.wait_for_daemons(seen + self.SIZE, timeout=60.0)[seen:]
        assert job.wait_terminal(timeout=60.0) is JobStatus.COMPLETED
        for session in sessions:
            session.wait_state("exited", timeout=30.0)
        assert settled(scenario.pool)
        return job, sessions

    def test_waiting_ranks_do_not_spin_the_simulator(self, ledger):
        """A rank whose peer is not up yet parks; polling cost ≥ 1 000
        lookups and as many slices per 8-rank launch."""
        hosts = [f"node{i}" for i in range(self.SIZE)]
        with ParadorScenario(execute_hosts=hosts) as scenario:
            self.submit_gang(scenario)
            scheduler = scenario.cluster.scheduler
            slices = scheduler.slices_executed
            with ledger.recording():
                job, sessions = self.submit_gang(scenario)
            assert ledger.services.count("mpi.init") == self.SIZE
            assert ledger.services.count("mpi.lookup") <= 4 * self.SIZE
            assert scheduler.slices_executed - slices <= 10 * self.SIZE
            assert job.exit_code == 0
            assert len({(s.host, s.pid) for s in sessions}) == self.SIZE
            assert [s.exit_code for s in sessions] == [0] * self.SIZE
            assert MpiRuntime.ensure(scenario.cluster)._jobs == {}

    def test_threads_started_per_warm_gang(self, ledger):
        """Each worker rank's thread starts the rank and answers its
        tools; no service thread per rank, no thread to spawn the ranks,
        no receive thread per session."""
        hosts = [f"node{i}" for i in range(self.SIZE)]
        with ParadorScenario(execute_hosts=hosts) as scenario:
            self.submit_gang(scenario)
            with ledger.recording():
                job, _sessions = self.submit_gang(scenario)
        started = [name for name in ledger.threads if name != "vclock-timers"]
        assert len(started) <= 19, ", ".join(started)
        assert not [
            name for name in started
            if name.startswith(("tdp-service-", "mpi-workers-") + RECEIVE_THREADS)
        ]
        ranks = sorted(n for n in started if n.startswith(f"mpi-rank-{job.job_id}-"))
        assert ranks == [f"mpi-rank-{job.job_id}-{r}" for r in range(1, self.SIZE)]

    def test_each_rank_answers_its_tools_on_its_own_thread(self, ledger):
        """Rank r's requests are answered on the thread that started it;
        rank 0's on the master starter's."""
        hosts = [f"node{i}" for i in range(self.SIZE)]
        with ParadorScenario(execute_hosts=hosts) as scenario:
            self.submit_gang(scenario)
            with ledger.recording():
                job, _sessions = self.submit_gang(scenario)
        expected = {(f"starter/{job.job_id}", f"starter-{job.job_id}")} | {
            (f"starter/{job.job_id}.r{r}", f"mpi-rank-{job.job_id}-{r}")
            for r in range(1, self.SIZE)
        }
        assert set(ledger.answers) == expected

    def test_daemons_are_told_not_timed(self, ledger):
        """No RM poll loop wakes on a timer and no paradynd reads its
        process's status back: each hears of the exit as a notification.
        The one timed poll left is paradynd's sample period."""
        hosts = [f"node{i}" for i in range(self.SIZE)]
        with ParadorScenario(execute_hosts=hosts) as scenario:
            self.submit_gang(scenario)
            with ledger.recording():
                self.submit_gang(scenario)
        timed_out = [caller for caller, _t, ready in ledger.polls if not ready]
        assert [c for c in timed_out if c != "_sample_until_exit"] == []
        service = [t for c, t, _r in ledger.polls if c == "serve"]
        assert service and set(service) == {None}
        assert ledger.status_reads_of("paradynd/") == []


class TestLongLivedStateSurvivesACut:
    def test_severed_startd_channel_is_redialled_once(self, ledger):
        with SimCluster.flat(["submit", "node1"]) as cluster, CondorPool(
            cluster, submit_host="submit", execute_hosts=["node1"]
        ) as pool:
            startd = pool.startds["node1"].endpoint
            with ledger.recording():
                run_plain(pool)
                ((_t, _e, channel),) = ledger.dials_by("schedd-", startd)
            channel.close()
            with ledger.recording():
                run_plain(pool)
            assert len(ledger.dials_by("schedd-", startd)) == 1
            with ledger.recording():
                run_plain(pool)
            assert ledger.dials_by("schedd-") == []


class TestRequestsPerPeerAreSerialised:
    @pytest.mark.parametrize(
        "verb, handler",
        [("hold", "_suspend_resume"), ("release", "_suspend_resume"),
         ("remove", "_kill_job")],
    )
    def test_user_request_waits_for_the_activation_in_flight(self, verb, handler):
        with SimCluster.flat(["submit", "node1"]) as cluster, CondorPool(
            cluster, submit_host="submit", execute_hosts=["node1"]
        ) as pool:
            startd = pool.startds["node1"]
            events = []
            activating = threading.Event()

            def logged(name, inner, pause=0.0):
                def handle(*args, **kwargs):
                    events.append((name, "begin"))
                    activating.set()
                    time.sleep(pause)
                    try:
                        return inner(*args, **kwargs)
                    finally:
                        events.append((name, "end"))
                return handle

            startd._activate_claim = logged(
                "activate", startd._activate_claim, pause=0.3
            )
            setattr(startd, handler, logged(verb, getattr(startd, handler)))
            job = pool.submit_description(SubmitDescription(executable="hello"))
            assert activating.wait(timeout=10.0)
            with contextlib.suppress(ResourceManagerError):
                # refused or not (the starter has barely begun): the order
                # the startd saw the two requests in is the point
                getattr(pool.schedd, verb)(str(job.job_id))
            assert events == [
                ("activate", "begin"), ("activate", "end"),
                (verb, "begin"), (verb, "end"),
            ]
            if job.status is JobStatus.HELD:
                # the hold reached the job's process: let it finish
                with contextlib.suppress(ResourceManagerError):
                    pool.schedd.release(str(job.job_id))
            job.wait_terminal(timeout=30.0)


class TestEveryNonRunningOutcomeReleases:
    """A placement that gets as far as claiming but not as far as running
    gives back its claims, its reservations and its shadow."""

    def leftovers(self):
        return [
            t.name for t in threading.enumerate()
            if t.name.startswith(("shadow-", "stdio-collect-"))
        ]

    def test_refused_activation(self):
        with SimCluster.flat(["submit", "node1"]) as cluster, CondorPool(
            cluster, submit_host="submit", execute_hosts=["node1"]
        ) as pool:
            startd = pool.startds["node1"]
            startd._activate_claim = lambda request: {
                "ok": False, "error": "activation refused",
            }
            job = pool.submit_description(SubmitDescription(executable="hello"))
            assert job.wait_terminal(timeout=30.0) is JobStatus.FAILED
            assert job.failure_reason == "activation refused"
            assert settled(pool)
            assert startd.claimed is False
            assert not self.leftovers(), self.leftovers()

    def test_channel_lost_between_claim_and_activation(self):
        with SimCluster.flat(["submit", "node1"]) as cluster, CondorPool(
            cluster, submit_host="submit", execute_hosts=["node1"]
        ) as pool:
            startd = pool.startds["node1"]
            activate = startd._activate_claim

            def lost_once(request):
                startd._activate_claim = activate
                raise ChannelClosedError("cut under the activation")

            startd._activate_claim = lost_once
            job = pool.submit_description(SubmitDescription(executable="hello"))
            # the claim of the failed attempt was released, so the retry
            # finds the machine claimable
            assert job.wait_terminal(timeout=30.0) is JobStatus.COMPLETED
            assert settled(pool)
            assert not self.leftovers()


class TestOneServingThreadPerDaemon:
    def test_fifty_connections_each_add_no_threads(self):
        """The matchmaker, a startd and the front end each serve every
        connection on their one loop: a connection costs no thread."""
        with ParadorScenario(execute_hosts=["node1"]) as scenario:
            transport = scenario.cluster.transport
            frontend = scenario.frontend
            servers = {
                "matchmaker-": scenario.pool.matchmaker.endpoint,
                "startd-": scenario.pool.startds["node1"].endpoint,
            }
            before = threading.active_count()
            channels = []
            for endpoint in servers.values():
                for _ in range(50):
                    channel = transport.connect(endpoint.host, endpoint)
                    channels.append(channel)
                    # answered, so the daemon has taken the connection on
                    assert channel.request({"op": "census"}, timeout=10.0) == {
                        "ok": False, "error": "unknown op 'census'",
                    }
            for i in range(50):
                channel = transport.connect(frontend.endpoint.host, frontend.endpoint)
                channels.append(channel)
                channel.send({"op": "hello", "job": f"census.{i}"})
            frontend.wait_for_daemons(50, timeout=10.0)
            try:
                assert threading.active_count() == before
                serving = [
                    t.name for t in threading.enumerate()
                    if t.name.startswith((*servers, "paradyn-frontend-"))
                ]
                assert sorted(serving) == [
                    "matchmaker-submit", "paradyn-frontend-submit", "startd-node1",
                ]
            finally:
                for channel in channels:
                    channel.close()
