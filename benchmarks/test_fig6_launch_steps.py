"""FIG6 — Figure 6: TDP function calls from the Condor and Paradyn sides.

Regenerates the four-step launch sequence of the pilot:

  Step 1  starter: tdp_init; tdp_create_process(AP, paused)
  Step 2  starter: tdp_create_process(RT, run); paradynd finds no -a pid
  Step 3  paradynd: tdp_init; blocking tdp_get("pid") <- starter tdp_put;
          tdp_attach; tdp_continue_process (to main)
  Step 4  paradynd controls the application as usual

and asserts the blocking-get/put handshake ordering on the wire.
"""

from conftest import print_table

from repro.condor.job import JobStatus
from repro.parador.run import ParadorScenario
from repro.util.log import TraceRecorder


def run_pilot(trace_holder):
    with ParadorScenario(execute_hosts=["node1"], trace=TraceRecorder()) as scenario:
        run = scenario.submit_monitored("foo", "3 0.05")
        status = run.job.wait_terminal(timeout=60.0)
        run.session.wait_state("exited", timeout=30.0)
        trace_holder.append(scenario.trace)
        return status


def test_fig6_launch_sequence(benchmark):
    traces = []
    status = run_pilot(traces)
    assert status is JobStatus.COMPLETED
    trace = traces[0]

    # Step 1: the starter initializes TDP, then creates the AP paused.
    starter = trace.events(actor="starter")
    assert starter[0].action == "tdp_init"
    creates = [e for e in starter if e.action == "tdp_create_process"]
    assert creates[0].details["target"] == "AP"
    assert creates[0].details["mode"] == "paused"

    # Step 2: the starter creates the RT (not paused).
    assert creates[1].details["target"] == "RT"
    assert creates[1].details["mode"] == "run"

    # Step 3: paradynd inits, blocks on get(pid) until the starter's put,
    # attaches, and continues the application.  (The get and the put may
    # land in either order — Figure 6 draws the get first, but the put
    # winning the race is equally legal; what matters is that the get
    # completes only at/after the put, asserted below.)
    trace.assert_order(
        "tdp_init",               # starter (step 1)
        "tdp_create_process",     # AP paused (step 1)
        "tdp_get_returned",       # paradynd's blocking get completes
        "tdp_attach",
        "tdp_continue_process",
    )
    get_issued = trace.index_of("tdp_get", actor="paradynd")
    put_index = trace.index_of("tdp_put", actor="starter")
    get_done = trace.index_of("tdp_get_returned", actor="paradynd")
    assert get_issued < get_done and put_index < get_done

    rows = []
    for event in trace.events():
        if event.actor in ("starter", "paradynd") and event.action.startswith("tdp"):
            rows.append([event.seq, event.actor, event.action,
                         " ".join(f"{k}={v}" for k, v in event.details.items())])
    print_table("Figure 6: TDP calls from the Condor and Paradyn sides",
                ["#", "daemon", "call", "details"], rows)

    # Step 4 evidence: the tool controlled/observed the app to its end.
    assert trace.first("app_exited") is not None

    benchmark.pedantic(lambda: run_pilot([]), rounds=3, iterations=1)
