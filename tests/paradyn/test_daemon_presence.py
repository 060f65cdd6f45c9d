"""paradynd announces its presence once: an ephemeral
``presence.paradynd/<job>`` put in the batch that reads its launch
record, before it asks the RM to attach, and removed by the server when
paradynd's session ends."""

import time

from repro.parador.run import ParadorScenario
from repro.tdp.wellknown import Attr, ProcStatus


def test_presence_spans_paradynds_session(monkeypatch):
    with ParadorScenario(execute_hosts=["node1"]) as scenario:
        subscriptions = scenario.pool.startds["node1"].lass.store.subscriptions
        changes = []  # notifications, in the LASS's apply order
        publish = subscriptions.publish

        def tap(notification):
            changes.append(notification)
            publish(notification)

        monkeypatch.setattr(subscriptions, "publish", tap)
        run = scenario.submit_monitored("foo", "1 2 3")
        assert run.session.wait_state("exited", timeout=60.0)
        job = next(n.context for n in changes if n.attribute == Attr.PID)
        presence = Attr.presence(f"paradynd/{job}")
        deadline = time.monotonic() + 10.0  # paradynd's tdp_exit follows the exit
        while time.monotonic() < deadline and not any(
            n.attribute == presence and n.kind == "remove" for n in changes
        ):
            time.sleep(0.01)

    in_job = [(n.attribute, n.kind, n.value) for n in changes if n.context == job]
    seen = [(a, k) for a, k, _ in in_job]
    first_request = next(
        i for i, (a, _) in enumerate(seen) if a.startswith(Attr.ctl_request(""))
    )
    assert seen.index((presence, "put")) < first_request
    # put once, and removed by paradynd's tdp_exit after the application exited
    assert [k for a, k in seen if a == presence] == ["put", "remove"]
    exited = next(
        i for i, (a, k, v) in enumerate(in_job)
        if a.startswith("proc.") and k == "put" and ProcStatus.is_exited(v)
    )
    assert seen.index((presence, "remove")) > exited
    assert not any(n.attribute.startswith("hb.") for n in changes)
