"""Auxiliary services (paper Section 1, "Auxiliary services (AS)").

"There are entities in addition to the RM and RT that may be required
for the proper execution of a RT in a distributed environment.  For
example, software multicast/reduction networks are crucial to scalable
tool use.  The RM must be aware of and willing to launch this second
kind of non-application entity."

This module provides (a) the generic :class:`AuxServiceSpec`/launch hook
the RM uses, and (b) a concrete MRNet-style :class:`ReductionNetwork`
— a k-ary tree of forwarding daemons that aggregates values from one
leaf per execution host up to a root on the front-end host, used by the
scaling experiments.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro import errors
from repro.net.address import Endpoint
from repro.tdp.handle import TdpHandle
from repro.tdp.wellknown import Attr
from repro.transport.base import Channel, Listener, Transport
from repro.util.log import get_logger
from repro.util.sync import Latch

_log = get_logger("tdp.aux")


@dataclass
class AuxServiceSpec:
    """What the RM needs to know to launch one auxiliary service."""

    name: str
    start: Callable[[], Endpoint]  # launches the service, returns its endpoint
    stop: Callable[[], None] = lambda: None


class AuxServiceManager:
    """RM-side registry: launch aux services and advertise their endpoints."""

    def __init__(self, handle: TdpHandle):
        self._handle = handle
        self._running: dict[str, AuxServiceSpec] = {}
        self._lock = threading.Lock()

    def launch(self, spec: AuxServiceSpec) -> Endpoint:
        with self._lock:
            if spec.name in self._running:
                raise errors.TdpError(f"aux service {spec.name!r} already running")
            self._running[spec.name] = spec
        endpoint = spec.start()
        self._handle.attrs.put(Attr.aux_endpoint(spec.name), str(endpoint))
        self._handle.attrs.put(Attr.aux_status(spec.name), "running")
        return endpoint

    def stop_all(self) -> None:
        with self._lock:
            specs = list(self._running.values())
            self._running.clear()
        for spec in specs:
            spec.stop()
            try:
                self._handle.attrs.put(Attr.aux_status(spec.name), "stopped")
            except errors.TdpError:
                pass

    def running(self) -> list[str]:
        with self._lock:
            return sorted(self._running)


# ---------------------------------------------------------------------------
# A concrete auxiliary service: an MRNet-style reduction tree
# ---------------------------------------------------------------------------

@dataclass
class _TreeNode:
    host: str
    listener: Listener
    loop: Any = None  # the listener's serve_loop handle
    parent_channel: Channel | None = None
    expected_children: int = 0
    expected_direct: int = 0
    children_received: int = 0
    direct_received: int = 0
    partial: float = 0.0
    count: int = 0
    sent_up: bool = False
    lock: threading.Lock = field(default_factory=threading.Lock)


class ReductionNetwork:
    """A k-ary reduction tree over the cluster's hosts (MRNet-style).

    Every node is a leaf endpoint for daemons on its host AND an
    aggregation point: it absorbs its direct contributions and its
    children's partials, and only when *complete* sends one combined
    partial upward.  The root resolves a :class:`Latch` with the global
    (sum, count).  This is the property that makes trees scale — each
    node processes at most ``fanout + expected_direct`` messages,
    instead of the root processing all N.

    ``per_message_cost`` models the front-end's per-message processing
    work (seconds of wall time per absorbed message), paid serially on
    each node's one serving thread; the SCALE bench uses it to locate
    the tree-vs-flat crossover.
    """

    def __init__(
        self,
        transport: Transport,
        root_host: str,
        leaf_hosts: list[str],
        *,
        fanout: int = 4,
        per_message_cost: float = 0.0,
    ):
        if fanout < 2:
            raise ValueError("fanout must be >= 2")
        self._transport = transport
        self.fanout = fanout
        self.per_message_cost = per_message_cost
        self.result: Latch[tuple[float, int]] = Latch()
        self._nodes: list[_TreeNode] = []
        self._armed = threading.Event()

        # Build the tree level by level: root first, then hosts in the
        # given order breadth-first under it.
        self._root = self._make_node(root_host, parent=None)
        frontier: list[_TreeNode] = [self._root]
        remaining = list(leaf_hosts)
        while remaining:
            next_frontier: list[_TreeNode] = []
            for parent in frontier:
                for _ in range(self.fanout):
                    if not remaining:
                        break
                    node = self._make_node(remaining.pop(0), parent=parent)
                    parent.expected_children += 1
                    next_frontier.append(node)
            frontier = next_frontier
        self.leaves = {n.host: n.listener.endpoint for n in self._nodes}

    def _make_node(self, host: str, parent: _TreeNode | None) -> _TreeNode:
        listener = self._transport.listen(host)
        node = _TreeNode(host=host, listener=listener)
        if parent is not None:
            node.parent_channel = self._transport.connect(
                host, parent.listener.endpoint
            )
        self._nodes.append(node)
        node.loop = listener.serve_loop(
            on_channel=lambda channel: channel,
            on_message=lambda _channel, frame: self._on_frame(node, frame),
            on_closed=lambda channel: None,
            name=f"mrnet-{host}",
        )
        return node

    def start_collection(
        self, expected_contributions: int, *, contributions_per_host: int | None = None
    ) -> None:
        """Arm the tree: each node learns how many direct contributions
        to expect (default: spread evenly, one per leaf host)."""
        per_host = (
            contributions_per_host
            if contributions_per_host is not None
            else max(1, expected_contributions // max(1, len(self._nodes) - 1))
        )
        non_root = [n for n in self._nodes if n is not self._root]
        remaining = expected_contributions
        for node in non_root:
            share = min(per_host, remaining)
            node.expected_direct = share
            remaining -= share
        self._root.expected_direct = max(0, remaining)
        self._armed.set()
        # A node with nothing to wait for must still report (empty partial).
        for node in self._nodes:
            self._maybe_complete(node)

    def _on_frame(self, node: _TreeNode, frame: dict) -> None:
        if self.per_message_cost > 0:
            time.sleep(self.per_message_cost)
        if "sum" in frame:  # a child's combined partial
            self._absorb(
                node, float(frame["sum"]), int(frame["count"]), from_child=True
            )
        else:  # a daemon's direct contribution
            self._absorb(node, float(frame["value"]), 1, from_child=False)

    def _absorb(self, node: _TreeNode, value: float, count: int, *, from_child: bool) -> None:
        with node.lock:
            node.partial += value
            node.count += count
            if from_child:
                node.children_received += 1
            else:
                node.direct_received += 1
        self._maybe_complete(node)

    def _maybe_complete(self, node: _TreeNode) -> None:
        if not self._armed.is_set():
            return
        with node.lock:
            complete = (
                not node.sent_up
                and node.children_received >= node.expected_children
                and node.direct_received >= node.expected_direct
            )
            if not complete:
                return
            node.sent_up = True
            payload = {"sum": node.partial, "count": node.count}
        if node.parent_channel is not None:
            node.parent_channel.send(payload)
        else:
            self.result.open((payload["sum"], payload["count"]))

    def contribute(self, src_host: str, value: float) -> None:
        """One daemon's contribution, sent to its host's tree node."""
        endpoint = self.leaves.get(src_host, self._root.listener.endpoint)
        channel = self._transport.connect(src_host, endpoint)
        channel.send({"value": value})
        channel.close()

    def wait_result(self, timeout: float | None = 30.0) -> tuple[float, int]:
        """Block for the aggregated (sum, count)."""
        return self.result.wait(timeout=timeout)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def depth(self) -> int:
        """Levels in the built tree (root = 1)."""
        import math

        n = len(self._nodes) - 1  # non-root nodes
        if n <= 0:
            return 1
        return 1 + math.ceil(math.log(n * (self.fanout - 1) + 1, self.fanout))

    def stop(self) -> None:
        for node in self._nodes:
            node.loop.stop()
            node.listener.close()
            if node.parent_channel is not None:
                node.parent_channel.close()
