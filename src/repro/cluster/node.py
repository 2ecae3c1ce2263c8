"""Simulated compute node.

A DAS-4 node is a dual quad-core Xeon E5620 host with zero or more many-core
devices on its PCIe bus, attached to the cluster interconnect.  The host CPU
cores are a shared resource: Satin leaf computations, communication handling
and load-balancing all compete for them — the effect the paper identifies as
the second cause of Satin's reduced scalability (Sec. V-B).
"""

from __future__ import annotations

from typing import Callable, Generator, List, Sequence

from ..devices.device import SimDevice
from ..devices.specs import HOST_CPU, CpuSpec, device_spec
from ..sim.engine import Environment, Event, Timeout
from ..sim.network import Endpoint, Network
from ..sim.resources import Resource

__all__ = ["ComputeNode"]


class _DelayOp:
    """Zero-process mirror of ``env.process(cpu_delay(s); finish())``.

    Replays that spawned generator's event structure exactly: a
    front-priority starter stands in for the Process's ``Initialize``
    (same heap slot, so the core is claimed at the same virtual moment),
    then grant → Timeout → busy-accounting/obs/release → ``finish()``,
    each at the pop where the generator would have resumed.  Only the
    spawned process's StopIteration completion event is dropped — it has
    no waiters on this fire-and-forget path, and removing a pop wholesale
    never reorders the remaining events.
    """

    __slots__ = ("node", "seconds", "label", "finish", "req", "start",
                 "completes")

    def __init__(self, node: "ComputeNode", seconds: float, label: str,
                 finish: Callable[[], None], completes: bool):
        self.node = node
        self.seconds = seconds
        self.label = label
        self.finish = finish
        self.req = None
        self.start = 0.0
        #: True when the mirrored process *ended* right after ``finish``
        #: (fire-and-forget): an inert event then stands in for its
        #: StopIteration completion pop, keeping event counts identical.
        #: False when the process went on to send (the transfer chain's
        #: own fillers cover the tail).
        self.completes = completes
        env = node.env
        starter = Event(env)
        starter._ok = True
        starter._value = None
        starter.callbacks.append(self._begin)
        env._schedule(starter, 0, front=True)

    def _begin(self, _event: Event) -> None:
        if self.seconds <= 0:
            self.finish()
            if self.completes:
                Event(self.node.env).succeed(None)
            return
        req = self.node.cores.request()
        req.callbacks.append(self._granted)
        self.req = req

    def _granted(self, _event: Event) -> None:
        env = self.node.env
        self.start = env._now
        hop = Timeout(env, self.seconds)
        hop.callbacks.append(self._done)

    def _done(self, _event: Event) -> None:
        node = self.node
        env = node.env
        self.node.busy_cpu_s += env._now - self.start
        obs = env.obs
        if obs.enabled:
            obs.emit("cpu", node=node.rank, lane=f"{node.name}/cpu",
                     start=self.start, end=env._now, label=self.label)
        node.cores.release(self.req)
        self.finish()
        if self.completes:
            Event(env).succeed(None)


class ComputeNode:
    """One cluster node: host CPU, devices, network endpoint."""

    def __init__(self, env: Environment, network: Network, rank: int,
                 device_names: Sequence[str] = (),
                 cpu: CpuSpec = HOST_CPU,
                 device_overlap: bool = True):
        self.env = env
        self.rank = rank
        self.name = f"node{rank}"
        self.cpu = cpu
        self.endpoint: Endpoint = network.attach(rank)
        self.cores = Resource(env, capacity=cpu.cores)
        self.devices: List[SimDevice] = []
        for i, dev_name in enumerate(device_names):
            self.devices.append(
                SimDevice(env, device_spec(dev_name), self.name, index=i,
                          overlap=device_overlap)
            )
        #: set by fault injection; a crashed node stops participating
        self.crashed = False
        #: cumulative host-CPU busy time (core-seconds), for utilization
        self.busy_cpu_s = 0.0

    @property
    def device_names(self) -> List[str]:
        return [d.spec.name for d in self.devices]

    def cpu_compute(self, flops: float, label: str = "cpu") -> Generator:
        """Process: run a single-threaded CPU computation on one core.

        This is how original-Satin leaves execute; it occupies one of the
        node's 8 cores for flops / sustained-single-core-rate seconds.
        """
        with (yield self.cores.request()):
            start = self.env.now
            yield self.env.timeout(flops / self.cpu.core_flops)
            self.busy_cpu_s += self.env.now - start
            obs = self.env.obs
            if obs.enabled:
                obs.emit("cpu", node=self.rank, lane=f"{self.name}/cpu",
                         start=start, end=self.env.now, label=label)

    def cpu_delay_async(self, seconds: float, label: str,
                        finish: Callable[[], None],
                        completes: bool = True) -> None:
        """Occupy a core for ``seconds``, then call ``finish()`` — without
        spawning a Process.  Event-order-identical replacement for
        ``env.process(<generator doing cpu_delay(seconds); finish()>)``;
        see :class:`_DelayOp`.  Pass ``completes=False`` when ``finish``
        itself continues the mirrored process (e.g. into a send)."""
        _DelayOp(self, seconds, label, finish, completes)

    def cpu_delay(self, seconds: float, label: str = "cpu") -> Generator:
        """Process: occupy one core for a fixed time (protocol overheads)."""
        if seconds <= 0:
            return
        # Hot path (every protocol overhead charges a core): explicit
        # release instead of the context manager, direct Timeout.
        env = self.env
        cores = self.cores
        req = yield cores.request()
        try:
            start = env.now
            yield Timeout(env, seconds)
            self.busy_cpu_s += env.now - start
            obs = env.obs
            if obs.enabled:
                obs.emit("cpu", node=self.rank, lane=f"{self.name}/cpu",
                         start=start, end=env.now, label=label)
        finally:
            cores.release(req)

    def __repr__(self) -> str:
        devs = ",".join(self.device_names) or "cpu-only"
        return f"<ComputeNode {self.name} [{devs}]>"
