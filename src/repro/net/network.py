"""Simulated point-to-point network.

Models the paper's testbed: a 1 Gbps switched LAN connecting every pair of
machines, with authenticated fair links and an *eventually synchronous*
timing model (asynchronous until an unknown global stabilization time GST,
synchronous afterwards).

Model
-----
- Each endpoint owns an egress NIC modelled as a single-server
  :class:`~repro.sim.resource.Resource`: outgoing messages serialize at
  ``wire_size / bandwidth`` — a leader broadcasting 512-transaction batches
  to nine replicas is bandwidth-bound exactly as on real hardware.
- Propagation adds a base latency plus uniform jitter.
- Before GST, deliveries suffer additional random delay (bounded by
  ``asynchrony_max``), which exercises timeout/leader-change paths.
- Links are reliable by default (BFT-SMART runs over TCP); tests inject
  drops, delays and partitions explicitly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable

from repro.errors import NetworkError
from repro.net.message import Message
from repro.sim.engine import Simulator
from repro.sim.resource import Resource

__all__ = ["NetworkConfig", "Network", "Endpoint"]

Handler = Callable[[Hashable, Message], None]


@dataclass
class NetworkConfig:
    """Timing parameters of the simulated LAN.

    Defaults approximate the paper's 1 Gbps switched network of Section VI-A.
    """

    latency: float = 0.00025           # one-way propagation, seconds
    jitter: float = 0.00005            # uniform [0, jitter] extra delay
    bandwidth_bps: float = 1e9         # per-NIC egress bandwidth, bits/s
    gst: float = 0.0                   # global stabilization time
    asynchrony_max: float = 0.05       # max extra delay before GST


class Endpoint:
    """A registered network participant (replica, client station, ...)."""

    def __init__(self, network: "Network", node_id: Hashable, handler: Handler):
        self.network = network
        self.node_id = node_id
        self.handler = handler
        self.nic = Resource(network.sim, servers=1, name=f"nic:{node_id}")
        self.up = True

    def send(self, dst: Hashable, msg: Message) -> None:
        self.network.send(self.node_id, dst, msg)

    def broadcast(self, dsts: Iterable[Hashable], msg: Message) -> None:
        self.network.broadcast(self.node_id, dsts, msg)


class Network:
    """The switched LAN connecting all processes.

    Example
    -------
    >>> from repro.sim import Simulator
    >>> sim = Simulator()
    >>> net = Network(sim)
    >>> seen = []
    >>> _ = net.register("a", lambda src, m: None)
    >>> _ = net.register("b", lambda src, m: seen.append((src, m.kind)))
    >>> net.send("a", "b", Message(size=100))
    >>> sim.run()
    >>> seen
    [('a', 'Message')]
    """

    def __init__(self, sim: Simulator, config: NetworkConfig | None = None):
        self.sim = sim
        self.config = config or NetworkConfig()
        self._endpoints: dict[Hashable, Endpoint] = {}
        self._blocked: set[tuple[Hashable, Hashable]] = set()
        self._drop_prob: dict[tuple[Hashable, Hashable], float] = {}
        self._extra_delay: dict[tuple[Hashable, Hashable], float] = {}
        # Dedicated child RNG stream for network randomness (jitter, drop
        # decisions, pre-GST asynchrony), derived from the sim seed.  Keeping
        # these draws off the global ``sim.rng`` means toggling network
        # faults (or injecting extra Byzantine traffic) leaves every
        # non-network random draw in the run byte-identical.
        self._rng = random.Random(f"net:{sim.seed}")
        # Statistics.
        self.messages_sent = 0
        self.messages_delivered = 0
        self.dropped_partition = 0
        self.dropped_prob = 0
        self.dropped_detached = 0
        self.bytes_sent = 0
        # Observability: per-message-kind traffic counters when observed.
        self._obs = sim.obs
        sim.obs.networks.append(self)

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def register(self, node_id: Hashable, handler: Handler) -> Endpoint:
        """Attach a process to the network; returns its endpoint."""
        if node_id in self._endpoints:
            raise NetworkError(f"endpoint {node_id!r} already registered")
        endpoint = Endpoint(self, node_id, handler)
        self._endpoints[node_id] = endpoint
        return endpoint

    def unregister(self, node_id: Hashable) -> None:
        """Detach a process (crash).  In-flight messages to it are dropped."""
        endpoint = self._endpoints.pop(node_id, None)
        if endpoint is not None:
            endpoint.up = False

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def partition(self, *groups: Iterable[Hashable]) -> None:
        """Split nodes into isolated groups; traffic across groups is blocked."""
        sets = [set(g) for g in groups]
        for i, group_a in enumerate(sets):
            for group_b in sets[i + 1:]:
                for a in group_a:
                    for b in group_b:
                        self._blocked.add((a, b))
                        self._blocked.add((b, a))

    def heal(self) -> None:
        """Remove all partitions."""
        self._blocked.clear()

    def set_drop_probability(self, src: Hashable, dst: Hashable, p: float) -> None:
        """Make the directed link ``src -> dst`` lossy with probability ``p``."""
        self._drop_prob[(src, dst)] = p

    def set_extra_delay(self, src: Hashable, dst: Hashable, delay: float) -> None:
        """Add a fixed extra delay to the directed link ``src -> dst``."""
        self._extra_delay[(src, dst)] = delay

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, src: Hashable, dst: Hashable, msg: Message) -> None:
        """Transmit ``msg`` from ``src`` to ``dst``.

        The message first serializes on the sender's NIC, then propagates;
        delivery invokes the destination handler (if still registered).
        """
        sender = self._endpoints.get(src)
        if sender is None or not sender.up:
            return  # a crashed process sends nothing
        self.messages_sent += 1
        wire = msg.wire_size()
        self.bytes_sent += wire
        if self._obs.enabled:
            self._obs.metrics.counter("net.messages", kind=msg.kind).inc()
            self._obs.metrics.counter("net.bytes", kind=msg.kind).inc(wire)
        serialize = wire * 8 / self.config.bandwidth_bps
        sender.nic.submit(serialize, self._propagate, src, dst, msg)

    def broadcast(self, src: Hashable, dsts: Iterable[Hashable], msg: Message) -> None:
        """Send ``msg`` to every destination (self-sends deliver too)."""
        for dst in dsts:
            self.send(src, dst, msg)

    def _propagate(self, src: Hashable, dst: Hashable, msg: Message) -> None:
        if (src, dst) in self._blocked:
            self.dropped_partition += 1
            return
        drop = self._drop_prob.get((src, dst), 0.0)
        if drop > 0.0 and self._rng.random() < drop:
            self.dropped_prob += 1
            return
        cfg = self.config
        delay = cfg.latency + self._rng.uniform(0.0, cfg.jitter)
        delay += self._extra_delay.get((src, dst), 0.0)
        if self.sim.now < cfg.gst:
            # Before GST the network may behave asynchronously: messages can
            # be delayed by an arbitrary (bounded here) amount and reordered.
            delay += self._rng.uniform(0.0, cfg.asynchrony_max)
        if src == dst:
            delay = 0.0  # loopback skips the wire
        self.sim.schedule(delay, self._deliver, src, dst, msg)

    def _deliver(self, src: Hashable, dst: Hashable, msg: Message) -> None:
        receiver = self._endpoints.get(dst)
        if receiver is None or not receiver.up:
            self.dropped_detached += 1
            return
        self.messages_delivered += 1
        receiver.handler(src, msg)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    @property
    def messages_dropped(self) -> int:
        """Total drops across all causes (back-compat aggregate)."""
        return (self.dropped_partition + self.dropped_prob
                + self.dropped_detached)

    def stats(self) -> dict:
        """JSON-ready traffic summary for the run report."""
        return {
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "dropped_partition": self.dropped_partition,
            "dropped_prob": self.dropped_prob,
            "dropped_detached": self.dropped_detached,
            "bytes_sent": self.bytes_sent,
        }
