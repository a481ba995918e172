"""NodeRuntime: typed message dispatch with interceptor chains.

Extracted from :class:`~repro.smr.replica.ModSmartReplica`, which used to
hard-code its message dispatch (an ``isinstance`` ladder in ``_on_message``)
and scatter crosscutting concerns — the ``repro.obs`` event taps, tracing,
fault hooks — through the protocol code.  The runtime makes both pluggable:

- **Typed dispatch**: protocol components (the replica itself, the
  :class:`~repro.smr.leaderchange.Synchronizer`, the
  :class:`~repro.smr.statetransfer.StateTransferEngine`, the
  :class:`~repro.core.blockchain_layer.SmartChainDelivery` PERSIST phase)
  register a handler per message type via :meth:`register_handler`; the
  network delivers into :meth:`deliver`, which dispatches on ``type(msg)``.
  Dispatch is by exact type only: a message type nobody registered is
  dropped, and no component keeps an ``isinstance`` ladder of its own.
- **Inbound chain**: every delivered message passes through the inbound
  interceptors before dispatch; an interceptor may replace the message or
  drop it (return ``None``).
- **Outbound chain**: every transmission through :meth:`send` /
  :meth:`broadcast` passes through the outbound interceptors per
  destination; an interceptor may rewrite one transmission into zero or
  more ``(dst, msg)`` pairs — the seam for equivocation, muting, vote
  withholding, batching, compression.
- **Event taps**: protocol code emits events through :meth:`notify` behind
  an ``if runtime.observing:`` guard (same zero-cost-when-off discipline as
  the old inline ``record_events`` checks).  ``notify`` forwards to the
  run's :class:`~repro.obs.events.EventLog` when recording is on, and to
  every registered tap — which is how fault behaviors trigger off protocol
  progress (e.g. the stale-certificate replayer waits for a view change).

With no interceptors installed the runtime is a plain dict dispatch plus a
direct ``Network.send`` — fault-free runs take exactly the code path the
pre-runtime replica took, and their event exports are byte-identical.
"""

from __future__ import annotations

from typing import Any, Callable, Hashable, Iterable

from repro.net.message import Message
from repro.net.network import Network
from repro.sim.engine import Simulator

__all__ = ["Interceptor", "NodeRuntime"]

Handler = Callable[[Hashable, Message], None]


class Interceptor:
    """Crosscutting hook around one node's message I/O and protocol events.

    Subclass and override what you need; the defaults are pass-through.
    Interceptors run in installation order on both chains.
    """

    def on_inbound(self, src: Hashable, msg: Message) -> Message | None:
        """Filter or replace a delivered message; return ``None`` to drop."""
        return msg

    def on_outbound(self, dst: Hashable,
                    msg: Message) -> list[tuple[Hashable, Message]]:
        """Rewrite one transmission into zero or more ``(dst, msg)`` pairs."""
        return [(dst, msg)]

    def on_event(self, kind: str, fields: dict[str, Any]) -> None:
        """Observe a protocol event emitted through the runtime."""


class NodeRuntime:
    """Message plumbing of one node: dispatch, interceptors, event taps."""

    def __init__(self, sim: Simulator, network: Network, node_id: int):
        self.sim = sim
        self.net = network
        self.id = node_id
        self.handlers: dict[type, Handler] = {}
        #: Delivery gate: checked before any inbound processing (the
        #: replica wires its crashed check here).
        self.gate: Callable[[], bool] = _always
        self._inbound: list[Interceptor] = []
        self._outbound: list[Interceptor] = []
        self._taps: list[Interceptor] = []

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def register_handler(self, msg_type: type, fn: Handler) -> None:
        """Route messages of exactly ``msg_type`` to ``fn(src, msg)``."""
        self.handlers[msg_type] = fn

    def add_inbound(self, interceptor: Interceptor) -> None:
        self._inbound.append(interceptor)

    def add_outbound(self, interceptor: Interceptor) -> None:
        self._outbound.append(interceptor)

    def add_tap(self, interceptor: Interceptor) -> None:
        self._taps.append(interceptor)

    def install(self, interceptor: Interceptor) -> None:
        """Attach ``interceptor`` to both chains and the event taps."""
        self.add_inbound(interceptor)
        self.add_outbound(interceptor)
        self.add_tap(interceptor)

    def remove(self, interceptor: Interceptor) -> None:
        for chain in (self._inbound, self._outbound, self._taps):
            while interceptor in chain:
                chain.remove(interceptor)

    @property
    def interceptors(self) -> list[Interceptor]:
        seen: list[Interceptor] = []
        for chain in (self._inbound, self._outbound, self._taps):
            for interceptor in chain:
                if interceptor not in seen:
                    seen.append(interceptor)
        return seen

    # ------------------------------------------------------------------
    # Inbound: network delivery -> interceptors -> typed dispatch
    # ------------------------------------------------------------------
    def deliver(self, src: Hashable, msg: Message) -> None:
        """Network-facing delivery entry point (wired to the endpoint)."""
        if not self.gate():
            return
        if self._inbound:
            for interceptor in self._inbound:
                filtered = interceptor.on_inbound(src, msg)
                if filtered is None:
                    return
                msg = filtered
        handler = self.handlers.get(type(msg))
        if handler is not None:
            handler(src, msg)

    # ------------------------------------------------------------------
    # Outbound: interceptors -> network
    # ------------------------------------------------------------------
    def send(self, dst: Hashable, msg: Message) -> None:
        if self._outbound:
            for real_dst, real_msg in self._run_outbound(dst, msg):
                self.net.send(self.id, real_dst, real_msg)
        else:
            self.net.send(self.id, dst, msg)

    def broadcast(self, dsts: Iterable[Hashable], msg: Message) -> None:
        if self._outbound:
            for dst in dsts:
                self.send(dst, msg)
        else:
            self.net.broadcast(self.id, dsts, msg)

    def send_raw(self, dst: Hashable, msg: Message) -> None:
        """Transmit bypassing the outbound chain (used by interceptors that
        fabricate traffic, so their own output is not re-intercepted)."""
        self.net.send(self.id, dst, msg)

    def _run_outbound(self, dst: Hashable,
                      msg: Message) -> list[tuple[Hashable, Message]]:
        pairs = [(dst, msg)]
        for interceptor in self._outbound:
            rewritten: list[tuple[Hashable, Message]] = []
            for pair_dst, pair_msg in pairs:
                rewritten.extend(interceptor.on_outbound(pair_dst, pair_msg))
            pairs = rewritten
            if not pairs:
                break
        return pairs

    # ------------------------------------------------------------------
    # Protocol event taps
    # ------------------------------------------------------------------
    @property
    def observing(self) -> bool:
        """Guard for event emission: protocol code checks this before
        computing event fields, exactly like the old inline
        ``if obs.record_events:`` checks — disabled runs pay nothing."""
        return self.sim.obs.record_events or bool(self._taps)

    def notify(self, kind: str, **fields: Any) -> None:
        """Emit a protocol event from this node: recorded in the run's
        event log (when recording is on) and fanned to every tap."""
        obs = self.sim.obs
        if obs.record_events:
            obs.events.emit(kind, self.id, self.sim.now, **fields)
        for tap in self._taps:
            tap.on_event(kind, fields)


def _always() -> bool:
    return True
