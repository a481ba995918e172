"""Unit tests for the NodeRuntime interceptor pipeline."""

from dataclasses import dataclass

from repro.net.message import Message
from repro.net.network import Network, NetworkConfig
from repro.sim.engine import Simulator
from repro.smr.runtime import Interceptor, NodeRuntime


@dataclass
class Ping(Message):
    pass


@dataclass
class Pong(Message):
    pass


def build(node_id=1, peers=(2, 3)):
    """A runtime on node_id plus plain inbox endpoints for the peers."""
    sim = Simulator(1)
    net = Network(sim, NetworkConfig(latency=0.0, jitter=0.0))
    inboxes = {p: [] for p in peers}
    for p in peers:
        net.register(p, lambda s, m, p=p: inboxes[p].append((s, m)))
    runtime = NodeRuntime(sim, net, node_id)
    net.register(node_id, runtime.deliver)
    return sim, net, runtime, inboxes


class TestDispatch:
    def test_typed_handler_receives_matching_messages(self):
        sim, net, rt, _ = build()
        seen = []
        rt.register_handler(Ping, lambda s, m: seen.append((s, m)))
        net.send(2, 1, Ping(size=10))
        sim.run()
        assert len(seen) == 1 and seen[0][0] == 2
        assert isinstance(seen[0][1], Ping)

    def test_unhandled_type_is_ignored_without_fallback(self):
        sim, net, rt, _ = build()
        seen = []
        rt.register_handler(Ping, lambda s, m: seen.append(m))
        net.send(2, 1, Pong(size=10))
        sim.run()
        assert seen == []

    def test_dispatch_is_exact_type_not_subclass(self):
        # Ping subclasses Message; a Message handler must not catch Ping.
        sim, net, rt, _ = build()
        seen = []
        rt.register_handler(Message, lambda s, m: seen.append(m))
        net.send(2, 1, Ping(size=10))
        sim.run()
        assert seen == []

    def test_gate_blocks_all_delivery(self):
        sim, net, rt, _ = build()
        seen = []
        rt.register_handler(Ping, lambda s, m: seen.append(m))
        rt.gate = lambda: False
        net.send(2, 1, Ping(size=10))
        sim.run()
        assert seen == []


class _Drop(Interceptor):
    def on_inbound(self, src, msg):
        return None if isinstance(msg, Ping) else msg


class _Swap(Interceptor):
    def on_inbound(self, src, msg):
        return Pong(size=msg.size) if isinstance(msg, Ping) else msg


class TestInboundChain:
    def test_interceptor_can_drop(self):
        sim, net, rt, _ = build()
        seen = []
        rt.register_handler(Ping, lambda s, m: seen.append(m))
        rt.register_handler(Pong, lambda s, m: seen.append(m))
        rt.add_inbound(_Drop())
        net.send(2, 1, Ping(size=10))
        net.send(2, 1, Pong(size=10))
        sim.run()
        assert len(seen) == 1 and isinstance(seen[0], Pong)

    def test_interceptor_can_replace(self):
        sim, net, rt, _ = build()
        seen = []
        rt.register_handler(Pong, lambda s, m: seen.append(m))
        rt.add_inbound(_Swap())
        net.send(2, 1, Ping(size=10))
        sim.run()
        assert len(seen) == 1 and isinstance(seen[0], Pong)

    def test_chain_runs_in_installation_order(self):
        # Swap then Drop: the Ping becomes a Pong before Drop sees it,
        # so it survives.  Reversed order kills it first.
        for order, survives in ((_Swap(), _Drop()), True), ((_Drop(), _Swap()), False):
            sim, net, rt, _ = build()
            seen = []
            rt.register_handler(Pong, lambda s, m: seen.append(m))
            for interceptor in order:
                rt.add_inbound(interceptor)
            net.send(2, 1, Ping(size=10))
            sim.run()
            assert bool(seen) is survives


class _Redirect(Interceptor):
    def __init__(self, target):
        self.target = target

    def on_outbound(self, dst, msg):
        return [(self.target, msg)]


class _FanOut(Interceptor):
    def __init__(self, targets):
        self.targets = targets

    def on_outbound(self, dst, msg):
        return [(t, msg) for t in self.targets]


class _Mute(Interceptor):
    def on_outbound(self, dst, msg):
        return []


class TestOutboundChain:
    def test_rewrite_redirects_transmission(self):
        sim, net, rt, inboxes = build()
        rt.add_outbound(_Redirect(3))
        rt.send(2, Ping(size=10))
        sim.run()
        assert inboxes[2] == []
        assert len(inboxes[3]) == 1

    def test_fan_out_duplicates_transmission(self):
        sim, net, rt, inboxes = build()
        rt.add_outbound(_FanOut([2, 3]))
        rt.send(2, Ping(size=10))
        sim.run()
        assert len(inboxes[2]) == 1 and len(inboxes[3]) == 1

    def test_empty_rewrite_mutes_the_node(self):
        sim, net, rt, inboxes = build()
        rt.add_outbound(_Mute())
        rt.send(2, Ping(size=10))
        rt.broadcast([2, 3], Ping(size=10))
        sim.run()
        assert inboxes[2] == [] and inboxes[3] == []
        assert net.messages_sent == 0

    def test_broadcast_runs_chain_per_destination(self):
        sim, net, rt, inboxes = build()
        rt.add_outbound(_Redirect(3))
        rt.broadcast([2, 3], Ping(size=10))
        sim.run()
        assert inboxes[2] == []
        assert len(inboxes[3]) == 2

    def test_send_raw_bypasses_the_chain(self):
        sim, net, rt, inboxes = build()
        rt.add_outbound(_Mute())
        rt.send_raw(2, Ping(size=10))
        sim.run()
        assert len(inboxes[2]) == 1

    def test_no_interceptors_is_plain_network_send(self):
        sim, net, rt, inboxes = build()
        rt.send(2, Ping(size=10))
        rt.broadcast([2, 3], Ping(size=10))
        sim.run()
        assert len(inboxes[2]) == 2 and len(inboxes[3]) == 1
        assert net.messages_sent == 3


class _Recorder(Interceptor):
    def __init__(self):
        self.events = []

    def on_event(self, kind, fields):
        self.events.append((kind, fields))


class TestEventTaps:
    def test_observing_reflects_taps_and_recording(self):
        sim, net, rt, _ = build()
        assert rt.observing is False
        tap = _Recorder()
        rt.add_tap(tap)
        assert rt.observing is True
        rt.remove(tap)
        assert rt.observing is False
        sim.obs.record_events = True
        assert rt.observing is True

    def test_notify_fans_to_taps(self):
        _sim, _net, rt, _ = build()
        tap = _Recorder()
        rt.add_tap(tap)
        rt.notify("view-change", view=3)
        assert tap.events == [("view-change", {"view": 3})]

    def test_notify_records_in_event_log_when_enabled(self):
        sim, _net, rt, _ = build()
        sim.obs.record_events = True
        rt.notify("view-change", view=3)
        events = sim.obs.events.of_kind("view-change")
        assert len(events) == 1 and events[0].node == rt.id

    def test_notify_skips_event_log_when_disabled(self):
        sim, _net, rt, _ = build()
        rt.notify("view-change", view=3)
        assert len(sim.obs.events) == 0


class TestLifecycle:
    def test_install_attaches_everywhere_and_remove_detaches(self):
        sim, net, rt, inboxes = build()
        seen = []
        rt.register_handler(Ping, lambda s, m: seen.append(m))

        class Chaos(_Recorder):
            def on_inbound(self, src, msg):
                return None

            def on_outbound(self, dst, msg):
                return []

        chaos = Chaos()
        rt.install(chaos)
        assert rt.interceptors == [chaos]
        rt.send(2, Ping(size=10))
        net.send(2, 1, Ping(size=10))
        rt.notify("tick")
        sim.run()
        assert seen == [] and inboxes[2] == []
        assert chaos.events == [("tick", {})]

        rt.remove(chaos)
        assert rt.interceptors == []
        rt.send(2, Ping(size=10))
        net.send(2, 1, Ping(size=10))
        sim.run()
        assert len(seen) == 1 and len(inboxes[2]) == 1
