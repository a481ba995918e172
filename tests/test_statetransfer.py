"""State transfer and single-replica recovery tests."""

import pytest

from repro.clients.client import Client
from repro.config import PersistenceVariant, StorageMode

from tests.helpers import (
    attach_station,
    kv_ops,
    make_cluster,
    make_consortium,
    mint_ops_simple,
    run_coin_traffic,
    station_with_clients,
)


class TestMemoryClusterRecovery:
    def test_crashed_replica_catches_up_via_state_transfer(self):
        sim, network, view, replicas, apps = make_cluster(seed=31)
        station = station_with_clients(sim, network, lambda: view, 5,
                                       lambda i: kv_ops(f"c{i}", 20))
        station.start_all()
        sim.schedule(0.05, replicas[2].crash)
        recovered = []
        sim.schedule(1.0, lambda: replicas[2].recover(
            lambda: recovered.append(sim.now)))
        sim.run(until=30.0)
        assert station.meter.total == 100
        assert recovered, "recovery never completed"
        assert replicas[2].active
        # Memory delivery loses everything locally; state transfer must have
        # rebuilt the full service state.
        assert apps[2].state_digest() == apps[0].state_digest()

    def test_recovering_replica_rejoins_ordering(self):
        sim, network, view, replicas, apps = make_cluster(seed=32)
        station = station_with_clients(sim, network, lambda: view, 5,
                                       lambda i: kv_ops(f"a{i}", 10))
        station.start_all()
        sim.schedule(0.05, replicas[3].crash)
        sim.schedule(0.8, lambda: replicas[3].recover())
        sim.run(until=10.0)
        before = replicas[3].last_decided
        # New traffic after recovery must reach the recovered replica too.
        station2 = station_with_clients(sim, network, lambda: view, 3,
                                        lambda i: kv_ops(f"b{i}", 10),
                                        station_id=901)
        station2.start_all()
        sim.run(until=25.0)
        assert station2.meter.total == 30
        assert replicas[3].last_decided > before


class TestSmartChainRecovery:
    def test_recovery_from_local_chain_plus_transfer(self):
        consortium = make_consortium(seed=33, checkpoint_period=5)
        station = attach_station(consortium)
        Client(station, mint_ops_simple(40))
        station.start_all()
        consortium.sim.schedule(0.4, consortium.node(1).crash)
        consortium.sim.schedule(1.0, lambda: consortium.node(1).recover())
        consortium.sim.run(until=30.0)
        assert station.meter.total == 40
        node0, node1 = consortium.node(0), consortium.node(1)
        assert node1.chain.height == node0.chain.height
        assert node1.chain.head_digest() == node0.chain.head_digest()
        assert node1.app.state_digest() == node0.app.state_digest()

    def test_transfer_package_is_checkpoint_plus_suffix(self):
        consortium = make_consortium(seed=34, checkpoint_period=5)
        run_coin_traffic(consortium, txs=30)
        delivery = consortium.node(0).delivery
        target = delivery.executed_cid
        package, nbytes = delivery.capture_state(up_to_cid=target)
        assert nbytes > 0
        _target, ckpt_record, blocks = package
        assert ckpt_record[0] >= 5  # a checkpoint was taken
        first_suffix_number = blocks[0][0][0] if blocks else None
        if first_suffix_number is not None:
            assert first_suffix_number == ckpt_record[0] + 1

    def test_packages_identical_across_replicas_for_same_target(self):
        consortium = make_consortium(seed=35, checkpoint_period=5)
        run_coin_traffic(consortium, txs=30)
        target = min(n.delivery.executed_cid
                     for n in consortium.nodes.values())
        digests = set()
        for node in consortium.nodes.values():
            package, _ = node.delivery.capture_state(up_to_cid=target)
            digests.add(node.delivery.package_digest(package))
        assert len(digests) == 1

    def test_install_cost_scales_with_suffix(self):
        consortium = make_consortium(seed=36, checkpoint_period=1000)
        run_coin_traffic(consortium, txs=40)
        delivery = consortium.node(0).delivery
        package, _ = delivery.capture_state()
        cost_full = delivery.install_cost(package)
        small_package = (package[0], package[1], package[2][:1])
        assert delivery.install_cost(small_package) < cost_full

    def test_self_verifiable_adoption_rejects_garbage(self):
        consortium = make_consortium(seed=37)
        run_coin_traffic(consortium, txs=10)
        delivery = consortium.node(0).delivery
        assert delivery.can_self_verify()
        package, _ = delivery.capture_state()
        assert delivery.verify_package(package)
        # Strip a certificate: the package no longer proves itself.
        import copy
        target, ckpt, blocks = package
        if blocks:
            from repro.ledger import Block
            forged = [Block.from_record(r) for r in blocks]
            forged[0].certificate = None
            bad = (target, ckpt, tuple(b.to_record() for b in forged))
            assert not delivery.verify_package(bad)

    def test_weak_variant_is_not_self_verifiable(self):
        consortium = make_consortium(seed=38,
                                     variant=PersistenceVariant.WEAK)
        run_coin_traffic(consortium, txs=10)
        assert not consortium.node(0).delivery.can_self_verify()


# ----------------------------------------------------------------------
# Delta packages, whole-package digests, the no-progress retry
# ----------------------------------------------------------------------
from repro.errors import LedgerError
from repro.smr.requests import ClientRequest, Decision
from repro.smr.statetransfer import StChunkMsg, StHashMsg

DELTA = "delta"


def _chain_of(seed: int, blocks: int = 24, **kwargs):
    """A consortium whose four replicas hold ``blocks`` one-MINT blocks and
    no checkpoint but the genesis one."""
    consortium = make_consortium(seed=seed, checkpoint_period=1000, **kwargs)
    run_coin_traffic(consortium, txs=blocks)
    assert {n.chain.height for n in consortium.nodes.values()} == {blocks}
    return consortium


def _rewind(delivery, full, height: int) -> None:
    """Put ``delivery`` at block ``height`` of the chain ``full`` — a
    genesis-checkpoint + suffix package — ships."""
    _target, checkpoint, records = full
    assert checkpoint[0] == 0
    cid = records[height - 1][1][0]
    delivery.install_state((cid, checkpoint, records[:height]))
    assert delivery.chain.height == height


def _forge_last_result(package):
    """``package`` with one digit of the last block's first result row
    changed, lengths kept."""
    target, anchor, records = package
    header, body, cert, proof = records[-1]
    cid, txs, results, batch_hash, announcements, new_view = body
    client_id, req_id, text, digest = results[0]
    at = next(i for i, ch in enumerate(text) if ch.isdigit())
    text = text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1:]
    results = ((client_id, req_id, text, digest),) + tuple(results[1:])
    body = (cid, txs, results, batch_hash, announcements, new_view)
    return target, anchor, records[:-1] + ((header, body, cert, proof),)


def _lagging_replica(seed: int, **kwargs):
    """A consortium in which node 3 crashed mid-traffic and has just been
    restarted: its local chain is a strict prefix of the others', its
    state-transfer probe is sent and nothing has been delivered yet."""
    consortium = make_consortium(seed=seed, checkpoint_period=1000, **kwargs)
    sim = consortium.sim
    station = attach_station(consortium)
    Client(station, mint_ops_simple(24))
    station.start_all()
    while station.meter.total < 8:
        sim.run(until=sim.now + 0.01)
    laggard = consortium.node(3)
    laggard.crash()
    sim.run(until=20.0)
    assert station.meter.total == 24
    sim.obs.record_events = True
    laggard.recover()
    assert 0 < laggard.chain.height < consortium.node(0).chain.height
    return consortium, laggard


def _offer(laggard, server, vouchers, package, digest) -> None:
    """Hand ``laggard`` a full reply from ``server`` and hashes from
    ``vouchers``, all answering its current request round."""
    engine = laggard.replica.state_transfer
    deliver = laggard.replica.runtime.deliver
    target = package[0]
    for voucher in vouchers:
        deliver(voucher.id, StHashMsg(
            up_to_cid=target, digest=digest, transfer_id=engine._round))
    deliver(server.id, StChunkMsg(
        up_to_cid=target, final=True, package=package, digest=digest,
        transfer_id=engine._round))


def _phases(consortium, node) -> list[str]:
    return [e.fields["phase"]
            for e in consortium.sim.obs.events.of_kind("state-transfer")
            if e.node == node.id]


class TestPackageDigest:
    def test_digest_commits_to_rows_past_the_first_2kb(self):
        """The negative control the prefix digest could not pass: two
        packages equal in length and in the first 2 048 characters of
        their ``repr`` — all it hashed — must not share a digest."""
        delivery = _chain_of(seed=41).node(0).delivery
        package, _ = delivery.capture_state()
        forged = _forge_last_result(package)
        assert forged != package
        assert len(repr(forged)) == len(repr(package))
        assert repr(forged)[:2048] == repr(package)[:2048]
        assert delivery.package_digest(forged) != \
            delivery.package_digest(package)

    def test_tampered_package_is_refused_despite_f_plus_one_vouchers(self):
        consortium, laggard = _lagging_replica(
            seed=42, variant=PersistenceVariant.WEAK)
        server, voucher = consortium.node(0), consortium.node(1)
        installed = []
        install_state = laggard.delivery.install_state
        laggard.delivery.install_state = lambda package: (
            installed.append(package), install_state(package))
        package, _ = server.delivery.capture_state(
            up_to_cid=server.replica.last_decided,
            base=laggard.delivery.transfer_base())
        digest = voucher.delivery.package_digest(package)
        forged = _forge_last_result(package)
        # The liar ships the forged package under the honest digest.
        _offer(laggard, server, [voucher], forged, digest)
        consortium.sim.run(until=consortium.sim.now + 0.0004)
        assert installed == []
        assert _phases(consortium, laggard) == ["start", "rejected"]
        # Positive control: the same offer, honest, goes in.
        _offer(laggard, server, [voucher], package, digest)
        consortium.sim.run(until=consortium.sim.now + 0.0004)
        assert installed == [package]
        assert laggard.chain.head_digest() == server.chain.head_digest()

    def test_malformed_package_is_refused_not_raised(self):
        consortium, laggard = _lagging_replica(
            seed=49, variant=PersistenceVariant.WEAK)
        server, voucher = consortium.node(0), consortium.node(1)
        package, _ = server.delivery.capture_state(
            up_to_cid=server.replica.last_decided,
            base=laggard.delivery.transfer_base())
        garbage = (package[0], package[1], (("not", "a", "block"),))
        _offer(laggard, server, [voucher], garbage,
               voucher.delivery.package_digest(package))
        assert _phases(consortium, laggard) == ["start", "rejected"]

    def test_snapshot_layers_hash_the_whole_package(self):
        _sim, _network, _view, replicas, apps = make_cluster(seed=43)
        delivery = replicas[0].delivery
        apps[0].data = {f"k{i:04d}": i for i in range(400)}
        package, _ = delivery.capture_state()
        apps[0].data["k0399"] = 400
        other, _ = delivery.capture_state()
        assert repr(other)[:2048] == repr(package)[:2048]
        assert delivery.package_digest(other) != \
            delivery.package_digest(package)


class TestDeltaPackages:
    def test_delta_is_the_suffix_of_the_full_package_after_the_base(self):
        """For every base the servers hold: the delta package is the full
        package's blocks after it, all servers commit to it alike, and it
        installs to the same head and service state."""
        consortium = _chain_of(seed=44)
        server = consortium.node(0).delivery
        receiver, app = consortium.node(3).delivery, consortium.node(3).app
        target = server.executed_cid
        full, full_bytes = server.capture_state(up_to_cid=target)
        records = full[2]
        outcomes = set()
        for height in range(1, len(records)):
            base = (height, server.chain.get(height).digest())
            delta, nbytes = server.capture_state(up_to_cid=target, base=base)
            assert delta == (target, (DELTA, *base), records[height:])
            assert nbytes == sum(b.serialized_bytes() for b in
                                 server.chain.blocks(start=height + 1))
            assert nbytes < full_bytes
            assert server.install_cost(delta) < server.install_cost(full)
            assert len({node.delivery.package_digest(
                node.delivery.capture_state(up_to_cid=target, base=base)[0])
                for node in consortium.nodes.values()}) == 1
            _rewind(receiver, full, height)
            assert receiver.transfer_base() == base
            receiver.install_state(delta)
            outcomes.add((receiver.chain.height, receiver.chain.head_digest(),
                          app.state_digest()))
        receiver.install_state(full)
        assert outcomes == {(receiver.chain.height,
                             receiver.chain.head_digest(),
                             app.state_digest())}
        assert outcomes == {(server.chain.height, server.chain.head_digest(),
                             consortium.node(0).app.state_digest())}

    def test_server_falls_back_to_checkpoint_plus_suffix(self):
        consortium = make_consortium(seed=45, checkpoint_period=5)
        run_coin_traffic(consortium, txs=24)
        server = consortium.node(0).delivery
        target = server.executed_cid
        full, _ = server.capture_state(up_to_cid=target)
        assert full[1][0] == 20  # the checkpoint record, not a delta anchor
        held = server.chain.get(10).digest()
        other = server.chain.get(11).digest()
        # A cold joiner, a base above the server's head, a base the server
        # holds differently.
        assert consortium.node(3).delivery.transfer_base() is not None
        for base in (None, (server.chain.height + 5, held), (10, other)):
            assert server.capture_state(up_to_cid=target, base=base)[0] == full
        # A base below the server's own base: it holds no block 10 any more
        # once it has itself been rebased onto the checkpoint.
        rebased = consortium.node(3).delivery
        rebased.install_state(full)
        assert rebased.chain.base_height == 20
        assert rebased.capture_state(up_to_cid=target,
                                     base=(10, held))[0] == full
        assert server.capture_state(up_to_cid=target,
                                    base=(10, held))[0][1] == (DELTA, 10, held)

    def test_cold_joiner_sends_no_base(self):
        consortium = make_consortium(seed=46)
        assert consortium.node(0).delivery.transfer_base() is None

    def test_delta_that_does_not_link_is_a_bad_package(self):
        """A delta for another base than the receiver's head passes the
        f+1 comparison (both servers were asked alike) and is refused at
        install — as a rejected package, not as an exception out of
        ``sim.run`` — and the transfer then completes honestly."""
        consortium, laggard = _lagging_replica(
            seed=47, variant=PersistenceVariant.WEAK)
        server, voucher = consortium.node(0), consortium.node(1)
        height = laggard.chain.height
        ahead = (height + 2, server.chain.get(height + 2).digest())
        package, _ = server.delivery.capture_state(
            up_to_cid=server.replica.last_decided, base=ahead)
        assert package[1] == (DELTA, *ahead)
        with pytest.raises(LedgerError):
            laggard.delivery.install_state(package)
        assert laggard.chain.height == height
        _offer(laggard, server, [voucher], package,
               voucher.delivery.package_digest(package))
        consortium.sim.run(until=consortium.sim.now + 5.0)
        assert _phases(consortium, laggard) == ["start", "rejected", "done"]
        assert laggard.chain.head_digest() == server.chain.head_digest()
        assert laggard.app.state_digest() == server.app.state_digest()

    def test_install_drops_work_charged_before_it(self):
        """A block whose execution was charged before a state install and
        completes after it must not be built on the installed chain."""
        consortium = _chain_of(seed=48)
        server = consortium.node(0).delivery
        receiver = consortium.node(3).delivery
        full, _ = server.capture_state()
        _rewind(receiver, full, 10)
        delta, _ = server.capture_state(base=receiver.transfer_base())
        block = server.chain.get(11)
        batch = [ClientRequest(client_id=client_id, req_id=req_id, op=op,
                               size=size, special=special)
                 for _tx, client_id, req_id, op, size, special
                 in block.body.transactions]
        receiver.on_decide(Decision(
            cid=block.body.consensus_id, batch=batch, proof={},
            batch_hash=block.body.batch_hash, regency=0,
            decided_at=consortium.sim.now))
        assert receiver.backlog == 1
        receiver.install_state(delta)
        assert receiver.backlog == 0
        consortium.sim.run(until=consortium.sim.now + 1.0)
        assert receiver.chain.height == server.chain.height
        assert receiver.chain.head_digest() == server.chain.head_digest()
        assert consortium.node(3).app.state_digest() == \
            consortium.node(0).app.state_digest()

    def test_leader_crash_plan_catches_up_by_shrinking_deltas(self):
        from pathlib import Path
        from repro.bench.harness import Scenario, run
        plan = (Path(__file__).resolve().parents[1]
                / "benchmarks" / "e2e" / "plans" / "leader-crash.json")
        result = run(Scenario(system="smartchain", clients=300, duration=3.5,
                              seed=1, audit=True, faults=str(plan)))
        events = result.handle.obs.events
        assert len(events.of_kind("recovering")) == 1
        assert len(events.of_kind("recover")) == 1
        transfers = [e.fields for e in events.of_kind("state-transfer")]
        shipped = [done["cid"] - start["from_cid"]
                   for start, done in zip(transfers, transfers[1:])
                   if (start["phase"], done["phase"]) == ("start", "done")]
        assert len(shipped) >= 3
        assert all(later < shipped[0] / 2 for later in shipped[1:])
        heights = [n.chain.height
                   for n in result.handle.system.nodes.values()]
        assert max(heights) - min(heights) <= 10


class TestRetryAndStaleMessages:
    def _crashed_and_behind(self, seed: int):
        """A memory cluster in which replica 2 crashed early and the rest
        went on; returns the cluster and packages of two moments."""
        sim, network, view, replicas, apps = make_cluster(seed=seed)
        station = station_with_clients(sim, network, lambda: view, 4,
                                       lambda i: kv_ops(f"c{i}", 10))
        station.start_all()
        while station.meter.total < 8:
            sim.run(until=sim.now + 0.005)
        replicas[2].crash()
        while station.meter.total < 20:
            sim.run(until=sim.now + 0.005)
        early = replicas[0].delivery.capture_state()[0]
        sim.run(until=10.0)
        assert station.meter.total == 40
        late = replicas[0].delivery.capture_state()[0]
        assert early[0] < late[0]
        return sim, replicas, apps, early, late

    def test_retry_does_not_chain_the_callback_with_itself(self):
        sim, replicas, _apps, _early, _late = self._crashed_and_behind(51)
        ready = []
        replicas[2].recover(lambda: ready.append(sim.now))
        replicas[2].state_transfer._retry()
        sim.run(until=sim.now + 5.0)
        assert len(ready) == 1
        assert replicas[2].state_transfer.transfers_completed == 1

    def _reply(self, replicas, package, transfer_id: int) -> None:
        """A consistent full reply + f hashes for ``package``, delivered
        to replica 2."""
        deliver = replicas[2].runtime.deliver
        digest = replicas[0].delivery.package_digest(package)
        deliver(1, StHashMsg(
            up_to_cid=package[0], digest=digest, transfer_id=transfer_id))
        deliver(0, StChunkMsg(
            up_to_cid=package[0], final=True, package=package, digest=digest,
            transfer_id=transfer_id))

    def test_replies_are_ignored_when_no_transfer_is_in_progress(self):
        sim, replicas, apps, early, _late = self._crashed_and_behind(52)
        replicas[2].recover()
        sim.run(until=sim.now + 5.0)
        engine = replicas[2].state_transfer
        assert not engine.in_progress
        decided = replicas[2].last_decided
        assert decided > early[0]
        self._reply(replicas, early, engine._round)
        sim.run(until=sim.now + 1.0)
        assert replicas[2].last_decided == decided
        assert apps[2].state_digest() == apps[0].state_digest()

    def test_replies_to_a_superseded_request_are_ignored(self):
        sim, replicas, _apps, early, late = self._crashed_and_behind(53)
        replicas[2].recover()
        engine = replicas[2].state_transfer
        superseded = engine._round
        engine._retry()
        assert engine._round != superseded
        self._reply(replicas, early, superseded)
        assert replicas[2].last_decided < early[0]  # nothing was installed
        sim.run(until=sim.now + 5.0)
        assert replicas[2].last_decided == late[0]
        assert engine.transfers_completed == 1

    def test_replies_for_a_target_already_passed_are_ignored(self):
        sim, replicas, apps, early, late = self._crashed_and_behind(54)
        replicas[2].recover()
        sim.run(until=sim.now + 5.0)
        assert replicas[2].last_decided == late[0]
        # A second transfer is running when an old reply turns up under
        # its round id.
        engine = replicas[2].state_transfer
        engine.start(lambda _cid: None)
        self._reply(replicas, early, engine._round)
        sim.run(until=sim.now + 5.0)
        assert replicas[2].last_decided == late[0]
        assert apps[2].state_digest() == apps[0].state_digest()
