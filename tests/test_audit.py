"""The online safety auditor (repro.obs v2) catches seeded violations.

Each test seeds one concrete attack or failure against a real run and
asserts that the named invariant fires with the event context that exposes
it: a forked block (``no-fork``), a lost certified suffix after a full
crash (``persistence``), a certificate carrying a retired view's keys
(``retired-key``) and a transfer minted twice (``no-double-mint``).  A
clean Table-row run must produce zero violations.  The auditor protocol's
scope (one consensus group's checks never see another's events) and
offline replay are tested here for all three auditors.
"""

import pytest

from repro.bench.harness import Scenario, run
from repro.clients.client import Client
from repro.crypto.hashing import hash_obj
from repro.ledger import Block, BlockBody, BlockHeader, TxRecord
from repro.core.multichain import shard_of_node
from repro.obs.audit import INVARIANTS, AuditError, SafetyAuditor
from repro.obs.events import ProtocolEvent
from repro.obs.liveness import LivenessAuditor
from repro.obs.recovery import RecoveryAuditor

from tests.helpers import attach_station, make_consortium, mint_ops_simple


def _audited_consortium(seed: int):
    """A consortium with event recording + a live auditor attached."""
    consortium = make_consortium(seed=seed, checkpoint_period=100)
    auditor = SafetyAuditor().attach(consortium.sim.obs)
    return consortium, auditor


def _run_traffic(consortium, txs: int = 12, until: float = 6.0):
    station = attach_station(consortium)
    Client(station, mint_ops_simple(txs))
    station.start_all()
    consortium.sim.run(until=until)
    return station


class TestCleanRun:
    def test_clean_table_row_has_zero_violations(self):
        result = run(Scenario(system="smartchain", clients=300, duration=2.0,
                              seed=77, observe=True, audit=True))
        audit = result.report["audit"]
        assert audit["violations"] == []
        assert audit["invariants"] == list(INVARIANTS)
        assert audit["events_checked"] == len(result.handle.obs.events)
        assert audit["events_checked"] > 0

    def test_offline_sweep_of_recorded_log_is_clean(self):
        result = run(Scenario(system="smartchain", clients=300, duration=2.0,
                              seed=77, observe=True, audit=True))
        auditor = SafetyAuditor().replay(result.handle.obs.events)
        assert auditor.ok
        auditor.raise_if_violated()  # no-op when clean

    def test_audit_error_carries_every_violation(self):
        auditor = SafetyAuditor()
        auditor._flag("agreement", "seeded", ProtocolEvent(
            time=1.0, seq=0, kind="decide", node=0, fields={}))
        with pytest.raises(AuditError) as excinfo:
            auditor.raise_if_violated()
        assert "1 safety violation" in str(excinfo.value)
        assert excinfo.value.violations[0].invariant == "agreement"


class TestForkDetection:
    def test_tampered_block_fires_no_fork(self):
        consortium, auditor = _audited_consortium(seed=7)
        _run_traffic(consortium)
        chain = consortium.node(0).delivery.chain
        assert chain.height >= 2
        assert auditor.ok, [str(v) for v in auditor.violations]

        # A Byzantine node presents a different block at an agreed height.
        victim = chain.get(1)
        evil_tx = TxRecord(6666, 1, ("mint", "attacker", ((10**9, 1),)), 180)
        body = BlockBody(
            consensus_id=victim.body.consensus_id,
            transactions=[evil_tx],
            results=[(6666, 1, "('minted', ('loot',))", b"ok")],
            batch_hash=hash_obj(("forged-batch",)),
        )
        header = BlockHeader(
            number=victim.number,
            last_reconfig=victim.header.last_reconfig,
            last_checkpoint=victim.header.last_checkpoint,
            view_id=victim.header.view_id,
            hash_transactions=body.hash_transactions(),
            hash_results=body.hash_results(),
            hash_last_block=victim.header.hash_last_block,
        )
        forged = Block(header, body)
        assert forged.digest() != victim.digest()
        auditor.ingest_chain(3, [forged], now=consortium.sim.now)

        forks = [v for v in auditor.violations if v.invariant == "no-fork"]
        assert forks
        violation = forks[0]
        assert violation.event.kind == "block-append"
        assert violation.event.node == 3
        assert violation.context["block"] == victim.number
        assert (violation.context["conflicting_digest"]
                == forged.digest().hex())
        assert (violation.context["first_digest"] == victim.digest().hex())


class TestPersistenceAudit:
    def test_lost_certified_suffix_fires_persistence(self):
        consortium, auditor = _audited_consortium(seed=11)
        _run_traffic(consortium)
        sim = consortium.sim
        certified = [b.number for b in consortium.node(0).delivery.chain
                     if b.certificate is not None]
        assert certified, "strong/sync run should certify blocks"
        assert auditor.ok, [str(v) for v in auditor.violations]

        # Every owner truncates its own stable chain log (Byzantine storage
        # loss), then the whole group crashes and comes back: certified
        # blocks are gone from every disk — exactly what 0-Persistence
        # forbids.
        for node in consortium.nodes.values():
            node.replica.store.corrupt_suffix("chain", keep=1)
        for node in consortium.nodes.values():
            node.crash()
        sim.run(until=sim.now + 0.5)
        for node in consortium.nodes.values():
            node.recover()
        sim.run(until=sim.now + 5.0)

        lost = [v for v in auditor.violations if v.invariant == "persistence"]
        assert lost
        violation = lost[0]
        assert violation.event.kind == "recovering"
        assert violation.context["lost_blocks"]
        assert violation.context["group_max_height"] < max(certified)
        assert violation.context["certified_max"] == max(certified)
        assert set(violation.context["recovered_heights"]) == set(
            consortium.nodes)

    def test_clean_full_crash_recovery_has_no_violation(self):
        consortium, auditor = _audited_consortium(seed=11)
        _run_traffic(consortium)
        sim = consortium.sim
        # Same full crash, but disks are intact: the group recovers every
        # certified block and the auditor stays quiet.
        for node in consortium.nodes.values():
            node.crash()
        sim.run(until=sim.now + 0.5)
        for node in consortium.nodes.values():
            node.recover()
        sim.run(until=sim.now + 5.0)
        lost = [v for v in auditor.violations if v.invariant == "persistence"]
        assert lost == [], [str(v) for v in lost]


class TestRetiredKeyAudit:
    def test_stale_view_certificate_fires_retired_key(self):
        consortium, auditor = _audited_consortium(seed=51)
        station = attach_station(consortium)
        Client(station, mint_ops_simple(12))
        station.start_all()
        sim = consortium.sim

        def exclude():
            for nid in (0, 1, 2):
                consortium.node(nid).vote_exclude(3)

        sim.schedule(2.0, exclude)
        Client(station, mint_ops_simple(10))
        sim.run(until=12.0)
        assert consortium.node(0).view.view_id == 1
        assert auditor.ok, [str(v) for v in auditor.violations]

        reconfig_block = consortium.node(0).delivery.last_reconfig
        assert reconfig_block >= 1
        target = reconfig_block + 1
        assert auditor.view_at_height(target) == 1

        # An adversary who compromised the excluded member presents a
        # certificate for a post-reconfiguration block carrying view 0 —
        # only the erased view-0 consensus keys could have signed it.
        auditor.on_event(ProtocolEvent(
            time=sim.now, seq=10**9, kind="persist-certificate", node=3,
            fields={"block": target,
                    "digest": hash_obj(("forged-extension", target)).hex(),
                    "view": 0, "signers": [1, 2, 3]}))

        stale = [v for v in auditor.violations
                 if v.invariant == "retired-key"]
        assert stale
        violation = stale[0]
        assert violation.event.kind == "persist-certificate"
        assert violation.context["block"] == target
        assert violation.context["certificate_view"] == 0
        assert violation.context["expected_view"] == 1

    def test_view_monotonicity_fires_on_regression(self):
        auditor = SafetyAuditor()
        for view in (1, 2):
            auditor.on_event(ProtocolEvent(
                time=float(view), seq=view, kind="view-change", node=0,
                fields={"view": view, "members": [0, 1, 2, 3]}))
        assert auditor.ok
        auditor.on_event(ProtocolEvent(
            time=3.0, seq=3, kind="view-change", node=0,
            fields={"view": 1, "members": [0, 1, 2, 3]}))
        backsteps = [v for v in auditor.violations
                     if v.invariant == "view-monotonicity"]
        assert backsteps
        assert backsteps[0].context == {"previous_view": 2,
                                        "installed_view": 1}


def _events(*specs):
    """``(kind, node, fields)`` triples as a stream, one event per 0.1 s."""
    return [ProtocolEvent(time=0.1 * seq, seq=seq, kind=kind, node=node,
                          fields=fields)
            for seq, (kind, node, fields) in enumerate(specs)]


def _group_of(node):
    return node // 100   # group g holds replicas 100g..100g+3


#: auditor -> (factory, two groups' interleaved events colliding on cids,
#: heights and regencies, the same conflict again inside group 0, the
#: invariant that conflict trips).
SCOPE_CASES = {
    "safety": (
        lambda: SafetyAuditor(scope=_group_of),
        [("decide", 0, {"cid": 0, "batch_hash": "aa"}),
         ("decide", 100, {"cid": 0, "batch_hash": "bb"}),
         ("block-append", 1, {"block": 1, "digest": "d0"}),
         ("block-append", 101, {"block": 1, "digest": "d1"}),
         ("persist-certificate", 102, {"block": 1, "digest": "d1",
                                       "view": 0})],
        ("decide", 2, {"cid": 0, "batch_hash": "bb"}), "agreement"),
    "liveness": (
        lambda: LivenessAuditor(scope=_group_of, wedge_k=3),
        [("leader-change", 1, {"regency": 1, "leader": 1}),
         ("decide", 100, {"cid": 0}),
         ("leader-change", 101, {"regency": 1, "leader": 1}),
         ("leader-change", 2, {"regency": 2, "leader": 2}),
         ("decide", 100, {"cid": 1})],
        ("leader-change", 3, {"regency": 3, "leader": 3}), "no-wedge"),
    "recovery": (
        lambda: RecoveryAuditor(scope=_group_of),
        [("decide", 0, {"cid": 0, "batch_hash": "aa"}),
         ("decide", 100, {"cid": 0, "batch_hash": "bb"}),
         ("recovering", 102, {"replayed": [(0, "bb")]})],
        ("recovering", 2, {"replayed": [(0, "bb")]}),
        "recovery-divergence"),
}


class TestScope:
    @pytest.mark.parametrize("name", sorted(SCOPE_CASES))
    def test_each_group_sees_only_its_own_events(self, name):
        factory, interleaved, conflict, invariant = SCOPE_CASES[name]
        auditor = factory()
        auditor.replay(_events(*interleaved))
        assert auditor.ok, [str(v) for v in auditor.violations]
        assert len(auditor.groups) == 2
        auditor = factory()
        auditor.replay(_events(*interleaved, conflict))
        assert [v.invariant for v in auditor.violations] == [invariant]
        assert auditor.events_checked == len(interleaved) + 1

    def test_nodeless_events_reach_groups_created_later(self):
        auditor = SafetyAuditor(scope=_group_of).replay(_events(
            ("reconfig", -1, {"op": "install", "block": 4, "view": 1}),
            ("decide", 100, {"cid": 0, "batch_hash": "aa"})))
        assert auditor.view_at_height(5, group=1) == 1


def _execute(node, cid):
    return ("execute", node, {"cid": cid})


def _append(node, cid):
    return ("block-append", node, {"block": cid + 1, "cid": cid,
                                   "digest": f"d{cid}"})


def _order_violations(*specs):
    auditor = SafetyAuditor().replay(_events(*specs))
    return [v.context for v in auditor.violations
            if v.invariant == "delivery-order"]


class TestDeliveryOrder:
    def test_in_order_stream_through_crash_and_install_is_clean(self):
        assert _order_violations(
            _append(0, 0), _execute(0, 0), _append(0, 1), _execute(0, 1),
            ("crash", 0, {}), _execute(0, 7),   # leftover of the old process
            ("recovering", 0, {"local_cid": 0, "height": 1}),
            _append(0, 1), _execute(0, 1),
            ("state-transfer", 0, {"phase": "start", "from_cid": 1}),
            ("state-transfer", 0, {"phase": "done", "cid": 9}),
            _append(0, 10), _execute(0, 10),
            # The weak variant's reconciliation drops an unsupported block.
            ("suffix-lost", 0, {"blocks": [11], "height": 10}),
            ("state-transfer", 0, {"phase": "done", "cid": 9}),
            _append(0, 10), _execute(0, 10),
            # Batches overlapping on an execution pool complete out of
            # order; each still executes once.
            _execute(1, 0), _execute(1, 2), _execute(1, 1),
            _execute(1, 3)) == []

    def test_a_gap_in_the_chain_is_flagged_where_it_opens(self):
        assert _order_violations(
            _append(1, 0), _execute(1, 0),
            _append(1, 2)) == [{"cid": 2, "expected": 1, "block": 3}]

    def test_a_decision_executed_again_is_flagged(self):
        assert _order_violations(
            ("recovering", 2, {"local_cid": 125, "height": 126}),
            ("state-transfer", 2, {"phase": "done", "cid": 132}),
            _execute(2, 126), _execute(2, 133), _execute(2, 135),
            _execute(2, 135)) == [{"cid": 126, "done_through": 132},
                                  {"cid": 135, "done_through": 133}]

    def test_a_block_for_the_wrong_decision_is_flagged_before_the_fork(self):
        # The strong-variant fork's shape: the transfer stands the replica
        # at cid 150, and its next block is built for cid 152.
        auditor = SafetyAuditor().replay(_events(
            ("state-transfer", 1, {"phase": "done", "cid": 149}),
            _append(1, 150), _execute(1, 150), _append(1, 151),
            ("state-transfer", 2, {"phase": "done", "cid": 150}),
            ("block-append", 2, {"block": 152, "cid": 152,
                                 "digest": "other"})))
        assert [(v.invariant, v.context.get("cid")) for v in
                auditor.violations] == [("delivery-order", 152),
                                        ("no-fork", None)]
        assert auditor.violations[0].context["expected"] == 151

    def test_a_repeated_block_is_flagged(self):
        assert _order_violations(
            ("state-transfer", 3, {"phase": "done", "cid": 3}),
            _append(3, 4), _execute(3, 4), _append(3, 4)) == [
                {"cid": 4, "expected": 5, "block": 5}]


def _redeem(node, xfer="x1", value=5):
    return ("cert-redeemed", node, {"xfer": xfer, "value": value})


class TestNoDoubleMint:
    def test_redeem_crash_redeem_is_clean(self):
        # Recovery replays the log and re-executes each xmint: the check is
        # once per incarnation.
        auditor = SafetyAuditor().replay(_events(
            _redeem(2), ("crash", 2, {}), ("recovering", 2, {"height": 3}),
            _redeem(2)))
        assert auditor.ok, [str(v) for v in auditor.violations]
        assert auditor.summary()["transfers_redeemed"] == 1

    def test_redeem_twice_without_crash_is_flagged(self):
        auditor = SafetyAuditor().replay(_events(
            _redeem(2), _redeem(1), _redeem(2), _redeem(2)))
        assert [v.invariant for v in auditor.violations] == [
            "no-double-mint"]
        assert auditor.violations[0].context["node"] == 2

    def test_diverging_value_is_flagged(self):
        auditor = SafetyAuditor().replay(_events(
            _redeem(1, value=5), _redeem(2, value=6)))
        assert auditor.violations[0].context == {
            "xfer": "x1", "value": 6, "expected": 5}

    def test_sharded_recovery_replay_is_clean(self):
        # Replica 2 of shard 1 — where shard 0's transfers are minted —
        # crash-recovers twice and replays its log, re-redeeming every
        # transfer certificate it had logged.
        result = run(Scenario(system="smartchain", shards=2,
                              cross_shard_fraction=0.1, clients=400,
                              duration=2.5, seed=1, observe=True, audit=True,
                              faults="bitrot-recovery-shard1"))
        assert result.report["recovery"]["recoveries_seen"] == 2
        assert result.report["audit"]["transfers_redeemed"] > 0
        assert result.report["audit"]["violations"] == []


class TestOfflineReplay:
    def test_replay_of_a_sharded_run_matches_online(self):
        result = run(Scenario(system="smartchain", shards=2,
                              cross_shard_fraction=0.2, clients=200,
                              duration=2.0, seed=1, audit=True,
                              audit_liveness=True, event_capacity=400_000))
        obs = result.handle.obs
        assert obs.events.dropped == 0
        live = obs.liveness
        offline = [
            SafetyAuditor(scope=shard_of_node),
            LivenessAuditor(bound=live.bound, gst=live.gst,
                            wedge_k=live.wedge_k, scope=shard_of_node),
            RecoveryAuditor(scope=shard_of_node)]
        for online, auditor in zip(obs.auditors(), offline):
            auditor.replay(obs.events, horizon=2.0)
            assert auditor.summary() == online.summary()
        assert offline[0].summary()["shards"] == 2
        assert offline[0].summary()["transfers_redeemed"] > 0
        assert offline[1].summary()["shards"] == 2
