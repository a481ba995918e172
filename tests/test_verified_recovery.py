"""The one verified replay (``repro.smr.recovery``) under every durable
delivery layer: Dura-SMaRt, the naive app-level chain and SMARTCHAIN run
the same walk, so one parametrized test holds all three to the same
contract — adopt the longest checksum- and linkage-valid prefix, truncate
the rest on disk, tally it in ``RecoveryStats`` and say so in order on the
event stream.  Plus the identity pin: the refactor onto the shared replay
left the exported event logs of the recovery plans byte-identical.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro.apps.naive import NaiveBlockchainDelivery
from repro.bench.harness import Scenario, run
from repro.clients.client import Client
from repro.config import PersistenceVariant, StorageMode
from repro.core.blockchain_layer import SmartChainDelivery
from repro.smr.durability import DuraSmartDelivery

from tests.helpers import (
    attach_station,
    kv_ops,
    make_cluster,
    make_consortium,
    mint_ops_simple,
    station_with_clients,
)

RECOVERY_KINDS = ("snapshot-rejected", "log-corruption-detected",
                  "recovery-fallback", "recovery-verified")


# ----------------------------------------------------------------------
# One small deployment per layer, and what its log says it should recover
# ----------------------------------------------------------------------
class Deployment:
    """A 4-replica cluster under finite traffic, with one victim replica."""

    #: Simulated time at which the torn write is armed: mid-traffic, so
    #: later syncs append past the hole it leaves.
    tear_at = 0.05
    #: Entries of the torn sync group that still reach the disk.
    tear_keep = 0
    #: Reason the layer's linkage predicate gives for the hole, if it has
    #: one at record level.
    tear_reason = None

    def run_traffic(self, tear: bool) -> None:
        self.sim.obs.record_events = True
        if tear:
            self.sim.run(until=self.tear_at)
            assert 0 < self.station.meter.total < self.total_ops
            self.store.inject_fault("torn-write", random.Random(1),
                                    keep=self.tear_keep)
        self.sim.run(until=5.0)
        assert self.station.meter.total == self.total_ops

    @property
    def replica(self):
        return self.victim

    @property
    def store(self):
        return self.replica.store

    @property
    def delivery(self):
        return self.replica.delivery

    def payloads(self) -> list:
        return [e.payload for e in self.store.read_entries(self.delivery.LOG)]

    def recovery_events(self) -> list:
        return [e for e in self.sim.obs.events
                if e.kind in RECOVERY_KINDS and e.node == self.victim.id]


class DuraDeployment(Deployment):
    snapshot = DuraSmartDelivery.SNAPSHOT
    tear_reason = "cid-gap"

    def __init__(self, snapshots: bool = False):
        self.sim, network, view, replicas, _apps = make_cluster(
            seed=7, delivery_factory=lambda app: self.layer(app, snapshots))
        self.station = station_with_clients(
            self.sim, network, lambda: view, 3, lambda i: kv_ops(f"k{i}", 10))
        self.total_ops = 30
        self.station.start_all()
        self.victim = replicas[1]

    @staticmethod
    def layer(app, snapshots: bool):
        return DuraSmartDelivery(app, StorageMode.SYNC,
                                 checkpoint_every=2 if snapshots else 0)

    @staticmethod
    def cid_of(payload) -> int:
        return payload[0]

    def first_break(self, payloads: list) -> int | None:
        """Index of the first record that does not extend its predecessor."""
        for index in range(1, len(payloads)):
            if (self.cid_of(payloads[index])
                    != self.cid_of(payloads[index - 1]) + 1):
                return index
        return None

    def prefix_cid(self, payloads: list) -> int:
        return self.cid_of(payloads[-1]) if payloads else -1

    def adopted(self) -> int:
        """How far the layer's own state says it recovered."""
        return self.delivery.executed_cid


class NaiveDeployment(DuraDeployment):
    snapshot = None
    tear_reason = "chain-linkage"

    @staticmethod
    def layer(app, snapshots: bool):
        return NaiveBlockchainDelivery(app, StorageMode.SYNC)

    @staticmethod
    def cid_of(payload) -> int:
        return payload["consensus_id"]

    def adopted(self) -> int:
        chain = self.delivery.chain
        assert [b["number"] for b in chain] == list(range(1, len(chain) + 1))
        return chain[-1]["consensus_id"] if chain else -1


class SmartChainDeployment(Deployment):
    snapshot = SmartChainDelivery.SNAPSHOT
    tear_at = 0.2
    tear_keep = 1   # at most the first record of the group: never a header

    def __init__(self, snapshots: bool = False):
        # Always checkpointing: a crash leaves the application object as it
        # was, and only a snapshot install resets it before blocks replay.
        consortium = make_consortium(seed=5, checkpoint_period=4)
        self.sim = consortium.sim
        self.station = attach_station(consortium)
        Client(self.station, mint_ops_simple(30))
        self.total_ops = 30
        self.station.start_all()
        self.victim = consortium.node(1)

    @property
    def replica(self):
        return self.victim.replica

    def first_break(self, payloads: list) -> None:
        return None     # records carry no linkage; the rebuilt blocks do

    def prefix_cid(self, payloads: list) -> int:
        """Consensus id of the last block the records give whole, in
        number order from 1 (what the chain rebuild can reach)."""
        cids = {p[1]: p[2] for p in payloads if p[0] == "txs"}
        whole = {p[1] for p in payloads if p[0] == "header"}
        number = 1
        while number in whole:
            number += 1
        return cids[number - 1] if number > 1 else -1

    def adopted(self) -> int:
        head = self.victim.chain.head()
        return head.body.consensus_id if head is not None else -1


DEPLOYMENTS = {"dura": DuraDeployment, "naive": NaiveDeployment,
               "smartchain": SmartChainDeployment}


# ----------------------------------------------------------------------
# The contract, layer by layer and fault by fault
# ----------------------------------------------------------------------
@pytest.mark.parametrize("layer,fault", [
    (layer, fault) for layer, deployment in sorted(DEPLOYMENTS.items())
    for fault in ("clean", "bitrot", "torn", "snapshot", "blind")
    # Rejected snapshot only where the layer takes one.
    if fault != "snapshot" or deployment.snapshot is not None])
def test_replay_adopts_valid_prefix_and_truncates_the_rest(layer, fault):
    dep = DEPLOYMENTS[layer](snapshots=(fault == "snapshot"))
    dep.run_traffic(tear=(fault == "torn"))
    live_cid = dep.adopted()
    live_state = dep.delivery.app.state_digest()
    dep.victim.crash()
    before = dep.payloads()
    assert len(before) > 6
    cut = reason = None
    if fault in ("bitrot", "blind"):
        cut, reason = len(before) // 2, "checksum"
        dep.store.inject_fault("bit-rot", random.Random(5),
                               log=dep.delivery.LOG, index=cut)
        assert not dep.store.verify_entry(
            dep.store.read_entries(dep.delivery.LOG)[cut])
        before = dep.payloads()
    elif fault == "torn":
        assert dep.store.torn_entries_lost > 0
        cut, reason = dep.first_break(before), dep.tear_reason
        assert (cut is None) == (reason is None)
    elif fault == "snapshot":
        assert dep.store.read_cell(dep.snapshot) is not None
        dep.store.inject_fault("bit-rot", random.Random(5),
                               cell=dep.snapshot)
    dep.replica.config.verify_recovery = fault != "blind"

    recovered = dep.delivery.recover_local()

    stats = dep.delivery.recovery
    kinds = [e.kind for e in dep.recovery_events()]
    if fault == "blind":
        # The negative control: same walk, both checks skipped — the rotted
        # record is applied, nothing is cut, tallied or announced.
        assert dep.payloads() == before
        assert (stats.verified_entries, stats.truncated_entries,
                stats.fallbacks, stats.snapshots_rejected) == (0, 0, 0, 0)
        assert stats.last["verified"] == 0 and not stats.last["fallback"]
        assert kinds == []
        return
    kept = before if cut is None else before[:cut]
    assert recovered == dep.adopted() == dep.prefix_cid(kept)
    if fault in ("clean", "snapshot"):
        assert recovered == live_cid
        if fault == "clean":
            assert dep.delivery.app.state_digest() == live_state
    else:
        assert 0 <= recovered < live_cid
    assert dep.payloads() == kept, "the log was not truncated on disk"
    assert stats.verified_entries == stats.last["verified"] == len(kept)
    assert (stats.truncated_entries == stats.last["truncated"]
            == len(before) - len(kept))
    assert stats.fallbacks == (0 if cut is None else 1)
    assert stats.last["fallback"] == (cut is not None)
    assert stats.snapshots_rejected == (1 if fault == "snapshot" else 0)
    assert stats.last["snapshot_rejected"] == (fault == "snapshot")
    expected = ["recovery-verified"]
    if cut is not None:
        expected[:0] = ["log-corruption-detected", "recovery-fallback"]
    if fault == "snapshot":
        # Dura loads its checkpoint before the walk, SMARTCHAIN after the
        # chain is rebuilt; either way before the recovery is declared.
        expected.insert(0, "snapshot-rejected")
    assert kinds == expected
    events = {e.kind: e.fields for e in dep.recovery_events()}
    if cut is not None:
        assert events["log-corruption-detected"] == {
            "log": dep.delivery.LOG, "index": cut, "reason": reason,
            "dropped": len(before) - cut}
        # Regression: the naive and SMARTCHAIN layers used to read
        # ``executed_cid`` here after on_crash had reset it — always −1.
        assert events["recovery-fallback"] == {
            "from_cid": recovered, "dropped": len(before) - cut}
    assert events["recovery-verified"]["entries"] == len(kept)


def test_dura_resume_marker_ahead_of_the_prefix_detaches_without_damage():
    """A ``RESUME`` marker whose cid the replay has not reached is sound but
    unreachable: fall back to state transfer and keep the log."""
    dep = DuraDeployment()
    dep.run_traffic(tear=False)
    last_cid = dep.delivery.executed_cid
    dep.store.append(DuraSmartDelivery.LOG,
                     (DuraSmartDelivery.RESUME, last_cid + 5), 16)
    dep.store.append(DuraSmartDelivery.LOG, (last_cid + 6, []), 16)
    dep.store.sync()
    dep.sim.run(until=6.0)
    dep.victim.crash()
    before = dep.payloads()
    assert dep.delivery.recover_local() == last_cid
    assert dep.payloads() == before
    stats = dep.delivery.recovery
    assert (stats.verified_entries, stats.truncated_entries,
            stats.fallbacks) == (len(before) - 2, 0, 1)
    assert [e.kind for e in dep.recovery_events()] == [
        "recovery-fallback", "recovery-verified"]
    assert dep.recovery_events()[0].fields == {
        "from_cid": last_cid, "dropped": 0}


def _weak_chain():
    """Node 1 of a weak-variant deployment that checkpoints every 4 blocks,
    after 30 mints; returns the consortium and the node's delivery
    layer."""
    consortium = make_consortium(seed=5, checkpoint_period=4,
                                 variant=PersistenceVariant.WEAK)
    consortium.sim.obs.record_events = True
    station = attach_station(consortium)
    Client(station, mint_ops_simple(30))
    station.start_all()
    consortium.sim.run(until=5.0)
    return consortium, consortium.node(1).delivery


def _reconciled_weak_chain(rot_snapshot: bool):
    """A weak-variant replica whose full-crash reconciliation drops its
    newest block (``suffix-lost``), optionally after its stable snapshot
    rotted; returns the replica's delivery layer."""
    consortium, delivery = _weak_chain()
    store = delivery.replica.store
    keep = delivery.chain.height - 1
    assert 0 < store.read_cell(delivery.SNAPSHOT).block_number <= keep
    if rot_snapshot:
        store.inject_fault("bit-rot", random.Random(5),
                           cell=delivery.SNAPSHOT)
    delivery.reconcile_local(delivery.chain.get(keep).body.consensus_id)
    assert delivery.chain.height == keep
    assert "suffix-lost" in [e.kind for e in consortium.sim.obs.events]
    return delivery


def test_reconciliation_rejects_a_rotted_snapshot():
    """Full-crash reconciliation reads the checkpoint through the verified
    replay: a rotted snapshot is counted and passed over, and the state is
    rebuilt from genesis to the same digest the sound snapshot gives."""
    clean = _reconciled_weak_chain(rot_snapshot=False)
    rotted = _reconciled_weak_chain(rot_snapshot=True)
    assert clean.replica.store.bitrot_detected == 0
    assert rotted.replica.store.bitrot_detected == 1
    assert rotted.recovery.snapshots_rejected == 1
    assert rotted.app.state_digest() == clean.app.state_digest()


def test_reconciliation_below_a_checkpoint_forgets_it():
    """Reconciling to the block before the last checkpoint restores the
    chain metadata with the service state: no checkpoint above the new
    head stays recorded or retained, so none can be served with it."""
    _consortium, delivery = _weak_chain()
    keep = delivery.last_checkpoint - 1
    delivery.reconcile_local(delivery.chain.get(keep).body.consensus_id)
    assert delivery.chain.height == keep
    assert delivery.last_checkpoint <= keep
    assert [c.block_number for c in delivery._checkpoints
            if c.block_number > keep] == []


# ----------------------------------------------------------------------
# Identity: the shared replay changed no exported event
# ----------------------------------------------------------------------
LEADER_CRASH = str(Path(__file__).resolve().parents[1]
                   / "benchmarks" / "e2e" / "plans" / "leader-crash.json")


def _event_log_sha256(events, drop=()) -> str:
    """SHA-256 of the exported JSONL, optionally without some
    ``(kind, field)`` pairs."""
    lines = []
    for event in sorted(events, key=lambda e: e.sort_key):
        row = event.to_json()
        for kind, name in drop:
            if event.kind == kind:
                del row[name]
        lines.append(json.dumps(row, sort_keys=True) + "\n")
    return hashlib.sha256("".join(lines).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "system,plan,duration,drop,pinned,engine,depth,cores,checkpoint_period", [
    # The two Dura-SMaRt rows were re-pinned once, when decisions began to
    # reach the delivery layer in cid order (they were 29842a05…a7fcf and
    # 02dad8bb…2f676).  Same events, same counts; the recovered replica
    # (node 2 under bit-rot, node 1 under torn writes) now executes cids
    # 126…133 in order after its first recovery — it used to execute
    # 127…132, then 126 (t=1.5552), then 133 — and 208…219 after its
    # second, where it used to execute 208 after 218 (t=2.6381).
    ("dura", "bitrot-recovery", 3.0, (),
     "e294ded50114ad8160e5b6d6e5d2d2656eaa233cd81e050fe02e69349bb35ad5",
     "modsmart", 1, 1, 10_000),
    ("dura", "torn-write-recovery", 3.0, (),
     "e5ed0b5d607532291ecbc9dc1763436ccac8e0b09ca5be6b075e764fd69c373f",
     "modsmart", 1, 1, 10_000),
    # Modulo the one deliberate event-field change: ``recovery-fallback
    # .from_cid`` was always −1 under SMARTCHAIN (read after on_crash reset
    # it) and is now the last adopted cid, so it is left out of the hash
    # and asserted on its own below.
    #
    # Re-pinned once, when state transfer began to ship deltas (it was
    # a09ebfb1…0543a).  The first 36 569 events, through t = 2.69 s, are
    # unchanged.  From there: replica 0's first transfer (cid 54 → 120)
    # is ``done`` at 2.788 s, not 2.922 s — 66 blocks shipped, not 121 —
    # and ``recover`` moves with it; the transfers that follow, which used
    # to ship the whole chain again and never finish, complete (120 → 127
    # → 133 → 139: ``state-transfer`` 3 → 8 events, four of them ``done``);
    # and the servers, shipping less, order more: 3 more decisions and
    # blocks, 600 more requests answered inside the 3.5 s.
    ("smartchain", LEADER_CRASH, 3.5, (("recovery-fallback", "from_cid"),),
     "2ba78470147bd5fe617a5a4177bbb2d565712ed06083bc095e0b359d5907d48a",
     "modsmart", 1, 1, 10_000),
    # The second engine, pinned at 1fa2b35 before the code both engines
    # spelled twice moved into ConsensusEngine.  Under FastBFT the bit-rot
    # truncates replica 0's log to nothing, in two fallback steps.
    # Re-pinned once (it was 772da287…b23b) when a crashed replica's late
    # callbacks stopped arming timers in its next incarnation: the first
    # 33 598 events hold; replica 0 no longer emits ``persist-timeout
    # block=101`` and ``execute cid=100`` at t=2.5027, in the middle of its
    # state transfer, from a PERSIST timer its dead incarnation's disk sync
    # armed.
    ("smartchain", LEADER_CRASH, 3.5, (("recovery-fallback", "from_cid"),),
     "32ed879b2b9969c0d84b94990161de68fabb8aabdda4c97d8df6bff37af81662",
     "fastbft", 1, 1, 10_000),
    # Four instances in flight, pinned at 331f8cc before the sequential
    # propose loop became the window loop's one-slot case.  The bit-rot
    # row runs the batch timer against a full window; the leader-crash
    # row adds regency changes, SYNC adoption and pipeline stalls.  The
    # bit-rot row was re-pinned once, with cid-ordered delivery (it was
    # eeb9d1fb…60258): node 2 executes cid 218 before 219…228 after its
    # second recovery, not after 228 (t=2.6410); nothing else moves.
    ("dura", "bitrot-recovery", 3.0, (),
     "d6e24c26b334d0640111feafffdf20f8493d666c20a208e4b737af741e845ea9",
     "modsmart", 4, 1, 10_000),
    # The leader-crash row was re-pinned once (it was b9eb8797…e879), for
    # the same late PERSIST timer as the FastBFT row above: the first
    # 33 979 events hold; replica 0 no longer emits ``persist-timeout
    # block=101`` and ``execute cid=100`` at t=2.5028.
    ("smartchain", LEADER_CRASH, 3.5, (("recovery-fallback", "from_cid"),),
     "3422232566e65e692031d8c4dba820e84983538dc6a2a03d3be1af69325d9537",
     "modsmart", 4, 1, 10_000),
    # Two execution cores, pinned at 22b9ae8 before serial execution
    # became the one-core case of the scheduler: the only pin on the
    # exec-pool path.
    ("dura", "bitrot-recovery", 3.0, (),
     "1f6bc3d79bf1a4a7fa072281f92a018270bdaad2567ee8499aab4fc1547741b7",
     "modsmart", 4, 2, 10_000),
    # A checkpoint every 20 blocks, pinned at da66902 before state
    # transfer, local recovery and full-crash reconciliation shared one
    # restore.  Under Mod-SMaRt the bit-rot truncates replica 0's log to
    # height 55, below its stable checkpoint, so it restores from genesis,
    # anchors a checkpoint at its head and catches up by delta transfers;
    # under FastBFT the log is truncated to nothing and it installs a
    # checkpoint@100 + suffix package.  (The restore from a disk
    # checkpoint is pinned by the test after this one.)
    ("smartchain", LEADER_CRASH, 3.5, (),
     "9dcb0ea61581531526dc9fee2c352063f076a71605afefd0ba32d96ec555ed12",
     "modsmart", 1, 1, 20),
    # The FastBFT row was re-pinned once (it was bec0c4fc…428ac), for the
    # same late PERSIST timer: the first 33 163 events hold; replica 0 no
    # longer emits ``persist-timeout block=99`` and ``execute cid=98`` at
    # t=2.5009.
    ("smartchain", LEADER_CRASH, 3.5, (),
     "aef266315ea3c88653de6a33aaebe28406d5f61e3acb85a2b5918887c7cf6006",
     "fastbft", 1, 1, 20),
])
def test_event_log_identical_to_pre_refactor_commit(system, plan, duration,
                                                    drop, pinned, engine,
                                                    depth, cores,
                                                    checkpoint_period):
    """The Dura-SMaRt rows are pinned at commit 163d5f2 (three hand-written
    recover_local copies), before recovery moved onto the shared replay."""
    result = run(Scenario(system=system, clients=300, duration=duration,
                          seed=1, audit=True, faults=plan, engine=engine,
                          pipeline_depth=depth, exec_cores=cores,
                          checkpoint_period=checkpoint_period))
    events = result.handle.obs.events
    assert events.dropped == 0
    if not drop:
        assert _event_log_sha256(events) == hashlib.sha256(
            events.to_jsonl().encode("utf-8")).hexdigest()
    assert _event_log_sha256(events, drop) == pinned
    # Between reloading its log and finishing its state transfer, a
    # recovering replica executes nothing and arms no PERSIST timer — work
    # left over from its crashed incarnation included.
    catching_up = set()
    for event in events:
        if event.kind == "recovering":
            catching_up.add(event.node)
        elif event.kind == "state-transfer" and event.fields["phase"] == "done":
            catching_up.discard(event.node)
        elif event.kind in ("execute", "persist-timeout"):
            assert event.node not in catching_up, event
    recovering = {e.node: e.fields["local_cid"]
                  for e in events.of_kind("recovering")}
    fallbacks = events.of_kind("recovery-fallback")
    assert fallbacks
    # Each node's fallbacks start at a cid it had adopted, step down, and
    # end where its recovery resumed.
    for node in {e.node for e in fallbacks}:
        steps = [e.fields["from_cid"] for e in fallbacks if e.node == node]
        assert steps[0] >= 0
        assert steps == sorted(steps, reverse=True)
        assert steps[-1] == recovering[node]


def test_restore_from_a_disk_checkpoint_identical_to_pre_refactor_commit():
    """A leader crash with no storage fault, checkpointing every 20 blocks:
    replica 0 recovers its whole log (height 98), restores the service
    from its stable checkpoint at block 80 — the newest it took before the
    crash — and catches up by delta transfers.  Pinned at da66902, before
    the checkpoint restores of state transfer, local recovery and
    full-crash reconciliation became one."""
    plan = json.dumps({"name": "leader-crash-clean", "seed": 0,
                       "crashes": [{"node": 0, "at": 1.5,
                                    "recover_at": 2.5}],
                       "protocol": {"request_timeout": 0.25}})
    result = run(Scenario(system="smartchain", clients=300, duration=3.5,
                          seed=1, audit=True, faults=plan,
                          checkpoint_period=20))
    events = result.handle.obs.events
    assert events.dropped == 0
    assert _event_log_sha256(events) == (
        "38dbbefc70eb10b18d469ceaeeb809b291bd32c10b389590fbed5d2bc5cf5971")
    [recovering] = events.of_kind("recovering")
    assert (recovering.node, recovering.fields["height"]) == (0, 98)
    checkpoints = [e.fields["block"] for e in events.of_kind("checkpoint")
                   if e.node == 0 and e.time < 1.5]
    assert checkpoints[-1] == 80


# ----------------------------------------------------------------------
# A recovered SMARTCHAIN replica rejoins the canonical chain
# ----------------------------------------------------------------------
@pytest.mark.parametrize("checkpoint_period", [20, 10_000])
@pytest.mark.parametrize("engine", ["modsmart", "fastbft"])
@pytest.mark.parametrize("variant,plan", [
    (PersistenceVariant.STRONG, "bitrot-recovery"),
    (PersistenceVariant.WEAK, "torn-write-recovery")])
def test_recovered_replica_hands_off_in_cid_order(variant, plan, engine,
                                                  checkpoint_period):
    """The two fork reproducers: a replica recovers while the group keeps
    ordering, so decisions reach it in the same instant as its state
    install, some with requests it has yet to verify.  Each must reach its
    delivery layer after its predecessor and only if the install did not
    cover it, or the replica's next block forks (``no-fork``) and is built
    out of order (``delivery-order``); ``run`` raises on either."""
    result = run(Scenario(system="smartchain", variant=variant, faults=plan,
                          engine=engine, checkpoint_period=checkpoint_period,
                          clients=300, duration=3.0, seed=1, audit=True))
    events = result.handle.obs.events
    transfers = [e for e in events.of_kind("state-transfer")
                 if e.fields["phase"] == "done"]
    assert events.of_kind("recovering") and transfers
