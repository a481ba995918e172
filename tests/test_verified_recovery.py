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


def _reconciled_weak_chain(rot_snapshot: bool):
    """A weak-variant replica whose full-crash reconciliation drops its
    newest block (``suffix-lost``), optionally after its stable snapshot
    rotted; returns the replica's delivery layer."""
    consortium = make_consortium(seed=5, checkpoint_period=4,
                                 variant=PersistenceVariant.WEAK)
    consortium.sim.obs.record_events = True
    station = attach_station(consortium)
    Client(station, mint_ops_simple(30))
    station.start_all()
    consortium.sim.run(until=5.0)
    delivery = consortium.node(1).delivery
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


@pytest.mark.parametrize("system,plan,duration,drop,pinned,engine", [
    ("dura", "bitrot-recovery", 3.0, (),
     "29842a05b5339300b078f951e81849b9a762792129d7f2d12022349d984a7fcf",
     "modsmart"),
    ("dura", "torn-write-recovery", 3.0, (),
     "02dad8bbd819e0da2a302a96b17a8aff2e0e2801452d39d9117127f3c7a2f676",
     "modsmart"),
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
     "modsmart"),
    # The second engine, pinned at 1fa2b35 before the code both engines
    # spelled twice moved into ConsensusEngine.  Under FastBFT the bit-rot
    # truncates replica 0's log to nothing, in two fallback steps.
    ("smartchain", LEADER_CRASH, 3.5, (("recovery-fallback", "from_cid"),),
     "772da287212edc6382c819296541f1654e1fde3f34667774e96fc821ba91b23b",
     "fastbft"),
])
def test_event_log_identical_to_pre_refactor_commit(system, plan, duration,
                                                    drop, pinned, engine):
    """The Dura-SMaRt rows are pinned at commit 163d5f2 (three hand-written
    recover_local copies), before recovery moved onto the shared replay."""
    result = run(Scenario(system=system, clients=300, duration=duration,
                          seed=1, audit=True, faults=plan, engine=engine))
    events = result.handle.obs.events
    assert events.dropped == 0
    if not drop:
        assert _event_log_sha256(events) == hashlib.sha256(
            events.to_jsonl().encode("utf-8")).hexdigest()
    assert _event_log_sha256(events, drop) == pinned
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
