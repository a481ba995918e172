"""Pipelined consensus and parallel deterministic execution.

Covers the ``pipeline_depth``/``exec_cores`` knobs end to end: the
dependency scheduler (:mod:`repro.smr.scheduler`), decision sequencing
across an in-flight window, the leader's stall watchdog under withheld
votes, the double-propose guard, and the committed ``BENCH_pipeline.json``
baseline (including the depth=1/cores=1 row matching Table I).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.kvstore import KVStore
from repro.apps.naive import NaiveBlockchainDelivery
from repro.apps.smartcoin import SmartCoin, coin_id
from repro.bench.harness import Scenario, run
from repro.config import SMRConfig, StorageMode, VerificationMode
from repro.faults.plan import BehaviorSpec, FaultPlan
from repro.obs.compare import compare_reports
from repro.smr import scheduler
from repro.smr.requests import ClientRequest, Decision
from tests.helpers import (
    MINTER,
    kv_ops,
    make_cluster,
    mint_ops_simple,
    station_with_clients,
)

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"
DURA_LABEL = "Durable-SMaRt (parallel verify, sync writes, n=4)"


def load_baseline(name: str) -> dict:
    with open(RESULTS / name, encoding="utf-8") as fh:
        return json.load(fh)


def mint_request(client_id: int, req_id: int, outputs: int = 1) -> ClientRequest:
    op = ("mint", MINTER, tuple((1, i) for i in range(outputs)))
    return ClientRequest(client_id=client_id, req_id=req_id, op=op,
                         signed=False)


def level_of(plan: scheduler.ExecutionPlan) -> dict:
    return {req.key: index
            for index, level in enumerate(plan.levels)
            for req in level}


# ======================================================================
# Dependency scheduler (plan_batch / charge_execution)
# ======================================================================

class TestPlanBatch:
    def test_disjoint_mints_share_one_level(self):
        app = SmartCoin(minters=[MINTER])
        batch = [mint_request(client, 1) for client in range(1, 9)]
        plan = scheduler.plan_batch(app, batch)
        assert plan.critical_path == 1
        assert len(plan.levels[0]) == 8
        assert plan.barrier_ops == 0

    def test_spend_of_minted_coin_lands_on_a_later_level(self):
        app = SmartCoin(minters=[MINTER])
        mint = mint_request(1, 1)
        spend = ClientRequest(
            client_id=2, req_id=1,
            op=("spend", "alice", (coin_id(1, 1, 0),), (("bob", 1),)),
            signed=False)
        unrelated = mint_request(3, 1)
        plan = scheduler.plan_batch(app, [mint, spend, unrelated])
        levels = level_of(plan)
        assert levels[spend.key] == levels[mint.key] + 1
        assert levels[unrelated.key] == levels[mint.key]

    def test_footprint_free_op_is_a_barrier(self):
        app = SmartCoin(minters=[MINTER])
        before = mint_request(1, 1)
        balance = ClientRequest(client_id=2, req_id=1,
                                op=("balance", "alice"), signed=False)
        after = mint_request(3, 1)
        plan = scheduler.plan_batch(app, [before, balance, after])
        assert plan.barrier_ops == 1
        levels = level_of(plan)
        assert levels[before.key] < levels[balance.key] < levels[after.key]

    def test_plan_preserves_batch_order_within_levels(self):
        app = SmartCoin(minters=[MINTER])
        batch = [mint_request(client, 1) for client in range(1, 6)]
        plan = scheduler.plan_batch(app, batch)
        assert [req.key for req in plan.levels[0]] == [r.key for r in batch]


class TestParallelExecutionGate:
    def test_requires_pool_and_conflict_declarations(self):
        _, _, _, serial, _ = make_cluster(config=SMRConfig(n=4, f=1))
        assert serial[0].exec_pool is None
        _, _, _, pooled, _ = make_cluster(
            config=SMRConfig(n=4, f=1, exec_cores=4))
        assert pooled[0].exec_pool is not None

        coins = [mint_request(client, 1) for client in range(1, 6)]
        assert scheduler.plan_batch(SmartCoin(minters=[MINTER]),
                                    coins).critical_path == 1
        # KVStore declares no footprints: every op is a barrier, so even
        # on a pool its batch runs one operation at a time.
        puts = [ClientRequest(client_id=client, req_id=1,
                              op=("put", f"k{client}", client), signed=False)
                for client in range(1, 6)]
        plan = scheduler.plan_batch(KVStore(), puts)
        assert plan.barrier_ops == plan.critical_path == len(puts)

    def test_knobs_reject_non_positive_values(self):
        with pytest.raises(ValueError):
            SMRConfig(n=4, f=1, pipeline_depth=0)
        with pytest.raises(ValueError):
            SMRConfig(n=4, f=1, exec_cores=0)
        with pytest.raises(ValueError):
            Scenario(pipeline_depth=0)
        with pytest.raises(ValueError):
            Scenario(exec_cores=-1)


class TestOneCoreCharge:
    """Without an exec pool, ``charge_execution`` is one state-machine-
    thread job whose length is the closed form of each delivery layer,
    summed in the same order bit for bit."""

    @pytest.mark.parametrize("verification", [VerificationMode.PARALLEL,
                                              VerificationMode.SEQUENTIAL])
    def test_single_sm_job_matches_each_layers_closed_form(self,
                                                           verification):
        _, _, _, replicas, _ = make_cluster(
            config=SMRConfig(n=4, f=1, verification=verification))
        replica = replicas[0]
        assert replica.exec_pool is None
        jobs = []
        replica.charge_sm = lambda seconds, fn, *args: jobs.append(
            (seconds, fn, args))
        costs = replica.costs
        batch = [ClientRequest(client_id=client, req_id=1,
                               op=("put", f"k{client}", client),
                               signed=client % 3 != 0)
                 for client in range(1, 12)]
        n = len(batch)
        signed = sum(1 for req in batch if req.signed)
        base = costs.batch_overhead
        base += n * (costs.exec_time_per_tx + costs.reply_time_per_tx)
        base += signed * costs.signed_tx_sm_overhead
        if verification is VerificationMode.SEQUENTIAL:
            base += signed * costs.crypto.verify_time
        hashing = costs.crypto.hash_time_per_kb * (2345 / 1024)
        layers = {
            "memory": ((), base),
            "dura": ((costs.dura_log_per_tx * n,),
                     base + costs.dura_log_per_tx * n),
            "smartchain": ((costs.block_build_overhead, hashing),
                           base + costs.block_build_overhead + hashing),
            "naive": ((costs.naive_ledger_build_per_tx * n, hashing),
                      base + costs.naive_ledger_build_per_tx * n + hashing),
        }
        for name, (terms, expected) in layers.items():
            jobs.clear()
            continuation = object()
            scheduler.charge_execution(replica, KVStore(), batch, terms,
                                       continuation, name)
            assert jobs == [(expected, continuation, (name,))], name


def run_naive_cluster(cores: int):
    sim, network, view, replicas, apps = make_cluster(
        config=SMRConfig(n=4, f=1, exec_cores=cores),
        app_factory=lambda: SmartCoin(minters=[MINTER]),
        delivery_factory=lambda app: NaiveBlockchainDelivery(
            app, StorageMode.SYNC))
    station = station_with_clients(sim, network, lambda: view, 4,
                                   lambda index: mint_ops_simple(4))
    station.start_all()
    sim.run(until=3.0)
    assert station.meter.total == 16
    digests = {(app.state_digest(), r.delivery.prev_hash)
               for app, r in zip(apps, replicas)}
    assert len(digests) == 1, "replicas diverged within one run"
    return replicas, digests.pop()


def test_naive_exec_cores_busy_the_pool_and_keep_the_state():
    """``exec_cores`` means the same on the naive layer as on the others:
    two cores move execution onto the pool, and the application state and
    the chain head match the one-core run."""
    serial, one_core = run_naive_cluster(1)
    assert all(r.exec_pool is None for r in serial)
    pooled, two_cores = run_naive_cluster(2)
    assert all(r.exec_pool.busy_time > 0 for r in pooled)
    assert one_core == two_cores


# ======================================================================
# Determinism: exec_cores must not change any replicated outcome
# ======================================================================

def run_coin_cluster(seed: int, cores: int):
    sim, network, view, replicas, apps = make_cluster(
        seed=seed,
        config=SMRConfig(n=4, f=1, exec_cores=cores),
        app_factory=lambda: SmartCoin(minters=[MINTER]))
    station = station_with_clients(sim, network, lambda: view, 4,
                                   lambda index: mint_ops_simple(4))
    station.start_all()
    sim.run(until=3.0)
    assert station.meter.total == 16
    logs = {tuple(d.batch_hash for d in r.delivery.log) for r in replicas}
    assert len(logs) == 1, "replicas diverged within one run"
    digests = {app.state_digest() for app in apps}
    assert len(digests) == 1, "application state diverged within one run"
    app = apps[0]
    assert app.rejected == 0
    assert len(app.coins) == 16, "not every mint executed"
    return digests.pop()


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=5, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_exec_cores_never_change_replicated_state(seed):
    """The core count is a pure timing model: the replicated state digest
    is byte-identical for exec_cores in {1, 2, 4} on the same seed."""
    digests = {cores: run_coin_cluster(seed, cores) for cores in (1, 2, 4)}
    assert digests[1] == digests[2] == digests[4]


# ======================================================================
# Pipelined ordering
# ======================================================================

def test_pipelined_ordering_converges():
    sim, network, view, replicas, apps = make_cluster(
        config=SMRConfig(n=4, f=1, pipeline_depth=4, batch_size=4))
    assert replicas[0].pipeline_window == 4
    station = station_with_clients(sim, network, lambda: view, 8,
                                   lambda index: kv_ops(f"c{index}", 5))
    station.start_all()
    sim.run(until=5.0)
    assert station.meter.total == 40
    logs = {tuple(d.batch_hash for d in r.delivery.log) for r in replicas}
    assert len(logs) == 1
    digests = {app.state_digest() for app in apps}
    assert len(digests) == 1
    assert len({r.last_decided for r in replicas}) == 1
    # 40 puts at batch_size=4: the window ordered many instances.
    assert replicas[0].last_decided >= 9
    assert all(len(app.data) == 40 for app in apps)


def _decision(cid: int, signed: bool = False) -> Decision:
    batch = [ClientRequest(client_id=50 + cid, req_id=i,
                           op=("put", f"k{cid}-{i}", i), signed=signed)
             for i in range(3)]
    return Decision(cid=cid, batch=batch, proof={},
                    batch_hash=bytes([65 + cid]) * 8, regency=0,
                    decided_at=0.0)


def test_decision_buffer_heals_gaps_across_the_window():
    """Out-of-order decisions spanning several in-flight instances buffer
    until the gap closes, then deliver in cid order exactly once; a state
    install drops the decisions it covers, queued or buffered."""
    sim, _, _, replicas, _ = make_cluster(
        config=SMRConfig(n=4, f=1, pipeline_depth=4))
    follower = replicas[2]
    decisions = [_decision(cid) for cid in range(3)]
    follower.handle_decision(decisions[2])
    follower.handle_decision(decisions[1])
    assert follower.last_decided == -1
    assert set(follower.decision_buffer) == {1, 2}
    follower.handle_decision(decisions[0])
    assert follower.last_decided == 2
    assert not follower.decision_buffer
    sim.run(until=0.5)
    assert [d.cid for d in follower.delivery.log] == [0, 1, 2]
    # Stale redelivery is ignored.
    follower.handle_decision(decisions[1])
    sim.run(until=1.0)
    assert [d.cid for d in follower.delivery.log] == [0, 1, 2]
    # Cid 3 waits on its requests' verification, cid 5 on the gap at 4,
    # when a state install carries the replica through cid 4.
    covered, beyond = _decision(3, signed=True), _decision(5)
    follower.handle_decision(covered)
    follower.handle_decision(beyond)
    _executed, snapshot = follower.delivery.capture_state()[0]
    follower.state_transfer._install(4, (4, snapshot))
    assert follower.last_decided == 4
    assert set(follower.decision_buffer) == {5}
    follower._mark_verified([r.key for r in covered.batch])
    follower.handle_decision(_decision(6))
    sim.run(until=1.5)
    # The install replaced the log; what follows it runs on from cid 5.
    assert [d.cid for d in follower.delivery.log] == [5, 6]
    assert follower.delivery.executed_cid == 6


def test_hand_off_waits_for_the_predecessors_verification():
    """Decision N (requests not yet verified here) and N+1 (verified) land
    in one instant: N+1 waits behind N, and both reach the delivery layer
    in cid order once N's verification completes."""
    sim, _, _, replicas, _ = make_cluster()
    follower = replicas[2]
    first, second = _decision(0, signed=True), _decision(1, signed=True)
    follower.admitted.update(dict.fromkeys(
        (r.key for r in second.batch), True))
    follower.handle_decision(first)
    follower.handle_decision(second)
    assert follower.last_decided == 1
    sim.run(until=0.5)
    assert follower.delivery.log == []
    follower._mark_verified([r.key for r in first.batch])
    sim.run(until=1.0)
    assert [d.cid for d in follower.delivery.log] == [0, 1]


def test_double_propose_guard_keeps_requests_flowing():
    """Re-arming the proposer inside the PROPOSE loopback window (before
    the leader's self-addressed copy opens the instance) must not propose
    the same cid twice — that would strand the second batch's requests in
    ``inflight`` forever."""
    sim, _, _, replicas, apps = make_cluster(
        config=SMRConfig(n=4, f=1, batch_size=8))
    requests = [ClientRequest(client_id=60, req_id=i, op=("put", f"r{i}", i),
                              signed=False) for i in range(16)]
    for replica in replicas:
        replica.ingest_requests(list(requests))
    leader = replicas[0]
    # Simulate the re-arm race: a second trigger while the first PROPOSE
    # is still in flight and a full batch is still ready.
    leader.maybe_propose()
    sim.run(until=2.0)
    assert all(r.last_decided == 1 for r in replicas)
    assert all(len(app.data) == 16 for app in apps)
    assert not leader.inflight
    assert not leader.pending


@pytest.mark.parametrize("depth", [1, 4])
def test_sub_batch_starts_batch_timer_only_while_head_propose_in_flight(
        depth):
    """The batch-timer rule that makes depth 1 a window of one.  With the
    window full, a sub-batch that arrives while the head's self-addressed
    PROPOSE is still in flight starts the batch timer; once the head's
    instance is open, none starts."""
    sim, _, _, replicas, _ = make_cluster(
        config=SMRConfig(n=4, f=1, pipeline_depth=depth, batch_size=4))
    leader = replicas[0]
    issued = []

    def arrive(count: int) -> None:
        batch = [ClientRequest(client_id=70, req_id=len(issued) + i,
                               op=("put", f"t{len(issued) + i}", i),
                               signed=False) for i in range(count)]
        issued.extend(batch)
        leader.ingest_requests(batch)

    arrive(4 * depth)  # one full batch per slot: the window fills
    assert leader._proposed_head == depth - 1
    assert leader._batch_timer is None
    assert not leader.engine.has_open_proposal(0)
    arrive(1)
    assert leader._batch_timer is not None

    leader.cancel_batch_timer()
    while not leader.engine.has_open_proposal(0):
        assert sim.step()
    assert leader.last_decided == -1
    arrive(1)
    assert leader._batch_timer is None


# ======================================================================
# Stall watchdog under withheld votes
# ======================================================================

def test_withheld_votes_emit_pipeline_stalled_event():
    plan = FaultPlan(
        name="withhold-quorum",
        behaviors=(BehaviorSpec("withhold-votes", nodes=(1, 2), after=0.5),),
        protocol={"request_timeout": 0.5},
    )
    result = run(Scenario(clients=300, duration=2.0, seed=1, observe=True,
                          faults=plan, pipeline_depth=4))
    counts = result.handle.obs.events.counts()
    assert counts.get("pipeline-stalled", 0) >= 1


# ======================================================================
# Committed baselines
# ======================================================================

def sub_report(report: dict, label: str) -> dict:
    runs = [r for r in report["runs"] if r["label"] == label]
    assert len(runs) == 1, f"expected exactly one {label!r} run"
    return {"experiment": "pipeline", "options": report["options"],
            "runs": runs}


def test_pipeline_baseline_depth1_row_matches_table1():
    """The committed depth=1/cores=1 sweep corner is the Table I
    Durable-SMaRt row — same label, same summary within tolerance."""
    pipeline = load_baseline("BENCH_pipeline.json")
    table1 = load_baseline("BENCH_table1.json")
    assert pipeline["options"] == table1["options"]
    comparison = compare_reports(sub_report(table1, DURA_LABEL),
                                 sub_report(pipeline, DURA_LABEL))
    assert comparison.ok, comparison.format()


def test_pipeline_baseline_records_required_speedup():
    pipeline = load_baseline("BENCH_pipeline.json")
    throughput = {r["label"]: r["summary"]["throughput_tx_s"]
                  for r in pipeline["runs"]}
    base = throughput[DURA_LABEL]
    deep = throughput[DURA_LABEL[:-1] + ", depth=4, cores=2)"]
    assert deep >= 1.5 * base


def test_default_knobs_check_against_committed_baselines():
    """Acceptance gate: a fresh depth=1/cores=1 run of the Table I
    Durable-SMaRt row passes ``--check-against`` both committed baselines
    (the sweep's own corner and the original Table I report)."""
    result = run(Scenario(system="dura", clients=1200, duration=2.5, seed=1,
                          observe=True, pipeline_depth=1, exec_cores=1))
    assert result.label == DURA_LABEL
    assert result.report is not None
    options = {"clients": 1200, "duration": 2.5, "seed": 1}
    current = {"experiment": "pipeline", "options": options,
               "runs": [result.report]}
    for name in ("BENCH_pipeline.json", "BENCH_table1.json"):
        committed = load_baseline(name)
        comparison = compare_reports(sub_report(committed, DURA_LABEL),
                                     current)
        assert comparison.ok, f"{name}: {comparison.format()}"
