"""Sharded multi-chain SMARTCHAIN: replica groups, cross-shard SPEND.

Covers the three layers of the sharding stack:

- core: the :class:`ReplicaGroup` extraction, the
  shard identity scheme, and single-group equivalence — a ``shards=1``
  deployment through :func:`bootstrap_shards` behaves identically to the
  classic :func:`bootstrap` path;
- protocol/app: the two-phase cross-shard SPEND — LOCK-and-burn on the
  source shard, certificate-verified mint on the destination — including
  rejection of malformed, replayed and wrong-shard certificates;
- harness/obs/faults: per-shard auditing (safety, liveness and the
  cross-shard no-double-mint invariant), shard-scoped fault plans, and
  fail-fast Scenario validation.
"""

import pytest

from repro.bench.harness import Scenario, run
from repro.core import (
    SHARD_STRIDE,
    ReplicaGroup,
    bootstrap_shards,
    shard_of_node,
)
from repro.core.multichain import MAX_SHARDS, CertificateFetcher, station_id
from repro.obs.audit import AuditError
from repro.smr.requests import ClientRequest


def _sharded_result(shards=2, fraction=0.2, clients=200, duration=2.0,
                    seed=1, **kwargs):
    return run(Scenario(shards=shards, cross_shard_fraction=fraction,
                        clients=clients, duration=duration, seed=seed,
                        **kwargs))


class TestReplicaGroupExtraction:
    def test_classic_bootstrap_is_the_shard_zero_group(self):
        from repro.apps.smartcoin import SmartCoin
        from repro.config import SmartChainConfig
        from repro.core import bootstrap
        from repro.sim.engine import Simulator

        group = bootstrap(Simulator(seed=1), (0, 1, 2, 3), SmartCoin,
                          SmartChainConfig())
        assert isinstance(group, ReplicaGroup)
        assert (group.shard, group.base_id) == (0, 0)

    def test_shard_identity_scheme(self):
        assert shard_of_node(0) == 0
        assert shard_of_node(3) == 0
        assert shard_of_node(SHARD_STRIDE) == 1
        assert shard_of_node(2 * SHARD_STRIDE + 3) == 2
        assert station_id(0, 0) == 9000
        assert station_id(1, 3) == 9103
        assert shard_of_node(station_id(0, 2)) == 0
        assert shard_of_node(station_id(3, 1)) == 3

    def test_bootstrap_shards_bounds(self):
        from repro.sim.engine import Simulator
        from repro.apps.smartcoin import SmartCoin
        from repro.config import SmartChainConfig

        sim = Simulator(seed=1)
        for bad in (0, MAX_SHARDS + 1):
            with pytest.raises(ValueError):
                bootstrap_shards(sim, bad, 4, lambda shard: SmartCoin(),
                                 lambda shard: SmartChainConfig())

    def test_single_shard_matches_classic_bootstrap(self):
        """One group via bootstrap_shards == the classic bootstrap run:
        same key draws, same genesis, same chain after identical traffic."""
        from repro.apps.smartcoin import SmartCoin
        from repro.config import SmartChainConfig
        from repro.core import bootstrap
        from repro.sim.engine import Simulator
        from repro.workloads.coingen import (
            all_minter_addresses,
            deploy_clients,
            deploy_sharded_clients,
        )

        minters = all_minter_addresses(40)
        heads = []
        digests = []
        totals = []
        for sharded in (False, True):
            sim = Simulator(seed=7)
            if sharded:
                mc = bootstrap_shards(
                    sim, 1, 4, lambda shard: SmartCoin(minters=minters),
                    lambda shard: SmartChainConfig())
                stations, _ = deploy_sharded_clients(
                    sim, mc.network, mc, 40)
                group = mc.group(0)
            else:
                group = bootstrap(sim, (0, 1, 2, 3),
                                  lambda: SmartCoin(minters=minters),
                                  SmartChainConfig())
                view = group.genesis.view
                stations, _ = deploy_clients(
                    sim, group.network, lambda: view, 40)
            for station in stations:
                station.start_all(stagger=0.002)
            sim.run(until=1.5)
            node0 = group.node(0)
            heads.append(node0.chain.height)
            digests.append(node0.chain.get(node0.chain.height).header.digest())
            totals.append(sum(st.meter.total for st in stations))
        assert heads[0] == heads[1]
        assert digests[0] == digests[1]
        assert totals[0] == totals[1]


class TestCrossShardSpend:
    def test_end_to_end_transfers_with_clean_audits(self):
        result = _sharded_result(audit=True, audit_liveness=True)
        per_shard = result.metrics["per_shard"]
        assert set(per_shard) == {"0", "1"}
        for entry in per_shard.values():
            assert entry["redeemed"] > 0
            assert entry["blocks"] > 0
        # Minted-in value never exceeds locked-out value; the difference
        # is transfers still in transit at the simulation cutoff.
        total_out = sum(e["xlock_value_out"] for e in per_shard.values())
        total_in = sum(e["xmint_value_in"] for e in per_shard.values())
        assert 0 < total_in <= total_out

    def test_value_conservation_with_in_transit_locks(self):
        result = _sharded_result()
        multichain = result.handle.system
        held = locked_out = minted_in = minted = 0
        for shard in range(multichain.shards):
            app = multichain.apps(shard)[0]
            held += sum(value for _owner, value in app.coins.values())
            locked_out += app.xlock_value_out
            minted_in += app.xmint_value_in
            minted += app.minted_total
        assert held + locked_out - minted_in == minted

    def test_replicas_agree_per_shard(self):
        result = _sharded_result()
        multichain = result.handle.system
        for shard in range(multichain.shards):
            nodes = list(multichain.group(shard).nodes.values())
            # Compare only replicas at the same height: one may have an
            # extra in-flight block executed at the simulation cutoff.
            by_height = {}
            for node in nodes:
                by_height.setdefault(node.chain.height, []).append(node)
            for same in by_height.values():
                digests = {node.app.state_digest() for node in same}
                assert len(digests) == 1


class TestCertificateRejection:
    @pytest.fixture(scope="class")
    def finished(self):
        """One finished 2-shard audited run, shared by the rejection tests
        that present certificates to its (now idle) replicas."""
        return _sharded_result(audit=True)

    def _app_and_obs(self, finished, shard=1):
        multichain = finished.handle.system
        node = min(multichain.group(shard).nodes.values(),
                   key=lambda n: n.id)
        return node.app, finished.handle.obs

    def _request(self, cert_record, client=999_999, req=1):
        return ClientRequest(client_id=client, req_id=req,
                             op=("xmint", "attacker", cert_record))

    def test_malformed_certificate_rejected_with_typed_event(self, finished):
        app, obs = self._app_and_obs(finished)
        before = len(obs.events.of_kind("cert-rejected"))
        result = app.execute(self._request(("garbage",)))[0]
        assert result == ("error", "malformed transfer certificate")
        events = obs.events.of_kind("cert-rejected")
        assert len(events) == before + 1
        assert events[-1].fields["reason"] == "malformed transfer certificate"
        assert not events[-1].fields["replay"]

    def test_source_shard_rejects_its_own_certificate(self, finished):
        multichain = finished.handle.system
        app1, _ = self._app_and_obs(finished, shard=1)
        xfer_id = sorted(app1.redeemed)[0]  # redeemed on 1 => source is 0
        cert_record = CertificateFetcher(multichain)(0, xfer_id)
        assert cert_record is not None
        app0, _ = self._app_and_obs(finished, shard=0)
        result = app0.execute(self._request(cert_record))[0]
        assert result == ("error", "transfer certificate from the local shard")

    def test_replayed_certificate_raises_audit_error(self, finished):
        """A coin burned on shard 0 mints exactly once on shard 1; a second
        presentation is refused and trips the no-double-mint auditor."""
        multichain = finished.handle.system
        app, obs = self._app_and_obs(finished, shard=1)
        xfer_id = sorted(app.redeemed)[0]
        cert_record = CertificateFetcher(multichain)(0, xfer_id)
        assert cert_record is not None
        result = app.execute(self._request(cert_record))[0]
        assert result[0] == "error"
        assert "already redeemed" in result[1]
        event = obs.events.of_kind("cert-rejected")[-1]
        assert event.fields["replay"] and event.fields["xfer"] == xfer_id
        with pytest.raises(AuditError, match="no-double-mint"):
            obs.auditor.raise_if_violated()

    def test_wrong_destination_shard_rejected(self):
        result = _sharded_result(shards=3, fraction=0.3, clients=120,
                                 duration=2.0, audit=True)
        multichain = result.handle.system
        fetcher = CertificateFetcher(multichain)
        # Find a transfer addressed to some shard d and present it to a
        # third shard that is neither its source nor its destination.
        for dest in range(3):
            app = multichain.apps(dest)[0]
            for xfer_id in sorted(app.redeemed):
                for source in range(3):
                    if source == dest:
                        continue
                    cert_record = fetcher(source, xfer_id)
                    if cert_record is None:
                        continue
                    wrong = next(k for k in range(3)
                                 if k not in (source, dest))
                    victim = multichain.apps(wrong)[0]
                    outcome = victim.execute(
                        self._request(cert_record))[0]
                    assert outcome[0] == "error"
                    assert f"addressed to shard {dest}" in outcome[1]
                    return
        pytest.fail("no cross-shard transfer completed in the run")


class TestShardScopedFaults:
    def test_crash_storm_confined_to_shard_zero(self):
        kwargs = dict(shards=2, fraction=0.0, clients=200, duration=2.0)
        clean = _sharded_result(**kwargs)
        stormed = _sharded_result(faults="crash-storm-shard0", audit=True,
                                  **kwargs)
        clean_per = clean.metrics["per_shard"]
        storm_per = stormed.metrics["per_shard"]
        # Shard 0 visibly degraded; shard 1 byte-identically unaffected.
        assert storm_per["0"]["blocks"] < clean_per["0"]["blocks"]
        assert storm_per["1"]["blocks"] == clean_per["1"]["blocks"]
        assert storm_per["1"]["certificates"] == \
            clean_per["1"]["certificates"]

    def test_shard_out_of_range_rejected(self):
        from repro.faults import FaultPlan

        plan = FaultPlan(name="oops", shard=1)
        with pytest.raises(ValueError, match="targets shard 1"):
            run(Scenario(clients=10, duration=0.2, faults=plan))

    def test_scoped_to_offsets_node_ids(self):
        from repro.faults import load_plan

        plan = load_plan("crash-storm-shard0")
        scoped = plan.scoped_to(SHARD_STRIDE)
        assert scoped.crashes[0].node == plan.crashes[0].node + SHARD_STRIDE
        assert all(shard_of_node(node) == 1
                   for action in scoped.network
                   for group in action.groups
                   for node in group)

    def test_shard_field_survives_json_round_trip(self):
        from repro.faults import FaultPlan

        plan = FaultPlan(name="scoped", shard=1)
        assert FaultPlan.from_json(plan.to_json()).shard == 1


class TestScenarioValidation:
    @pytest.mark.parametrize("kwargs,match", [
        (dict(system="nope"), "unknown system"),
        (dict(engine="nope"), "unknown consensus engine"),
        (dict(workload="nope"), "unknown workload"),
        (dict(shards=0), "shards must be in"),
        (dict(shards=MAX_SHARDS + 1), "shards must be in"),
        (dict(shards=2, system="dura"), "sharding requires"),
        (dict(cross_shard_fraction=-0.1), "cross_shard_fraction"),
        (dict(cross_shard_fraction=1.01), "cross_shard_fraction"),
        (dict(workload="mint_then_spend"), "unknown workload"),
    ])
    def test_fail_fast_at_construction(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            Scenario(**kwargs)

    def test_comparator_engines_not_validated(self):
        # Tendermint/Fabric have no pluggable engine; the (inherited)
        # engine field must not be validated against the engine registry.
        Scenario(system="tendermint", engine="whatever")

    def test_describe_is_additive(self):
        assert "shards" not in Scenario().describe()
        described = Scenario(shards=2, cross_shard_fraction=0.5).describe()
        assert described["shards"] == 2
        assert described["cross_shard_fraction"] == 0.5
