"""Baseline comparators, workload generators and harness smoke tests."""

from repro.apps.smartcoin import SmartCoin, Wallet
from repro.baselines.fabric import FabricCluster, FabricConfig
from repro.baselines.tendermint import TendermintCluster, TendermintConfig
from repro.bench.harness import Scenario, run
from repro.clients.client import Client, ClientStation
from repro.config import CostModel, PersistenceVariant, VerificationMode
from repro.net.network import Network
from repro.sim.engine import Simulator
from repro.workloads.coingen import (
    all_minter_addresses,
    client_address,
    deploy_clients,
    mint_ops,
    spend_ops,
)

from tests.helpers import MINTER, mint_ops_simple


class TestTendermintBaseline:
    def _run(self, txs=30, seed=131):
        sim = Simulator(seed)
        costs = CostModel()
        network = Network(sim, costs.network)
        cluster = TendermintCluster(sim, network, TendermintConfig(), costs,
                                    lambda: SmartCoin(minters=[MINTER]))
        view = cluster.view()
        station = ClientStation(sim, network, 900, lambda: view)
        Client(station, mint_ops_simple(txs))
        station.start_all()
        sim.run(until=60.0)
        return cluster, station

    def test_transactions_complete(self):
        cluster, station = self._run()
        assert station.meter.total == 30

    def test_states_converge_across_validators(self):
        cluster, station = self._run(seed=132)
        digests = {app.state_digest() for app in cluster.apps.values()}
        assert len(digests) == 1

    def test_proposer_rotates(self):
        cluster, station = self._run(seed=133)
        assert cluster.nodes[0].blocks_committed >= 2
        # Heights advanced, so the proposer role visited several validators.
        assert cluster.nodes[0].height > 2

    def test_double_write_happens(self):
        cluster, station = self._run(seed=134)
        entries = cluster.nodes[0].store.read_log("blocks")
        kinds = [e[0] for e in entries]
        assert "pre" in kinds and "post" in kinds
        assert kinds.count("pre") == kinds.count("post")


class TestFabricBaseline:
    def _run(self, txs=20, seed=141):
        sim = Simulator(seed)
        costs = CostModel()
        network = Network(sim, costs.network)
        cluster = FabricCluster(sim, network, FabricConfig(), costs,
                                lambda: SmartCoin(minters=[MINTER]))
        view = cluster.view()
        station = ClientStation(sim, network, 900, lambda: view)
        Client(station, mint_ops_simple(txs))
        station.start_all()
        sim.run(until=120.0)
        return cluster, station

    def test_transactions_complete_through_three_phases(self):
        cluster, station = self._run()
        assert station.meter.total == 20
        assert cluster.peers[0].blocks_committed >= 1

    def test_peers_converge(self):
        cluster, station = self._run(seed=142)
        digests = {app.state_digest() for app in cluster.apps.values()}
        assert len(digests) == 1

    def test_ledger_written(self):
        cluster, station = self._run(seed=143)
        assert cluster.peers[0].store.log_length("ledger") >= 1


class TestWorkloads:
    def test_mint_then_spend_chains_phases(self):
        wallet = Wallet(client_address(0))
        specs = list(mint_ops(wallet, 3))
        assert len(specs) == 3
        assert all(s.op[0] == "mint" for s in specs)
        # Simulate results so spends have coins to consume.
        for index, spec in enumerate(specs):
            wallet.note_result(spec.op, ("minted", (f"c{index}",)))
        spends = list(spend_ops(wallet, "other"))
        assert len(spends) == 3
        assert all(s.op[0] == "spend" for s in spends)

    def test_paper_sizes_on_specs(self):
        wallet = Wallet("a")
        mint = next(iter(mint_ops(wallet, 1)))
        assert (mint.size, mint.reply_size) == (180, 270)
        wallet.note_result(mint.op, ("minted", ("c",)))
        spend = next(iter(spend_ops(wallet, "b")))
        assert (spend.size, spend.reply_size) == (310, 380)

    def test_deploy_clients_spreads_over_stations(self):
        sim = Simulator(1)
        costs = CostModel()
        network = Network(sim, costs.network)
        from repro.smr.views import View
        view = View(0, (0,))
        network.register(0, lambda s, m: None)
        stations, wallets = deploy_clients(sim, network, lambda: view, 40,
                                           num_stations=4)
        assert len(stations) == 4
        assert len(wallets) == 40
        assert all(len(st.clients) == 10 for st in stations)

    def test_minter_addresses_cover_clients(self):
        addresses = all_minter_addresses(10)
        assert client_address(9) in addresses
        assert len(addresses) == 10


class TestHarness:
    def test_smartchain_run_produces_metrics(self):
        result = run(Scenario(variant=PersistenceVariant.WEAK, clients=200,
                              duration=1.5, seed=151))
        assert result.throughput > 500
        assert result.latency_mean > 0
        assert result.completed > 0
        assert result.metrics["blocks"] > 0

    def test_naive_run(self):
        result = run(Scenario(system="naive",
                              verification=VerificationMode.PARALLEL,
                              clients=200, duration=1.5, seed=152))
        assert result.throughput > 200

    def test_dura_run(self):
        result = run(Scenario(system="dura", clients=200, duration=1.5,
                              seed=153))
        assert result.throughput > 500

    def test_ordering_matches_paper(self):
        """The headline shape at reduced scale: naive-sequential < dura,
        and strong ≲ weak."""
        seq = run(Scenario(system="naive",
                           verification=VerificationMode.SEQUENTIAL,
                           clients=400, duration=2.0, seed=154))
        dura = run(Scenario(system="dura", clients=400, duration=2.0,
                            seed=154))
        assert dura.throughput > 2 * seq.throughput

    def test_result_row_formatting(self):
        result = run(Scenario(variant=PersistenceVariant.WEAK, clients=100,
                              duration=1.0, seed=155))
        row = result.row()
        assert "tx/s" in row and "ms" in row


class TestCalibration:
    def test_anchors_within_band(self):
        """The cost model stays within ±35% of every paper number it was
        fitted to, at reduced scale (the experiments' claims pin the
        shapes; this pins the fit)."""
        from repro.bench.experiments import EXPERIMENTS, Options
        options = Options(clients=600, duration=2.0)
        for name, key in (("table1", "seq-sync"), ("table1", "par-sync"),
                          ("table1", "dura"), ("table2", "weak"),
                          ("table2", "strong")):
            experiment = EXPERIMENTS[name]
            measured = run(experiment.rows(options)[key]).throughput
            paper = experiment.paper[key]
            assert 0.65 <= measured / paper <= 1.35, (
                f"{name} {key}: measured {measured:.0f} vs paper {paper:.0f}")

    def test_cli_smoke(self):
        from repro.bench.__main__ import main
        assert main(["smartchain", "--clients", "200",
                     "--duration", "1.0"]) == 0
