"""SMARTCHAIN blockchain-layer tests: Algorithm 1 mechanics."""

import pytest

from repro.clients.client import Client
from repro.config import PersistenceVariant, StorageMode
from repro.ledger import Block, TxRecord

from tests.helpers import (
    attach_station,
    make_consortium,
    mint_ops_simple,
    run_coin_traffic,
)


class TestBlockProduction:
    def test_one_block_per_decision(self):
        consortium = make_consortium(seed=81)
        run_coin_traffic(consortium, txs=20)
        node = consortium.node(0)
        assert node.chain.height == node.replica.last_decided + 1
        cids = [b.body.consensus_id for b in node.delivery.chain]
        assert cids == sorted(cids)
        assert len(set(cids)) == len(cids)

    def test_blocks_contain_transactions_and_results(self):
        consortium = make_consortium(seed=82)
        run_coin_traffic(consortium, txs=10)
        for block in consortium.node(0).delivery.chain:
            assert len(block.body.transactions) == len(block.body.results)
            for tx, result in zip(block.body.transactions,
                                  block.body.results):
                assert TxRecord.from_canonical(tx).client_id == result[0]
                assert "minted" in result[2] or "error" in result[2]

    def test_header_pointers_maintained(self):
        consortium = make_consortium(seed=83, checkpoint_period=4)
        run_coin_traffic(consortium, txs=30)
        chain = consortium.node(0).delivery.chain
        last_checkpoint = -1
        for block in chain:
            assert block.header.last_checkpoint == last_checkpoint
            if block.number % 4 == 0:
                last_checkpoint = block.number

    def test_all_replicas_build_identical_blocks(self):
        consortium = make_consortium(seed=84)
        run_coin_traffic(consortium, txs=25)
        digests = [tuple(b.digest() for b in n.delivery.chain)
                   for n in consortium.nodes.values()]
        assert digests[0] == digests[1] == digests[2] == digests[3]

    def test_strong_blocks_certified(self):
        consortium = make_consortium(seed=85)
        run_coin_traffic(consortium, txs=20)
        node = consortium.node(0)
        quorum = node.view.cert_quorum
        uncertified = 0
        for block in node.delivery.chain:
            if block.certificate is None:
                uncertified += 1
                continue
            assert len(block.certificate.signatures) >= quorum
            assert block.certificate.header_digest == block.digest()
        assert uncertified <= 1  # only the in-flight tail

    def test_weak_blocks_have_proofs_not_certificates(self):
        consortium = make_consortium(seed=86,
                                     variant=PersistenceVariant.WEAK)
        run_coin_traffic(consortium, txs=15)
        node = consortium.node(0)
        for block in node.delivery.chain:
            assert block.certificate is None
            assert len(block.consensus_proof) >= node.view.quorum

    def test_memory_mode_writes_nothing_stable(self):
        consortium = make_consortium(seed=87, storage=StorageMode.MEMORY)
        run_coin_traffic(consortium, txs=10)
        node = consortium.node(0)
        assert node.chain.height > 0
        assert node.replica.store.log_length("chain") == 0


class TestCheckpoints:
    def test_checkpoint_every_z_blocks(self):
        consortium = make_consortium(seed=88, checkpoint_period=3)
        run_coin_traffic(consortium, txs=30)
        node = consortium.node(0)
        expected = node.chain.height // 3
        assert node.delivery.checkpoints_taken == expected

    def test_checkpoint_written_outside_chain(self):
        consortium = make_consortium(seed=89, checkpoint_period=3)
        run_coin_traffic(consortium, txs=20)
        node = consortium.node(0)
        stored = node.replica.store.read_cell(node.delivery.SNAPSHOT)
        assert stored is not None
        assert stored.block_number % 3 == 0

    def test_zero_period_disables_checkpoints(self):
        consortium = make_consortium(seed=90, checkpoint_period=0)
        run_coin_traffic(consortium, txs=20)
        assert consortium.node(0).delivery.checkpoints_taken == 0

    def test_checkpoint_stalls_pipeline(self):
        """The Figure 7 dip: a large state makes the checkpoint slow."""
        from repro.apps.smartcoin import SmartCoin
        from tests.helpers import MINTER
        import repro.core.node as node_mod
        from repro.config import SMRConfig, SmartChainConfig
        from repro.sim.engine import Simulator

        sim = Simulator(91)
        config = SmartChainConfig(
            smr=SMRConfig(n=4, f=1), checkpoint_period=5)
        consortium = node_mod.bootstrap(
            sim, (0, 1, 2, 3),
            lambda: SmartCoin(minters=[MINTER],
                              synthetic_state_bytes=200_000_000),
            config)
        station = attach_station(consortium)
        Client(station, mint_ops_simple(12))
        station.start_all()
        sim.run(until=60.0)
        assert station.meter.total == 12
        # 200 MB at 45 MB/s -> the checkpoint takes >4 simulated seconds.
        assert sim.now > 4.0


class TestStableLogFormat:
    def test_log_contains_all_block_parts(self):
        consortium = make_consortium(seed=92)
        run_coin_traffic(consortium, txs=12)
        entries = consortium.node(0).replica.store.read_log("chain")
        kinds = {e[0] for e in entries}
        assert {"genesis", "txs", "results", "header", "cert"} <= kinds

    def test_recover_local_rebuilds_chain_exactly(self):
        consortium = make_consortium(seed=93, checkpoint_period=4)
        run_coin_traffic(consortium, txs=20)
        node = consortium.node(0)
        height = node.chain.height
        head = node.chain.head_digest()
        state = node.app.state_digest()
        node.crash()
        recovered_cid = node.delivery.recover_local()
        assert node.chain.height == height
        assert node.chain.head_digest() == head
        assert node.app.state_digest() == state
        assert recovered_cid == node.chain.head().body.consensus_id

    def test_chain_records_parse_as_blocks(self):
        consortium = make_consortium(seed=94)
        run_coin_traffic(consortium, txs=10)
        for record in consortium.node(0).chain_records():
            block = Block.from_record(record)
            block.validate_body()


class TestRepersist:
    def test_repersist_missing_completes_certificates(self):
        consortium = make_consortium(seed=95)
        run_coin_traffic(consortium, txs=15)
        node = consortium.node(0)
        # Strip some certificates (as if lost in a crash before cert write).
        stripped = []
        for block in list(node.delivery.chain)[:3]:
            if block.certificate is not None:
                block.certificate = None
                stripped.append(block.number)
        assert stripped
        done = []
        node.delivery.repersist_missing(lambda: done.append(1))
        consortium.sim.run(until=consortium.sim.now + 5.0)
        assert done
        for number in stripped:
            assert node.delivery.chain.get(number).certificate is not None
