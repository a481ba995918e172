"""Configuration dataclasses: protocol parameters and the calibrated cost model.

The cost model is the single source of truth for every service time charged
in the simulation.  The constants are calibrated once against the paper's
testbed (Section VI-A: Dell R410, 2×quad-core Xeon E5520 with 16 hardware
threads, 1 Gbps switched network, SCSI HDD) so that the n=4 column of
Table I approximates the paper, and are then held fixed for every other
experiment — see DESIGN.md "Calibration".
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

from repro.crypto.keys import CryptoCosts
from repro.net.network import NetworkConfig
from repro.storage.disk import DiskConfig

__all__ = [
    "VerificationMode",
    "StorageMode",
    "PersistenceVariant",
    "CostModel",
    "SMRConfig",
    "SmartChainConfig",
]


class VerificationMode(enum.Enum):
    """Where client-transaction signatures are verified (Table I).

    ``SEQUENTIAL``: inside the state machine, on the single execution thread
    (the naive application design).  ``PARALLEL``: in BFT-SMART's message
    verification pool of threads, exploiting all cores.  ``NONE``: signatures
    disabled (the 'Sy'/'N' setups of Figure 6).
    """

    SEQUENTIAL = "sequential"
    PARALLEL = "parallel"
    NONE = "none"


class StorageMode(enum.Enum):
    """How ledger data reaches stable storage.

    ``SYNC``: a stable-media barrier before replying (Si+Sy / Sy setups).
    ``ASYNC``: background flushes — λ-Persistence.  ``MEMORY``: no stable
    storage at all — ∞-Persistence.
    """

    SYNC = "sync"
    ASYNC = "async"
    MEMORY = "memory"


class PersistenceVariant(enum.Enum):
    """SMARTCHAIN variant (Section V-C).

    ``STRONG`` adds the PERSIST phase and yields 0-Persistence; ``WEAK``
    skips it and yields 1-Persistence (external durability only).
    """

    STRONG = "strong"
    WEAK = "weak"


@dataclass
class CostModel:
    """Calibrated service times, fitted once against the n=4 column of
    Table I and then held fixed (see module docstring).  Provenance of each
    constant; the paper numbers named here are the ``paper`` entries of
    :mod:`repro.bench.experiments`:

    ============================  ==========================================
    constant                      provenance
    ============================  ==========================================
    crypto.verify_time (330 µs)   fitted: Table I sequential-verification
                                  rows (one 2.27 GHz core); consistent with
                                  RSA-1024 verify on that CPU
    crypto.sign_time (450 µs)     RSA/ECDSA sign-to-verify ratio, same core
    network (1 Gbps, 0.25 ms)     the paper's testbed (Section VI-A)
    disk.sync_latency (2.5 ms)    fitted: sync-vs-async deltas of Table I and
                                  the Si+Sy vs Si columns of Figure 6
    disk.snapshot (45 MB/s)       Figure 7: a 1 GB checkpoint takes ≈23 s
    state_serialize (20 MB/s)     Figure 7: the join's state transfer
    exec/reply (14+14 µs)         fitted: Dura-SMaRt row of Table I
    signed_tx_sm_overhead (30 µs) fitted: the signatures-on/off gap of Fig. 6
    naive_ledger (200 µs/tx)      fitted: Table I parallel-verification rows
                                  (Observation 1's application-level blocks)
    block_build (2.2 ms/block)    fitted: SMARTCHAIN weak vs Dura-SMaRt gap
    persist_handling (3 ms/block) fitted: the strong-vs-weak gap of Table II
    replay_time (8 µs/tx)         Figure 8: the no-checkpoint update curve
    ============================  ==========================================
    """

    crypto: CryptoCosts = field(default_factory=CryptoCosts)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    disk: DiskConfig = field(default_factory=DiskConfig)

    #: Per-transaction execution cost on the state-machine thread
    #: (SMaRtCoin UTXO bookkeeping).
    exec_time_per_tx: float = 14e-6
    #: Per-transaction reply serialization/dispatch cost on the SM thread.
    reply_time_per_tx: float = 14e-6
    #: Per-transaction SM-thread overhead of handling *signed* requests
    #: (signature bytes through the pipeline, authenticated replies); vanishes
    #: in the unsigned 'Sy'/'N' setups of Figure 6.
    signed_tx_sm_overhead: float = 30e-6
    #: Fixed cost per delivered batch (context switch, batch unwrapping).
    batch_overhead: float = 300e-6
    #: Per-transaction cost of the *naive application-level* ledger: building
    #: and serializing blocks inside the state machine (Observation 1).
    naive_ledger_build_per_tx: float = 200e-6
    #: Per-transaction serialization cost of the Dura-SMaRt request log
    #: (charged on the SM thread as part of batched delivery).
    dura_log_per_tx: float = 4e-6
    #: Fixed per-block cost of the SMARTCHAIN library blockchain layer
    #: (block assembly and close bookkeeping; hashing is charged separately
    #: via hash_time_per_kb).
    block_build_overhead: float = 2200e-6
    #: Per-block PERSIST-phase handling cost on the delivery thread in the
    #: strong variant: signature collection, certificate assembly and the
    #: asynchronous certificate write's bookkeeping.  Calibrated so the
    #: strong variant lands ≈13% below weak, as measured in the paper.
    persist_handling: float = 3000e-6
    #: Effective bandwidth at which a replica serializes application state
    #: for state transfer / snapshots (bytes/second).
    state_serialize_bps: float = 20e6
    #: Per-block replay cost during recovery (deserialize + re-execute),
    #: dominated by transaction re-execution; used by Figure 8.
    replay_time_per_tx: float = 8e-6

    def copy(self, **overrides) -> "CostModel":
        return replace(self, **overrides)


@dataclass
class SMRConfig:
    """Mod-SMaRt replication parameters (BFT-SMART defaults)."""

    n: int = 4
    f: int = 1
    batch_size: int = 512                  # max transactions per consensus
    batch_timeout: float = 0.005           # propose a partial batch after this
    request_timeout: float = 2.0           # leader-change trigger
    #: View-synchronizer timeout policy (Bravo, Chockler & Gotsman,
    #: "Liveness and Latency of Byzantine SMR").  ``exponential`` grows the
    #: leader-change timeout by ``timeout_backoff`` on every regency change
    #: that happens without an intervening decision (capped at
    #: ``timeout_max``) and resets it to ``request_timeout`` on progress, so
    #: the synchronizer eventually outwaits any unknown post-GST delay
    #: bound.  ``fixed`` is the legacy policy: every timer uses
    #: ``request_timeout`` — under a message delay larger than it, the sync
    #: phase can livelock (each SYNC overtaken by the next escalation).
    synchronizer: str = "exponential"
    #: Multiplier applied to the leader-change timeout per consecutive
    #: failed regency change (exponential policy only).
    timeout_backoff: float = 2.0
    #: Upper bound on the backed-off leader-change timeout, in seconds.
    timeout_max: float = 32.0
    verification: VerificationMode = VerificationMode.PARALLEL
    verify_pool_size: int = 16             # hardware threads per machine
    #: Maximum decided batches accumulated per group commit in the
    #: Dura-SMaRt durability layer.
    group_commit_limit: int = 10
    #: Background flush interval for ASYNC storage (defines λ).
    async_flush_interval: float = 0.05
    #: Flow control: maximum decided-but-unprocessed decisions before the
    #: leader stops proposing (BFT-SMART's pending-decisions bound).  Keeps
    #: consensus from racing ahead of the delivery pipeline, which would
    #: fragment batches.
    max_pending_decisions: int = 3
    #: Consensus pipelining (DISPEL-style): maximum consensus instances the
    #: leader may have in flight at once.  ``1`` is the classic sequential
    #: mode — instance i+1 is proposed only after i decides — and takes the
    #: exact pre-pipelining code path.  Engines cap the effective window via
    #: ``ConsensusEngine.max_pipeline``.
    pipeline_depth: int = 1
    #: Modeled cores of the execution pool used to run non-conflicting
    #: operations of a decided batch concurrently (applications declare
    #: conflicts via ``Application.conflict_keys``; an operation without
    #: one is a barrier).  ``1`` executes each batch as one job on the
    #: state-machine thread.  Every engine-hosting delivery layer charges
    #: through :func:`repro.smr.scheduler.charge_execution`, so the value
    #: means the same everywhere.  Results and replies are byte-identical
    #: for every value — only the modeled time changes.
    exec_cores: int = 1
    #: How long the strong variant waits for a certificate quorum before
    #: finishing a block uncertified (it is re-certified once the missing
    #: recorded keys land on the chain).
    persist_timeout: float = 1.0
    #: Public key of the trusted View Manager (classic BFT-SMART's
    #: centralized reconfiguration, Section II-C3); None disables it.
    #: SMARTCHAIN nodes never set this — their reconfiguration is
    #: decentralized (repro.core.reconfig).
    view_manager_public: str | None = None
    #: Verified recovery: replay only the checksum- and linkage-valid
    #: prefix of the stable log after a recoverable crash, rejecting
    #: corrupted snapshots ("Storage faults & verified recovery",
    #: docs/faults.md).  ``False`` is the negative-control escape hatch —
    #: blind replay, the pre-hardening behavior.
    verify_recovery: bool = True

    def __post_init__(self) -> None:
        if self.n < 3 * self.f + 1:
            raise ValueError(f"n={self.n} cannot tolerate f={self.f} (need n >= 3f+1)")
        if self.synchronizer not in ("exponential", "fixed"):
            raise ValueError(
                f"unknown synchronizer policy {self.synchronizer!r} "
                "(expected 'exponential' or 'fixed')")
        if self.timeout_backoff < 1.0:
            raise ValueError("timeout_backoff must be >= 1")
        if self.pipeline_depth < 1:
            raise ValueError(
                f"pipeline_depth must be >= 1, got {self.pipeline_depth}")
        if self.exec_cores < 1:
            raise ValueError(
                f"exec_cores must be >= 1, got {self.exec_cores}")

    @property
    def quorum(self) -> int:
        """Byzantine (dissemination) quorum: ⌈(n+f+1)/2⌉ ≥ 2f+1.

        Equals the paper's ⌊(n+f+1)/2⌋ for every n = 3f+1 configuration it
        evaluates; the ceiling form stays safe for intermediate group sizes.
        """
        return (self.n + self.f + 2) // 2

    @property
    def stop_quorum(self) -> int:
        """STOPs needed to install a new regency (2f+1)."""
        return 2 * self.f + 1


@dataclass
class SmartChainConfig:
    """SMARTCHAIN platform parameters (Section V)."""

    smr: SMRConfig = field(default_factory=SMRConfig)
    variant: PersistenceVariant = PersistenceVariant.STRONG
    storage: StorageMode = StorageMode.SYNC
    #: Checkpoint period z, in *blocks* (Section V-B3); written to genesis.
    checkpoint_period: int = 1000

    @property
    def quorum(self) -> int:
        return self.smr.quorum
