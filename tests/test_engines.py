"""Engine conformance: every registered consensus engine must keep the
paper's safety invariants under the same harness, fault plans and online
auditor that exercise Mod-SMaRt.

The suite is parametrized over :func:`repro.consensus.engine_names`, so a
third engine registered via :func:`repro.consensus.register_engine` is
picked up automatically.  Audited runs enforce agreement, no-fork and
view-monotonicity (see ``repro.obs.audit.INVARIANTS``); the negative
control proves the auditor still has teeth when the fast-path engine is
pushed past its fault threshold.
"""

import pytest

from repro.bench.harness import Scenario, run
from repro.consensus import (
    ConsensusEngine,
    ConsensusInstance,
    EngineError,
    FastBftEngine,
    ModSmartEngine,
    create_engine,
    engine_names,
)
from repro.consensus.messages import ProposeMsg
from repro.crypto.hashing import hash_obj
from repro.faults.inject import FaultInjectionError
from repro.faults.plan import BehaviorSpec, FaultPlan
from repro.obs.audit import AuditError
from repro.smr.requests import batch_digest
from tests.helpers import make_cluster

ENGINES = engine_names()

#: The named chaos plans every engine must survive audit-clean with at
#: most f compromised replicas (the consensus-agnosticism proof).
CHAOS_PLANS = ("equivocate", "mute", "withhold-votes", "stale-replay",
               "crash-storm")


def audited_run(engine, *, faults=None, seed=1, n=4, clients=300,
                duration=2.0, audit=True):
    """A short observed SMARTCHAIN run on ``engine`` (audited by default:
    any agreement/no-fork/view-monotonicity breach raises AuditError)."""
    return run(Scenario(n=n, clients=clients, duration=duration, seed=seed,
                        observe=True, audit=audit, faults=faults,
                        engine=engine))


# ----------------------------------------------------------------------
# Registry surface
# ----------------------------------------------------------------------
class TestRegistry:
    def test_both_shipped_engines_registered(self):
        assert {"modsmart", "fastbft"} <= set(ENGINES)

    def test_unknown_engine_rejected_with_known_list(self):
        with pytest.raises(EngineError, match="modsmart"):
            create_engine("paxos")

    def test_create_engine_resolves_keys_and_instances(self):
        assert isinstance(create_engine("modsmart"), ModSmartEngine)
        assert isinstance(create_engine(None), ModSmartEngine)
        engine = FastBftEngine()
        assert create_engine(engine) is engine

    def test_engines_declare_interface(self):
        for name in ENGINES:
            engine = create_engine(name)
            assert isinstance(engine, ConsensusEngine)
            assert engine.name == name
            assert engine.phases, f"{name} declares no vote phases"

    def test_double_attach_rejected(self):
        class _Runtime:
            def register_handler(self, *args, **kwargs):
                pass

        class _Stub:
            id = 0
            runtime = _Runtime()

        engine = create_engine("fastbft")
        engine.attach(_Stub())
        with pytest.raises(EngineError, match="already attached"):
            engine.attach(_Stub())


# ----------------------------------------------------------------------
# Quorum policy (pure arithmetic, no simulation)
# ----------------------------------------------------------------------
class TestQuorumPolicy:
    @pytest.mark.parametrize("n,f,quorum", [(4, 1, 3), (7, 2, 5), (10, 3, 7)])
    def test_modsmart_quorums(self, n, f, quorum):
        engine = create_engine("modsmart")
        assert engine.fault_threshold(n) == f
        assert engine.quorum(n) == quorum
        assert engine.stop_quorum(n) == 2 * f + 1

    @pytest.mark.parametrize("n,f,fast,slow", [(4, 1, 3, 3), (9, 2, 7, 6),
                                               (14, 3, 11, 9)])
    def test_fastbft_quorums(self, n, f, fast, slow):
        engine = create_engine("fastbft")
        assert engine.fault_threshold(n) == f
        assert engine.fast_quorum(n) == fast
        assert engine.quorum(n) == slow

    @pytest.mark.parametrize("name", ENGINES)
    @pytest.mark.parametrize("n", range(4, 16))
    def test_quorum_intersection_exceeds_f(self, name, n):
        """Any two deciding quorums intersect in more than f replicas —
        the arithmetic behind agreement for every engine."""
        engine = create_engine(name)
        f = engine.fault_threshold(n)
        quorums = [engine.quorum(n)]
        if hasattr(engine, "fast_quorum"):
            quorums.append(engine.fast_quorum(n))
        for a in quorums:
            for b in quorums:
                assert a + b - n > f, (name, n, a, b)


# ----------------------------------------------------------------------
# Conformance under the auditor (the consensus-agnosticism proof)
# ----------------------------------------------------------------------
class TestConformance:
    @pytest.mark.parametrize("name", ENGINES)
    def test_fault_free_run_is_audit_clean(self, name):
        result = audited_run(name)
        assert result.completed > 0 and result.throughput > 0
        consortium = result.handle.system
        heights = {node.chain.height for node in consortium.nodes.values()}
        assert max(heights) > 0

    @pytest.mark.parametrize("plan", CHAOS_PLANS)
    @pytest.mark.parametrize("name", ENGINES)
    def test_chaos_plan_audit_clean(self, name, plan):
        """≤ f compromised replicas: clients make progress and no safety
        invariant trips, whichever engine is ordering."""
        result = audited_run(name, faults=plan)
        assert result.completed > 0 and result.throughput > 0
        counts = result.handle.obs.events.counts()
        if plan == "crash-storm":
            assert counts.get("crash", 0) >= 1
        else:
            assert counts.get("behavior-activated", 0) >= 1

    @pytest.mark.parametrize("name", ENGINES)
    def test_views_monotone_per_node(self, name):
        """Beyond the auditor's own check: view-change events never move
        a node backwards."""
        result = audited_run(name, faults="stale-replay")
        last: dict[int, int] = {}
        for event in result.handle.obs.events.of_kind("view-change"):
            view = event.fields["view"]
            assert view >= last.get(event.node, -1)
            last[event.node] = view
        assert last, "run produced no view changes"


class TestFastPath:
    def test_fault_free_decisions_take_the_fast_path(self):
        result = audited_run("fastbft")
        engine = result.handle.system.nodes[0].replica.engine
        assert engine.fast_decisions > 0
        assert engine.slow_decisions == 0

    def test_slow_path_decides_when_fast_quorum_unreachable(self):
        """n=9: three muted replicas leave 6 votes — below the fast quorum
        of 7 but enough for the classic quorum of 6, so every decision
        falls back to the slow path (and stays audit-clean)."""
        plan = FaultPlan(name="mute-3", behaviors=(
            BehaviorSpec("mute", nodes=(6, 7, 8), after=0.0),))
        result = audited_run("fastbft", n=9, faults=plan)
        engine = result.handle.system.nodes[0].replica.engine
        assert result.completed > 0
        assert engine.slow_decisions > 0
        assert engine.fast_decisions == 0


# ----------------------------------------------------------------------
# Negative control: the auditor must still catch real forks
# ----------------------------------------------------------------------
class TestBeyondThreshold:
    def test_fastbft_f_plus_one_equivocators_trip_the_auditor(self):
        plan = FaultPlan(
            name="equivocate-2",
            behaviors=(BehaviorSpec("equivocate", nodes=(0, 1), after=0.3),),
            protocol={"request_timeout": 0.25},
        )
        with pytest.raises(AuditError) as excinfo:
            audited_run("fastbft", faults=plan)
        violated = {v.invariant for v in excinfo.value.violations}
        assert violated & {"agreement", "no-fork"}


# ----------------------------------------------------------------------
# Engine-specific plan overrides fail fast on the wrong engine
# ----------------------------------------------------------------------
class TestPhaseValidation:
    def _withhold(self, *phases):
        return FaultPlan(name="bad", behaviors=(
            BehaviorSpec("withhold-votes", nodes=(1,),
                         params={"phases": tuple(phases)}),))

    def test_modsmart_phase_names_rejected_on_fastbft(self):
        with pytest.raises(FaultInjectionError, match="'write'.*fastbft"):
            run(Scenario(clients=10, duration=0.2,
                         faults=self._withhold("write"), engine="fastbft"))

    def test_fastbft_phase_names_rejected_on_modsmart(self):
        with pytest.raises(FaultInjectionError, match="'vote'.*modsmart"):
            run(Scenario(clients=10, duration=0.2,
                         faults=self._withhold("vote")))

    def test_engine_phase_names_accepted(self):
        for engine in ENGINES:
            phases = create_engine(engine).phases + ("persist",)
            result = run(Scenario(clients=50, duration=0.5, observe=True,
                                  faults=self._withhold(*phases),
                                  engine=engine))
            assert result.handle is not None


# ----------------------------------------------------------------------
# Catch-up drain: a long buffer of decidable proposals must not recurse
# ----------------------------------------------------------------------
class TestCatchUpDrain:
    BUFFERED = 5_000

    @pytest.mark.parametrize("name", ENGINES)
    def test_kick_pending_drains_a_long_buffer_iteratively(self, name):
        """A replica back from a state transfer may hold thousands of
        buffered proposals whose instances already tallied a deciding
        quorum; one kick must decide them all in cid order without one
        stack frame per proposal (the Fig. 7 joiner drained ~220)."""
        sim, network, view, replicas, apps = make_cluster(engine=name)
        replica, leader = replicas[1], view.members[0]
        engine = replica.engine
        quorum = getattr(engine, "fast_quorum", engine.quorum)(view.n)
        batch_hash = batch_digest([])
        for cid in range(self.BUFFERED):
            msg = ProposeMsg(cid=cid, regency=0, batch=[],
                             batch_hash=batch_hash, size=0)
            engine.future_proposals[cid] = (leader, msg)
            _hold_deciding_quorum(engine, replicas[:quorum], cid, batch_hash)
        decided = []
        handle_decision = replica.handle_decision

        def record(decision):
            decided.append(decision.cid)
            handle_decision(decision)
        replica.handle_decision = record

        engine.kick_pending()

        assert decided == list(range(self.BUFFERED))
        assert replica.last_decided == self.BUFFERED - 1
        assert engine.future_proposals == {}
        assert engine.earliest_buffered() is None


def _hold_deciding_quorum(engine, voters, cid, batch_hash):
    """Tally the deciding round's votes for ``cid`` before its proposal
    arrives: ACCEPTs under Mod-SMaRt, fast VOTEs under FastBFT."""
    instance = engine._instance(cid)
    accepts = isinstance(instance, ConsensusInstance)
    payload = hash_obj(("accept" if accepts else "fastvote", cid, batch_hash))
    for voter in voters:
        signature = voter.consensus_key().sign(payload)
        if accepts:
            instance.on_accept(voter.id, batch_hash, signature)
        else:
            instance.votes.setdefault(batch_hash, {})[voter.id] = signature
