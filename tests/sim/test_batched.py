"""Fixed-seed equivalence of the batched agent engine with its reference.

The batched engine claims more than distributional equality: for the
same seed it replays *exactly* the reference engine's RNG law, so every
trajectory statistic — the agent states, the interaction clock, the
change trackers, the output counts — must match step for step.  These
fingerprints are what licenses `exp run --engine batched` to reuse
agent-engine seeds and baselines.
"""

import random

import numpy as np
import pytest

from repro.core.protocol import PopulationProtocol
from repro.protocols import registry
from repro.protocols.counting import CountToK
from repro.sim.backends import numpy_backend
from repro.sim.batched import (
    _QUIET_MIN,
    _QUIET_SHIFT,
    BatchedSimulation,
    batched_simulate_counts,
)
from repro.sim.convergence import run_until_correct_stable
from repro.sim.engine import Simulation, simulate_counts
from repro.sim.faults import (
    CorruptAt,
    CorruptionRate,
    CrashAt,
    CrashRate,
    FaultPlan,
    OmissionRate,
    OmitAt,
)
from repro.sim.monitors import (
    ConservationMonitor,
    OutputFlickerMonitor,
    StateContainmentMonitor,
)

#: (registry name, params, input counts) — n chosen so the block-decoded
#: fast path is active (bit widths of n and n-1 agree).
AGENT_CASES = [
    ("leader-election", {}, {1: 300}),
    ("majority", {}, {1: 120, 0: 181}),
    ("parity", {}, {1: 77, 0: 100}),
]

CHUNKS = (1, 7, 400, 5_000, 20_000)


def _build(name, params):
    return registry.get(name).build(**params)


def _assert_agent_state_equal(fast, ref):
    assert fast.interactions == ref.interactions
    assert fast.n == ref.n
    assert fast.last_output_change == ref.last_output_change
    assert list(fast.states) == list(ref.states)
    assert list(fast.outputs()) == list(ref.outputs())
    assert fast.multiset() == ref.multiset()
    assert fast.output_counts() == ref.output_counts()
    assert fast.unanimous_output() == ref.unanimous_output()


def _assert_faulted_agent_state_equal(fast, ref):
    _assert_agent_state_equal(fast, ref)
    # Crash bookkeeping, survivor views, and the plan's fault stream
    # coincide too.  (The engine's own `rng` is *not* compared: the
    # batched block decoder legitimately reads ahead of the reference
    # stream mid-trajectory; the state equality above is what proves the
    # draws were decoded identically.)
    assert sorted(fast.crashed) == sorted(ref.crashed)
    assert fast.unanimous_surviving_output() == \
        ref.unanimous_surviving_output()
    assert fast.faults.rng.getstate() == ref.faults.rng.getstate()


class TestAgentFingerprint:
    @pytest.mark.parametrize("name,params,counts", AGENT_CASES,
                             ids=[c[0] for c in AGENT_CASES])
    def test_trajectory_identical(self, name, params, counts, seed,
                                  kernel_backend):
        protocol = _build(name, params)
        ref = simulate_counts(protocol, counts, seed=seed)
        fast = batched_simulate_counts(protocol, counts, seed=seed,
                                       backend=kernel_backend)
        assert fast.backend == kernel_backend
        for chunk in CHUNKS:
            ref.run(chunk)
            fast.run(chunk)
            _assert_agent_state_equal(fast, ref)

    def test_explicit_states_identical(self, seed):
        protocol = _build("parity", {})
        states = [protocol.initial_state(i % 2) for i in range(101)]
        ref = Simulation(protocol, states=states, seed=seed)
        fast = BatchedSimulation(protocol, states=states, seed=seed)
        ref.run(5_000)
        fast.run(5_000)
        _assert_agent_state_equal(fast, ref)

    def test_run_until_identical(self, seed):
        protocol = _build("majority", {})
        ref = simulate_counts(protocol, {1: 120, 0: 181}, seed=seed)
        fast = batched_simulate_counts(protocol, {1: 120, 0: 181}, seed=seed)
        condition = lambda s: s.interactions - s.last_output_change > 2_000
        assert (fast.run_until(condition, max_steps=300_000, check_every=256)
                == ref.run_until(condition, max_steps=300_000,
                                 check_every=256))
        _assert_agent_state_equal(fast, ref)

    def test_fallback_when_bit_widths_differ(self, seed):
        protocol = _build("majority", {})
        ref = simulate_counts(protocol, {1: 200, 0: 312}, seed=seed)
        fast = batched_simulate_counts(protocol, {1: 200, 0: 312}, seed=seed)
        ref.run(20_000)
        fast.run(20_000)
        _assert_agent_state_equal(fast, ref)

    def test_minimal_population(self, seed):
        protocol = CountToK(2)
        ref = simulate_counts(protocol, {1: 2}, seed=seed)
        fast = batched_simulate_counts(protocol, {1: 2}, seed=seed)
        ref.run(50)
        fast.run(50)
        _assert_agent_state_equal(fast, ref)

    def test_many_seeds_spot_check(self):
        # The parity fix-up in the block decoder is the subtle part;
        # hammer it across seeds on the smallest supported sizes.
        protocol = _build("leader-election", {})
        for seed in range(12):
            for n in (3, 5, 33, 100):
                ref = simulate_counts(protocol, {1: n}, seed=seed)
                fast = batched_simulate_counts(protocol, {1: n}, seed=seed)
                ref.run(3_000)
                fast.run(3_000)
                _assert_agent_state_equal(fast, ref)

    def test_faulted_trajectory_identical(self, seed):
        # The full sweep lives in TestFaultedAgentFingerprint; this is
        # the in-class smoke twin of test_trajectory_identical.
        protocol = _build("leader-election", {})
        plan = lambda: FaultPlan(CrashAt(500, 5), seed=11)
        ref = simulate_counts(protocol, {1: 300}, seed=seed, faults=plan())
        fast = batched_simulate_counts(protocol, {1: 300}, seed=seed,
                                       faults=plan())
        for chunk in CHUNKS:
            ref.run(chunk)
            fast.run(chunk)
            _assert_faulted_agent_state_equal(fast, ref)

    def test_faulted_run_until_identical(self, seed):
        protocol = _build("majority", {})
        ref = simulate_counts(protocol, {1: 120, 0: 181}, seed=seed,
                              faults=FaultPlan(CrashAt(900, 10), seed=3))
        fast = batched_simulate_counts(
            protocol, {1: 120, 0: 181}, seed=seed,
            faults=FaultPlan(CrashAt(900, 10), seed=3))
        condition = lambda s: s.interactions - s.last_output_change > 2_000
        assert (fast.run_until(condition, max_steps=300_000, check_every=256)
                == ref.run_until(condition, max_steps=300_000,
                                 check_every=256))
        _assert_faulted_agent_state_equal(fast, ref)

    def test_stream_gating(self, seed):
        # Block decoding requires the exact CPython Random implementation
        # and matching bit widths for randrange(n)/randrange(n-1); every
        # other configuration must take the scalar fallback.
        from repro.sim.batched import _PairDrawStream, _make_stream

        assert _PairDrawStream.supported(601)
        assert not _PairDrawStream.supported(512)  # 10-bit vs 9-bit draws
        assert not _PairDrawStream.supported(2)

        class SubclassedRandom(random.Random):
            pass

        assert _make_stream(random.Random(seed), 601) is not None
        assert _make_stream(SubclassedRandom(seed), 601) is None
        protocol = _build("majority", {})
        fast = batched_simulate_counts(protocol, {1: 200, 0: 312},
                                       seed=seed)
        assert fast._stream is None  # falls back, still bit-identical


#: Fault-plan factories (plans are stateful and bind to one simulation,
#: so each engine gets a fresh but identical instance).
FAULT_PLANS = {
    "crash-at": lambda: FaultPlan(CrashAt(500, 5), seed=77),
    "crash-rate": lambda: FaultPlan(CrashRate(0.002), seed=77),
    "corrupt-at": lambda: FaultPlan(CorruptAt(400, 3), seed=77),
    "corruption-rate": lambda: FaultPlan(CorruptionRate(0.01), seed=77),
    "omit-at": lambda: FaultPlan(OmitAt(range(100, 3000, 7)), seed=77),
    "omission-rate": lambda: FaultPlan(OmissionRate(0.2), seed=77),
    "mixed": lambda: FaultPlan([CrashAt(300, 4), OmissionRate(0.05),
                                CorruptionRate(0.005)], seed=77),
}


class TestFaultedAgentFingerprint:
    """Faulted batched runs replay the faulted reference bit for bit.

    The extension of the fingerprint contract that licenses
    ``exp run --engine batched`` (and ``repro robustness --engine
    batched``) on faulted specs: for the same ``(seed, FaultPlan)`` the
    batched engine reproduces the reference engine's faulted trajectory
    exactly — states, crash bookkeeping, convergence clocks, and both
    RNG streams — at every chunk boundary.
    """

    @pytest.mark.parametrize("plan_name", sorted(FAULT_PLANS),
                             ids=sorted(FAULT_PLANS))
    def test_every_fault_family(self, plan_name, seed, kernel_backend):
        make_plan = FAULT_PLANS[plan_name]
        protocol = _build("leader-election", {})
        ref = simulate_counts(protocol, {1: 300}, seed=seed,
                              faults=make_plan())
        fast = batched_simulate_counts(protocol, {1: 300}, seed=seed,
                                       faults=make_plan(),
                                       backend=kernel_backend)
        assert fast.backend == kernel_backend
        for chunk in CHUNKS:
            ref.run(chunk)
            fast.run(chunk)
            _assert_faulted_agent_state_equal(fast, ref)

    @pytest.mark.parametrize("name,params,counts", AGENT_CASES,
                             ids=[c[0] for c in AGENT_CASES])
    def test_mixed_plan_across_protocols(self, name, params, counts, seed):
        make_plan = FAULT_PLANS["mixed"]
        protocol = _build(name, params)
        ref = simulate_counts(protocol, counts, seed=seed,
                              faults=make_plan())
        fast = batched_simulate_counts(protocol, counts, seed=seed,
                                       faults=make_plan())
        for chunk in CHUNKS:
            ref.run(chunk)
            fast.run(chunk)
            _assert_faulted_agent_state_equal(fast, ref)

    def test_many_seeds_spot_check(self):
        protocol = _build("leader-election", {})
        for seed in range(8):
            ref = simulate_counts(
                protocol, {1: 101}, seed=seed,
                faults=FaultPlan([CrashAt(50, 3), OmissionRate(0.1)],
                                 seed=seed + 1))
            fast = batched_simulate_counts(
                protocol, {1: 101}, seed=seed,
                faults=FaultPlan([CrashAt(50, 3), OmissionRate(0.1)],
                                 seed=seed + 1))
            ref.run(4_000)
            fast.run(4_000)
            _assert_faulted_agent_state_equal(fast, ref)


#: Populations large enough that the numpy backend's prefix rounds apply
#: many reactive encounters at once (n and n - 1 share a bit length, so
#: the draw stream is block-decoded).
PREFIX_CASES = [
    ("majority", {}, {1: 2_600, 0: 2_401}),
    ("count-to-k", {"k": 5}, {1: 40, 0: 4_961}),
]

#: Irregular run() lengths; each one is followed by a single step().
RAGGED_CHUNKS = (1, 13, 2_047, 1, 777, 9_001, 3, 30_000, 65_537, 150_001)

#: Engine keyword factories: a fault plan and monitors are single-use,
#: so each engine gets a fresh but identical set.
PREFIX_VARIANTS = {
    "plain": dict,
    "crash-at": lambda: {"faults": FaultPlan(
        [CrashAt(3_000, 5), CrashAt(40_000, 5)], seed=5)},
    "monitored": lambda: {"monitors": [
        ConservationMonitor(), StateContainmentMonitor(check_every=4_096),
        OutputFlickerMonitor()]},
}


@pytest.fixture
def scatter_sizes(monkeypatch):
    """Encounter counts of every multi-hit prefix-round apply."""
    sizes = []
    scatter = numpy_backend._scatter_hits

    def spy(sim, base, hits, *rest):
        sizes.append(hits.size)
        return scatter(sim, base, hits, *rest)

    monkeypatch.setattr(numpy_backend, "_scatter_hits", spy)
    return sizes


def _assert_prefix_state_equal(fast, ref):
    assert fast.interactions == ref.interactions
    assert fast.last_change == ref.last_change
    assert fast.last_output_change == ref.last_output_change
    assert list(fast.states) == list(ref.states)
    assert fast.output_counts() == ref.output_counts()
    assert sorted(fast.crashed) == sorted(ref.crashed)


class TestPrefixRounds:
    """Bit identity at the population sizes where prefix rounds fire.

    The numpy backend applies a window's whole conflict-free prefix in
    one scatter once a round expects many reactive encounters; the
    scatter spy proves some round here really applied more than one, so
    the comparison with the reference engine is not vacuous.
    """

    @pytest.mark.parametrize("variant", sorted(PREFIX_VARIANTS))
    @pytest.mark.parametrize("name,params,counts", PREFIX_CASES,
                             ids=[c[0] for c in PREFIX_CASES])
    def test_ragged_chunks_identical(self, name, params, counts, variant,
                                     seed, kernel_backend, scatter_sizes):
        protocol = _build(name, params)
        make = PREFIX_VARIANTS[variant]
        ref = simulate_counts(protocol, counts, seed=seed, **make())
        fast = batched_simulate_counts(protocol, counts, seed=seed,
                                       backend=kernel_backend, **make())
        assert fast._stream is not None
        for chunk in RAGGED_CHUNKS:
            ref.run(chunk)
            fast.run(chunk)
            assert fast.step() == ref.step()
            _assert_prefix_state_equal(fast, ref)
        if kernel_backend == "numpy":
            assert max(scatter_sizes, default=0) > 1

    @pytest.mark.parametrize("variant", sorted(PREFIX_VARIANTS))
    def test_epidemic_correct_stable_identical(self, variant, seed,
                                               kernel_backend,
                                               scatter_sizes):
        protocol = _build("epidemic", {})
        counts = {1: 1, 0: 5_000}
        make = PREFIX_VARIANTS[variant]
        ref = simulate_counts(protocol, counts, seed=seed, **make())
        fast = batched_simulate_counts(protocol, counts, seed=seed,
                                       backend=kernel_backend, **make())
        assert fast._stream is not None
        for chunk in RAGGED_CHUNKS[:5]:
            ref.run(chunk)
            fast.run(chunk)
            assert fast.step() == ref.step()
        # A crashed agent that was never infected stays wrong, so the
        # crash-at run exhausts its budget on both engines.
        result = run_until_correct_stable(fast, 1, max_steps=300_000)
        assert result == run_until_correct_stable(ref, 1, max_steps=300_000)
        assert result.stopped == (variant != "crash-at")
        _assert_prefix_state_equal(fast, ref)
        if kernel_backend == "numpy":
            assert max(scatter_sizes, default=0) > 1


def _reference_pairs(rng, n, block_words, blocks_read, ambiguous=None):
    """``(initiator, responder)`` agent pairs replayed from raw words.

    Reads ``getrandbits(32 * block_words)`` from ``rng`` one block at a
    time, as the stream does, and replays CPython's ``_randbelow``
    rejection word by word for ``randrange(n)``, ``randrange(n - 1)``;
    the responder draw is shifted past the initiator as the reference
    engine's step does.  ``blocks_read[0]`` counts the blocks, and
    ``ambiguous[0]``, if given, the words decoding to ``n - 1`` that a
    responder draw rejected.
    """
    shift = 32 - n.bit_length()
    bounds = (n, n - 1)
    role, first = 0, None
    while True:
        block = rng.getrandbits(32 * block_words).to_bytes(4 * block_words,
                                                           "little")
        blocks_read[0] += 1
        for word in np.frombuffer(block, dtype="<u4").tolist():
            value = word >> shift
            if ambiguous is not None and role and value == n - 1:
                ambiguous[0] += 1
            if value < bounds[role]:
                if role:
                    yield first, value + (value >= first)
                else:
                    first = value
                role ^= 1


#: ensure() sizes, cycled; irregular so block and pair boundaries fall
#: everywhere.
ENSURE_SIZES = (1, 7, 4_093, 2, 10_007, 1, 333, 30_011)

#: skip() sizes, cycled: inside the buffer, past it, and past a block.
SKIP_SIZES = (3, 40_000, 1, 8_191, 0, 20_011)


class TestPairDrawStreamOracle:
    """The numpy-word stream against a getrandbits reference decoder."""

    @pytest.mark.parametrize("n", [3, 5, 6, 50, 100_001, 2 ** 31 - 1])
    @pytest.mark.parametrize("gauss", [False, True])
    def test_pairs_and_final_state_match(self, n, gauss, seed):
        from repro.sim.batched import _BLOCK_WORDS, _PairDrawStream

        rng = random.Random(seed)
        ref_rng = random.Random(seed)
        if gauss:  # leaves a cached gauss_next on both
            assert rng.gauss() == ref_rng.gauss()
        stream = _PairDrawStream(rng, n)
        blocks_read = [0]
        ref = _reference_pairs(ref_rng, n, _BLOCK_WORDS, blocks_read)
        step = 0
        while blocks_read[0] < 20:
            size = ENSURE_SIZES[step % len(ENSURE_SIZES)]
            step += 1
            stream.ensure(size)
            i = stream.ptr
            got = list(zip(stream.pv[i:i + size].tolist(),
                           stream.rv[i:i + size].tolist()))
            stream.ptr = i + size
            assert got == [next(ref) for _ in range(size)]
        assert rng.getstate() != ref_rng.getstate()  # not copied back yet
        stream.sync()
        assert rng.getstate() == ref_rng.getstate()
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("n", [5, 100_001])
    def test_skipped_pairs_are_owed_not_lost(self, n, seed):
        # Skipped pairs are decoded when the stream is next read, and
        # only as many blocks as reading them would have decoded.
        from repro.sim.batched import _BLOCK_WORDS, _PairDrawStream

        rng = random.Random(seed)
        ref_rng = random.Random(seed)
        stream = _PairDrawStream(rng, n)
        ref = _reference_pairs(ref_rng, n, _BLOCK_WORDS, [0])
        for step, size in enumerate(ENSURE_SIZES * 2):
            if step % 3 == 2:  # sync mid-run; reading on stays exact
                stream.sync()
                assert rng.getstate() == ref_rng.getstate()
            skip = SKIP_SIZES[step % len(SKIP_SIZES)]
            stream.skip(skip)
            for _ in range(skip):
                next(ref)
            stream.ensure(size)
            i = stream.ptr
            got = list(zip(stream.pv[i:i + size].tolist(),
                           stream.rv[i:i + size].tolist()))
            stream.ptr = i + size
            assert got == [next(ref) for _ in range(size)]
        stream.skip(3 * _BLOCK_WORDS)
        for _ in range(3 * _BLOCK_WORDS):
            next(ref)
        stream.sync()
        assert rng.getstate() == ref_rng.getstate()

    def test_skip_to_a_block_end_decodes_no_further(self, seed):
        from repro.sim.batched import _BLOCK_WORDS, _PairDrawStream

        probe = _PairDrawStream(random.Random(seed), 601)
        probe.ensure(1)
        first_block = len(probe.pv)
        rng = random.Random(seed)
        stream = _PairDrawStream(rng, 601)
        stream.skip(first_block)
        stream.sync()
        expected = random.Random(seed)
        expected.getrandbits(32 * _BLOCK_WORDS)
        assert rng.getstate() == expected.getstate()

    @pytest.mark.parametrize("n", [3, 5, 7, 12])
    @pytest.mark.parametrize("block_words", range(1, 8))
    def test_tiny_blocks_through_ambiguous_words(self, n, block_words,
                                                  seed):
        # Blocks of a few words end mid-pair and often hold no pair at
        # all, and at these n a word decoding to n - 1 (accepted as an
        # initiator, rejected as a responder) is frequent.
        from repro.sim.batched import _PairDrawStream

        rng = random.Random(seed)
        ref_rng = random.Random(seed)
        stream = _PairDrawStream(rng, n, block_words)
        ambiguous = [0]
        ref = _reference_pairs(ref_rng, n, block_words, [0], ambiguous)
        for step in range(60):
            skip = step % 4
            stream.skip(skip)
            for _ in range(skip):
                next(ref)
            size = 1 + step % 7
            stream.ensure(size)
            i = stream.ptr
            got = list(zip(stream.pv[i:i + size].tolist(),
                           stream.rv[i:i + size].tolist()))
            stream.ptr = i + size
            assert got == [next(ref) for _ in range(size)]
            if step % 9 == 8:
                stream.sync()
                assert rng.getstate() == ref_rng.getstate()
        assert ambiguous[0] > 0
        assert all(p != r for p, r in got)
        stream.sync()
        assert rng.getstate() == ref_rng.getstate()

    @pytest.mark.parametrize("n", [3, 5, 7, 12])
    @pytest.mark.parametrize("block_words", range(1, 8))
    @pytest.mark.parametrize("backend", ["numpy", "python"])
    def test_kernels_over_tiny_blocks(self, n, block_words, backend, seed):
        # The stepping paths read responder agent indices straight from
        # the stream; swaps between distinct agents expose any index that
        # is off by one.
        from repro.sim.batched import _PairDrawStream

        counts = {0: n // 3, 1: n // 3, 2: n - 2 * (n // 3)}
        ref = simulate_counts(_Swap(), counts, seed=seed)
        fast = batched_simulate_counts(_Swap(), counts, seed=seed,
                                       backend=backend)
        fast._stream = _PairDrawStream(fast._rng, n, block_words)
        for chunk in (1, 2, 5, 40, 333, 1, 2_000):
            ref.run(chunk)
            fast.run(chunk)
            _assert_agent_state_equal(fast, ref)
            assert fast.last_change == ref.last_change


class _Swap(PopulationProtocol):
    """Agents swap states when the initiator's is the smaller.

    Never silent while two states remain, and every swap moves states
    between two specific agents, so a wrong agent index shows at once.
    """

    input_alphabet = frozenset({0, 1, 2})
    output_alphabet = frozenset({0, 1, 2})

    def initial_state(self, symbol):
        return symbol

    def output(self, state):
        return state

    def delta(self, initiator, responder):
        if initiator < responder:
            return responder, initiator
        return initiator, responder


def _count_blocks(monkeypatch):
    """Count every block the pair streams decode."""
    from repro.sim.batched import _PairDrawStream

    blocks = [0]
    decode = _PairDrawStream._decode_block

    def counting(stream):
        blocks[0] += 1
        return decode(stream)

    monkeypatch.setattr(_PairDrawStream, "_decode_block", counting)
    return blocks


#: (engine factory, input counts): the batched agent engine,
#: block-decoded.
HAND_BACK_CASES = {
    "agent": (lambda protocol, counts, seed: batched_simulate_counts(
        protocol, counts, seed=seed), {1: 3_000, 0: 3_001}),
}


class TestRngHandBack:
    """``sim.rng`` is the caller's generator, advanced past every word."""

    @pytest.mark.parametrize("engine", sorted(HAND_BACK_CASES))
    def test_rng_advances_as_if_python_drew_the_words(self, engine, seed,
                                                      monkeypatch):
        from repro.sim.batched import _BLOCK_WORDS

        make, counts = HAND_BACK_CASES[engine]
        blocks = _count_blocks(monkeypatch)
        r = random.Random(seed)
        r.gauss()  # a cached gauss_next must survive the hand-back
        expected = random.Random()
        expected.setstate(r.getstate())
        sim = make(_build("majority", {}), counts, r)
        sim.run(200_000)
        assert blocks[0] > 1
        for _ in range(blocks[0]):
            expected.getrandbits(32 * _BLOCK_WORDS)
        assert sim.rng is r
        assert r.getstate() == expected.getstate()

    @pytest.mark.parametrize("engine", sorted(HAND_BACK_CASES))
    def test_reading_rng_mid_run_changes_nothing(self, engine, seed):
        make, counts = HAND_BACK_CASES[engine]
        protocol = _build("majority", {})
        read = make(protocol, counts, seed)
        unread = make(protocol, counts, seed)
        seen = []
        for chunk in RAGGED_CHUNKS:
            read.run(chunk)
            unread.run(chunk)
            seen.append(read.rng.getstate())
        assert read.interactions == unread.interactions
        assert read.last_change == unread.last_change
        assert read.multiset() == unread.multiset()
        assert read.output_counts() == unread.output_counts()
        assert len(set(seen)) > 1  # the copies really moved
        assert read.rng.getstate() == unread.rng.getstate()

    @pytest.mark.parametrize("counts", [{1: 3_000, 0: 3_001},
                                        {1: 200, 0: 312}],
                             ids=["decoded", "fallback"])
    def test_rng_is_the_given_generator_and_read_only(self, counts, seed):
        protocol = _build("majority", {})
        r = random.Random(seed)
        sim = batched_simulate_counts(protocol, counts, seed=r)
        sim.run(5_000)
        assert sim.rng is r
        with pytest.raises(AttributeError):
            sim.rng = random.Random(seed)
        assert sim.rng is r


class TestAgentConstruction:
    """The state-id array and output histogram built at construction."""

    @pytest.mark.parametrize("faults", [False, True],
                             ids=["fault-free", "crash-at"])
    def test_output_bookkeeping_matches_reference(self, faults, seed):
        protocol = _build("majority", {})
        counts = {1: 120, 0: 181}
        plan = (lambda: FaultPlan(CrashAt(900, 10), seed=3)) if faults \
            else (lambda: None)
        ref = simulate_counts(protocol, counts, seed=seed, faults=plan())
        fast = batched_simulate_counts(protocol, counts, seed=seed,
                                       faults=plan())
        symbols = fast.compiled.output_symbols
        for steps in (0, 5_000):
            ref.run(steps)
            fast.run(steps)
            outputs = list(ref.outputs())
            assert list(fast.outputs()) == outputs
            assert fast.output_counts() == {
                sym: outputs.count(sym) for sym in symbols
                if outputs.count(sym)}
            assert all(type(count) is int
                       for count in fast.output_counts().values())

    def test_unknown_input_symbol_rejected(self):
        protocol = _build("majority", {})
        with pytest.raises(ValueError, match="'bogus'"):
            BatchedSimulation(protocol, [1, 0, "bogus", 1])

    @pytest.mark.parametrize("name, counts", [
        ("majority", {1: 120, 0: 181}),
        ("majority", {0: 7, 1: 0}),
        ("majority", {0: 0, 1: 5}),
        ("epidemic", {1: 1, 0: 4_999}),
        ("count-to-k", {1: 13, 0: 0}),
    ])
    def test_counts_layout_matches_symbol_list(self, name, counts):
        # batched_simulate_counts builds the agent ids from the counts in
        # one np.repeat; an explicit symbol list in the same repr-sorted
        # layout must give the same agents, outputs and histogram.
        protocol = _build(name, {})
        inputs = [symbol for symbol, count
                  in sorted(counts.items(), key=lambda kv: repr(kv[0]))
                  for _ in range(count)]
        fast = batched_simulate_counts(protocol, counts, seed=1)
        listed = BatchedSimulation(protocol, inputs, seed=1)
        assert fast.states == listed.states
        # The scalar paths' list copy holds Python ints, not numpy ones.
        assert all(type(sid) is int for sid in fast._id_list())
        assert fast._sarr.dtype == np.int64
        assert fast._sarr.tolist() == listed._sarr.tolist()
        assert fast.outputs() == listed.outputs()
        assert fast.output_counts() == listed.output_counts()

    def test_counts_errors_are_kept(self):
        protocol = _build("majority", {})
        with pytest.raises(ValueError, match="non-negative"):
            batched_simulate_counts(protocol, {1: 3, 0: -1})
        with pytest.raises(ValueError, match="'bogus'"):
            batched_simulate_counts(protocol, {1: 3, 0: 2, "bogus": 1})
        # A zero count is no agent, so its symbol is never checked.
        sim = batched_simulate_counts(protocol, {1: 3, 0: 2, "bogus": 0})
        assert sim.n == 5
        with pytest.raises(ValueError, match="at least two agents"):
            batched_simulate_counts(protocol, {1: 1, 0: 0})


class _CountingRandom(random.Random):
    """A ``random.Random`` that counts the 32-bit words it draws.

    A subclass, so the reference engine draws through ``randrange``, and
    ``randrange`` through this ``getrandbits``: one word per call for
    the at most 32-bit draws of a uniform pair.
    """

    words = 0

    def getrandbits(self, k):
        self.words += 1
        return super().getrandbits(k)


def _block_aligned(seed, words):
    """The generator of ``seed`` after the fewest whole decode blocks
    holding ``words`` words: where the batched engine's ``rng`` stands
    once the reference engine has drawn ``words`` words."""
    from repro.sim.batched import _BLOCK_WORDS

    rng = random.Random(seed)
    for _ in range(-(-words // _BLOCK_WORDS)):
        rng.getrandbits(32 * _BLOCK_WORDS)
    return rng.getstate()


#: Epidemic populations on each side of the stream gate: 1001 agents
#: block-decode their pairs, 1024 take the randrange fallback.
SILENT_TAIL_CASES = {"decoded": 1_001, "fallback": 1_024}


class TestSilentTail:
    """``run()`` skips the draws of a silent configuration, unseen.

    On the fault-free, unmonitored, block-decoded path a configuration
    that no state change touched for ``n >> _QUIET_SHIFT`` interactions
    (and at least ``_QUIET_MIN``) is probed for silence; a silent one
    takes the rest of the run in O(1) and owes its pairs to the stream.
    Everything observable afterwards — states, clocks, the ``rng``
    position, later trajectories — must be the reference engine's.
    """

    @pytest.mark.parametrize("stream", sorted(SILENT_TAIL_CASES))
    def test_matches_reference_through_silence(self, stream, seed):
        n = SILENT_TAIL_CASES[stream]
        protocol = _build("epidemic", {})
        counts = {1: 1, 0: n - 1}
        ref_rng = _CountingRandom(seed)
        ref = simulate_counts(protocol, counts, seed=ref_rng)
        fast = batched_simulate_counts(protocol, counts, seed=seed)
        assert (fast._stream is None) == (stream == "fallback")

        def assert_equal():
            assert fast.states == ref.states
            assert fast.interactions == ref.interactions
            assert fast.last_change == ref.last_change
            assert fast.last_output_change == ref.last_output_change
            expected = (ref_rng.getstate() if fast._stream is None
                        else _block_aligned(seed, ref_rng.words))
            assert fast.rng.getstate() == expected

        result = run_until_correct_stable(fast, 1, max_steps=10 ** 6)
        assert result == run_until_correct_stable(ref, 1, max_steps=10 ** 6)
        for sim in (fast, ref):
            sim.run(100_000)
        assert_equal()  # reading rng pays the owed pairs
        for sim in (fast, ref):
            sim.run(100_000)
        for _ in range(3):  # so does a step
            assert fast.step() == ref.step()
        for sim in (fast, ref):
            sim.run(1_000)
        # When the perturbed agent is re-infected depends on the exact
        # pair positions, so a drifted stream shows in the clocks.
        for sim in (fast, ref):
            assert sim.set_state(0, protocol.initial_state(0))
            sim.run(20_000)
        assert_equal()
        assert (fast.skipped_interactions > 0) == (stream == "decoded")

    @pytest.mark.parametrize("variant", sorted(PREFIX_VARIANTS))
    def test_faulted_and_monitored_runs_never_skip(self, variant, seed):
        protocol = _build("epidemic", {})
        fast = batched_simulate_counts(protocol, {1: 1, 0: 1_000}, seed=seed,
                                       **PREFIX_VARIANTS[variant]())
        fast.run(300_000)
        # Silent long before the end: only crashed agents miss the news.
        assert fast.state_counts().get(0, 0) <= 10
        assert (fast.skipped_interactions > 0) == (variant == "plain")

    def test_self_reaction_needs_two_agents(self, seed):
        # Leader election reacts only leader with leader: two leaders
        # are not silent, a lone one is.  Two among 4001 agents meet
        # about every 8 * 10**6 interactions, long after the probe.
        protocol = _build("leader-election", {})
        states = ["L", "L"] + ["F"] * 3_999
        ref = Simulation(protocol, states=states, seed=seed)
        fast = BatchedSimulation(protocol, states=states, seed=seed)
        for _ in range(4):
            ref.run(250_000)
            fast.run(250_000)
            _assert_agent_state_equal(fast, ref)
        assert fast.state_counts()["L"] == 2
        assert fast.skipped_interactions == 0
        lone = BatchedSimulation(protocol, states=["L"] + ["F"] * 1_000,
                                 seed=seed)
        lone.run(100_000)
        assert lone.skipped_interactions > 0

    def test_epidemic_settle_phase_skips(self, seed):
        n = 10_000
        protocol = _build("epidemic", {})
        counts = {1: 1, 0: n - 1}
        fast = batched_simulate_counts(protocol, counts, seed=seed)
        result = run_until_correct_stable(fast, 1, max_steps=10 ** 8)
        assert result.stopped
        assert result == run_until_correct_stable(
            simulate_counts(protocol, counts, seed=seed), 1,
            max_steps=10 ** 8)
        # The settle phase runs from the last change to the stop; all but
        # its first quiet stretch and one check interval are skipped.
        settle = fast.interactions - fast.last_change
        quiet = max(n >> _QUIET_SHIFT, _QUIET_MIN)
        assert settle > quiet + n
        assert fast.skipped_interactions >= settle - quiet - n
