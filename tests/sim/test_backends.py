"""Tests for the step-kernel backend registry and its fallback contract.

The engine-level behavioral contract (bit identity for the batched
agent engine) is inherited by every backend through the ``kernel_backend``
fixture in the fingerprint suites; this module covers what those
suites cannot — the registry API itself, and each fallback path: an
unavailable backend (numba missing), a population shape with no
block-decodable draw stream, and a kernel factory that raises
mid-construction.  Every
fallback must (a) produce results bit-identical to the default numpy
backend and (b) emit exactly one ``RuntimeWarning`` per
(backend, reason) per process; the default backend must never warn.
"""

import warnings

import pytest

from repro.protocols.leader import LeaderElection
from repro.protocols.majority import majority_protocol
from repro.sim import backends
from repro.sim.backends import (
    DEFAULT_BACKEND,
    KernelBackend,
    available_backends,
    backend_names,
    backend_report,
    get_backend,
    register_backend,
    reset_backend_warnings,
    select_kernels,
)
from repro.sim.batched import BatchedSimulation, batched_simulate_counts
from repro.sim.ensemble import EnsembleMultisetSimulation


@pytest.fixture(autouse=True)
def _fresh_warning_state():
    """Each test sees the once-per-process warning dedup empty."""
    reset_backend_warnings()
    yield
    reset_backend_warnings()


def _numba_missing():
    try:
        import numba  # noqa: F401
    except Exception:
        return True
    return False


# -- Registry API --------------------------------------------------------------


class TestRegistry:
    def test_shipped_backends_registered_in_order(self):
        names = backend_names()
        assert names[0] == DEFAULT_BACKEND == "numpy"
        assert set(names) == {"numpy", "numba", "python"}

    def test_numpy_and_python_always_available(self):
        assert "numpy" in available_backends()
        assert "python" in available_backends()

    def test_unknown_backend_raises_naming_known(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("cuda")
        with pytest.raises(ValueError, match="'numpy'"):
            get_backend("cuda")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend(KernelBackend("numpy", lambda: None))

    def test_report_rows(self):
        rows = {row["name"]: row for row in backend_report()}
        assert rows["numpy"]["available"]
        assert rows["numpy"]["default"]
        assert rows["numpy"]["reason"] is None
        assert rows["python"]["available"]
        assert not rows["python"]["default"]
        numba_row = rows["numba"]
        assert numba_row["available"] == (not _numba_missing())
        if _numba_missing():
            assert "numba is not importable" in numba_row["reason"]

    def test_numpy_and_python_build_kernels(self):
        for name in ("numpy", "python"):
            assert get_backend(name).make_kernels().name == name


# -- select_kernels resolution -------------------------------------------------


class TestSelectKernels:
    def test_default_resolves_to_numpy_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for requested in (None, "numpy"):
                name, kernels = select_kernels(requested)
                assert name == "numpy"
                assert kernels.name == "numpy"

    def test_default_never_warns_even_when_undecodable(self):
        # The numpy hybrid handles undecodable shapes itself; requesting
        # the default must not probe, warn, or fall anywhere.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            name, _ = select_kernels(None, decodable=False)
            assert name == "numpy"

    def test_explicit_python_selected(self):
        name, kernels = select_kernels("python")
        assert name == "python"
        assert kernels.name == "python"

    def test_unknown_name_raises_not_warns(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            select_kernels("cuda")

    def test_undecodable_shape_falls_back_with_one_warning(self):
        with pytest.warns(RuntimeWarning,
                          match="no block-decodable draw stream"):
            name, kernels = select_kernels("python", decodable=False)
        assert name == "numpy"
        assert kernels.name == "numpy"

    def test_factory_failure_falls_back_with_one_warning(self, monkeypatch):
        def exploding_factory():
            raise RuntimeError("LLVM went home")

        broken = KernelBackend("python", exploding_factory)
        monkeypatch.setitem(backends._REGISTRY, "python", broken)
        with pytest.warns(RuntimeWarning,
                          match="kernel construction failed: LLVM went home"):
            name, kernels = select_kernels("python")
        assert name == "numpy"
        assert kernels.name == "numpy"

    def test_warning_fires_once_per_backend_and_reason(self):
        with pytest.warns(RuntimeWarning) as caught:
            select_kernels("python", decodable=False)
            select_kernels("python", decodable=False)
        assert len(caught) == 1
        reset_backend_warnings()
        with pytest.warns(RuntimeWarning):
            select_kernels("python", decodable=False)

    @pytest.mark.skipif(not _numba_missing(),
                        reason="numba is installed here")
    def test_missing_numba_falls_back_with_one_warning(self):
        with pytest.warns(RuntimeWarning, match="numba is not importable"):
            name, kernels = select_kernels("numba")
        assert name == "numpy"
        assert kernels.name == "numpy"

    def test_probed_out_backend_falls_back(self, monkeypatch):
        # The numba-missing path, simulated so it also runs on the CI
        # leg where numba *is* installed: a probe that reports the
        # backend ineligible must divert to numpy with one warning.
        gated = KernelBackend("numba", lambda: None,
                              probe=lambda: "numba is not importable (test)")
        monkeypatch.setitem(backends._REGISTRY, "numba", gated)
        with pytest.warns(RuntimeWarning, match="numba is not importable"):
            name, kernels = select_kernels("numba")
        assert name == "numpy"
        assert kernels.name == "numpy"


# -- Engine-level fallback: bit identity plus exactly one warning --------------


def _run_agent(backend, n_warnings_expected, **kwargs):
    protocol = LeaderElection()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sim = BatchedSimulation(protocol, [1] * kwargs.pop("n"),
                                seed=kwargs.pop("seed"), backend=backend)
        sim.run(5_000)
    runtime = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert len(runtime) == n_warnings_expected
    return sim


class TestEngineFallback:
    def test_undecodable_population_matches_numpy(self):
        # n = 512: bit_length(512) != bit_length(511), so there is no
        # block-decodable draw stream and explicit non-default backends
        # must fall back — bit-identically, with exactly one warning.
        ref = _run_agent(None, 0, n=512, seed=99)
        assert ref.backend == "numpy"
        reset_backend_warnings()
        fell = _run_agent("python", 1, n=512, seed=99)
        assert fell.backend == "numpy"
        assert fell.states == ref.states
        assert fell.interactions == ref.interactions
        assert fell.last_change == ref.last_change

    @pytest.mark.skipif(not _numba_missing(),
                        reason="numba is installed here")
    def test_missing_numba_engine_matches_numpy(self):
        ref = _run_agent(None, 0, n=300, seed=42)
        reset_backend_warnings()
        fell = _run_agent("numba", 1, n=300, seed=42)
        assert fell.backend == "numpy"
        assert fell.states == ref.states
        assert fell.last_output_change == ref.last_output_change

    def test_jit_failure_mid_construction_matches_numpy(self, monkeypatch):
        def exploding_factory():
            raise RuntimeError("typing error in nopython frontend")

        ref = batched_simulate_counts(majority_protocol(), {1: 40, 0: 61},
                                      seed=7)
        ref.run(5_000)
        monkeypatch.setitem(
            backends._REGISTRY, "python",
            KernelBackend("python", exploding_factory))
        with pytest.warns(RuntimeWarning,
                          match="kernel construction failed"):
            fell = batched_simulate_counts(majority_protocol(),
                                           {1: 40, 0: 61}, seed=7,
                                           backend="python")
        fell.run(5_000)
        assert fell.backend == "numpy"
        assert fell.states == ref.states
        assert fell.last_change == ref.last_change

    def test_default_engines_never_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            BatchedSimulation(LeaderElection(), [1] * 512, seed=3).run(200)
            batched_simulate_counts(majority_protocol(), {1: 9, 0: 4},
                                    seed=3).run(200)
            EnsembleMultisetSimulation(LeaderElection(), {1: 16},
                                       trials=4, seed=3).run(200)


# -- Cross-backend identity spot checks ----------------------------------------


class TestCrossBackendIdentity:
    def test_batched_python_bit_identical_mid_run_interleave(self):
        # Alternate step() and run() so chunk boundaries differ from the
        # fingerprint suite's fixed schedule.
        ref = batched_simulate_counts(majority_protocol(), {1: 60, 0: 41},
                                      seed=11)
        alt = batched_simulate_counts(majority_protocol(), {1: 60, 0: 41},
                                      seed=11, backend="python")
        assert alt.backend == "python"
        for chunk in (1, 3, 500, 1, 10_000, 7):
            ref.run(chunk)
            alt.run(chunk)
            assert ref.states == alt.states
            assert ref.interactions == alt.interactions
            assert ref.last_change == alt.last_change
            assert ref.last_output_change == alt.last_output_change
