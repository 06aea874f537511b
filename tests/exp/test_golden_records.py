"""Golden record digests: the trial pipeline's byte-level contract.

Each case runs one small sweep in-process with a store attached and
pins two sha256 digests: one over the canonically sorted records of
:func:`~repro.exp.runner.run_experiment` (serialized with sorted keys),
one over the raw store file, append order included.  Any drift in
seeds, stop-rule dispatch, fault mapping, record fields or the
reproduction context fails here.

Regenerate (only for a deliberate format change) with::

    PYTHONPATH=src python -m tests.exp.test_golden_records
"""

import hashlib
import json

import pytest

from repro.exp.runner import run_experiment
from repro.exp.spec import ExperimentSpec, FaultAxis, InputGrid, StopRule
from repro.exp.store import ResultStore


def _spec(**overrides) -> ExperimentSpec:
    base = dict(protocol="majority", ns=(10, 14), trials=2,
                inputs=InputGrid(kind="ones", ones=6),
                stop=StopRule(patience=600, max_steps=30_000), seed=3)
    base.update(overrides)
    return ExperimentSpec(**base)


def _ensemble(kind: str, intensities: tuple, **axis) -> ExperimentSpec:
    return _spec(protocol="leader-election", ns=(12, 20), trials=3,
                 inputs=InputGrid(),
                 stop=StopRule(rule="silent", max_steps=40_000),
                 faults=FaultAxis(kind, intensities, **axis),
                 engine="ensemble")


CASES = {
    "agent": _spec(),
    "agent-correct-stable": _spec(
        protocol="epidemic", inputs=InputGrid(kind="ones", ones=1),
        stop=StopRule(rule="correct-stable", max_steps=20_000)),
    "batched-numpy": _spec(engine="batched",
                           faults=FaultAxis("omission-rate", (0.0, 0.2))),
    "batched-python": _spec(engine="batched", backend="python"),
    "ensemble": _spec(engine="ensemble", trials=4),
    "ensemble-crash-rate": _ensemble("crash-rate", (0.0, 0.002)),
    "ensemble-corruption-rate": _spec(
        engine="ensemble", trials=3,
        faults=FaultAxis("corruption-rate", (0.01,))),
    "ensemble-omission-rate": _ensemble("omission-rate", (0.3,)),
    "ensemble-crash-at": _ensemble("crash-at", (0.0, 2.0), at_step=10),
    "fluid-rate-fault": _spec(
        protocol="epidemic", inputs=InputGrid(kind="ones", ones=1),
        ns=(50, 1000), engine="fluid",
        stop=StopRule(rule="correct-stable", max_steps=200_000),
        faults=FaultAxis("omission-rate", (0.0, 0.25))),
    # A never-healing partition starves the cross-block leader pair, so
    # the fairness budget trips inside the stopping-rule run.
    "agent-monitor-main-run": _spec(
        protocol="leader-election", ns=(10,), trials=1,
        inputs=InputGrid(), scheduler="partition:heal=1000000000",
        monitors=("fairness:budget=400",),
        stop=StopRule(patience=5_000, max_steps=200_000)),
    # The flicker monitor is armed only after the stop verdict, so its
    # violation comes from the confirm phase.
    "agent-monitor-confirm": _spec(
        ns=(10,), trials=2, seed=0,
        faults=FaultAxis("corruption-rate", (0.005,)),
        monitors=("conservation", "containment", "flicker"), confirm=4_000),
    "ensemble-monitor": _spec(
        protocol="epidemic", inputs=InputGrid(kind="ones", ones=1),
        engine="ensemble", monitors=("conservation", "containment")),
    "scheduler-axis": _spec(protocol="epidemic",
                            inputs=InputGrid(kind="ones", ones=1),
                            schedulers=("uniform", "partition:heal=200")),
}

GOLDEN = {
    "agent": (
        "87b54bd50afce1eb3a25a064245db1b9f85b24047825c31cc1067e6fbea74a98",
        "d543e57bfba0ee4f126d102f2812f6b01946613ed490f9a9259902e903ad11e5"),
    "agent-correct-stable": (
        "44298327dad5729cf0af43238620db49244b55fab893c13adb9938375c5fab25",
        "46413b753d3861baaa2260256873cb19e6a5f5056fd4a414707d84cc94de059a"),
    "agent-monitor-confirm": (
        "ceb4a1dc1c8225bb3944394c591334ce1c1c625ca2c954bbc0bf7be47ffa62d9",
        "d8417d74c43c3de0057b618976553d3857e40b16890722d63e27f3b7fe1c0bc1"),
    "agent-monitor-main-run": (
        "b19fc330a1fd53abeffef96f71318505727daad5d23c9ddbccea190bf5ed0e44",
        "5e49b4631455e0cf849e302700eafe6fd5d722b15e71a528d4579063682e63b2"),
    "batched-numpy": (
        "7c6ec9f7260d5b59a5be9f5be53800b7915daa489b49752879e3cc52385a9b85",
        "41c6e54f22474e6773a9434b7d48643ffec00c5d819c33608b73980c32c323c8"),
    "batched-python": (
        "096e776815799c8d1cc2f6aa192d0508cccdb32e5d394fa587540afa5e8bf0d4",
        "871986914ae381eeb2571210d2ed3969e1270b2c73578ed2a9ac802de9dee162"),
    "ensemble": (
        "30de9e6d103fea1d71be880f5fb1fca423f1cc86f45e88631858de59da04e87b",
        "185c148720f1c0998b363298af2252cdb5eb96a72c4690490b85668659ef0ddc"),
    "ensemble-corruption-rate": (
        "52c7a4395b37a096472f8d55ad665011c8ebd6dae068c0e7e8c9ad71290216e1",
        "5585ea1ef5733268c7e10ecac549b52ea8e9088af359ab793701bf42a6b0b468"),
    "ensemble-crash-at": (
        "40962541c6814372611235898159d885e245338957f012ab3cb2ca60a35d844e",
        "fcccc14a7e7307fce08e3ffb1aa99cb562647f05d36603d1b9653b3d09d98fce"),
    "ensemble-crash-rate": (
        "00f457a5909cc65010c70f5c891cfe45daad5a37f23830990b463c6e04dd911e",
        "0098f55b24c3e96f4e0fb76f77aed1dc0c2d4da71e70125170f461a72e62a82a"),
    "ensemble-monitor": (
        "8f34dd07eea259d3f3b85537a48ce01962bf62e17af238a08aa4d80c447d6524",
        "7eb0affc289ec6e7610e68845606997d5a915b1eb33817fa0cb53ac820a352c8"),
    "ensemble-omission-rate": (
        "86e3bcbf3ba2c8bf03d34012123b4fdd27f5374fafbe505a99523f87b27dd883",
        "ea6ee46223c1f0ee3b66f1e423b08514fa91fbb71e8b50e0a7de3e263fc851d4"),
    "fluid-rate-fault": (
        "62630d1167b3b90ee465bea0972eebe177f7a805b1c75a9a49427d28dd19f9ed",
        "b6e49921712a7f16352ed9f1d317ffef3fa8d7bf531d59ab6f8f521c06f24918"),
    "scheduler-axis": (
        "ec336d5a595086038b3b1b6a822b6fa4a46559c86e1f27f2d44cce9a02624e0c",
        "d6ebd02a26ef2ed64bc66ef75708f6108293f253704502cc81ae1b431c9931f0"),
}


def _narrow_containment(monkeypatch) -> None:
    """Make every containment monitor allow epidemic's state 0 only.

    Registry protocols never leave their declared state space, so the
    ensemble monitor case narrows the allowed set instead: the input
    agent's state 1 then trips containment at the first check.
    """
    from repro.sim import monitors

    build = monitors.build_monitors

    def narrowed(specs):
        return [monitors.StateContainmentMonitor(allowed={0})
                if monitor.name == "containment" else monitor
                for monitor in build(specs)]

    monkeypatch.setattr(monitors, "build_monitors", narrowed)


def digests(name: str, directory) -> tuple:
    """``(records digest, store-file digest)`` of one golden case."""
    path = directory / f"{name}.jsonl"
    result = run_experiment(CASES[name], store=ResultStore(path))
    text = json.dumps(result.records, sort_keys=True, separators=(",", ":"))
    return (hashlib.sha256(text.encode("utf-8")).hexdigest(),
            hashlib.sha256(path.read_bytes()).hexdigest())


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_match_golden_digests(name, tmp_path, monkeypatch):
    if name == "ensemble-monitor":
        _narrow_containment(monkeypatch)
    assert digests(name, tmp_path) == GOLDEN[name]


def test_violation_cases_really_violate(monkeypatch):
    """The monitor cases must keep exercising their violation arms."""
    main = run_experiment(CASES["agent-monitor-main-run"]).records
    assert any(r["violation"] and not r["stopped"] for r in main)
    confirm = run_experiment(CASES["agent-monitor-confirm"]).records
    assert any(r["violation"] and r["stopped"] for r in confirm)
    _narrow_containment(monkeypatch)
    ensemble = run_experiment(CASES["ensemble-monitor"]).records
    assert all(r["violation"] for r in ensemble)


if __name__ == "__main__":
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            with pytest.MonkeyPatch.context() as patch:
                if case == "ensemble-monitor":
                    _narrow_containment(patch)
                print(f"    {case!r}: {digests(case, pathlib.Path(tmp))!r},")
