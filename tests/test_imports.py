"""The import contract of a sweep's cold start.

A sweep loads what its spec's engine runs, and loads it during set-up:
``ExperimentSpec.validate()`` imports the engine modules a batched,
ensemble or fluid spec names, :mod:`repro.exp.runner` imports the rest
of the trial path, and ``run_experiment`` then imports nothing more, so
the workers a fleet forks inherit every module their first task needs.
An agent sweep never loads numpy.  Each case runs in a fresh
interpreter, since any earlier import in this process would hide one.

The package re-exports of ``repro``, ``repro.sim``, ``repro.exp`` and
``repro.analysis`` resolve on first access (PEP 562); they must still
give the defining module's object, and reject unknown names.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent
ROOT = SRC.parent

#: Runs one sweep; prints the modules ``run_experiment`` added after
#: ``validate()``, and whether numpy was loaded before and after it.
_SWEEP_SCRIPT = textwrap.dedent("""
    import json, sys
    import repro
    from repro.exp.runner import run_experiment
    from repro.exp.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict(json.loads(sys.argv[1]))
    spec.validate()
    before = set(sys.modules)
    numpy_before = "numpy" in sys.modules
    result = run_experiment(spec, workers=int(sys.argv[2]))
    assert result.executed == len(result.records) > 0
    print(json.dumps({"added": sorted(set(sys.modules) - before),
                      "numpy_before": numpy_before,
                      "numpy_after": "numpy" in sys.modules}))
""")


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    completed = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                               capture_output=True, text=True, timeout=120)
    assert completed.returncode == 0, completed.stderr
    return completed


def _spec(engine: str, faulted: bool) -> dict:
    spec = {"protocol": "leader-election", "ns": [6, 8], "trials": 3,
            "engine": engine, "stop": {"rule": "silent",
                                       "max_steps": 100_000},
            "seed": 5}
    if faulted:
        spec["faults"] = {"kind": "omission-rate",
                          "intensities": [0.0, 0.05]}
    return spec


def _sweep(engine: str, faulted: bool, workers: int = 1, *flags) -> tuple:
    completed = _python(*flags, "-c", _SWEEP_SCRIPT,
                        json.dumps(_spec(engine, faulted)), str(workers))
    return json.loads(completed.stdout.splitlines()[-1]), completed.stderr


@pytest.mark.parametrize("faulted", [False, True],
                         ids=["fault-free", "omission-rate"])
@pytest.mark.parametrize("engine", ["agent", "batched", "ensemble", "fluid"])
def test_sweep_imports_nothing_after_validation(engine, faulted):
    outcome, _ = _sweep(engine, faulted)
    assert outcome["added"] == []
    # The numpy engines load numpy in set-up, as their first trial would.
    assert outcome["numpy_before"] == (engine != "agent")


@pytest.mark.parametrize("faulted", [False, True],
                         ids=["fault-free", "omission-rate"])
def test_agent_sweep_never_imports_numpy(faulted):
    # -X importtime logs every import of the parent and of the workers
    # it forks, so a numpy import on either side shows up.
    outcome, log = _sweep("agent", faulted, 2, "-X", "importtime")
    assert not outcome["numpy_after"]
    assert "import time:" in log
    assert "numpy" not in log


def test_building_the_cli_parser_skips_the_robustness_harness():
    # Every command builds every subcommand's parser, so an import there
    # is paid by `exp run` too.
    completed = _python("-c", "import sys; from repro.cli import build_parser;"
                        " build_parser();"
                        " print('repro.analysis.robustness' in sys.modules)")
    assert completed.stdout.strip() == "False"


PACKAGES = ["repro", "repro.sim", "repro.exp", "repro.analysis"]


@pytest.mark.parametrize("name", PACKAGES)
def test_reexports_resolve_to_the_defining_modules_objects(name):
    package = importlib.import_module(name)
    names = [n for n in package.__all__ if n != "__version__"]
    assert names == list(package._EXPORTS)
    for export in names:
        module = importlib.import_module(package._EXPORTS[export])
        assert getattr(package, export) is getattr(module, export), export
    assert set(names) <= set(dir(package))


@pytest.mark.parametrize("name", PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")


def test_api_reference_is_current():
    path = ROOT / "tools" / "gen_api_docs.py"
    loader = importlib.util.spec_from_file_location("gen_api_docs", path)
    gen_api_docs = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(gen_api_docs)
    committed = (ROOT / "docs" / "API.md").read_text(encoding="utf-8")
    assert gen_api_docs.render() == committed
