"""Compiled-kernel benchmarks: reference engines vs. their fast paths.

One benchmark per (workload, engine) cell of the ``repro bench`` smoke
grid, so the pytest-benchmark report shows each reference engine and
its fast path side by side:

* ``agent`` vs ``batched-agent`` — agent-array stepping, and its
  bit-identical compiled twin;
* ``skipping-rebuild`` vs ``skipping-incremental`` — reactive-table
  maintenance in the no-op-skipping engine;
* ``multiset`` vs ``ensemble-multiset`` — scalar trials vs the many-trial
  Monte-Carlo fleet (the ensemble row reports trials x trial_steps
  interactions, so throughputs stay per-interaction).

Timing includes engine construction (and protocol compilation for the
compiled engines), matching what a cold caller pays; the committed
full-size numbers live in ``BENCH_engines.json`` at the repo root.
"""

import pytest
from conftest import json_row

from repro.exp.bench import SMOKE_GRID, _build_protocol, _input_counts, \
    _time_engine, _unit

CASES = [(workload, engine)
         for workload in SMOKE_GRID
         for engine in workload["engines"]]


@pytest.mark.parametrize(
    "workload,engine", CASES,
    ids=[f"{w['protocol']}-n{w['n']}-{e}" for w, e in CASES])
def test_kernel_throughput(benchmark, base_seed, workload, engine):
    protocol = _build_protocol(workload["protocol"])
    counts = _input_counts(workload["protocol"], workload["n"])
    steps = workload["steps"]
    if engine == "ensemble-multiset":
        steps = workload["trials"] * workload["trial_steps"]

    seconds, construct_s, backend = benchmark.pedantic(
        lambda: _time_engine(engine, protocol, counts, workload["steps"],
                             base_seed, trials=workload.get("trials"),
                             trial_steps=workload.get("trial_steps")),
        rounds=1, iterations=1)
    json_row(benchmark,
             protocol=workload["protocol"], n=workload["n"], engine=engine,
             backend=backend, steps=steps, unit=_unit(engine),
             seconds=round(seconds, 6), construct_s=round(construct_s, 6),
             ips=round(steps / seconds, 1))
    assert seconds > 0
