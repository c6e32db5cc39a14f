"""Golden virtual-clock pins: full simulator timelines for the tiny zoo.

``test_golden_plans.py`` pins end-to-end mean latencies only.  These
fixtures pin the whole virtual clock — every task, kernel and transfer
record, ``repr``-exact — under both transfer disciplines, plus the
seeded sampled paths (one scalar sampled run, a 64-run batch, a
4-request stream), for every tiny-zoo model on the noiseless and the
noisy 2-device machine and for one plan on a 3-device mesh.  A changed
accumulation order, event order or RNG draw order anywhere in the
simulator fails here.

Plans use a forced alternating placement that starts off the host, so
every plan has host transfers (model inputs in, outputs back) and every
model with more than one subgraph has task-to-task transfers too.  To
regenerate after an *intentional* timing change::

    REPRO_UPDATE_GOLDENS=1 PYTHONPATH=src python -m pytest \
        tests/regressions/test_golden_timelines.py -q

and review the fixture diff.
"""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro.compiler import Compiler
from repro.core import CompilerAwareProfiler, partition_graph
from repro.core.placement import build_hetero_plan
from repro.devices import default_machine
from repro.devices.machine import make_mesh
from repro.models.zoo import MODEL_NAMES, build_model
from repro.runtime import simulate, simulate_batch, simulate_stream
from repro.testing.oracle import alternating_placement

_FIXTURE = Path(__file__).parent / "fixtures" / "golden_timelines.json"

SEED = 11
BATCH_RUNS = 64
STREAM_REQUESTS = 4
STREAM_INTERARRIVAL_S = 2e-4
MESH_MODEL = "mtdnn"

MACHINES = {
    "machine": lambda: default_machine(noisy=False),
    "noisy_machine": lambda: default_machine(noisy=True),
    "mesh2": lambda: make_mesh(num_gpus=2),
}

CASES = [
    (name, m) for name in sorted(MODEL_NAMES) for m in ("machine", "noisy_machine")
]
CASES.append((MESH_MODEL, "mesh2"))


def _plan(name, machine):
    graph = build_model(name, tiny=True)
    partition = partition_graph(graph)
    profiles = CompilerAwareProfiler(
        machine=machine, compiler=Compiler()
    ).profile_partition(partition)
    devices = machine.device_names
    placement = alternating_placement(partition, devices[::-1])
    return build_hetero_plan(graph, partition, profiles, placement, devices=devices)


def _records(result):
    return {
        "latency": repr(result.latency),
        "tasks": [
            [
                t.task_id, t.device, repr(t.start), repr(t.finish),
                [[k.name, repr(k.start), repr(k.finish)] for k in t.kernels],
            ]
            for t in result.tasks
        ],
        "transfers": [
            [x.what, x.dest_device, repr(x.n_bytes), repr(x.start), repr(x.finish)]
            for x in result.transfers
        ],
    }


def _timeline(name, machine_key):
    machine = MACHINES[machine_key]()
    plan = _plan(name, machine)
    sampled = simulate(plan, machine, rng=np.random.default_rng(SEED))
    batch = simulate_batch(plan, machine, np.random.default_rng(SEED), BATCH_RUNS)
    stream = simulate_stream(
        plan, machine, STREAM_REQUESTS, interarrival_s=STREAM_INTERARRIVAL_S,
        rng=np.random.default_rng(SEED),
    )
    return {
        "plan": [[t.task_id, t.device] for t in plan.tasks],
        "lazy": _records(simulate(plan, machine)),
        "sampled_latency": repr(sampled.latency),
        "batch": [repr(float(v)) for v in batch],
        "overlap": _records(simulate(plan, machine, overlap=True)),
        "stream_latencies": [repr(v) for v in stream.latencies],
    }


def _key(name, machine_key):
    return f"{name}/{machine_key}"


@pytest.fixture(scope="module")
def golden():
    if os.environ.get("REPRO_UPDATE_GOLDENS"):
        data = {_key(n, m): _timeline(n, m) for n, m in CASES}
        _FIXTURE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {_FIXTURE.name}")
    assert _FIXTURE.exists(), (
        f"missing golden fixture {_FIXTURE}; regenerate with "
        "REPRO_UPDATE_GOLDENS=1"
    )
    return json.loads(_FIXTURE.read_text())


def test_fixture_covers_every_case(golden):
    assert set(golden) == {_key(n, m) for n, m in CASES}


@pytest.mark.parametrize(
    "name,machine_key", CASES, ids=[_key(n, m) for n, m in CASES]
)
def test_timeline_matches_golden(name, machine_key, golden):
    got = _timeline(name, machine_key)
    want = golden[_key(name, machine_key)]
    for part in want:
        assert got[part] == want[part], (
            f"{_key(name, machine_key)}: {part} drifted from the pinned "
            "virtual clock"
        )
