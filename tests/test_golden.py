"""Pinned output digests of ``pipelink simulate`` on two small configs.

The digests were taken before the controller memo and the prebuilt profile
tables existed, so they show that a faster simulator is the same simulator.
A change that means to alter the outputs re-pins them and says so: the two
``events.csv`` digests are the earlier files less their CHUNK_SENT rows, which
repeated the ``sent`` rows of ``transport.csv``.
"""

import hashlib
import json

import pytest

from pipelink.cli import main

GIB = 1 << 30


def _node(name, capacity, cpu=1.0):
    return {"name": name, "platform": "linux", "gpu_type": "rtx4090",
            "gpu_count": 1, "gpu_mem_bytes": 4 * GIB, "capacity_score": capacity,
            "cpu_score": cpu, "network_score": 1.0}


def _mesh(names, latency_s, bandwidth_bps):
    return [{"from": a, "to": b, "latency_s": latency_s, "bandwidth_bps": bandwidth_bps}
            for a in names for b in names if a != b]


def _cluster(capacities, latency_s, bandwidth_bps):
    names = [f"n{i}" for i in range(len(capacities))]
    return {
        "nodes": [_node(n, c, cpu=2.0 if n == "n0" else 1.0)
                  for n, c in zip(names, capacities)],
        "links": _mesh(names, latency_s, bandwidth_bps),
    }


def _config(rate, duration, seed, chunk_size, controller):
    return {
        "cluster": "cluster.json",
        # 12 layers of 1.2 GB: a 4 GiB node holds 3, so all four are needed.
        "model": {"name": "golden-12l", "num_layers": 12, "hidden_dim": 1024,
                  "dtype_bytes": 2, "bytes_per_layer": 1_200_000_000},
        "placement": {"gpu_type": "rtx4090", "gpu_count": 1},
        "trace": {"generate": {"rate": rate, "duration": duration, "seed": seed,
                               "output_buckets": [[4, 40, 1.0]]}},
        "profiles": {"synthetic": {"per_layer_token_cost": 2e-6, "overhead_s": 0.002}},
        "engine": {"chunk_size": chunk_size, "scheduling_policy": "decode_priority"},
        "controller": controller,
    }


CASES = {
    # Unequal stages at moderate load, deciding at every iteration boundary.
    "heterogeneous": (
        _cluster((2.0, 1.0, 1.0, 0.5), 0.010, 1.25e7),
        _config(4.0, 6.0, 11, 262144,
                {"max_batched_tokens": 1024, "max_batch_size": 32,
                 "decision_stride": 1}),
    ),
    # Arrivals far above capacity over slow links with small chunks.
    "overloaded": (
        _cluster((1.0, 1.0, 1.0, 1.0), 0.020, 2.5e6),
        _config(60.0, 0.5, 5, 16384,
                {"max_batched_tokens": 512, "max_batch_size": 16,
                 "decision_stride": 4, "mode": "fixed_compute"}),
    ),
}

GOLDEN = {
    "heterogeneous": {
        "report.json": "88c0fdec3f3543c87807ec4e2efdf7b58abba18803b7877576b5b0d855c9dccc",
        "decisions.csv": "c574a431c3f8146d82a19c297ca7ed80329fd27e4b6026e910ce116129687008",
        "events.csv": "cebd34385ab77351bfe5e303f50e047364d10d17e74e2f924b37ec95adc382bb",
        "transport.csv": "8ee66d8bd548147a4a960b84352e449ddd3278af17e408ca6187b8ba15b24271",
    },
    "overloaded": {
        "report.json": "606bfe377f66861ef0643518609ac1a2850ed8df5b357ed52eb13b59cce433c1",
        "decisions.csv": "64950911a9cac5cb40d3b799c2f7b40f2ae44fe1bcb8cb0d4b0618e82cb71a99",
        "events.csv": "ac07869d8ec4d23a235f1f83d9d0385b8c6434a860f3aef9468ca1e4646711d1",
        "transport.csv": "a93f69b48a4869ce2bd2f073f5af3c79fb0399443283f18515cb83357ea51899",
    },
}


def _simulate(case, directory):
    cluster, config = CASES[case]
    (directory / "cluster.json").write_text(json.dumps(cluster))
    (directory / "run.json").write_text(json.dumps(config))
    assert main(["simulate", "--config", str(directory / "run.json"),
                 "--out", str(directory / "out")]) == 0
    return {name: hashlib.sha256((directory / "out" / name).read_bytes()).hexdigest()
            for name in GOLDEN[case]}


@pytest.mark.parametrize("case", sorted(CASES))
def test_simulate_outputs_match_pinned_digests(case, tmp_path, capsys):
    assert _simulate(case, tmp_path) == GOLDEN[case]
