"""Pinned output digests of ``pipelink simulate`` on two small configs.

The digests were taken before the controller memo and the prebuilt profile
tables existed, so they show that a faster simulator is the same simulator.
A change that means to alter the outputs re-pins them and says so: the two
``events.csv`` digests are the earlier files less their CHUNK_SENT rows, which
repeated the ``sent`` rows of ``transport.csv``.

The later cases pin the engine's tie-order edge paths, taken before iteration
boundaries left the event heap: a single stage, zero-latency links, FCFS
unchunked links, a decision stride over small chunks, and a run cut short by a
horizon, which only the engine API offers.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pipelink.cli import main
from pipelink.engine import PipelineEngine
from pipelink.outputs import LogSink, write_decision_log, write_event_log, write_link_log
from pipelink.workload import generate_trace

from simsetup import engine_config, uniform_pipeline

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
    # One node holds the whole model: feedback surfaces at compute completion.
    "single_stage": (
        {"nodes": [dict(_node("n0", 1.0), gpu_mem_bytes=16 * GIB)], "links": []},
        _config(20.0, 1.0, 3, 262144,
                {"max_batched_tokens": 256, "max_batch_size": 8}),
    ),
    # Zero-latency links: a chunk lands at the ns its transmission ends.
    "zero_latency": (
        _cluster((1.0, 1.0, 1.0, 1.0), 0.0, 2.5e6),
        _config(30.0, 0.5, 7, 16384,
                {"max_batched_tokens": 512, "max_batch_size": 16}),
    ),
    # First come, first served over unchunked links.
    "fcfs_unchunked": (
        _cluster((1.0, 2.0, 1.0, 1.0), 0.005, 5e6),
        {**_config(20.0, 0.5, 9, None,
                   {"max_batched_tokens": 512, "max_batch_size": 16}),
         "engine": {"chunk_size": None, "scheduling_policy": "fcfs"}},
    ),
    # The controller decides every third boundary; 4 KiB chunks.
    "stride_small_chunk": (
        _cluster((1.0, 1.0, 0.5, 1.0), 0.002, 1e7),
        _config(20.0, 0.5, 13, 4096,
                {"max_batched_tokens": 512, "max_batch_size": 16,
                 "decision_stride": 3}),
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
    "single_stage": {
        "report.json": "9569a10036b45bef871bd7a0f9b73bd32aa4abd26b35bd52bb09f42d31ab6d2c",
        "decisions.csv": "e384aa4937e1d275ca4df1fcdfab45fc5621157c120d9cadab6681b9e6ceae09",
        "events.csv": "ce636058c76b105ee31d54dff18be0c1a3955f6c51a54fe94b0941b7b2fca251",
        "transport.csv": "df9839f36d93f236b618fdfc6426c7616abcb335d65e5402c28bad324e414ca1",
    },
    "zero_latency": {
        "report.json": "e460eccad39676714d3e8d8dbb90c827aef39ca60f12d8bb3dd4db3a061e3ef4",
        "decisions.csv": "f745533427909c2648e522d7818f4dcdf6f1aa8502847ac7ef16603b988c86fc",
        "events.csv": "05b90a0993591616bc59f709ba62978785ad8391f04a4413f2f1706215cb9ef4",
        "transport.csv": "9bce4f3c1be78a09556f7850178c59a533a0d428ca145e137387e6719ae917ef",
    },
    "fcfs_unchunked": {
        "report.json": "c59fca7bbde9ccd8675be049b5bba997cf63bf77730044569ff45cc4525e79ac",
        "decisions.csv": "539231a3d3983e72ecc10112f6366424fc09b15c9249e174aac8454c97f3c7a3",
        "events.csv": "03dbf83709839e5855f268c7c9d6d3d0ec2b4b529340b169af70dd9780ba89f4",
        "transport.csv": "6f4833ab35188b95cee14098eeb626ffa7d423f69a6abade23f98ccd7f9e9bf0",
    },
    "stride_small_chunk": {
        "report.json": "a3e0c8cf8178cf178b838d33a7f69836039686a0b0cd8373c51ef863d251f022",
        "decisions.csv": "984d58ae2183394efbc078b215462ff29a15e49869a1f81bca14e22a21a19aae",
        "events.csv": "fb67067a25cc2f77f77ed0646ffcb82185f37ddf74dd2bb52c9b999e085652da",
        "transport.csv": "3563ed6517dbb6f2065035ea1ced7cce8d3a208a959a1710a0af1041ee9b35b5",
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


def test_simulate_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    cluster, config = CASES["overloaded"]
    (tmp_path / "cluster.json").write_text(json.dumps(cluster))
    (tmp_path / "run.json").write_text(json.dumps(config))
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = []
    for seed in ("0", "1"):
        out = tmp_path / f"out{seed}"
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        subprocess.run([sys.executable, "-m", "pipelink.cli", "simulate",
                        "--config", str(tmp_path / "run.json"), "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=60)
        digests.append({name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                        for name in GOLDEN["overloaded"]})
    assert digests == [GOLDEN["overloaded"]] * 2


# Three stages cut off by a horizon while requests are mid-flight, through
# ``PipelineEngine.run`` (the CLI has no horizon).  The logs go through a
# ``LogSink`` and the same writers as the CLI's.
HORIZON_GOLDEN = {
    "events.csv": "4e5f399a75a46e7ae1cad04fb50793f5c60d3efd63d8efddc9618f4d280b8c36",
    "transport.csv": "80c35235f4097ef6deebe32519bbefeb07f9521e2778e169d8fb643f1f0bc18f",
    "decisions.csv": "804adda6054794f5cd38089ce90c94d5e500a19aad507607063f6983c109f44f",
    "state.json": "f733e8fe092514460648bd6b08789cb19b880e9f2f29236280aac3cd80d2618f",
}


def test_horizon_run_matches_pinned_digests(tmp_path):
    cluster, model, plan, profiles = uniform_pipeline(
        3, 0.004, 0.003, bandwidth=2e6, hidden_dim=256, dtype_bytes=2)
    cfg = engine_config(plan, model, 512, 16, chunk_size=4096)
    result = PipelineEngine(cfg, cluster, profiles).run(
        generate_trace(40.0, 1.0, seed=5), horizon_s=0.6, sink=LogSink())
    assert not result.all_finished
    write_event_log(result.events, tmp_path / "events.csv")
    write_link_log(result.link_events, tmp_path / "transport.csv")
    write_decision_log(result.decisions, tmp_path / "decisions.csv")
    (tmp_path / "state.json").write_text(json.dumps({
        "end_ns": result.end_ns,
        "stage_busy_ns": result.stage_busy_ns,
        "tokens": sorted(result.tokens_by_request().items()),
    }))
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in HORIZON_GOLDEN} == HORIZON_GOLDEN
