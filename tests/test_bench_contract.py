"""What the benchmark in ``bench/`` takes from the package still resolves.

The bench suite runs on its own and takes tens of seconds.  These checks keep
its contract inside the quick suite: every attribute its tracer patches, the
constructors its workloads call, and the fields it reads off a run.
"""

import importlib
from pathlib import Path

import pytest

import pipelink.demo
import pipelink.wire
from pipelink.cli import load_run_config, main, run_simulation

from test_cli import write_cluster, write_run_config

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def import_bench(monkeypatch, name):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    return importlib.import_module(name)


def test_tracer_finds_every_attribute_it_patches(monkeypatch):
    layers = import_bench(monkeypatch, "layers")
    tracer = layers.make_tracer()  # looks each patched attribute up
    assert len(tracer.patched_attributes()) > 30


def test_socket_workload_builds_its_pipeline(monkeypatch, tmp_path):
    workloads = import_bench(monkeypatch, "workloads")
    workload = workloads.SocketPipeline(tmp_path)
    workload.setup(workloads.DEFAULT_SEED)
    assert len(workload.trace.requests) == workload.n_requests


def test_socket_workload_operation_emits_every_token(monkeypatch, tmp_path):
    workloads = import_bench(monkeypatch, "workloads")
    workload = workloads.SocketPipeline(tmp_path)
    workload.setup(workloads.DEFAULT_SEED)
    result = workload.op()
    assert result.failed == 0
    assert result.tokens == sum(r.output_len for r in workload.trace.requests)


def test_tracer_patches_the_socket_layers_attributes(monkeypatch):
    layers = import_bench(monkeypatch, "layers")
    patched = set(layers.make_tracer().patched_attributes())
    wire, demo = pipelink.wire, pipelink.demo
    for owner, attr in [
        (wire, "read_frame"), (wire, "encode_frame"), (wire.SocketLinkSender, "send"),
        (demo, "queue"), (demo, "choose_n"), (demo, "admit_and_batch"),
    ]:
        assert (owner, attr) in patched, attr


def test_traced_socket_operation_reaches_the_wire_spans(monkeypatch, tmp_path):
    # The bench's per-layer socket figures come from these spans and counter.
    layers = import_bench(monkeypatch, "layers")
    workloads = import_bench(monkeypatch, "workloads")
    workload = workloads.SocketPipeline(tmp_path)
    workload.setup(workloads.DEFAULT_SEED)
    with layers.make_tracer().installed() as tracer:
        result = workload.op()
    assert result.failed == 0
    spans = tracer.by_name()
    for span in ("wire.send", "wire.encode_frame"):
        assert spans.get(span, (0,))[0] >= 1, span
    assert tracer.counts().get("wire.bytes", 0) > 0


def test_run_simulation_result_has_what_the_bench_reads(tmp_path):
    write_cluster(tmp_path / "cluster.json")
    write_run_config(tmp_path / "run.json")
    result, _ = run_simulation(load_run_config(tmp_path / "run.json"))
    assert result.requests and result.events and result.link_events


@pytest.mark.parametrize(
    "argv",
    [["simulate"], ["sweep", "--sweep-axis", "bandwidth", "--sweep-values", "1e7,1e8"]],
    ids=["simulate", "sweep"],
)
def test_traced_run_reaches_every_output_layer(monkeypatch, tmp_path, capsys, argv):
    layers = import_bench(monkeypatch, "layers")
    write_cluster(tmp_path / "cluster.json")
    write_run_config(tmp_path / "run.json")
    with layers.make_tracer().installed() as tracer:
        rc = main([*argv, "--config", str(tmp_path / "run.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 0, capsys.readouterr().err
    spans, counts = tracer.by_name(), tracer.counts()
    for span in ("cli.write_event_log", "cli.write_link_log",
                 "controller.write_decision_log", "metrics.write_report_json",
                 "metrics.summarize"):
        assert spans.get(span, (0,))[0] >= 1, span
    for writer in ("cli.write_event_log", "cli.write_link_log",
                   "controller.write_decision_log"):
        assert counts.get(f"{writer}.rows", 0) > 0, writer
