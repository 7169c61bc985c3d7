import gc
import hashlib
import json
import math
import os
import signal
import socket
import subprocess
import sys
import time
import tracemalloc
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import pipelink.cli
from pipelink.cli import main

from test_golden import CASES

MB = 1 << 20

# The environment of a ``pipelink.cli`` child process, which finds the package
# where this process does.
CLI_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
    str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")])))


def write_cluster(path, mem_mb=3):
    data = {
        "nodes": [
            {"name": "alpha", "platform": "linux", "gpu_type": "rtx4090",
             "gpu_count": 1, "gpu_mem_bytes": mem_mb * MB,
             "capacity_score": 1.0, "cpu_score": 2.0, "network_score": 1.0},
            {"name": "beta", "platform": "windows", "gpu_type": "rtx4090",
             "gpu_count": 1, "gpu_mem_bytes": mem_mb * MB,
             "capacity_score": 1.0, "cpu_score": 1.0, "network_score": 1.0},
        ],
        "links": [
            {"from": "alpha", "to": "beta", "latency_s": 0.005,
             "bandwidth_bps": 1e8},
            {"from": "beta", "to": "alpha", "latency_s": 0.005,
             "bandwidth_bps": 1e8},
        ],
    }
    path.write_text(json.dumps(data))


def write_run_config(path, cluster="cluster.json", trace=None, **overrides):
    config = {
        "cluster": cluster,
        "model": "tiny-4l",
        "placement": {"gpu_type": "rtx4090", "gpu_count": 1},
        "trace": trace or {"generate": {"rate": 5.0, "duration": 2.0, "seed": 7}},
        "filter": {"max_input": 256, "max_output": 64},
        "profiles": {"synthetic": {"per_layer_token_cost": 1e-6,
                                   "overhead_s": 0.0005}},
        "engine": {"chunk_size": 4096, "scheduling_policy": "decode_priority"},
        "controller": {"max_batched_tokens": 256, "max_batch_size": 16},
    }
    config.update(overrides)
    path.write_text(json.dumps(config))


@pytest.fixture()
def workdir(tmp_path):
    write_cluster(tmp_path / "cluster.json")
    write_run_config(tmp_path / "run.json")
    return tmp_path


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_simulate_writes_outputs(workdir, capsys):
    rc = main(["simulate", "--config", str(workdir / "run.json"),
               "--out", str(workdir / "out")])
    assert rc == 0
    report = json.loads((workdir / "out" / "report.json").read_text())
    assert report["throughput_tok_s"] == report["total_tokens"] / report["span_s"]
    for name in ("events.csv", "transport.csv", "decisions.csv"):
        assert (workdir / "out" / name).exists()
    assert "throughput" in capsys.readouterr().out


def test_simulate_measures_bubbles_of_a_run_past_2_53_ns(workdir):
    # Links of 1e8 s end the run at 1.28e10 s, past 2**53 ns, where a window
    # end that goes through float seconds no longer lands on the run's end.
    cluster = json.loads((workdir / "cluster.json").read_text())
    for link in cluster["links"]:
        link["latency_s"] = 1e8
    (workdir / "cluster.json").write_text(json.dumps(cluster))
    rc = main(["simulate", "--config", str(workdir / "run.json"),
               "--out", str(workdir / "out")])
    assert rc == 0
    report = json.loads((workdir / "out" / "report.json").read_text())
    assert report["span_s"] > 2**53 / 1e9
    bubbles = report["bubble_fraction_per_stage"]
    assert len(bubbles) == 2 and all(0.0 <= b <= 1.0 for b in bubbles)


def test_simulate_same_seed_is_byte_identical(workdir):
    for out in ("o1", "o2"):
        assert main(["simulate", "--config", str(workdir / "run.json"),
                     "--out", str(workdir / out)]) == 0
    for name in ("report.json", "events.csv", "transport.csv", "decisions.csv"):
        assert digest(workdir / "o1" / name) == digest(workdir / "o2" / name), name


def test_simulate_missing_trace_exits_2(workdir, capsys):
    write_run_config(workdir / "bad.json", trace={"path": "nope.csv"})
    rc = main(["simulate", "--config", str(workdir / "bad.json"),
               "--out", str(workdir / "x")])
    assert rc == 2
    assert "trace not found" in capsys.readouterr().err


def test_simulate_missing_config_exits_2(tmp_path):
    assert main(["simulate", "--config", str(tmp_path / "absent.json"),
                 "--out", str(tmp_path)]) == 2


def test_simulate_non_finite_bandwidth_exits_2(workdir, capsys):
    # Finite numbers too, whose link time in ns is not: 1e300 s, or one
    # byte at 1e-300 B/s.
    good = (workdir / "cluster.json").read_text()
    for field, value in [
        ("bandwidth_bps", float("nan")), ("bandwidth_bps", 1e-300), ("latency_s", 1e300)
    ]:
        cluster = json.loads(good)
        cluster["links"][0][field] = value
        (workdir / "cluster.json").write_text(json.dumps(cluster))
        assert main(["simulate", "--config", str(workdir / "run.json"),
                     "--out", str(workdir / "out")]) == 2, (field, value)
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, err
        assert math.isnan(value) or "alpha->beta" in err, err


def test_sweep_bandwidth_three_points(workdir):
    rc = main([
        "sweep", "--config", str(workdir / "run.json"),
        "--sweep-axis", "bandwidth",
        "--sweep-values", "100000000,1000000000,10000000000",
        "--out", str(workdir / "sweep"),
    ])
    assert rc == 0
    rows = (workdir / "sweep" / "combined.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # header + 3 points
    assert rows[0].startswith("axis,value,throughput_tok_s")
    for value in ("100000000", "1000000000", "10000000000"):
        assert (workdir / "sweep" / f"bandwidth={value}" / "report.json").exists()


def test_sweep_holds_no_earlier_point_while_the_next_runs(tmp_path, monkeypatch):
    cluster, config = CASES["heterogeneous"]
    (tmp_path / "cluster.json").write_text(json.dumps(cluster))
    (tmp_path / "run.json").write_text(json.dumps(config))
    run_simulation = pipelink.cli.run_simulation
    held = []  # bytes traced on entering each point's run

    def entered(*args):
        gc.collect()  # a full collection also empties the free lists of tuples
        held.append(tracemalloc.get_traced_memory()[0])
        return run_simulation(*args)

    monkeypatch.setattr(pipelink.cli, "run_simulation", entered)
    tracemalloc.start()
    try:
        rc = main(["sweep", "--config", str(tmp_path / "run.json"), "--sweep-axis", "bandwidth",
                   "--sweep-values", "1.25e7,2.5e7,5e7", "--out", str(tmp_path / "sweep")])
    finally:
        tracemalloc.stop()
    assert rc == 0 and len(held) == 3
    # Each point reads about 0.07 MiB; keeping the point before alive while
    # the next one ran read 0.07, 0.88 and 0.88 MiB.
    assert max(held[1:]) < held[0] + (1 << 18), held


def test_sweep_chunk_size_pair(workdir):
    rc = main([
        "sweep", "--config", str(workdir / "run.json"),
        "--sweep-axis", "chunk_size", "--sweep-values", "inf,262144",
        "--out", str(workdir / "chunks"),
    ])
    assert rc == 0
    rows = (workdir / "chunks" / "combined.csv").read_text().strip().splitlines()
    assert len(rows) == 3


def test_sweep_empty_values_is_usage_error(workdir):
    rc = main(["sweep", "--config", str(workdir / "run.json"),
               "--sweep-axis", "bandwidth", "--sweep-values", " ",
               "--out", str(workdir / "s")])
    assert rc == 2


def write_profiles(path, stages=(0, 1), seconds=0.001):
    """A profile CSV with both phases at two token counts for each of ``stages``."""
    rows = [f"{stage},{phase},{tokens},{seconds * tokens ** 0.5:.9f}"
            for stage in stages for phase in ("prefill", "decode") for tokens in (1, 256)]
    path.write_text("stage_id,phase,batched_tokens,seconds\n" + "\n".join(rows) + "\n")


def test_simulate_with_a_profile_csv_runs_on_its_seconds(workdir):
    spans = []
    for seconds in (0.001, 0.01):
        write_profiles(workdir / "profiles.csv", seconds=seconds)
        write_run_config(workdir / "run.json", profiles={"path": "profiles.csv"})
        out = workdir / f"out-{seconds}"
        assert main(["simulate", "--config", str(workdir / "run.json"), "--out", str(out)]) == 0
        spans.append(json.loads((out / "report.json").read_text())["span_s"])
    assert spans[1] > spans[0]  # ten times the compute seconds: a longer run


def test_simulate_with_a_profile_csv_missing_a_stage_exits_2(workdir, capsys):
    write_profiles(workdir / "profiles.csv", stages=(0,))
    write_run_config(workdir / "run.json", profiles={"path": "profiles.csv"})
    rc = main(["simulate", "--config", str(workdir / "run.json"),
               "--out", str(workdir / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and "error: profile file has no rows for stage 1" in err, err
    assert not (workdir / "out").exists()


def test_sweep_rate_runs_one_generated_trace_per_rate(workdir):
    rc = main(["sweep", "--config", str(workdir / "run.json"), "--sweep-axis", "rate",
               "--sweep-values", "2,8", "--out", str(workdir / "s")])
    assert rc == 0
    rows = (workdir / "s" / "combined.csv").read_text().splitlines()
    assert [row.split(",")[:2] for row in rows[1:]] == [["rate", "2"], ["rate", "8"]]
    tokens = [json.loads((workdir / "s" / f"rate={rate}" / "report.json").read_text())
              ["total_tokens"] for rate in (2, 8)]
    assert tokens[1] > tokens[0]  # four times the arrivals over the same duration


def test_sweep_rate_over_a_trace_file_exits_2(workdir, capsys):
    (workdir / "trace.csv").write_text("arrival_s,input_tokens,output_tokens\n0.1,4,4\n")
    write_run_config(workdir / "run.json", trace={"path": "trace.csv"})
    rc = main(["sweep", "--config", str(workdir / "run.json"), "--sweep-axis", "rate",
               "--sweep-values", "2,8", "--out", str(workdir / "s")])
    err = capsys.readouterr().err
    assert rc == 2 and "error: rate sweep needs a generated trace" in err, err
    assert not (workdir / "s").exists()


def test_plan_json_prints_the_plan_document(workdir, capsys):
    rc = main(["plan", "--cluster", str(workdir / "cluster.json"), "--model", "tiny-4l",
               "--gpu-type", "rtx4090", "--gpu-count", "1", "--json"])
    assert rc == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert json.loads(last) == {
        "head": "alpha",
        "stages": [{"node": "alpha", "layers": [0, 2]}, {"node": "beta", "layers": [2, 4]}],
    }


def test_plan_uniform_split(workdir, capsys):
    write_cluster(workdir / "big.json", mem_mb=3)
    rc = main(["plan", "--cluster", str(workdir / "big.json"),
               "--model", "tiny-4l", "--gpu-type", "rtx4090", "--gpu-count", "1"])
    assert rc == 0
    assert "layer counts: [2, 2]" in capsys.readouterr().out


def test_plan_capacity_weighted(tmp_path, capsys):
    data = json.loads((json.dumps({
        "nodes": [
            {"name": "fast", "gpu_type": "g", "gpu_count": 1,
             "gpu_mem_bytes": 20 * MB, "capacity_score": 2.0, "cpu_score": 2.0,
             "network_score": 1.0},
            {"name": "slow", "gpu_type": "g", "gpu_count": 1,
             "gpu_mem_bytes": 20 * MB, "capacity_score": 1.0, "cpu_score": 1.0,
             "network_score": 1.0},
        ],
        "links": [
            {"from": "fast", "to": "slow", "latency_s": 0.01, "bandwidth_bps": 1e9},
            {"from": "slow", "to": "fast", "latency_s": 0.01, "bandwidth_bps": 1e9},
        ],
    })))
    (tmp_path / "cluster.json").write_text(json.dumps(data))
    model = {"name": "m30", "num_layers": 30, "hidden_dim": 64,
             "dtype_bytes": 2, "bytes_per_layer": MB}
    (tmp_path / "model.json").write_text(json.dumps(model))
    rc = main(["plan", "--cluster", str(tmp_path / "cluster.json"),
               "--model", str(tmp_path / "model.json"),
               "--gpu-type", "g", "--gpu-count", "1"])
    assert rc == 0
    assert "layer counts: [20, 10]" in capsys.readouterr().out


@pytest.mark.parametrize("where, field, value", [
    ("links", "latency_s", 1e300),
    ("links", "bandwidth_bps", 1e-300),
    ("nodes", "capacity_score", 1e308),
], ids=["latency", "bandwidth", "capacity"])
def test_plan_with_numbers_too_large_to_compute_exits_2(workdir, capsys, where, field, value):
    cluster = json.loads((workdir / "cluster.json").read_text())
    for item in cluster[where]:
        item[field] = value
    for node in cluster["nodes"]:
        node["gpu_count"] = 2  # capacity_score * gpu_count is past the float range
    (workdir / "cluster.json").write_text(json.dumps(cluster))
    rc = main(["plan", "--cluster", str(workdir / "cluster.json"), "--model", "tiny-4l",
               "--gpu-type", "rtx4090", "--gpu-count", "4"])  # both nodes, so both links
    err = capsys.readouterr().err
    assert rc == 2 and err.startswith("error: ") and "Traceback" not in err, err


def test_plan_infeasible_nonzero_exit(workdir, capsys):
    rc = main(["plan", "--cluster", str(workdir / "cluster.json"),
               "--model", "llama-7b", "--gpu-type", "rtx4090", "--gpu-count", "1"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_version_is_machine_readable(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("pipelink ")
    parts = out.split()[1].split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def _serve(*args):
    """Start ``pipelink serve`` on a free port; returns (process, base URL)."""
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "pipelink.cli", "serve", "--listen", "127.0.0.1:0",
         *args],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=CLI_ENV,
    )
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        proc.wait()
        proc.stdout.close()
        raise AssertionError(f"serve did not start: {line!r}")
    return proc, f"http://127.0.0.1:{int(line.strip().rsplit(':', 1)[1])}"


def _stop(proc):
    """Interrupt the server, which must exit 0, and close its output pipe."""
    try:
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=10) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def _status(base, method, path, body=None):
    data = None if body is None else json.dumps(body).encode()
    req = urllib.request.Request(base + path, data=data, method=method)
    try:
        with urllib.request.urlopen(req, timeout=5) as resp:
            return resp.status
    except urllib.error.HTTPError as err:
        return err.code


def test_serve_lifecycle(workdir):
    proc, base = _serve("--cluster", str(workdir / "cluster.json"))
    try:
        with urllib.request.urlopen(f"{base}/nodes/alpha", timeout=5) as resp:
            body = json.loads(resp.read())
        assert body["name"] == "alpha"
    finally:
        _stop(proc)


def test_serve_recovers_state_from_its_journal(workdir):
    journal = workdir / "registry.jsonl"
    node = {"name": "gamma", "gpu_type": "rtx4090", "gpu_count": 1,
            "gpu_mem_bytes": 3 * MB}
    proc, base = _serve("--cluster", str(workdir / "cluster.json"),
                        "--journal", str(journal))
    try:
        assert _status(base, "POST", "/nodes", node) == 201
    finally:
        _stop(proc)
    proc, base = _serve("--journal", str(journal))
    try:
        for name in ("alpha", "beta", "gamma"):
            assert _status(base, "GET", f"/nodes/{name}") == 200
        assert _status(base, "POST", "/nodes", node) == 409
    finally:
        _stop(proc)


def test_serve_cluster_with_non_empty_journal_exits_2(workdir):
    journal = workdir / "registry.jsonl"
    journal.write_text(
        '{"links": [], "node": {"gpu_count": 1, "gpu_mem_bytes": 1, '
        '"gpu_type": "g", "name": "a"}, "op": "node_access"}\n'
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pipelink.cli", "serve", "--listen", "127.0.0.1:0",
         "--journal", str(journal), "--cluster", str(workdir / "cluster.json")],
        capture_output=True, text=True, timeout=15, env=CLI_ENV,
    )
    assert proc.returncode == 2
    assert "not empty" in proc.stderr


def test_simulate_node_without_memory_exits_2(workdir, capsys):
    cluster = json.loads((workdir / "cluster.json").read_text())
    cluster["nodes"][0]["gpu_mem_bytes"] = -5
    (workdir / "cluster.json").write_text(json.dumps(cluster))
    assert main(["simulate", "--config", str(workdir / "run.json"),
                 "--out", str(workdir / "out")]) == 2
    assert "gpu_mem_bytes" in capsys.readouterr().err


def test_serve_port_in_use_fails(workdir):
    blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    blocker.bind(("127.0.0.1", 0))
    blocker.listen(1)
    port = blocker.getsockname()[1]
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pipelink.cli", "serve",
             "--listen", f"127.0.0.1:{port}"],
            capture_output=True, text=True, timeout=15, env=CLI_ENV,
        )
        assert proc.returncode != 0
    finally:
        blocker.close()


# -- malformed input exits 2 and names the JSON path ----------------------------


def _set(*keys, value):
    """A change that sets data[keys[0]][keys[1]]... to value (``...`` drops the key)."""
    def change(data):
        *parents, last = keys
        for key in parents:
            data = data[key]
        if value is ...:
            del data[last]
        else:
            data[last] = value
    return change


@pytest.mark.parametrize(
    "file, change, where",
    [
        ("run.json", _set("controller", "max_batch_size", value="abc"),
         "$.controller.max_batch_size: expected an integer"),
        ("run.json", _set("controller", "max_batched_tokens", value=True),
         "$.controller.max_batched_tokens: expected an integer"),
        ("run.json", _set("controller", "mode", value="bogus"), "$.controller.mode:"),
        ("run.json", _set("trace", "generate", "rate", value=...),
         "$.trace.generate: missing key 'rate'"),
        ("run.json", _set("trace", "generate", "output_buckets", value=[[4, 40]]),
         "$.trace.generate.output_buckets[0]: expected a list of 3 items"),
        ("run.json", _set("contoller", value={}), "$: unknown key 'contoller'"),
        ("run.json", _set("engine", "chunk_sz", value=5), "$.engine: unknown key 'chunk_sz'"),
        ("run.json", _set("engine", "seed", value=7), "$.engine: unknown key 'seed'"),
        ("run.json", _set("trace", "generate", "duration", value=float("inf")),
         "$.trace.generate.duration: expected a finite number"),
        ("run.json", _set("trace", "generate", "rate", value=float("nan")),
         "$.trace.generate.rate: expected a finite number"),
        ("run.json", _set("placement", "gpu_count", value=0),
         "$.placement: gpu_count must be >= 1"),
        ("run.json", _set("filter", "max_input", value=256.0), "$.filter.max_input:"),
        ("run.json", _set("model", value={"name": "m", "num_layers": 4}),
         "$.model: missing key 'hidden_dim'"),
        ("cluster.json", _set("nodes", 0, "platform", value="mac"), "$.nodes[0].platform:"),
        ("cluster.json", _set("nodes", 0, "capacity_scor", value=2.0),
         "$.nodes[0]: unknown key 'capacity_scor'"),
        ("cluster.json", _set("nodes", 0, "gpu_count", value=1.9),
         "$.nodes[0].gpu_count: expected an integer"),
        ("cluster.json", _set("nodes", 0, "gpu_mem_bytes", value="4096"),
         "$.nodes[0].gpu_mem_bytes: expected an integer"),
        ("cluster.json", _set("nodes", 0, "name", value=5),
         "$.nodes[0].name: expected a string"),
        ("cluster.json", _set("links", 0, "latency_s", value="0.005"),
         "$.links[0].latency_s: expected a number"),
    ],
    ids=["batch-size-text", "tokens-bool", "mode-bogus", "generate-no-rate",
         "bucket-of-two", "misspelt-controller", "misspelt-chunk-size", "engine-seed",
         "duration-infinity", "rate-nan", "gpu-count-zero", "filter-float",
         "model-incomplete", "platform-mac", "misspelt-capacity", "gpu-count-float",
         "gpu-mem-text", "node-name-int", "latency-text"],
)
def test_malformed_input_exits_2_naming_its_json_path(workdir, capsys, file, change, where):
    data = json.loads((workdir / file).read_text())
    change(data)
    (workdir / file).write_text(json.dumps(data))
    rc = main(["simulate", "--config", str(workdir / "run.json"),
               "--out", str(workdir / "out")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {workdir / file}: ") and where in err, err


@pytest.mark.parametrize(
    "file, text, message",
    [
        ("trace.csv", "arrival_s,input_tokens,output_tokens\n0.1,4,4\nnan,4,4\n",
         "line 3: arrival_s must be finite"),
        ("trace.csv", "arrival_s,input_tokens,output_tokens\ninf,4,4\n",
         "line 2: arrival_s must be finite"),
        ("profiles.csv", "stage_id,phase,batched_tokens,seconds\n"
         "0,prefill,1,0.001\n0,prefill,64,nan\n", "seconds must be finite"),
        ("profiles.csv", "stage_id,phase,batched_tokens,seconds\n"
         "0,decode,1,0.001\n0,decode,64,inf\n", "seconds must be finite"),
    ],
    ids=["trace-nan", "trace-inf", "profile-nan", "profile-inf"],
)
def test_non_finite_csv_numbers_exit_2(workdir, capsys, file, text, message):
    (workdir / file).write_text(text)
    block = "trace" if file == "trace.csv" else "profiles"
    write_run_config(workdir / "run.json", **{block: {"path": file}})
    rc = main(["simulate", "--config", str(workdir / "run.json"),
               "--out", str(workdir / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and message in err and file in err, err


@pytest.mark.parametrize(
    "file, text, message",
    [
        ("trace.csv", b"arrival_s,input_tokens,output_tokens\n0.1,4,4\n\xff,4,4\n", "line 3"),
        ("profiles.csv", b"stage_id,phase,batched_tokens,seconds\n0,prefill,1,\xff\n", "line 2"),
    ],
    ids=["trace", "profile"],
)
def test_csv_that_is_not_utf8_exits_2(workdir, capsys, file, text, message):
    (workdir / file).write_bytes(text)
    block = "trace" if file == "trace.csv" else "profiles"
    write_run_config(workdir / "run.json", **{block: {"path": file}})
    rc = main(["simulate", "--config", str(workdir / "run.json"),
               "--out", str(workdir / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and f"{file}: {message}" in err, err


@pytest.mark.parametrize(
    "rows, message",
    [
        ("0,prefill,1,0.001,junk\n", "line 2: expected 4 fields"),
        ("0,prefill,1,0.001\n0,prefill,1,0.002\n", "line 3: repeats stage 0"),
    ],
    ids=["extra-field", "repeated-row"],
)
def test_profile_csv_with_a_bad_row_exits_2(workdir, capsys, rows, message):
    (workdir / "profiles.csv").write_text("stage_id,phase,batched_tokens,seconds\n" + rows)
    write_run_config(workdir / "run.json", profiles={"path": "profiles.csv"})
    rc = main(["simulate", "--config", str(workdir / "run.json"),
               "--out", str(workdir / "out")])
    err = capsys.readouterr().err
    assert rc == 2 and f"profiles.csv: {message}" in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--listen", "foo"],
        ["serve", "--listen", "127.0.0.1:70000"],
    ],
    ids=["listen-no-port", "listen-port-too-large"],
)
def test_bad_options_are_usage_errors(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("seed", ["x", "1.5"])
def test_bad_seed_in_environment_is_a_usage_error(workdir, monkeypatch, seed):
    monkeypatch.setenv("PIPELINK_SEED", seed)
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--config", str(workdir / "run.json"),
              "--out", str(workdir / "out")])
    assert exc.value.code == 2


def test_seed_from_environment_is_used(workdir, monkeypatch):
    monkeypatch.setenv("PIPELINK_SEED", "3")
    assert main(["simulate", "--config", str(workdir / "run.json"),
                 "--out", str(workdir / "env")]) == 0
    monkeypatch.delenv("PIPELINK_SEED")
    assert main(["simulate", "--config", str(workdir / "run.json"),
                 "--seed", "3", "--out", str(workdir / "flag")]) == 0
    assert digest(workdir / "env" / "report.json") == digest(workdir / "flag" / "report.json")


@pytest.mark.parametrize("count", ["0", "-3"])
def test_plan_gpu_count_below_one_exits_2(workdir, capsys, count):
    rc = main(["plan", "--cluster", str(workdir / "cluster.json"), "--model", "tiny-4l",
               "--gpu-type", "rtx4090", "--gpu-count", count])
    assert rc == 2
    assert "gpu_count must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "axis, values, where",
    [
        ("bandwidth", "1e8,abc", "--sweep-values bandwidth=abc: expected a number"),
        ("latency", "nan", "--sweep-values latency=nan: expected a number"),
        ("chunk_size", "1.5e3", "--sweep-values chunk_size=1.5e3: expected an integer"),
        ("chunk_size", "4096,none", "--sweep-values chunk_size=none: expected an integer"),
        ("n_max", "2.7", "--sweep-values n_max=2.7: expected an integer"),
        ("n_max", "4,0", "n_max must be >= 1"),
        ("bandwidth", "1e8,0",
         "cluster.json at bandwidth=0: $.links[0]: link alpha->beta: bandwidth must be"),
        ("rate", "1e400", "--sweep-values rate=1e400: expected a finite number"),
        ("latency", "[" * 100_000, "expected a number, got '[[["),
        ("bandwidth", "1e6,1e6,2e6", "--sweep-values bandwidth=1e6: repeats bandwidth=1e6"),
    ],
    ids=["bandwidth-text", "latency-nan", "chunk-float", "chunk-none", "n-max-float",
         "n-max-zero", "bandwidth-zero", "rate-infinite", "nested-too-deep",
         "bandwidth-repeated"],
)
def test_bad_sweep_values_exit_2_before_any_point_runs(workdir, capsys, axis, values, where):
    rc = main(["sweep", "--config", str(workdir / "run.json"), "--sweep-axis", axis,
               "--sweep-values", values, "--out", str(workdir / "s")])
    err = capsys.readouterr().err
    assert rc == 2 and where in err, err
    assert not (workdir / "s").exists()


def test_sweep_point_clusters_carry_the_decoded_value(workdir):
    values = ["100000000", "1.25e7", "2e9"]
    assert main(["sweep", "--config", str(workdir / "run.json"), "--sweep-axis", "bandwidth",
                 "--sweep-values", ",".join(values), "--out", str(workdir / "s")]) == 0
    base = json.loads((workdir / "cluster.json").read_text())
    for value in values:
        for link in base["links"]:
            link["bandwidth_bps"] = float(value)
        written = (workdir / "s" / f"bandwidth={value}" / "cluster.json").read_text()
        assert written == json.dumps(base, indent=2, sort_keys=True)
