"""Tests of the benchmark itself.

    python3 -m pytest -q bench/test_bench.py

The package is imported from the checkout's ``src`` directory.
"""

import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, seed, trace, cwd=ROOT, bench=BENCH_DIR):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=180,
    )


def test_tracer_restores_every_patched_attribute():
    tracer = layers.make_tracer()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr in tracer.patched_attributes()]
    assert len(originals) > 30
    with pytest.raises(RuntimeError, match="boom"):
        with tracer.installed():
            for owner, attr, original in originals:
                assert vars(owner)[attr] is not original, f"{owner}.{attr} not patched"
            raise RuntimeError("boom")
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner}.{attr} not restored"


def test_tracer_self_time_excludes_children():
    import time
    import types

    def child():
        time.sleep(0.02)

    def parent():
        time.sleep(0.01)
        ns.child()

    ns = types.SimpleNamespace(child=child, parent=parent)
    tracer = Tracer()
    tracer.wrap(ns, "child", "t.child")
    tracer.wrap(ns, "parent", "t.parent")
    with tracer.installed():
        ns.parent()
    spans = tracer.by_name()
    calls, total, self_s = spans["t.parent"]
    assert calls == 1 and total >= 0.03
    assert self_s == pytest.approx(total - spans["t.child"][1])
    assert tracer.spans()[("t.child", "t.parent")][0] == 1


def test_host_speed_samples_on_cpu_time_and_leaves_them_out_of_its_clock():
    assert hostspeed.HostSpeed().scale() > 0  # before the timer has fired
    speed = hostspeed.HostSpeed()
    assert speed.calibrate(30) > 0 and speed.mark() == 30
    speed.start()
    try:
        mark = speed.mark()
        start, clock_start = time.perf_counter(), speed.clock()
        cpu_end = time.process_time() + 0.5
        while time.process_time() < cpu_end:  # busy, so the CPU-time timer fires
            pass
        elapsed, clocked = time.perf_counter() - start, speed.clock() - clock_start
    finally:
        speed.stop()
    taken = speed.mark() - mark
    assert taken >= 5
    assert 0 < elapsed - clocked < elapsed
    after = speed.mark()
    sum(range(10**6))
    assert speed.mark() == after  # stopped
    assert speed.scale(mark) == pytest.approx(
        hostspeed.REFERENCE_S / statistics.median(speed.samples[min(mark, after - hostspeed.WINDOW):]))


@pytest.mark.parametrize("cls", [workloads.SweepChat, workloads.SimLinks])
def test_tracing_does_not_change_simulated_outputs(cls, tmp_path):
    wl = cls(tmp_path)
    wl.setup(2)
    plain = wl.op()
    tracer = layers.make_tracer()
    with tracer.installed():
        traced = wl.op()
    assert plain.failed == 0 and traced.failed == 0
    assert traced.digest == plain.digest
    assert tracer.by_name()["engine.run"][0] == plain.attempted


def test_default_seed_matches_golden_digests(tmp_path):
    op = workloads.SimLinks(tmp_path).warm_up()
    assert op.failed == 0


def test_trace_has_the_same_work_for_every_seed():
    a = workloads.conversation_trace(2, 24, 10.0)
    b = workloads.conversation_trace(3, 24, 10.0)
    assert sorted(r.output_len for r in a.requests) == sorted(r.output_len for r in b.requests)
    assert sorted(r.input_len for r in a.requests) == sorted(r.input_len for r in b.requests)
    assert a.requests[-1].arrival_time == pytest.approx(2.4)
    assert a != b
    assert workloads.conversation_trace(2, 24, 10.0) == a


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_second_seed_passes_its_checks_and_reports_every_metric(workload, trace):
    proc = _run(workload, seed=2, trace=trace)
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("control_plane", seed=2, trace=0, cwd=tmp_path,
                bench=tmp_path / BENCH_DIR.name)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
