"""Benchmark entry point for ``pipelink``.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Every run starts fresh child processes of this script:
``--role setup`` children only build the workload's inputs, so that set-up
time is measured from interpreter start, and one ``--role measure`` child
builds them again, warms up, repeats the workload's operation for
``--seconds`` and checks every result.  Untraced times are scaled to the
reference host speed sampled while they were measured (``hostspeed.py``).
The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a traced
run with ``--trace 1``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
WORKLOAD_NAMES = ("sweep_chat", "sim_links", "socket_pipeline", "control_plane")
SETUP_SAMPLES = 8  # set-up children per untraced run; the median is reported
RUN_LIMIT_S = 175.0  # the whole command, children included


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child process -------------------------------------------------------------


def _median_rate(ops) -> float:
    return statistics.median(op.work / op.wall_s for op in ops)


def child(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import resource

    import hostspeed
    import layers
    import workloads

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    speed = hostspeed.HostSpeed()
    wl = workloads.WORKLOADS[args.workload](work_dir, clock=speed.clock)
    try:
        if args.trace:
            tracer = layers.make_tracer()
            setup_tracer = layers.make_tracer()
            with setup_tracer.installed():
                wl.setup(args.seed)
        else:
            wl.setup(args.seed)
        setup_s = time.monotonic() - args.t0
        if not args.trace:
            setup_s *= speed.calibrate()
        if args.role == "setup":
            print(json.dumps({"setup_s": setup_s}))
            return 0

        done = []  # every checked operation, warm-up and final checks included
        timed, traced = [], []

        def run(op_fn, into=None):
            mark = speed.mark()
            try:
                op = op_fn()
            except Exception as exc:  # a crash fails the operation, the run goes on
                print(f"{args.workload}: operation raised {exc!r}", file=sys.stderr)
                op = workloads.OpResult(1.0, 0.0, 0, [], 1, 1)
            done.append(op)
            if into is not None:
                into.append(op)
            if into is timed:
                raw_walls.append(op.wall_s)
                if not args.trace:
                    scale = speed.scale(mark)
                    op.wall_s *= scale
                    op.latencies_ms = [ms * scale for ms in op.latencies_ms]
            return op

        raw_walls = []
        run(wl.warm_up)
        if not args.trace:
            speed.start()
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            plain = run(wl.op, timed)
            if args.trace:
                with tracer.installed():
                    op = run(wl.op, traced)
                if op.digest != plain.digest:
                    print(f"{args.workload}: traced outputs differ from untraced",
                          file=sys.stderr)
                    op.failed = op.attempted
        print(f"{args.workload}: operation wall times (s): "
              + " ".join(f"{t:.4f}" for t in raw_walls), file=sys.stderr)
        if not args.trace:
            speed.stop()
            print(f"{args.workload}: operation times at reference speed (s): "
                  + " ".join(f"{op.wall_s:.4f}" for op in timed), file=sys.stderr)
        run(wl.finish)

        if args.trace:
            print(tracer.format_spans(), file=sys.stderr)
            extras = {
                "journal_bytes_per_op": wl.journal_bytes_per_op(),
                "overhead_ratio": sum(op.wall_s for op in traced)
                / sum(op.wall_s for op in timed) - 1.0,
            }
            metrics = layers.layer_metrics(tracer, setup_tracer, traced, extras)
        else:
            latencies = [ms for op in timed for ms in op.latencies_ms]
            rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                          resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
            metrics = {
                "peak_rss_mib": (rss_kib / 1024.0, "MiB"),
                "work_per_s": (_median_rate(timed), "1/s"),
                "op_p50_ms": (layers.percentile(latencies, 50), "ms"),
            }
        attempted = sum(op.attempted for op in done)
        failed = sum(op.failed for op in done)
        print(json.dumps({
            "setup_s": setup_s,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }))
        return 0
    finally:
        wl.close()
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


# -- parent process ------------------------------------------------------------


def _spawn(args: argparse.Namespace, role: str, deadline: float) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)],
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(1.0, deadline - t0),
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pipelink" / "__init__.py").is_file():
        print(f"error: no pipelink source tree at {SRC}", file=sys.stderr)
        return 2
    if args.role is not None:
        return child(args)
    if args.seconds <= 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    samples = 0 if args.trace else SETUP_SAMPLES // 2
    try:
        # Set-up samples before and after the measuring child, so that one
        # burst of load on the machine does not decide their median.
        setups = [_spawn(args, "setup", deadline)["setup_s"] for _ in range(samples)]
        result = _spawn(args, "measure", deadline)
        setups += [_spawn(args, "setup", deadline)["setup_s"] for _ in range(samples)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        setups.append(result["setup_s"])
        setup_s = statistics.median(setups)
        print(f"{args.workload}: set-up samples (s): "
              + " ".join(f"{t:.4f}" for t in setups), file=sys.stderr)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
