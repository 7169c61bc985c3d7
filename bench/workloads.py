"""The benchmark's workloads: inputs made from a seed, one timed operation, checks.

Each workload builds its inputs once in ``setup`` and then repeats the same
operation on them, so every operation of a run must give identical outputs.
``warm_up`` runs one untimed operation first: for the simulation workloads it
runs the operation on the inputs of ``DEFAULT_SEED`` and compares the outputs
with the digests pinned in ``golden.json``, so every run checks the program's
results byte for byte whatever its seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import io
import json
import random
import socket
import struct
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import pipelink.cli
import pipelink.demo
import pipelink.workload
from pipelink.control_api import ClusterRegistry, make_server
from pipelink.controller import ControllerConfig
from pipelink.engine import EngineConfig, PipelineEngine
from pipelink.errors import RegistryError
from pipelink.placement import ClusterSpec, ModelSpec, NodeDescriptor, PartitionPlan, Platform
from pipelink.profiles import LinkProfile, flat_profile
from pipelink.workload import HISTOGRAM_PRESETS, Request, RequestState, Trace, save_trace

DEFAULT_SEED = 1
GOLDEN_PATH = Path(__file__).with_name("golden.json")
# Output digests compared with golden.json; the two logs are only reported,
# so that a deliberate log-format change stays possible.
PINNED = ("report.json", "decisions.csv", "requests")
DIAGNOSTIC = ("events.csv", "transport.csv")

_LINGER_RESET = struct.pack("ii", 1, 0)
GIB = 1 << 30
MIB = 1 << 20


@dataclass
class OpResult:
    """One operation: its wall time, the work it did and what its checks found."""

    wall_s: float
    work: float  # tokens, or HTTP requests on the control plane
    tokens: int
    latencies_ms: list[float]
    attempted: int
    failed: int
    digest: dict = field(default_factory=dict)
    route_ms: dict = field(default_factory=dict)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _quantile_lengths(hist, n: int) -> list[int]:
    """n lengths at the midpoints of n equal slices of the histogram's mass."""
    total = sum(w for _, _, w in hist.buckets)
    lengths = []
    for i in range(n):
        u = (i + 0.5) / n * total
        acc = 0.0
        for lo, hi, w in hist.buckets:
            if w > 0 and u <= acc + w:
                lengths.append(min(hi, lo + int((u - acc) / w * (hi - lo + 1))))
                break
            acc += w
    return lengths


def conversation_trace(seed: int, n: int, rate: float) -> Trace:
    """n synthetic-conversation requests whose total work is the same for every seed.

    Arrivals are the program's Poisson trace for the seed, scaled so the last
    one lands at n / rate.  Lengths are a fixed quantile set of the
    synthetic-conversation histograms in a seed-shuffled order.  Only the
    order and the timing change with the seed, so figures from different
    seeds compare.
    """
    duration = 2.0 * n / rate + 10.0 / rate
    generated = pipelink.workload.generate_trace(rate=rate, duration=duration, seed=seed)
    while len(generated) < n:
        duration *= 2
        generated = pipelink.workload.generate_trace(rate=rate, duration=duration, seed=seed)
    arrivals = [r.arrival_time for r in generated.requests[:n]]
    scale = (n / rate) / arrivals[-1]
    in_hist, out_hist = HISTOGRAM_PRESETS["synthetic-conversation"]
    rng = random.Random(f"lengths:{seed}")
    inputs = _quantile_lengths(in_hist, n)
    outputs = _quantile_lengths(out_hist, n)
    rng.shuffle(inputs)
    rng.shuffle(outputs)
    return Trace(
        requests=[
            Request(id=i, arrival_time=t * scale, input_len=a, output_len=b)
            for i, (t, a, b) in enumerate(zip(arrivals, inputs, outputs))
        ],
        seed=seed,
        rate=rate,
    )


def _mesh(names: list[str], latency_s: float, bandwidth_bps: float) -> list[dict]:
    return [
        {"from": a, "to": b, "latency_s": latency_s, "bandwidth_bps": bandwidth_bps}
        for a in names
        for b in names
        if a != b
    ]


def _node(name: str, capacity: float, mem_bytes: int, cpu: float = 1.0) -> dict:
    return {
        "name": name,
        "platform": "linux",
        "gpu_type": "rtx4090",
        "gpu_count": 1,
        "gpu_mem_bytes": mem_bytes,
        "capacity_score": capacity,
        "cpu_score": cpu,
        "network_score": 1.0,
    }


class _Workload:
    """Inputs in ``setup``; ``warm_up`` and ``op`` run one checked operation each."""

    name = ""

    def __init__(self, work_dir: Path, clock=time.perf_counter):
        self.work_dir = work_dir
        self.clock = clock  # what operations are timed with

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def op(self) -> OpResult:
        raise NotImplementedError

    def warm_up(self) -> OpResult:
        return self.op()

    def finish(self) -> OpResult:
        """Checks that need the whole run."""
        return OpResult(0.0, 0, 0, [], 0, 0)

    def journal_bytes_per_op(self) -> float:
        return 0.0

    def close(self) -> None:
        pass


class _Simulation(_Workload):
    """A ``pipelink`` CLI command run in-process on generated input files.

    The cluster is a full mesh of equal links over nodes of 4 GiB each, so
    that the 14 GB of llama-7b weights need all four; ``n0`` is the head.
    """

    n_requests = 0
    rate = 0.0
    capacities = (1.0, 1.0, 1.0, 1.0)
    latency_s = 0.0
    bandwidth_bps = 0.0
    chunk_size = 0
    decision_stride = 1

    def __init__(self, work_dir: Path, clock=time.perf_counter):
        super().__init__(work_dir, clock)
        self.first_digest: dict | None = None

    def argv(self, inputs: Path) -> list[str]:
        raise NotImplementedError

    def point_dirs(self, inputs: Path) -> list[Path]:
        raise NotImplementedError

    def cluster(self) -> dict:
        names = [f"n{i}" for i in range(len(self.capacities))]
        nodes = [
            _node(name, capacity, 4 * GIB, cpu=2.0 if name == "n0" else 1.0)
            for name, capacity in zip(names, self.capacities)
        ]
        return {"nodes": nodes, "links": _mesh(names, self.latency_s, self.bandwidth_bps)}

    def config(self) -> dict:
        return {
            "cluster": "cluster.json",
            "model": "llama-7b",
            "placement": {"gpu_type": "rtx4090", "gpu_count": 1},
            "trace": {"path": "trace.csv"},
            "profiles": {"synthetic": {"per_layer_token_cost": 1e-6, "overhead_s": 0.002}},
            "engine": {"chunk_size": self.chunk_size,
                       "scheduling_policy": "decode_priority"},
            "controller": {"max_batched_tokens": 2048, "max_batch_size": 64,
                           "decision_stride": self.decision_stride},
        }

    def _write_inputs(self, seed: int, directory: Path) -> Trace:
        directory.mkdir(parents=True)
        trace = conversation_trace(seed, self.n_requests, self.rate)
        save_trace(trace, directory / "trace.csv")
        (directory / "cluster.json").write_text(json.dumps(self.cluster()))
        (directory / "config.json").write_text(json.dumps(self.config()))
        return trace

    def setup(self, seed: int) -> None:
        self.inputs = self.work_dir / "inputs"
        self.trace = self._write_inputs(seed, self.inputs)

    def _run(self, inputs: Path, trace: Trace) -> OpResult:
        captured = []
        run_simulation = pipelink.cli.run_simulation

        def capture(cfg, seed_override=None):
            out = run_simulation(cfg, seed_override)
            captured.append(out[0])
            return out

        pipelink.cli.run_simulation = capture
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = self.clock()
                rc = pipelink.cli.main(self.argv(inputs))
                wall = self.clock() - start
        finally:
            pipelink.cli.run_simulation = run_simulation

        points = self.point_dirs(inputs)
        failed, tokens, digest = 0, 0, {}
        for i, point in enumerate(points):
            result = captured[i] if rc == 0 and i < len(captured) else None
            ok, point_tokens, point_digest = self._check_point(point, result, trace)
            failed += not ok
            tokens += point_tokens
            digest[point.name] = point_digest
        return OpResult(wall, tokens, tokens, [wall * 1000.0], len(points), failed, digest)

    @staticmethod
    def _check_point(point: Path, result, trace: Trace) -> tuple[bool, int, dict]:
        """Every request finished with all its tokens; the report's identity holds."""
        if result is None:
            return False, 0, {}
        report = json.loads((point / "report.json").read_text())
        expected = [(r.id, r.output_len) for r in trace.requests]
        ok = (
            [(r.id, r.output_len) for r in result.requests] == expected
            and all(
                r.state is RequestState.FINISHED and r.tokens_emitted == r.output_len
                for r in result.requests
            )
            and report["total_tokens"] == sum(n for _, n in expected)
            and report["throughput_tok_s"] == report["total_tokens"] / report["span_s"]
        )
        table = "".join(
            f"{r.id},{r.first_token_time!r},{r.finish_time!r}\n" for r in result.requests
        )
        digest = {name: _file_sha(point / name) for name in ("report.json", "decisions.csv")}
        digest["requests"] = _sha(table.encode())
        for name in DIAGNOSTIC:
            digest[name] = _file_sha(point / name)
        return ok, report["total_tokens"], digest

    def default_seed_run(self) -> OpResult:
        golden_inputs = self.work_dir / "golden"
        trace = self._write_inputs(DEFAULT_SEED, golden_inputs)
        return self._run(golden_inputs, trace)

    def warm_up(self) -> OpResult:
        """One untimed run on the default seed's inputs, checked against golden.json."""
        op = self.default_seed_run()
        pins = json.loads(GOLDEN_PATH.read_text())[self.name]
        for point, digest in op.digest.items():
            pinned = pins.get(point, {})
            if any(digest.get(k) != pinned.get(k) for k in PINNED):
                print(f"{self.name}: {point} differs from golden.json", file=sys.stderr)
                op.failed += 1
            for k in DIAGNOSTIC:
                if digest.get(k) != pinned.get(k):
                    print(f"{self.name}: {point}/{k} differs from golden.json "
                          "(diagnostic only)", file=sys.stderr)
        return op

    def op(self) -> OpResult:
        op = self._run(self.inputs, self.trace)
        if self.first_digest is None:
            self.first_digest = op.digest
        elif op.digest != self.first_digest:
            print(f"{self.name}: outputs differ between runs of the same inputs",
                  file=sys.stderr)
            op.failed = op.attempted
        return op


class SweepChat(_Simulation):
    """``pipelink sweep`` over two link bandwidths at a moderate chat load."""

    name = "sweep_chat"
    n_requests = 12  # 2 req/s for 6 s
    rate = 2.0
    capacities = (2.0, 1.0, 1.0, 0.5)
    latency_s = 0.010
    bandwidth_bps = 1.25e8  # replaced by each sweep value
    chunk_size = 262144
    values = ("1.25e7", "1.25e8")

    def argv(self, inputs: Path) -> list[str]:
        return ["sweep", "--config", str(inputs / "config.json"),
                "--sweep-axis", "bandwidth", "--sweep-values", ",".join(self.values),
                "--out", str(inputs / "out")]

    def point_dirs(self, inputs: Path) -> list[Path]:
        return [inputs / "out" / f"bandwidth={v}" for v in self.values]


class SimLinks(_Simulation):
    """``pipelink simulate`` at overload over slow links, with small chunks."""

    name = "sim_links"
    n_requests = 32  # 40 req/s for 0.8 s
    rate = 40.0
    latency_s = 0.020
    bandwidth_bps = 1.25e7  # 100 Mbit/s
    chunk_size = 16384
    decision_stride = 32

    def argv(self, inputs: Path) -> list[str]:
        return ["simulate", "--config", str(inputs / "config.json"),
                "--out", str(inputs / "out")]

    def point_dirs(self, inputs: Path) -> list[Path]:
        return [inputs / "out"]


class SocketPipeline(_Workload):
    """The two-stage loopback socket demo, one closed loop of 24 requests per run."""

    name = "socket_pipeline"
    n_requests = 24

    def setup(self, seed: int) -> None:
        # The socket parity configuration: 2 stages, hidden size 64, 4 KiB chunks.
        names = ["node0", "node1"]
        nodes = {
            n: NodeDescriptor(n, Platform.LINUX, "g", 1, 1 << 34, 1.0, 1.0, 1.0)
            for n in names
        }
        links = {
            (a, b): LinkProfile(a, b, 0.001, 1e9) for a, b in (names, names[::-1])
        }
        self.cluster = ClusterSpec(nodes=nodes, links=links)
        model = ModelSpec("bench-2l", num_layers=2, hidden_dim=64, dtype_bytes=2,
                          bytes_per_layer=1)
        plan = PartitionPlan(stages=((names[0], (0, 1)), (names[1], (1, 2))),
                             head=names[0])
        self.profiles = [flat_profile(0.001, stage_id=i) for i in range(2)]
        self.cfg = EngineConfig(
            partition=plan,
            model=model,
            controller=ControllerConfig(max_batched_tokens=256, max_batch_size=8),
            chunk_size=4096,
        )
        self.trace = conversation_trace(seed, self.n_requests, 100.0)
        self.expected: dict[int, int] | None = None

    def _expected(self) -> dict[int, int]:
        """Token counts of a virtual-time run of the same trace (untimed)."""
        if self.expected is None:
            virtual = PipelineEngine(self.cfg, self.cluster, self.profiles).run(self.trace)
            self.expected = virtual.tokens_by_request() if virtual.all_finished else {}
        return self.expected

    def op(self) -> OpResult:
        expected = self._expected()
        start = self.clock()
        live = pipelink.demo.run_socket_demo(self.cfg, self.cluster, self.profiles, self.trace)
        wall = self.clock() - start
        failed = sum(live.get(rid) != n for rid, n in expected.items()) if expected else len(live)
        tokens = sum(live.values())
        digest = {"tokens": _sha(json.dumps(sorted(live.items())).encode())}
        return OpResult(wall, tokens, tokens, [wall * 1000.0], len(self.trace), failed, digest)


class ControlPlane(_Workload):
    """The control API in-process, one closed-loop client, a connection per request."""

    name = "control_plane"
    server = None

    def setup(self, seed: int) -> None:
        rng = random.Random(seed)
        self.names = [f"n{i}" for i in range(4)]
        # 1 MiB per node: the 4-layer model needs all four.
        self.nodes = [
            _node(name, rng.choice((0.5, 1.0, 2.0)), MIB) for name in self.names
        ]
        self.links = {
            (a, b): {"from": a, "to": b, "latency_s": rng.uniform(0.001, 0.05),
                     "bandwidth_bps": rng.choice((1.25e7, 1.25e8, 1e9))}
            for a in self.names for b in self.names if a != b
        }
        self.journal = self.work_dir / "journal.jsonl"
        self.registry = ClusterRegistry(key_seed=seed, journal_path=self.journal)
        self.server = make_server(self.registry, "127.0.0.1", 0)
        self.port = self.server.server_address[1]
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.rounds = 0
        # One service name for every round: each round returns the registry to
        # its starting state, so memory does not grow with the rounds a run
        # completes (a deleted service's record stays until its name is reused).
        self.round = self._requests("svc")

    def _requests(self, service: str) -> list[tuple[str, str, str, dict | None, int]]:
        """(route, method, path, body, expected status) for one round."""
        reqs = []
        for i, name in enumerate(self.names):
            body = dict(self.nodes[i])
            body["links"] = [
                self.links[key]
                for other in self.names[:i]
                for key in ((name, other), (other, name))
            ]
            reqs.append(("post_nodes", "POST", "/nodes", body, 201))
        reqs.append(("post_services", "POST", "/services",
                     {"service_name": service, "model_name": "tiny-4l",
                      "resource_specification": {"gpu_type": "rtx4090", "gpu_count": 1}},
                     201))
        reqs += [("get_service", "GET", f"/services/{service}", None, 200)] * 5
        reqs += [("get_node", "GET", f"/nodes/{self.names[i % 4]}", None, 200)
                 for i in range(5)]
        reqs.append(("get_key", "GET", f"/services/{service}/key", None, 200))
        reqs.append(("delete_service", "DELETE", f"/services/{service}", None, 200))
        reqs += [("delete_node", "DELETE", f"/nodes/{n}", None, 200) for n in self.names]
        return reqs

    def _call(self, method: str, path: str, body: dict | None) -> int:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.connect()
            # Close with a reset: at hundreds of connections a second, sockets
            # left in TIME_WAIT would use up the ephemeral ports and slow
            # every later connect, in this run and the next.
            conn.sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, _LINGER_RESET)
            payload = None if body is None else json.dumps(body).encode()
            headers = {} if body is None else {"Content-Type": "application/json"}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            json.loads(resp.read())
            return resp.status
        finally:
            conn.close()

    def op(self) -> OpResult:
        self.rounds += 1
        latencies, route_ms, failed = [], {}, 0
        start = self.clock()
        for route, method, path, body, status in self.round:
            t0 = self.clock()
            try:
                got = self._call(method, path, body)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                print(f"control_plane: {method} {path}: {exc!r}", file=sys.stderr)
                got = None
            ms = (self.clock() - t0) * 1000.0
            latencies.append(ms)
            route_ms.setdefault(route, []).append(ms)
            failed += got != status
        wall = self.clock() - start
        try:
            self.registry.check_invariants()
        except RegistryError as exc:  # a violation fails the whole round
            print(f"control_plane: invariants: {exc}", file=sys.stderr)
            failed = len(self.round)
        return OpResult(wall, len(self.round), 0, latencies, len(self.round), failed,
                        route_ms=route_ms)

    def journal_bytes_per_op(self) -> float:
        return self.journal.stat().st_size / max(1, self.rounds)

    def finish(self) -> OpResult:
        """Stop the server; the journal must replay to the live registry state."""
        self.close()
        replayed = ClusterRegistry.replay(self.journal).snapshot()
        ok = replayed == self.registry.snapshot()
        if not ok:
            print("control_plane: journal replay differs from the live registry",
                  file=sys.stderr)
        return OpResult(0.0, 0, 0, [], 1, 0 if ok else 1)

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
            self.server = None


WORKLOADS = {
    cls.name: cls for cls in (SweepChat, SimLinks, SocketPipeline, ControlPlane)
}
