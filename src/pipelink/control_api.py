"""In-memory control plane: node registry, service lifecycle, JSON endpoints.

The registry is a single-writer state machine (one lock serializes every
mutation; reads take consistent snapshots under the same lock), backed by an
optional append-only JSON-lines journal for restart recovery.  The HTTP layer
is a thin translation between the registry methods and the JSON wire format.
"""

from __future__ import annotations

import enum
import json
import random
import secrets
import threading
import time
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

from .errors import ConfigError, PlacementError, RegistryError
from .metrics import MetricsReport
from .placement import (
    MODEL_PRESETS,
    ClusterSpec,
    ModelSpec,
    NodeDescriptor,
    PartitionPlan,
    link_from_json,
    link_to_json,
    node_from_json,
    node_to_json,
    plan_deployment,
)
from .profiles import LinkProfile


class ServiceState(enum.Enum):
    DEPLOYING = "deploying"
    RUNNING = "running"
    DELETED = "deleted"


@dataclass
class ServiceRecord:
    service_name: str
    model: ModelSpec
    plan: PartitionPlan
    state: ServiceState
    api_key: str
    created_at: float  # wall-clock epoch seconds
    request_count: int = 0
    token_count: int = 0
    last_report: dict | None = None

    def status_dict(self) -> dict:
        return {
            "service_name": self.service_name,
            "model": self.model.name,
            "state": self.state.value,
            "uptime_s": max(0.0, time.time() - self.created_at),
            "request_count": self.request_count,
            "token_count": self.token_count,
            "plan": self.plan.to_json_dict(),
            "metrics": self.last_report,
        }


# resource_specification / inference_parameters schemas, version 1.
# resource_specification: {"gpu_type": str, "gpu_count": int}
# inference_parameters:   {"max_batched_tokens": int, "max_batch_size": int,
#                          "chunk_size": int | null}   (all optional)
RESOURCE_SPEC_KEYS = {"gpu_type", "gpu_count"}
INFERENCE_PARAM_KEYS = {"max_batched_tokens", "max_batch_size", "chunk_size"}


class ClusterRegistry:
    """Cluster state plus service records behind one mutation lock."""

    def __init__(
        self,
        cluster: ClusterSpec | None = None,
        model_catalog: dict[str, ModelSpec] | None = None,
        key_seed: int | None = None,
        journal_path: str | Path | None = None,
    ):
        self._lock = threading.RLock()
        self._cluster = cluster or ClusterSpec(nodes={}, links={})
        self._catalog = dict(model_catalog or MODEL_PRESETS)
        self._services: dict[str, ServiceRecord] = {}
        self._assignments: dict[str, str] = {}  # node -> service
        self._key_rng = random.Random(key_seed) if key_seed is not None else None
        self._node_util: dict[str, dict] = {}
        self._journal_path = Path(journal_path) if journal_path else None
        if self._journal_path and not self._journal_path.exists():
            self._journal_path.touch()

    # -- journal -----------------------------------------------------------

    def _journal(self, record: dict) -> None:
        if self._journal_path is None:
            return
        with self._journal_path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()

    @classmethod
    def replay(
        cls,
        journal_path: str | Path,
        model_catalog: dict[str, ModelSpec] | None = None,
    ) -> "ClusterRegistry":
        """Rebuild a registry from its journal (journaling stays enabled)."""
        path = Path(journal_path)
        registry = cls(model_catalog=model_catalog)
        with path.open(encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                rec = json.loads(line)
                op = rec["op"]
                if op == "node_access":
                    registry.node_access(
                        node_from_json(rec["node"]),
                        links=[link_from_json(l) for l in rec.get("links", [])],
                    )
                elif op == "node_exit":
                    registry.node_exit(rec["name"], cascade=rec.get("cascade", False))
                elif op == "deploy":
                    registry.deploy_llm_service(
                        rec["service_name"],
                        rec["model_name"],
                        rec["resource_specification"],
                        rec.get("inference_parameters", {}),
                        _api_key=rec["api_key"],
                    )
                elif op == "delete":
                    registry.delete_llm_service(rec["service_name"])
        registry._journal_path = path
        return registry

    # -- node management ---------------------------------------------------

    def node_access(
        self, node: NodeDescriptor, links: list[LinkProfile] | None = None
    ) -> None:
        with self._lock:
            if node.name in self._cluster.nodes:
                raise RegistryError("conflict", f"node {node.name} already registered")
            for link in links or []:
                for end in (link.src, link.dst):
                    if end != node.name and end not in self._cluster.nodes:
                        raise RegistryError(
                            "invalid", f"link references unregistered node {end}"
                        )
            self._cluster.nodes[node.name] = node
            for link in links or []:
                self._cluster.links[(link.src, link.dst)] = link
            self._journal(
                {
                    "op": "node_access",
                    "node": node_to_json(node),
                    "links": [link_to_json(l) for l in links or []],
                }
            )

    def check_node_status(self, name: str) -> dict:
        with self._lock:
            node = self._cluster.nodes.get(name)
            if node is None:
                raise RegistryError("not_found", f"unknown node {name}")
            util = dict(self._node_util.get(name, {}))
            util.setdefault("gpu_load", 0.0)
            util.setdefault("cpu_load", 0.0)
            util.setdefault("link_throughput_bps", 0.0)
            util["source"] = "simulated"
            return {
                "name": node.name,
                "metadata": node_to_json(node),
                "hosting": self._assignments.get(name),
                "utilization": util,
            }

    def node_exit(self, name: str, cascade: bool = False) -> None:
        with self._lock:
            if name not in self._cluster.nodes:
                raise RegistryError("not_found", f"unknown node {name}")
            service = self._assignments.get(name)
            if service is not None:
                if not cascade:
                    raise RegistryError(
                        "conflict",
                        f"node {name} hosts a stage of running service {service}",
                        details={"service": service},
                    )
                self.delete_llm_service(service)
            del self._cluster.nodes[name]
            self._cluster.links = {
                key: link
                for key, link in self._cluster.links.items()
                if name not in key
            }
            self._node_util.pop(name, None)
            self._journal({"op": "node_exit", "name": name, "cascade": cascade})

    # -- service lifecycle --------------------------------------------------

    def _free_subcluster(self) -> ClusterSpec:
        free = {
            name: node
            for name, node in self._cluster.nodes.items()
            if name not in self._assignments
        }
        links = {
            key: link
            for key, link in self._cluster.links.items()
            if key[0] in free and key[1] in free
        }
        return ClusterSpec(nodes=free, links=links)

    def _new_api_key(self) -> str:
        if self._key_rng is not None:
            return "".join(self._key_rng.choice("0123456789abcdef") for _ in range(32))
        return secrets.token_hex(16)

    def deploy_llm_service(
        self,
        service_name: str,
        model_name: str,
        resource_specification: dict,
        inference_parameters: dict | None = None,
        _api_key: str | None = None,
    ) -> ServiceRecord:
        if inference_parameters is None:
            inference_parameters = {}
        for label, value, kind in (
            ("service_name", service_name, str),
            ("model_name", model_name, str),
            ("resource_specification", resource_specification, dict),
            ("inference_parameters", inference_parameters, dict),
        ):
            if not isinstance(value, kind):
                raise RegistryError(
                    "invalid",
                    f"{label} must be a {kind.__name__}, not {type(value).__name__}",
                )
        with self._lock:
            active = self._services.get(service_name)
            if active is not None and active.state is not ServiceState.DELETED:
                raise RegistryError(
                    "conflict", f"service {service_name} already exists"
                )
            if model_name not in self._catalog:
                raise RegistryError("invalid", f"unknown model {model_name}")
            unknown = set(resource_specification) - RESOURCE_SPEC_KEYS
            if unknown or "gpu_type" not in resource_specification:
                raise RegistryError(
                    "invalid",
                    f"resource_specification needs gpu_type/gpu_count, got {sorted(resource_specification)}",
                )
            bad_params = set(inference_parameters) - INFERENCE_PARAM_KEYS
            if bad_params:
                raise RegistryError(
                    "invalid", f"unknown inference_parameters {sorted(bad_params)}"
                )
            model = self._catalog[model_name]
            gpu_type = resource_specification["gpu_type"]
            try:
                gpu_count = int(resource_specification.get("gpu_count", 1))
            except (TypeError, ValueError):
                raise RegistryError("invalid", "gpu_count must be an integer") from None
            try:
                plan = plan_deployment(self._free_subcluster(), model, gpu_type, gpu_count)
            except PlacementError as exc:
                raise RegistryError(
                    "placement_failed", str(exc), details={"model": model_name}
                ) from None
            record = ServiceRecord(
                service_name=service_name,
                model=model,
                plan=plan,
                state=ServiceState.RUNNING,
                api_key=_api_key or self._new_api_key(),
                created_at=time.time(),
            )
            self._services[service_name] = record
            for node_name in plan.node_names():
                self._assignments[node_name] = service_name
            self._journal(
                {
                    "op": "deploy",
                    "service_name": service_name,
                    "model_name": model_name,
                    "resource_specification": resource_specification,
                    "inference_parameters": inference_parameters,
                    "api_key": record.api_key,
                }
            )
            return record

    def _active_service(self, service_name: str) -> ServiceRecord:
        record = self._services.get(service_name)
        if record is None or record.state is ServiceState.DELETED:
            raise RegistryError("not_found", f"unknown service {service_name}")
        return record

    def get_api_key(self, service_name: str) -> str:
        with self._lock:
            return self._active_service(service_name).api_key

    def check_service_status(self, service_name: str) -> dict:
        with self._lock:
            return self._active_service(service_name).status_dict()

    def delete_llm_service(self, service_name: str) -> None:
        with self._lock:
            record = self._active_service(service_name)
            record.state = ServiceState.DELETED
            self._assignments = {
                node: svc
                for node, svc in self._assignments.items()
                if svc != service_name
            }
            self._journal({"op": "delete", "service_name": service_name})

    def record_run(
        self, service_name: str, report: MetricsReport, request_count: int
    ) -> None:
        """Attach a finished run's metrics to the service and its nodes."""
        with self._lock:
            record = self._active_service(service_name)
            record.request_count += request_count
            record.token_count += report.total_tokens
            record.last_report = report.to_json_dict()
            for stage_idx, node_name in enumerate(record.plan.node_names()):
                bubbles = report.bubble_fraction_per_stage
                gpu_load = (
                    1.0 - bubbles[stage_idx] if stage_idx < len(bubbles) else 0.0
                )
                self._node_util[node_name] = {
                    "gpu_load": gpu_load,
                    "cpu_load": 0.05,  # nominal host overhead, simulated
                    "link_throughput_bps": 0.0,
                }

    # -- introspection -------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise if registry consistency is violated (used heavily by tests)."""
        with self._lock:
            for src, dst in self._cluster.links:
                for end in (src, dst):
                    if end not in self._cluster.nodes:
                        raise RegistryError(
                            "invalid",
                            f"link {src}->{dst} references unregistered node {end}",
                        )
            booked: dict[str, str] = {}
            for record in self._services.values():
                if record.state is ServiceState.DELETED:
                    continue
                for node_name in record.plan.node_names():
                    if node_name not in self._cluster.nodes:
                        raise RegistryError(
                            "invalid",
                            f"service {record.service_name} references "
                            f"unregistered node {node_name}",
                        )
                    if node_name in booked:
                        raise RegistryError(
                            "conflict",
                            f"node {node_name} booked by both "
                            f"{booked[node_name]} and {record.service_name}",
                        )
                    booked[node_name] = record.service_name
            if booked != dict(self._assignments):
                raise RegistryError("invalid", "assignment table out of sync")

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "nodes": sorted(self._cluster.nodes),
                "services": {
                    name: rec.state.value for name, rec in self._services.items()
                },
                "assignments": dict(self._assignments),
            }


_STATUS_BY_CODE = {
    "conflict": 409,
    "not_found": 404,
    "invalid": 400,
    "placement_failed": 409,
}


class _Handler(BaseHTTPRequestHandler):
    server_version = "pipelink-control"
    registry: ClusterRegistry  # set by make_server

    def log_message(self, fmt, *args):  # quiet by default
        pass

    def _send_json(self, status: int, body: dict) -> None:
        raw = json.dumps(body, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def _send_error_body(self, exc: RegistryError) -> None:
        status = _STATUS_BY_CODE.get(exc.code, 400)
        self._send_json(
            status, {"code": exc.code, "message": str(exc), "details": exc.details}
        )

    def _read_body(self) -> dict:
        raw_length = self.headers.get("Content-Length", "0")
        try:
            length = int(raw_length)
        except ValueError:
            length = -1
        if length < 0:
            raise RegistryError("invalid", f"bad Content-Length {raw_length!r}")
        if length == 0:
            return {}
        try:
            body = json.loads(self.rfile.read(length))
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise RegistryError("invalid", f"bad JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise RegistryError("invalid", "JSON body must be an object")
        return body

    def _route(self) -> None:
        registry = self.registry
        path = self.path.split("?", 1)[0].rstrip("/")
        query = self.path.split("?", 1)[1] if "?" in self.path else ""
        parts = [p for p in path.split("/") if p]
        try:
            if self.command == "POST" and parts == ["nodes"]:
                body = self._read_body()
                try:
                    links = [link_from_json(l) for l in body.pop("links", [])]
                    node = node_from_json(body)
                except (KeyError, TypeError, ValueError, ConfigError) as exc:
                    raise RegistryError("invalid", f"bad node descriptor: {exc}") from None
                registry.node_access(node, links=links)
                self._send_json(201, registry.check_node_status(node.name))
            elif self.command == "GET" and len(parts) == 2 and parts[0] == "nodes":
                self._send_json(200, registry.check_node_status(parts[1]))
            elif self.command == "DELETE" and len(parts) == 2 and parts[0] == "nodes":
                cascade = "cascade=true" in query
                registry.node_exit(parts[1], cascade=cascade)
                self._send_json(200, {"deleted": parts[1]})
            elif self.command == "POST" and parts == ["services"]:
                body = self._read_body()
                try:
                    record = registry.deploy_llm_service(
                        body["service_name"],
                        body["model_name"],
                        body.get("resource_specification", {}),
                        body.get("inference_parameters", {}),
                    )
                except KeyError as exc:
                    raise RegistryError("invalid", f"missing field {exc}") from None
                self._send_json(201, record.status_dict())
            elif (
                self.command == "GET"
                and len(parts) == 3
                and parts[0] == "services"
                and parts[2] == "key"
            ):
                self._send_json(200, {"api_key": registry.get_api_key(parts[1])})
            elif self.command == "GET" and len(parts) == 2 and parts[0] == "services":
                self._send_json(200, registry.check_service_status(parts[1]))
            elif self.command == "DELETE" and len(parts) == 2 and parts[0] == "services":
                registry.delete_llm_service(parts[1])
                self._send_json(200, {"deleted": parts[1]})
            else:
                self._send_json(
                    404,
                    {"code": "not_found", "message": f"no route {self.command} {path}",
                     "details": {}},
                )
        except RegistryError as exc:
            self._send_error_body(exc)

    do_GET = do_POST = do_DELETE = _route


def make_server(registry: ClusterRegistry, host: str, port: int) -> ThreadingHTTPServer:
    handler = type("BoundHandler", (_Handler,), {"registry": registry})
    return ThreadingHTTPServer((host, port), handler)
