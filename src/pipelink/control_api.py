"""In-memory control plane: node registry, service lifecycle, JSON endpoints.

The registry is a single-writer state machine (one lock serializes every
mutation; reads take consistent snapshots under the same lock), backed by an
optional append-only JSON-lines journal.  The journal is the whole state:
``pipelink serve --journal`` replays a non-empty journal on start (dropping a
torn last line, the trace of a crash in the middle of an append) and journals
every later change, including the nodes of ``--cluster`` on a fresh one.

Each change is write-ahead: a mutation is validated, then journaled, then
applied, so a journal write that raises leaves the live state as replay
rebuilds it.  The registry opens its journal once, unbuffered in append mode,
writes each record as one line in one write, and holds the handle until
:meth:`ClusterRegistry.close` (or until the registry is collected).

The HTTP layer is a thin translation between the registry methods and the
JSON wire format.  The server hands each accepted connection to a reused
worker thread; a worker is started only when none is idle, up to
``_MAX_WORKERS``, and ``server_close`` stops and joins them.  A response of
up to 8 KiB, headers included, leaves in one send.

The registry holds running services only: deleting a service forgets it, so
its name can be deployed again, and which service a node hosts is read off
the running services' plans.

Request bodies and journal records are decoded by :mod:`pipelink.decode`
into the dataclasses below and in :mod:`pipelink.placement`.  Every body that
fails its schema gets 400 with the JSON path of the value at fault, before
anything is journaled.
"""

from __future__ import annotations

import json
import os
import random
import secrets
import threading
import time
import traceback
import weakref
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import ClassVar
from urllib.parse import parse_qs, unquote, urlsplit

from .decode import decode, encode
from .errors import ConfigError, PipelinkError, PlacementError, RegistryError
from .placement import (
    MODEL_PRESETS,
    ClusterSpec,
    ModelSpec,
    NodeDescriptor,
    PartitionPlan,
    ResourceSpec,
    plan_deployment,
)
from .profiles import LinkProfile


@dataclass
class ServiceRecord:
    """A running service; the registry drops the record when it is deleted."""

    service_name: str
    model: ModelSpec
    plan: PartitionPlan
    api_key: str
    created_at: float  # wall-clock epoch seconds

    def status_dict(self) -> dict:
        return {
            "service_name": self.service_name,
            "model": self.model.name,
            "state": "running",
            "uptime_s": max(0.0, time.time() - self.created_at),
            "plan": self.plan.to_json_dict(),
        }


@dataclass(frozen=True)
class ServiceRequest:
    """A ``POST /services`` body; ``deploy_llm_service`` decodes its resource spec."""

    service_name: str
    model_name: str
    resource_specification: dict


# Journal records, one schema per "op": the registry method that a record
# redoes is the one that journals it.


@dataclass(frozen=True)
class _NodeAccess:
    op: ClassVar[str] = "node_access"
    node: NodeDescriptor
    links: tuple[LinkProfile, ...] = ()

    def redo(self, registry: ClusterRegistry) -> None:
        registry.node_access(self.node, links=self.links)


@dataclass(frozen=True)
class _NodeExit:
    op: ClassVar[str] = "node_exit"
    name: str

    def redo(self, registry: ClusterRegistry) -> None:
        registry.node_exit(self.name)


@dataclass(frozen=True)
class _Deploy(ServiceRequest):
    op: ClassVar[str] = "deploy"
    api_key: str

    def redo(self, registry: ClusterRegistry) -> None:
        registry.deploy_llm_service(
            self.service_name,
            self.model_name,
            self.resource_specification,
            _api_key=self.api_key,
        )


@dataclass(frozen=True)
class _Delete:
    op: ClassVar[str] = "delete"
    service_name: str

    def redo(self, registry: ClusterRegistry) -> None:
        registry.delete_llm_service(self.service_name)


_JOURNAL_RECORDS = {rec.op: rec for rec in (_NodeAccess, _NodeExit, _Deploy, _Delete)}


class ClusterRegistry:
    """Cluster state plus service records behind one mutation lock."""

    def __init__(
        self,
        key_seed: int | None = None,
        journal_path: str | Path | None = None,
    ):
        self._lock = threading.RLock()
        self._cluster = ClusterSpec(nodes={}, links={})
        self._services: dict[str, ServiceRecord] = {}  # running services only
        self._key_rng = random.Random(key_seed) if key_seed is not None else None
        self._journal_file = None
        self._close_journal = lambda: None
        if journal_path:
            self._open_journal(Path(journal_path))

    # -- journal -----------------------------------------------------------

    def _open_journal(self, path: Path) -> None:
        # Unbuffered: a write that fails leaves no bytes behind in a buffer
        # for the next record's write to carry into the file.
        self._journal_file = path.open("ab", buffering=0)
        # close() closes the file once; a registry that is never closed closes
        # it when it is collected, without a ResourceWarning.
        self._close_journal = weakref.finalize(self, self._journal_file.close)

    def close(self) -> None:
        """Close the journal; a later journaled change raises ``ValueError``."""
        with self._lock:
            self._close_journal()

    def _journal(self, record) -> None:
        """Append ``record`` as one line, before the change it records is applied."""
        if self._journal_file is None:
            return
        line = json.dumps({"op": record.op, **encode(record)}, sort_keys=True).encode() + b"\n"
        written = self._journal_file.write(line)
        if written != len(line):  # the file system took only part, as when it fills up
            self._journal_file.truncate(self._journal_file.tell() - written)
            raise OSError(f"journal write cut short: {written} of {len(line)} bytes")

    @classmethod
    def replay(cls, journal_path: str | Path) -> "ClusterRegistry":
        """Rebuild a registry from its journal (journaling stays enabled).

        A last line with no newline that is not JSON is what a crash in the
        middle of an append leaves: it is dropped and cut off the file, so
        the next append starts a line of its own.  Any other line that does
        not replay raises :class:`ConfigError` naming its line number.
        """
        path = Path(journal_path)
        registry = cls()
        good_bytes = 0
        with path.open("rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    rec = json.loads(line) if line.strip() else None
                except (ValueError, RecursionError) as exc:  # also bytes that are not text
                    if line.endswith(b"\n"):
                        raise ConfigError(f"{path}: line {lineno}: {exc}") from None
                    break  # only the last line can lack a newline: a torn append
                try:
                    if rec is not None:
                        registry._apply(rec)
                except PipelinkError as exc:
                    raise ConfigError(
                        f"{path}: line {lineno}: {type(exc).__name__}: {exc}"
                    ) from None
                good_bytes += len(line)
        if good_bytes < path.stat().st_size:
            os.truncate(path, good_bytes)
        registry._open_journal(path)
        return registry

    def _apply(self, rec) -> None:
        """Redo one journal record, decoded by the schema of its ``op``."""
        rec = dict(decode(dict, rec))
        op = rec.pop("op", None)
        # Keys journaled by earlier versions and never applied.  A cascading
        # exit journals its service's delete first, so it replays as a plain one.
        if op == "deploy":
            rec.pop("inference_parameters", None)
        elif op == "node_exit":
            decode(bool, rec.pop("cascade", False), "$.cascade")
        schema = _JOURNAL_RECORDS.get(op) if type(op) is str else None
        if schema is None:
            raise ConfigError(
                f"$.op: expected one of {', '.join(map(repr, _JOURNAL_RECORDS))}, "
                f"got {op!r:.60}"
            )
        decode(schema, rec).redo(self)

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
            self._journal(_NodeAccess(node, tuple(links or ())))
            self._cluster.nodes[node.name] = node
            for link in links or []:
                self._cluster.links[(link.src, link.dst)] = link

    def check_node_status(self, name: str) -> dict:
        with self._lock:
            node = self._cluster.nodes.get(name)
            if node is None:
                raise RegistryError("not_found", f"unknown node {name}")
            return {
                "name": node.name,
                "metadata": encode(node),
                "hosting": self._hosts().get(name),
            }

    def node_exit(self, name: str, cascade: bool = False) -> None:
        with self._lock:
            if name not in self._cluster.nodes:
                raise RegistryError("not_found", f"unknown node {name}")
            service = self._hosts().get(name)
            if service is not None:
                if not cascade:
                    raise RegistryError(
                        "conflict",
                        f"node {name} hosts a stage of running service {service}",
                        details={"service": service},
                    )
                self.delete_llm_service(service)
            self._journal(_NodeExit(name))
            self._cluster = self._cluster.subcluster(self._cluster.nodes.keys() - {name})

    # -- service lifecycle --------------------------------------------------

    def _hosts(self) -> dict[str, str]:
        """Node -> the running service with a stage on it."""
        return {
            node: name
            for name, record in self._services.items()
            for node in record.plan.node_names()
        }

    def _free_subcluster(self) -> ClusterSpec:
        return self._cluster.subcluster(self._cluster.nodes.keys() - self._hosts().keys())

    def _new_api_key(self) -> str:
        if self._key_rng is not None:
            return "".join(self._key_rng.choice("0123456789abcdef") for _ in range(32))
        return secrets.token_hex(16)

    def deploy_llm_service(
        self,
        service_name: str,
        model_name: str,
        resource_specification: dict,
        *,
        _api_key: str | None = None,
    ) -> ServiceRecord:
        """Plan a service on free nodes and record it.

        ``resource_specification`` is the JSON object of a service body; one
        that does not decode as a ResourceSpec raises :class:`ConfigError`.
        """
        if not service_name:  # a path segment can name no empty service
            raise RegistryError("invalid", "service_name must not be empty")
        spec = decode(ResourceSpec, resource_specification, "$.resource_specification")
        with self._lock:
            if service_name in self._services:
                raise RegistryError(
                    "conflict", f"service {service_name} already exists"
                )
            if model_name not in MODEL_PRESETS:
                raise RegistryError("invalid", f"unknown model {model_name}")
            model = MODEL_PRESETS[model_name]
            try:
                plan = plan_deployment(
                    self._free_subcluster(), model, spec.gpu_type, spec.gpu_count
                )
            except PlacementError as exc:
                raise RegistryError(
                    "placement_failed", str(exc), details={"model": model_name}
                ) from None
            record = ServiceRecord(
                service_name=service_name,
                model=model,
                plan=plan,
                api_key=_api_key or self._new_api_key(),
                created_at=time.time(),
            )
            self._journal(
                _Deploy(service_name, model_name, resource_specification, record.api_key)
            )
            self._services[service_name] = record
            return record

    def _active_service(self, service_name: str) -> ServiceRecord:
        record = self._services.get(service_name)
        if record is None:
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
            self._active_service(service_name)  # unknown: not_found
            self._journal(_Delete(service_name))
            del self._services[service_name]

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

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "nodes": sorted(self._cluster.nodes),
                "services": {name: "running" for name in self._services},
                "assignments": self._hosts(),
            }


_STATUS_BY_CODE = {
    "conflict": 409,
    "not_found": 404,
    "invalid": 400,
    "placement_failed": 409,
    "too_large": 413,
    "internal": 500,
}

MAX_BODY_BYTES = 1 << 20  # a longer Content-Length is refused with 413, unread

# Handler threads one server runs at most; a connection that finds them all
# busy waits for the first to finish.
_MAX_WORKERS = 32


class _Handler(BaseHTTPRequestHandler):
    server_version = "pipelink-control"
    timeout = 10  # seconds a read may stall, as on a body short of its Content-Length
    wbufsize = -1  # buffered: a response of up to 8 KiB, headers included, is one send
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
        if not (raw_length.isascii() and raw_length.isdigit()):  # HTTP: 1*DIGIT
            raise RegistryError("invalid", f"bad Content-Length {raw_length!r}")
        length = int(raw_length)
        if length == 0:
            return {}
        if length > MAX_BODY_BYTES:
            raise RegistryError("too_large", f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
        try:
            body = json.loads(self.rfile.read(length))
        except TimeoutError:
            raise RegistryError("invalid", f"no {length}-byte body in {self.timeout} s") from None
        except (ValueError, RecursionError) as exc:  # also bytes that are not text
            raise RegistryError("invalid", f"bad JSON body: {exc}") from None
        if not isinstance(body, dict):
            raise RegistryError("invalid", "JSON body must be an object")
        return body

    def _route(self) -> None:
        registry = self.registry
        target = urlsplit(self.path)
        parts = [unquote(p) for p in target.path.split("/") if p]
        try:
            if self.command == "POST" and parts == ["nodes"]:
                body = self._read_body()
                links = decode(tuple[LinkProfile, ...], body.pop("links", []), "$.links")
                node = decode(NodeDescriptor, body)
                registry.node_access(node, links=links)
                self._send_json(201, registry.check_node_status(node.name))
            elif self.command == "GET" and len(parts) == 2 and parts[0] == "nodes":
                self._send_json(200, registry.check_node_status(parts[1]))
            elif self.command == "DELETE" and len(parts) == 2 and parts[0] == "nodes":
                cascade = parse_qs(target.query).get("cascade") == ["true"]
                registry.node_exit(parts[1], cascade=cascade)
                self._send_json(200, {"deleted": parts[1]})
            elif self.command == "POST" and parts == ["services"]:
                req = decode(ServiceRequest, self._read_body())
                record = registry.deploy_llm_service(
                    req.service_name, req.model_name, req.resource_specification
                )
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
                raise RegistryError("not_found", f"no route {self.command} {target.path}")
        except RegistryError as exc:
            self._send_error_body(exc)
        except ConfigError as exc:
            self._send_error_body(RegistryError("invalid", str(exc)))
        except Exception as exc:  # a bug: report it, answer 500, keep serving
            traceback.print_exc()
            self._send_error_body(RegistryError("internal", f"{type(exc).__name__}: {exc}"))

    do_GET = do_POST = do_DELETE = _route


class _Server(ThreadingHTTPServer):
    """A threading HTTP server whose handler threads take connection after
    connection from one queue, instead of a new thread per connection."""

    def __init__(self, address: tuple[str, int], handler: type[_Handler]) -> None:
        import queue  # here, so that importing this module loads no more modules

        self._connections = queue.SimpleQueue()
        self._workers: list[threading.Thread] = []
        self._idle = 0  # workers free for a connection, less connections queued
        self._pool_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        with self._pool_lock:
            if self._idle <= 0 and len(self._workers) < _MAX_WORKERS:
                worker = threading.Thread(
                    target=self._work, name=f"pipelink-control-{len(self._workers)}",
                    daemon=True,
                )
                worker.start()
                self._workers.append(worker)
                self._idle += 1
            self._idle -= 1
        self._connections.put((request, client_address))

    def _work(self) -> None:
        while (connection := self._connections.get()) is not None:
            self.process_request_thread(*connection)  # handle_error, shutdown_request
            with self._pool_lock:
                self._idle += 1

    def server_close(self) -> None:
        """Close the socket, then let each worker finish what is queued and stop.

        A worker still reading a stalled request stops at the handler's timeout.
        """
        super().server_close()
        with self._pool_lock:
            workers, self._workers = self._workers, []
        for _ in workers:
            self._connections.put(None)
        for worker in workers:
            worker.join()


def make_server(registry: ClusterRegistry, host: str, port: int) -> ThreadingHTTPServer:
    handler = type("BoundHandler", (_Handler,), {"registry": registry})
    return _Server((host, port), handler)
