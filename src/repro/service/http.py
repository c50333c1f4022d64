"""The asyncio HTTP/JSON front end for :class:`AdvisorService`.

A deliberately small HTTP/1.1 server on ``asyncio.start_server`` — no
``http.server``, no framework — because the request surface is five
JSON endpoints and the serving story (single event loop, vectorized
batch core, answers out of caches) does not need more:

====================  ======  =============================================
endpoint              method  body / query parameters
====================  ======  =============================================
``/advise``           GET     ``?app=&nprocs=&mtbf=`` (+ optional
                              ``input_size``/``nnodes``/``objective``/
                              ``designs``/``levels``, comma-separated)
``/advise``           POST    one query object (see
                              :meth:`~repro.service.query.AdviceQuery.
                              from_dict`)
``/advise/batch``     POST    ``{"queries": [query, ...]}`` — answers are
                              top-1 advice, parallel to the input
``/predict``          POST    ``{"configs": [config-dict, ...]}``
``/healthz``          GET     —
``/metrics``          GET     — (Prometheus text exposition)
``/metrics.json``     GET     — (calibration + cache stats, JSON)
====================  ======  =============================================

Routing and payload handling live in :meth:`AdvisorServer.
handle_request`, a pure ``(method, path, params, body) -> (status,
payload)`` function, so endpoint tests need no socket. Malformed input
maps to 400 with the :class:`~repro.errors.ConfigurationError` message
(which states the accepted grammar), unknown routes to 404, and
unexpected errors to 500 — the server never dies on a bad request.
Every request but the ``/metrics`` scrape is recorded, once, in the
process registry (:mod:`repro.obs.metrics`): ``match_service_requests_
total``, ``_errors_total``, ``_items_total`` (batch fan-in) and the
``match_service_request_seconds`` histogram, all labelled by endpoint.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from urllib.parse import parse_qsl, urlsplit

from ..errors import ConfigurationError, describe_error
from ..obs.metrics import REGISTRY
from ..obs.prom import PROM_CONTENT_TYPE
from .core import AdvisorService
from .query import AdviceQuery

_REQUESTS = REGISTRY.counter(
    "match_service_requests_total", "Service requests, by endpoint")
_ERRORS = REGISTRY.counter(
    "match_service_errors_total", "Service error responses, by endpoint")
_ITEMS = REGISTRY.counter(
    "match_service_items_total",
    "Queries served including batch fan-in, by endpoint")
_LATENCY = REGISTRY.histogram(
    "match_service_request_seconds",
    "Request handling latency in seconds, by endpoint")

_MAX_BODY_BYTES = 16 * 1024 * 1024
_MAX_HEADER_BYTES = 64 * 1024

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed", 413: "Payload Too Large",
                500: "Internal Server Error"}


def _query_from_params(params: dict) -> AdviceQuery:
    """An AdviceQuery from GET query parameters (strings)."""
    data = dict(params)
    for key in ("designs", "levels"):
        if key in data:
            data[key] = [part for part
                         in str(data[key]).split(",") if part]
    return AdviceQuery.from_dict(data)


def _json_body(body: bytes):
    if not body:
        raise ConfigurationError("request body must be JSON")
    try:
        return json.loads(body)
    except ValueError as exc:
        raise ConfigurationError(
            "request body is not valid JSON: %s" % (exc,)) from exc


#: endpoint -> the methods it answers (anything else is 405; a path
#: not listed is 404)
_METHODS = {"/healthz": ("GET",), "/metrics": ("GET",),
            "/metrics.json": ("GET",), "/advise": ("GET", "POST"),
            "/advise/batch": ("POST",), "/predict": ("POST",)}


def _body_list(body: bytes, field: str) -> list:
    """The list under ``field`` of a ``{field: [...]}`` JSON body."""
    payload = _json_body(body)
    if not isinstance(payload, dict) \
            or not isinstance(payload.get(field), list):
        raise ConfigurationError(
            'request body must be {"%s": [...]}' % field)
    return payload[field]


class AdvisorServer:
    """One advisor service behind an asyncio HTTP listener."""

    def __init__(self, service: AdvisorService | None = None, *,
                 host: str = "127.0.0.1", port: int = 8347):
        self.service = service or AdvisorService()
        self.host = host
        self.port = int(port)
        self._server = None

    # -- request handling (pure; no I/O) ------------------------------------
    def handle_request(self, method: str, path: str, params: dict,
                       body: bytes) -> tuple:
        """Answer one request, ``(status, payload)``, and record it in
        the ``match_service_*`` instruments — the one recording site.

        The Prometheus scrape is deliberately NOT recorded: a scrape
        must not perturb the registry it reads, so two idle scrapes
        stay byte-identical.
        """
        if (method, path) == ("GET", "/metrics"):
            # str payload -> text/plain on the wire
            return 200, self.service.prometheus()
        items = 1
        started = time.perf_counter()
        try:
            status, payload, items = self._route(method, path, params,
                                                 body)
        except ConfigurationError as exc:
            status, payload = 400, {"error": str(exc)}
        except Exception as exc:  # never let a request kill the server
            record = describe_error(exc)
            status = 500
            payload = {"error": "%s: %s" % (record.type, record.message),
                       "error_record": record.to_dict()}
        _LATENCY.observe(time.perf_counter() - started, endpoint=path)
        _REQUESTS.inc(endpoint=path)
        _ITEMS.inc(items, endpoint=path)
        if status >= 400:
            _ERRORS.inc(endpoint=path)
        return status, payload

    def _route(self, method: str, path: str, params: dict,
               body: bytes) -> tuple:
        """``(status, payload, items)`` of one request; ``items`` is the
        number of queries/configs answered (1 outside the batches).
        Malformed input raises :class:`ConfigurationError`."""
        service = self.service
        allowed = _METHODS.get(path)
        if allowed is None:
            return 404, {"error": "no such endpoint %r" % path}, 1
        if method not in allowed:
            return 405, {"error": "use " + " or ".join(allowed)}, 1
        if path == "/healthz":
            return 200, {"status": "ok",
                         "calibration": service.calibration}, 1
        if path == "/metrics.json":
            return 200, service.metrics(), 1
        if path == "/advise":
            query = (_query_from_params(params) if method == "GET"
                     else AdviceQuery.from_dict(_json_body(body)))
            rows = service.advise(query)
            return 200, {"query": query.to_dict(),
                         "calibration": service.calibration,
                         "advice": [row.to_dict() for row in rows]}, 1
        if path == "/advise/batch":
            queries = [AdviceQuery.from_dict(entry)
                       for entry in _body_list(body, "queries")]
            answers = service.advise_batch(queries)
            payload = {"calibration": service.calibration,
                       "advice": [advice.to_dict() for advice in answers]}
            return 200, payload, max(1, len(queries))
        configs = _body_list(body, "configs")  # /predict
        if not all(isinstance(config, dict) for config in configs):
            raise ConfigurationError(
                "every entry of \"configs\" must be an object")
        payload = {"calibration": service.calibration,
                   "predictions": [prediction.as_dict() for prediction
                                   in service.predict(configs)]}
        return 200, payload, max(1, len(configs))

    # -- the wire -----------------------------------------------------------
    async def _read_request(self, reader):
        header_blob = await reader.readuntil(b"\r\n\r\n")
        if len(header_blob) > _MAX_HEADER_BYTES:
            raise ConfigurationError("request headers too large")
        head, _, _ = header_blob.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, target, _ = lines[0].split(" ", 2)
        except ValueError:
            raise ConfigurationError(
                "malformed request line %r" % lines[0]) from None
        headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        if length > _MAX_BODY_BYTES:
            raise ConfigurationError("request body too large")
        body = await reader.readexactly(length) if length else b""
        split = urlsplit(target)
        params = dict(parse_qsl(split.query))
        return method.upper(), split.path, params, body

    async def _handle_connection(self, reader, writer):
        try:
            while True:
                try:
                    method, path, params, body = \
                        await self._read_request(reader)
                except (asyncio.IncompleteReadError,
                        ConnectionResetError):
                    break
                except (ConfigurationError, ValueError,
                        asyncio.LimitOverrunError) as exc:
                    self._write_response(writer, 400,
                                         {"error": str(exc)})
                    await writer.drain()
                    break
                status, payload = self.handle_request(method, path,
                                                      params, body)
                self._write_response(writer, status, payload)
                await writer.drain()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _write_response(self, writer, status: int, payload):
        # str payloads are pre-rendered text (the Prometheus scrape);
        # everything else is a JSON document
        if isinstance(payload, str):
            body = payload.encode("utf-8")
            ctype = PROM_CONTENT_TYPE.encode()
        else:
            body = json.dumps(payload).encode()
            ctype = b"application/json"
        writer.write(
            b"HTTP/1.1 %d %s\r\n"
            b"Content-Type: %s\r\n"
            b"Content-Length: %d\r\n"
            b"\r\n" % (status,
                       _STATUS_TEXT.get(status, "Status").encode(),
                       ctype, len(body)))
        writer.write(body)

    async def start(self):
        """Bind and start serving; resolves the actual port (for
        ``port=0``). Returns the asyncio server."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self.port,
            limit=_MAX_HEADER_BYTES)
        self.port = self._server.sockets[0].getsockname()[1]
        return self._server

    async def serve(self):
        """Serve until cancelled."""
        server = await self.start()
        async with server:
            await server.serve_forever()

    def run(self):
        """Blocking entry point (the ``serve`` CLI subcommand)."""
        try:
            asyncio.run(self.serve())
        except KeyboardInterrupt:
            pass

    def start_in_thread(self) -> threading.Thread:
        """Start the server on a daemon thread (tests, notebooks);
        returns once the port is bound."""
        ready = threading.Event()
        failure: list = []

        async def _serve():
            try:
                server = await self.start()
            except OSError as exc:
                failure.append(exc)
                ready.set()
                return
            ready.set()
            async with server:
                await server.serve_forever()

        thread = threading.Thread(target=lambda: asyncio.run(_serve()),
                                  daemon=True, name="advisor-server")
        thread.start()
        ready.wait(timeout=10.0)
        if failure:
            raise failure[0]
        return thread


__all__ = ["AdvisorServer"]
