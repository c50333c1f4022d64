"""Request accounting: ``AdvisorServer.handle_request`` records every
request exactly once in the :mod:`repro.obs` registry — the one store
of request statistics — and the ``/metrics`` scrape records nothing.
"""

import http.client
import json
import threading

import pytest

from repro.obs.metrics import REGISTRY
from repro.service.core import AdvisorService
from repro.service.http import AdvisorServer

ADVISE = {"app": "hpccg", "nprocs": "64", "mtbf": "1h"}


def _counts(endpoint) -> dict:
    """The four ``match_service_*`` instruments' values for one
    endpoint label, read off a registry snapshot."""
    snapshot = REGISTRY.snapshot()

    def sample(name, default):
        for row in snapshot.get(name, {}).get("samples", ()):
            if row["labels"] == {"endpoint": endpoint}:
                return row["value"]
        return default

    latency = sample("match_service_request_seconds",
                     {"count": 0, "sum": 0.0})
    return {"requests": sample("match_service_requests_total", 0),
            "errors": sample("match_service_errors_total", 0),
            "items": sample("match_service_items_total", 0),
            "observations": latency["count"],
            "seconds": latency["sum"]}


def _moved(before, after) -> dict:
    return {key: after[key] - before[key]
            for key in ("requests", "errors", "items", "observations")}


@pytest.fixture
def server():
    return AdvisorServer(AdvisorService())


def test_counts_and_latency_aggregates(server):
    before = _counts("/advise")
    server.handle_request("GET", "/advise", ADVISE, b"")
    server.handle_request("GET", "/advise", ADVISE, b"")
    server.handle_request("GET", "/advise", dict(ADVISE, mtbf="bogus"),
                          b"")
    after = _counts("/advise")
    assert _moved(before, after) == {"requests": 3, "errors": 1,
                                     "items": 3, "observations": 3}
    assert after["seconds"] > before["seconds"]


def _boom(query):
    raise RuntimeError("boom")


@pytest.mark.parametrize("status,method,path,params,body", [
    (200, "GET", "/healthz", {}, b""),
    (200, "GET", "/metrics.json", {}, b""),
    (400, "POST", "/advise", {}, b"not json"),
    (404, "GET", "/nope", {}, b""),
    (405, "DELETE", "/advise", {}, b""),
    (405, "POST", "/metrics", {}, b""),
    (500, "GET", "/advise", ADVISE, b""),
])
def test_every_status_class_is_recorded_exactly_once(
        server, monkeypatch, status, method, path, params, body):
    if status == 500:
        monkeypatch.setattr(server.service, "advise", _boom)
    before = _counts(path)
    answered, payload = server.handle_request(method, path, params, body)
    assert answered == status
    if status == 500:
        assert payload["error_record"]["type"] == "RuntimeError"
    assert _moved(before, _counts(path)) == {
        "requests": 1, "errors": 1 if status >= 400 else 0,
        "items": 1, "observations": 1}


def test_batch_items_counted_separately_from_requests(server):
    queries = [{"app": "hpccg", "nprocs": 64, "mtbf": 300 + i}
               for i in range(1000)]
    before = _counts("/advise/batch")
    status, payload = server.handle_request(
        "POST", "/advise/batch", {},
        json.dumps({"queries": queries}).encode())
    assert status == 200 and len(payload["advice"]) == 1000
    assert _moved(before, _counts("/advise/batch")) == {
        "requests": 1, "errors": 0, "items": 1000, "observations": 1}


def test_endpoints_are_independent(server):
    advise, healthz = _counts("/advise"), _counts("/healthz")
    server.handle_request("GET", "/healthz", {}, b"")
    assert _moved(advise, _counts("/advise"))["requests"] == 0
    assert _moved(healthz, _counts("/healthz"))["requests"] == 1


def test_record_mirrors_into_the_process_registry(server):
    # the registry is process-wide: a second server's requests land on
    # the same cumulative counters, and /metrics serves them as text
    before = _counts("/predict")
    body = json.dumps({"configs": [
        {"app": "hpccg", "design": "reinit-fti", "nprocs": 64}] * 5})
    server.handle_request("POST", "/predict", {}, body.encode())
    other = AdvisorServer(AdvisorService())
    other.handle_request("POST", "/predict", {}, b"")
    after = _counts("/predict")
    assert _moved(before, after) == {"requests": 2, "errors": 1,
                                     "items": 6, "observations": 2}
    status, text = other.handle_request("GET", "/metrics", {}, b"")
    assert status == 200
    assert ('match_service_requests_total{endpoint="/predict"} %d'
            % after["requests"]) in text


def test_metrics_scrape_is_not_recorded(server):
    server.handle_request("GET", "/healthz", {}, b"")
    before = _counts("/metrics")
    first = server.handle_request("GET", "/metrics", {}, b"")
    second = server.handle_request("GET", "/metrics", {}, b"")
    assert first == second              # idle scrapes are byte-identical
    assert _counts("/metrics") == before


def test_concurrent_records_from_threaded_server_are_exact():
    # drive the real asyncio server from N client threads; the
    # registry's lock must land every count
    server = AdvisorServer(AdvisorService(), host="127.0.0.1", port=0)
    server.start_in_thread()
    n_threads, per_thread = 8, 25
    failures = []
    before = _counts("/healthz")

    def hammer():
        conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                          timeout=30)
        try:
            for _ in range(per_thread):
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                body = response.read()
                if response.status != 200:
                    failures.append(body)
        finally:
            conn.close()

    threads = [threading.Thread(target=hammer)
               for _ in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures
    total = n_threads * per_thread
    assert _moved(before, _counts("/healthz")) == {
        "requests": total, "errors": 0, "items": total,
        "observations": total}
    # and the Prometheus text over the socket agrees
    conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=30)
    try:
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
    finally:
        conn.close()
    assert ('match_service_requests_total{endpoint="/healthz"} %d'
            % _counts("/healthz")["requests"]) in text
