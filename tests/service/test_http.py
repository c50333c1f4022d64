"""The HTTP front end: routing (pure handler) and a live socket test."""

import json

import http.client

import pytest

from repro.modeling.advisor import advise
from repro.service.core import AdvisorService
from repro.service.http import AdvisorServer


@pytest.fixture
def server():
    return AdvisorServer(AdvisorService())


def _get(server, path):
    return server.handle_request("GET", path, _params(path), b"")


def _params(path):
    # handler tests pass params explicitly; GET helpers parse none
    return {}


def _post(server, path, payload):
    return server.handle_request("POST", path, {},
                                 json.dumps(payload).encode())


# -- pure handler -----------------------------------------------------------
def test_healthz(server):
    status, payload = _get(server, "/healthz")
    assert status == 200
    assert payload == {"status": "ok", "calibration": "analytic"}


def test_advise_get_params_match_scalar(server):
    status, payload = server.handle_request(
        "GET", "/advise",
        {"app": "hpccg", "nprocs": "512", "mtbf": "4h"}, b"")
    assert status == 200
    scalar = advise("hpccg", 512, "4h")
    assert payload["advice"] == [row.to_dict() for row in scalar]
    assert payload["calibration"] == "analytic"


def test_advise_get_accepts_csv_designs_and_levels(server):
    status, payload = server.handle_request(
        "GET", "/advise",
        {"app": "hpccg", "nprocs": "64", "mtbf": "1h",
         "designs": "reinit-fti,ulfm-fti", "levels": "2,4",
         "objective": "recovery"}, b"")
    assert status == 200
    scalar = advise("hpccg", 64, "1h",
                    designs=("reinit-fti", "ulfm-fti"), levels=(2, 4),
                    objective="recovery")
    assert payload["advice"] == [row.to_dict() for row in scalar]


def test_advise_post_body(server):
    status, payload = _post(server, "/advise",
                            {"app": "lulesh", "nprocs": 64,
                             "mtbf": 7200})
    assert status == 200
    scalar = advise("lulesh", 64, 7200)
    assert payload["advice"] == [row.to_dict() for row in scalar]


def test_batch_answers_parallel_to_queries(server):
    queries = [{"app": "hpccg", "nprocs": 512, "mtbf": "1h"},
               {"app": "hpccg", "nprocs": 512, "mtbf": "4h"},
               {"app": "lulesh", "nprocs": 64, "mtbf": "1h"}]
    status, payload = _post(server, "/advise/batch",
                            {"queries": queries})
    assert status == 200
    assert len(payload["advice"]) == 3
    for query, advice in zip(queries, payload["advice"]):
        best = advise(query["app"], query["nprocs"], query["mtbf"])[0]
        assert advice == best.to_dict()


def test_predict_endpoint(server):
    status, payload = _post(server, "/predict", {"configs": [
        {"app": "hpccg", "design": "reinit-fti", "nprocs": 64}]})
    assert status == 200
    assert payload["predictions"][0]["app"] == "hpccg"
    assert payload["predictions"][0]["total_seconds"] > 0


def test_error_mapping(server):
    status, payload = _get(server, "/nope")
    assert status == 404
    status, payload = server.handle_request("DELETE", "/advise", {}, b"")
    assert status == 405
    status, payload = server.handle_request(
        "GET", "/advise", {"app": "hpccg", "nprocs": "64",
                           "mtbf": "bogus"}, b"")
    assert status == 400
    assert "s/m/h/d" in payload["error"]     # grammar surfaced to client
    status, payload = _post(server, "/advise/batch", {"wrong": []})
    assert status == 400
    status, payload = server.handle_request("POST", "/advise", {},
                                            b"not json")
    assert status == 400


_QUERY = {"app": "hpccg", "nprocs": 64, "mtbf": "1h"}


@pytest.mark.parametrize("path,payload,names", [
    pytest.param("/advise/batch", {"queries": None}, "queries",
                 id="batch-queries-null"),
    pytest.param("/advise/batch", {"queries": 5}, "queries",
                 id="batch-queries-int"),
    pytest.param("/advise/batch", {"queries": [5]}, "object",
                 id="batch-query-not-object"),
    pytest.param("/predict", {"configs": 7}, "configs",
                 id="predict-configs-int"),
    pytest.param("/predict", {"configs": [5]}, "object",
                 id="predict-config-not-object"),
    pytest.param("/predict", {"configs": [{"app": "hpccg"}]}, "design",
                 id="predict-config-missing-design"),
    pytest.param("/advise", dict(_QUERY, levels=5), "must be lists",
                 id="advise-levels-int"),
    pytest.param("/advise", dict(_QUERY, levels=["two"]), "levels",
                 id="advise-level-not-int"),
    pytest.param("/advise", dict(_QUERY, designs="reinit-fti"),
                 "must be lists", id="advise-designs-string"),
])
def test_malformed_bodies_are_400_not_500(server, path, payload, names):
    status, answer = _post(server, path, payload)
    assert status == 400, answer
    assert names in answer["error"]          # says what was wrong
    assert "error_record" not in answer      # not an escaped exception


def test_requests_are_recorded_in_metrics(server):
    from repro.obs.metrics import REGISTRY

    requests = REGISTRY.counter("match_service_requests_total")
    before = {path: requests.value(endpoint=path)
              for path in ("/healthz", "/advise")}
    _get(server, "/healthz")
    server.handle_request(
        "GET", "/advise", {"app": "hpccg", "nprocs": "64",
                           "mtbf": "1h"}, b"")
    for path, count in before.items():
        assert requests.value(endpoint=path) == count + 1
    # /metrics.json keeps the calibration and the two cache snapshots
    status, payload = _get(server, "/metrics.json")
    assert status == 200
    assert sorted(payload) == ["calibration", "grid_cache", "query_cache"]
    assert payload["query_cache"]["size"] == 1
    assert payload["query_cache"]["hit_rate"] == 0.0
    assert payload["grid_cache"]["grid_builds"] == 1
    # request counts are served as Prometheus text exposition
    status, text = _get(server, "/metrics")
    assert status == 200
    assert isinstance(text, str)
    assert ('match_service_requests_total{endpoint="/healthz"} %d'
            % (before["/healthz"] + 1)) in text
    assert "# TYPE match_service_request_seconds histogram" in text


def test_idle_metrics_scrapes_are_byte_stable(server):
    _get(server, "/healthz")
    status, first = _get(server, "/metrics")
    assert status == 200
    status, second = _get(server, "/metrics")
    # the scrape itself is not recorded, so nothing moved in between
    assert first == second


# -- over a real socket -----------------------------------------------------
def test_live_server_round_trip():
    server = AdvisorServer(AdvisorService(), host="127.0.0.1", port=0)
    server.start_in_thread()
    conn = http.client.HTTPConnection("127.0.0.1", server.port,
                                      timeout=30)
    try:
        conn.request("GET", "/healthz")
        response = conn.getresponse()
        assert response.status == 200
        assert json.loads(response.read())["status"] == "ok"

        conn.request("GET", "/advise?app=hpccg&nprocs=512&mtbf=4h")
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200
        scalar = advise("hpccg", 512, "4h")
        assert payload["advice"] == [row.to_dict() for row in scalar]

        body = json.dumps({"queries": [
            {"app": "hpccg", "nprocs": 512, "mtbf": "1h"},
            {"app": "hpccg", "nprocs": 512, "mtbf": "1h"}]})
        conn.request("POST", "/advise/batch", body=body,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        payload = json.loads(response.read())
        assert response.status == 200
        best = advise("hpccg", 512, "1h")[0].to_dict()
        assert payload["advice"] == [best, best]
    finally:
        conn.close()
