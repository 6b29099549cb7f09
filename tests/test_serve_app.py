"""Unit contract for the asyncio serving tier.

Routing, the status-code contract (200/400/404/429/503), admission
backpressure under bursts, the stats resource, and the open-loop load
driver's bookkeeping. Engine-level response correctness is proved in
``test_serve_differential``; here the subject is the HTTP-shaped shell.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.experiments.simcompare import SIM_SCALE_PARAMS
from repro.serve import (
    ProcedureApp,
    Response,
    Router,
    build_serving_stack,
    plan_requests,
    run_serve_load,
)

_PARAMS = SIM_SCALE_PARAMS


def _app(**kwargs) -> ProcedureApp:
    return build_serving_stack(_PARAMS, "cache_invalidate", seed=0, **kwargs)


def _call(app: ProcedureApp, method: str, path: str, body=None) -> Response:
    return asyncio.run(app.handle(method, path, body))


def _some_procedure(app: ProcedureApp) -> str:
    return sorted(app.manager.strategy.procedures)[0]


class TestRouter:
    def test_template_params_and_method_dispatch(self):
        router = Router()

        async def handler(params, body):
            return Response(200, dict(params))

        router.get("/procedures/{name}", handler)
        matched = router.match("GET", "/procedures/P1_000")
        assert matched is not None
        _, params = matched
        assert params == {"name": "P1_000"}
        assert router.match("POST", "/procedures/P1_000") is None
        assert router.match("GET", "/procedures/a/b") is None


class TestRoutes:
    def test_healthz(self):
        app = _app()
        response = _call(app, "GET", "/healthz")
        assert (response.status, response.body) == (200, {"status": "ok"})

    def test_unknown_route_404(self):
        app = _app()
        assert _call(app, "GET", "/nope").status == 404
        assert _call(app, "DELETE", "/healthz").status == 404

    def test_unknown_procedure_404(self):
        app = _app()
        response = _call(app, "GET", "/procedures/GHOST")
        assert response.status == 404
        assert "GHOST" in response.body["error"]

    def test_procedure_miss_then_hit(self):
        app = _app()
        name = _some_procedure(app)
        first = _call(app, "GET", f"/procedures/{name}")
        assert first.status == 200
        assert first.body["mode"] == "cache_miss"
        second = _call(app, "GET", f"/procedures/{name}")
        assert second.body["mode"] == "cache_hit"
        assert second.body["rows"] == first.body["rows"]
        # Responses are canonical: rows arrive sorted.
        rows = [tuple(row) for row in first.body["rows"]]
        assert rows == sorted(rows)

    def test_key_normalization_shares_cache_line(self):
        app = _app()
        name = _some_procedure(app)
        assert (
            _call(app, "GET", f"/procedures/{name}").body["mode"]
            == "cache_miss"
        )
        assert (
            _call(app, "GET", f"/procedures/ {name} ;").body["mode"]
            == "cache_hit"
        )

    def test_update_contract(self):
        app = _app()
        bad = _call(app, "POST", "/updates", {"relation": "R9"})
        assert bad.status == 400
        bad = _call(app, "POST", "/updates", {"tuples": 0})
        assert bad.status == 400
        name = _some_procedure(app)
        _call(app, "GET", f"/procedures/{name}")
        ok = _call(app, "POST", "/updates", {"relation": "R1", "tuples": 5})
        assert ok.status == 200
        assert ok.body["relation"] == "R1"
        assert ok.body["invalidations"] >= 0

    @pytest.mark.parametrize(
        "body",
        [
            {"tuples": "x"},
            {"tuples": 2.9},
            {"tuples": True},
            {"tuples": None},
            ["relation", "R1"],
            [],
            "R1",
        ],
        ids=["str", "float", "bool", "null", "list", "empty-list", "string"],
    )
    def test_malformed_update_is_a_client_error(self, body):
        app = _app()
        response = _call(app, "POST", "/updates", body)
        assert response.status == 400
        assert app.failed_503 == 0
        assert app.manager.num_updates == 0

    def test_update_feeds_cache_invalidation(self):
        app = _app()
        # Fill the cache, then update every relation: something must
        # invalidate (every footprint touches R1/R2/R3).
        for name in sorted(app.manager.strategy.procedures):
            _call(app, "GET", f"/procedures/{name}")
        total = 0
        for relation in ("R1", "R2", "R3"):
            for _ in range(5):
                response = _call(
                    app, "POST", "/updates", {"relation": relation}
                )
                total += response.body["invalidations"]
        assert total > 0
        assert app.cache.invalidations == total

    def test_stats_resource(self):
        app = _app(max_inflight=4)
        name = _some_procedure(app)
        _call(app, "GET", f"/procedures/{name}")
        stats = _call(app, "GET", "/stats").body
        assert stats["cache"]["lookups"] == 1
        assert stats["admission"] is not None
        assert stats["rejected_429"] == 0
        assert stats["failed_503"] == 0
        assert stats["clock_ms"] >= 0


class TestAdmission:
    def test_burst_past_gate_gets_429(self):
        app = _app(max_inflight=1)
        app.admission_retries = 0
        name = _some_procedure(app)

        async def burst():
            return await asyncio.gather(
                *(
                    app.handle("GET", f"/procedures/{name}")
                    for _ in range(4)
                )
            )

        responses = asyncio.run(burst())
        statuses = sorted(r.status for r in responses)
        assert statuses == [200, 429, 429, 429]
        rejected = [r for r in responses if r.status == 429]
        assert all(
            r.body["retry_after_ms"] == app.gate.retry_delay_ms
            for r in rejected
        )
        assert app.rejected_429 == 3
        assert app.status_counts == {200: 1, 429: 3}

    def test_retries_drain_a_serial_burst(self):
        # With the default retry budget a small burst fully drains
        # through a single slot: each retry yields to the loop, and the
        # slot-holder's engine work is synchronous.
        app = _app(max_inflight=1)
        name = _some_procedure(app)

        async def burst():
            return await asyncio.gather(
                *(
                    app.handle("GET", f"/procedures/{name}")
                    for _ in range(3)
                )
            )

        responses = asyncio.run(burst())
        assert [r.status for r in responses] == [200, 200, 200]

    def test_no_gate_means_no_429(self):
        app = _app()
        assert app.gate is None
        name = _some_procedure(app)

        async def burst():
            return await asyncio.gather(
                *(
                    app.handle("GET", f"/procedures/{name}")
                    for _ in range(8)
                )
            )

        assert all(r.status == 200 for r in asyncio.run(burst()))


class TestFailure:
    def test_engine_fault_becomes_503(self):
        app = _app()
        name = _some_procedure(app)

        def boom(_name):
            raise RuntimeError("disk on fire")

        app.manager.access = boom
        response = _call(app, "GET", f"/procedures/{name}")
        assert response.status == 503
        assert "disk on fire" in response.body["error"]
        assert app.failed_503 == 1


class TestLoadDriver:
    def test_plan_is_seed_deterministic(self):
        names = [f"P{i}" for i in range(10)]
        a = plan_requests(names, 50, seed=3, update_probability=0.2)
        b = plan_requests(names, 50, seed=3, update_probability=0.2)
        assert a == b
        assert plan_requests(names, 50, seed=4) != a
        kinds = {method for method, _, _ in a}
        assert kinds == {"GET", "POST"}

    def test_zipf_skews_toward_head(self):
        names = [f"P{i}" for i in range(20)]
        plan = plan_requests(
            names, 400, seed=0, update_probability=0.0, zipf_s=1.2
        )
        counts: dict[str, int] = {}
        for _, path, _ in plan:
            counts[path] = counts.get(path, 0) + 1
        top = max(counts.values())
        assert top > 400 / 20 * 2  # the head is far above uniform

    @pytest.mark.slow
    def test_run_serve_load_bookkeeping(self):
        result = run_serve_load(
            _PARAMS,
            "cache_invalidate",
            num_requests=40,
            seed=5,
            max_inflight=8,
            audit=True,
        )
        assert result.requests == 40
        assert sum(result.status_counts.values()) == 40
        assert result.cache["stale_reads"] == 0
        assert result.throughput_rps > 0
        assert result.latency_p99_ms >= result.latency_p50_ms
        payload = result.to_dict()
        assert payload["requests"] == 40
        assert set(payload["status_counts"]) <= {"200", "429", "503"}
