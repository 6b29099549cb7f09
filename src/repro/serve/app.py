"""The asyncio serving tier: procedure access over HTTP-shaped routes.

A FastAPI-style router (method + ``/path/{param}`` templates) with no
framework dependency: :meth:`ProcedureApp.handle` is the ASGI-equivalent
entry point, taking ``(method, path, body)`` and returning a
:class:`Response`. Two resources map the paper's workload onto a service
surface:

- ``GET /procedures/{name}`` — read one procedure's value through the
  front-tier :class:`repro.serve.cache.ResultCache`; misses recompute
  through the engine (charging the simulated clock), hits are free.
- ``POST /updates`` — one seeded update transaction against a base
  relation, flowing through the engine's maintenance *and* the cache's
  invalidation index via :attr:`ProcedureManager.update_listener`. The
  body is an optional JSON object ``{"relation": "R1", "tuples": 10}``
  (both keys optional, ``tuples`` an integer >= 1); any other body is a
  **400**.

Backpressure is MPL-style admission control reusing
:class:`repro.concurrent.admission.AdmissionGate`: a request that cannot
claim a slot after bounded retries is refused with **429** (plus a
``retry_after_ms`` hint from the gate); engine failures surface as
**503** rather than a stack trace. Handlers do their engine work
synchronously after a single post-admission yield point, so the event
loop interleaves admissions but executes engine operations in arrival
order — request streams replay deterministically.
"""

from __future__ import annotations

import asyncio
import random
import re
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Optional

from repro.concurrent.admission import AdmissionGate
from repro.serve.cache import ResultCache, canonical_key, canonical_rows
from repro.workload.runner import perform_update

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.manager import ProcedureManager
    from repro.workload.database import SyntheticDatabase

_UPDATE_RELATIONS = ("R1", "R2", "R3")


@dataclass
class Response:
    """One HTTP-shaped reply."""

    status: int
    body: dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300


Handler = Callable[[dict[str, str], Optional[dict]], Awaitable[Response]]


class Router:
    """Method + path-template dispatch (``/procedures/{name}``)."""

    def __init__(self) -> None:
        self._routes: list[tuple[str, "re.Pattern[str]", Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        regex = re.compile(
            "^"
            + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern)
            + "$"
        )
        self._routes.append((method.upper(), regex, handler))

    def get(self, pattern: str, handler: Handler) -> None:
        self.add("GET", pattern, handler)

    def post(self, pattern: str, handler: Handler) -> None:
        self.add("POST", pattern, handler)

    def match(
        self, method: str, path: str
    ) -> Optional[tuple[Handler, dict[str, str]]]:
        for route_method, regex, handler in self._routes:
            if route_method != method.upper():
                continue
            hit = regex.match(path)
            if hit is not None:
                return handler, hit.groupdict()
        return None


class ProcedureApp:
    """The serving app: routes + cache + admission over one engine."""

    def __init__(
        self,
        manager: "ProcedureManager",
        db: "SyntheticDatabase",
        cache: ResultCache,
        max_inflight: int | None = None,
        admission_retries: int = 8,
        seed: int = 0,
    ) -> None:
        self.manager = manager
        self.db = db
        self.cache = cache
        self.gate = (
            AdmissionGate(max_inflight) if max_inflight is not None else None
        )
        self.admission_retries = admission_retries
        self._rng = random.Random(seed + 17)
        self._next_request = 0
        self.rejected_429 = 0
        self.failed_503 = 0
        self.status_counts: dict[int, int] = {}
        # Every defined procedure is cacheable; its footprint comes from
        # the bound query.
        for procedure in manager.strategy.procedures.values():
            cache.register(procedure)
        # The cache rides the same update stream as the i-lock sweep.
        manager.update_listener = cache.on_update
        self.router = Router()
        self.router.get("/healthz", self._get_health)
        self.router.get("/stats", self._get_stats)
        self.router.get("/procedures/{name}", self._get_procedure)
        self.router.post("/updates", self._post_update)

    # -- entry point -------------------------------------------------------

    async def handle(
        self, method: str, path: str, body: Optional[dict] = None
    ) -> Response:
        matched = self.router.match(method, path)
        if matched is None:
            return self._finish(
                Response(404, {"error": f"no route {method} {path}"})
            )
        handler, params = matched
        self._next_request += 1
        session = f"req-{self._next_request}"
        if self.gate is None:
            return self._finish(await self._invoke(handler, params, body))
        if not await self._admit(session):
            self.rejected_429 += 1
            return self._finish(
                Response(
                    429,
                    {
                        "error": "admission control: engine at MPL",
                        "retry_after_ms": self.gate.retry_delay_ms,
                    },
                )
            )
        try:
            # One yield point while holding the slot: concurrent arrivals
            # contend for the remaining slots before this request's
            # engine work runs, so the gate actually fills under bursts.
            await asyncio.sleep(0)
            return self._finish(await self._invoke(handler, params, body))
        finally:
            self.gate.release(session)

    async def _admit(self, session: str) -> bool:
        assert self.gate is not None
        for _ in range(self.admission_retries + 1):
            if self.gate.try_admit(session):
                return True
            await asyncio.sleep(0)
        return False

    async def _invoke(
        self, handler: Handler, params: dict[str, str], body: Optional[dict]
    ) -> Response:
        try:
            return await handler(params, body)
        except Exception as exc:  # engine fault → graceful 503
            self.failed_503 += 1
            return Response(
                503, {"error": f"engine unavailable: {exc}"}
            )

    def _finish(self, response: Response) -> Response:
        self.status_counts[response.status] = (
            self.status_counts.get(response.status, 0) + 1
        )
        return response

    # -- handlers ----------------------------------------------------------

    async def _get_health(
        self, params: dict[str, str], body: Optional[dict]
    ) -> Response:
        return Response(200, {"status": "ok"})

    async def _get_stats(
        self, params: dict[str, str], body: Optional[dict]
    ) -> Response:
        return Response(
            200,
            {
                "cache": self.cache.stats(),
                "admission": (
                    self.gate.stats() if self.gate is not None else None
                ),
                "rejected_429": self.rejected_429,
                "failed_503": self.failed_503,
                "clock_ms": self.manager.clock.elapsed_ms,
            },
        )

    async def _get_procedure(
        self, params: dict[str, str], body: Optional[dict]
    ) -> Response:
        name = canonical_key(params["name"])
        if name not in self.manager.strategy.procedures:
            return Response(404, {"error": f"unknown procedure {name!r}"})
        rows, mode = self.cache.get_or_compute(
            name, lambda: canonical_rows(self.manager.access(name).rows)
        )
        return Response(
            200,
            {
                "procedure": name,
                "mode": mode,
                "rows": [list(row) for row in rows],
            },
        )

    async def _post_update(
        self, params: dict[str, str], body: Optional[dict]
    ) -> Response:
        # Malformed input is the client's fault (400), never an engine
        # fault (503): check the body's shape before anything reads it.
        body = {} if body is None else body
        if not isinstance(body, dict):
            return Response(400, {"error": "body must be a JSON object"})
        relation = body.get("relation", "R1")
        if relation not in _UPDATE_RELATIONS:
            return Response(
                400,
                {
                    "error": f"unknown relation {relation!r}; "
                    f"choose from {list(_UPDATE_RELATIONS)}"
                },
            )
        tuples = body.get("tuples", 10)
        # type() rather than isinstance(): JSON true/false are not counts.
        if type(tuples) is not int or tuples < 1:
            return Response(400, {"error": "tuples must be an integer >= 1"})
        before_invalidations = self.cache.invalidations
        perform_update(
            self.db, self.manager, self._rng, tuples, relation=relation
        )
        return Response(
            200,
            {
                "relation": relation,
                "tuples": tuples,
                "invalidations": (
                    self.cache.invalidations - before_invalidations
                ),
            },
        )
