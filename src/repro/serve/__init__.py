"""The front-tier serving layer: result cache + asyncio service.

The millions-of-users scenario from the ROADMAP: an HTTP-shaped app
(:mod:`repro.serve.app`) in front of the engine, reading through a
normalized-key result cache (:mod:`repro.serve.cache`) whose entries
hold i-locks in an :class:`~repro.locks.ilocks.ILockTable` fed by the
same update stream as the engine's, with MPL-style admission control
mapped to 429/503.
:mod:`repro.serve.load` drives it open-loop and replays the runner's
workload differentially (cache-on vs cache-off must match).
"""

from repro.serve.app import ProcedureApp, Response, Router
from repro.serve.cache import ResultCache, canonical_key, canonical_rows
from repro.serve.load import (
    ServedRunResult,
    ServeLoadResult,
    build_serving_stack,
    plan_requests,
    run_serve_load,
    run_served_workload,
)

__all__ = [
    "ProcedureApp",
    "Response",
    "ResultCache",
    "Router",
    "ServeLoadResult",
    "ServedRunResult",
    "build_serving_stack",
    "canonical_key",
    "canonical_rows",
    "plan_requests",
    "run_serve_load",
    "run_served_workload",
]
