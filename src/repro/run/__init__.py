"""Unified execution facade for the dedispersion stack.

One request type (:class:`ExecutionRequest`), one result type
(:class:`ExecutionResult`), one call (:func:`execute`).  See
:mod:`repro.run.facade` for the dispatch table and
``docs/api.md`` for the request reference.

Streaming and fused requests share one chunk engine,
:mod:`repro.run.fused`, whose per-chunk :class:`ChunkResult` lands in
``ExecutionResult.chunk_results``; the fused pass's deterministic
peak-memory meter is :class:`repro.run.peak.MemoryAccount`.
"""

from repro.run.facade import (
    EXECUTION_MODES,
    ExecutionRequest,
    ExecutionResult,
    execute,
)
from repro.run.fused import ChunkResult
from repro.run.peak import MemoryAccount

__all__ = [
    "ChunkResult",
    "EXECUTION_MODES",
    "ExecutionRequest",
    "ExecutionResult",
    "MemoryAccount",
    "execute",
]
