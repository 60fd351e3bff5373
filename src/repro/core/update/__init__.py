"""Transactional multihierarchy updates (DESIGN.md §9).

The update engine in three stages:

1. :mod:`~repro.core.update.compile` — XQuery-Update-flavored
   statements (``insert node``, ``delete node``, ``replace value of``,
   ``rename``, plus the hierarchy-aware ``add markup`` /
   ``remove markup``) compile through the shared query pipeline into
   closures that *evaluate* targets against the pre-state and emit
   primitives;
2. :mod:`~repro.core.update.pul` — the pending update list: snapshot
   semantics, deterministic application order, conflict detection;
3. :mod:`~repro.core.update.apply` — atomic application: row edits on
   working copies of the touched hierarchies' columns, disjoint
   base-text splices absorbed by every other hierarchy's text rows,
   and incremental KyGODDAG registration (partition boundary swaps,
   span-index component surgery, one renamed copy per hierarchy a
   rename touches) — never a DOM, never a from-scratch rebuild, and
   nothing registered written.

The naive re-parse/rebuild reference the differential fuzzer and the
throughput benchmarks compare against lives in ``tests/updateoracle.py``.
"""

from repro.core.update.apply import UpdateApplyStats, apply_pending
from repro.core.update.compile import CompiledUpdate, compile_update
from repro.core.update.pul import (
    AddMarkupPrim,
    DeletePrim,
    InsertPrim,
    PendingUpdateList,
    RemoveMarkupPrim,
    RenamePrim,
    ReplaceValuePrim,
    UpdatePrimitive,
)

__all__ = [
    "AddMarkupPrim",
    "CompiledUpdate",
    "DeletePrim",
    "InsertPrim",
    "PendingUpdateList",
    "RemoveMarkupPrim",
    "RenamePrim",
    "ReplaceValuePrim",
    "UpdateApplyStats",
    "UpdatePrimitive",
    "apply_pending",
    "compile_update",
]
