"""Demand-driven queries over backward slices (DESIGN §13).

Instead of solving the whole program to answer one question, a demand
query computes the *cone* of its target — the transitive callers that
can reach it — solves only that cone at full top-down precision, and
satisfies every call edge leaving the cone from the persistent summary
store.  :mod:`repro.query.slice` computes cones over the call graph's
SCC condensation and plans any set of targets into one warm-start
solve per connected cone-union component; :mod:`repro.query.engine`
runs those cone-restricted solves through the existing engines'
``preload=`` hook and extracts typed answers ("can an error state
reach point p?", "summaries of f", "entry states observed at f").
A point query is a plan of one target: :func:`run_query` and
:func:`run_query_batch` (:mod:`repro.query.batch`) share that one
path, so each target's verdict in a batch is byte-identical to its
single-query answer.
"""

from repro.query.slice import (
    BatchComponent,
    BatchPlan,
    QueryCone,
    QueryError,
    QueryTarget,
    UnknownTargetError,
    compute_cone,
    plan_batch,
    resolve_target,
)
from repro.query.engine import (
    QUERY_KINDS,
    QUERY_PRECISIONS,
    BatchOutcome,
    ComponentOutcome,
    QueryOutcome,
    run_query,
)
from repro.query.batch import run_query_batch

__all__ = [
    "QUERY_KINDS",
    "QUERY_PRECISIONS",
    "BatchComponent",
    "BatchOutcome",
    "BatchPlan",
    "ComponentOutcome",
    "QueryCone",
    "QueryError",
    "QueryOutcome",
    "QueryTarget",
    "UnknownTargetError",
    "compute_cone",
    "plan_batch",
    "resolve_target",
    "run_query",
    "run_query_batch",
]
