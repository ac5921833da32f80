"""Demand-driven queries over backward slices (DESIGN §13).

Instead of solving the whole program to answer one question, a demand
query computes the *cone* of its target — the transitive callers that
can reach it — solves only that cone at full top-down precision, and
satisfies every call edge leaving the cone from the persistent summary
store.  :mod:`repro.query.slice` computes cones over the call graph's
SCC condensation; :mod:`repro.query.engine` runs cone-restricted
solves through the existing engines' ``preload=`` hook and extracts
typed answers ("can an error state reach point p?", "summaries of f",
"entry states observed at f"); :mod:`repro.query.batch` plans N
targets into one warm-start solve per connected cone-union component,
each target's verdict byte-identical to its single-query answer.
"""

from repro.query.slice import (
    QueryCone,
    QueryError,
    QueryTarget,
    UnknownTargetError,
    compute_cone,
    resolve_target,
)
from repro.query.engine import (
    QUERY_KINDS,
    QUERY_PRECISIONS,
    QueryOutcome,
    run_query,
)
from repro.query.batch import (
    BatchComponent,
    BatchOutcome,
    BatchPlan,
    ComponentOutcome,
    plan_batch,
    run_query_batch,
)

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
