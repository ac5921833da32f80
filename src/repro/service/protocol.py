"""Wire format of the analysis service.

Requests and responses are JSON objects — one per line on the
stdio-JSONL front end, one per HTTP POST body on the HTTP front end.
A request names an operation and its inputs::

    {"op": "analyze", "program": "<source>", "format": "mini",
     "property": "File", "config": {"engine": "swift", "k": 5},
     "trace": false, "id": "req-1"}

Operations: ``analyze`` (run, through the shard's summary store),
``edit`` (same, for a changed program — the response additionally
reports the invalidation cone), ``query`` (**metadata only**: what the
service knows about a (program, config) pair — shard, snapshot,
residency — without running anything), ``demand`` (**run a demand
query**: analyze only the backward-slice cone of a target procedure or
point, answering out-of-cone calls from the shard's stored summaries;
see :mod:`repro.query`), ``stats`` (service counters), and
``shutdown`` (drain in-flight requests, then stop).  ``query`` and
``demand`` are deliberately distinct: the first never analyzes
anything, the second is the cheap way to *get* an analysis answer.  A
``demand`` request adds either ``"target"`` (``"proc"`` or
``"proc:index"``) or ``"targets"``, a list of such strings, never
both.  Both run the *batch planner* (one warm-start solve per
connected cone-union component; a single target is a batch of one).
A ``"targets"`` response carries per-target ``"answers"``,
per-component rows, and ``batch_components``/``solves``/
``frontier_snapshot_hits`` counters; a ``"target"`` response carries
that target's ``"answer"``, cone and store counters.  A demand may
also name a ``"kind"`` (``errors`` | ``summaries`` | ``entries``,
default ``errors``) and a ``"precision"`` (``td`` — the
reference-precision default — or ``swift``, which leaves BU triggers
live inside the cone).  Every ``analyze``, ``edit`` and ``demand``
response says whether it was ``"coalesced"`` onto an identical
in-flight request (a demand batch also onto an in-flight batch
covering its targets).  A key an op does not take (:data:`OP_KEYS`) — a misspelled
``"confg"``, a retired ``"workers"`` — is refused naming it, never
ignored.  The optional ``id`` is echoed verbatim on every line the
request produces, so clients multiplexing one connection can match
responses — and streamed trace events — to requests.

Responses name a program twice.  ``program_fp`` is a prefix of the
version digest (the canonical IR text): two requests with the same
``program_fp`` are the same version.  ``shard`` is a prefix of the
program *lineage* (its sorted procedure names): every body-only edit
of a program shares its parent's shard and warm-starts from the
snapshot the last sibling saved there.  Hence ``query``'s
``snapshot`` and ``resident`` fields mean "this lineage has a stored
snapshot / a resident decoded entry this version warm-starts from",
not "this exact version was saved"; ``known`` and ``result`` are per
version.

``config`` is parsed into a full
:class:`repro.framework.config.AnalysisConfig` by
:func:`config_from_json`: the JSON keys are exactly the config's
constructor fields minus the runtime attachments ``sink`` and
``preload`` (``budget`` arrives as ``{"max_work", "max_seconds"}``),
unknown keys raise :class:`ProtocolError` listing the allowed set, and
value validation is the config's own (unknown engines, domains and
pop orders report the valid choices; a budget limit that is not a
non-negative number is refused naming its key).  Responses always carry
``"ok"``; failures add ``"error"`` with a message and never take the
daemon down.
"""

from __future__ import annotations

import dataclasses
from typing import Mapping, Optional

from repro.framework.config import AnalysisConfig
from repro.framework.metrics import Budget


class ProtocolError(ValueError):
    """A malformed request (bad op, unknown config key, bad value)."""


#: Every operation the service accepts, with the top-level request
#: keys it takes.  ``query`` reports metadata (never analyzes);
#: ``demand`` runs a cone-restricted point query.
_ENVELOPE = frozenset({"id", "op"})
_PROGRAM_KEYS = _ENVELOPE | {"program", "format", "property", "config"}
OP_KEYS = {
    "analyze": _PROGRAM_KEYS | {"trace"},
    "edit": _PROGRAM_KEYS | {"trace"},
    "query": _PROGRAM_KEYS,
    "demand": _PROGRAM_KEYS | {"kind", "precision", "target", "targets"},
    "stats": _ENVELOPE,
    "shutdown": _ENVELOPE,
}
OPS = frozenset(OP_KEYS)

#: JSON keys accepted under ``"config"`` — the AnalysisConfig
#: constructor fields, minus the runtime attachments a JSON client
#: cannot send (trace sink, warm-start preload); ``budget`` arrives as
#: ``{"max_work", "max_seconds"}``.
CONFIG_KEYS = (
    frozenset(field.name for field in dataclasses.fields(AnalysisConfig))
    - {"sink", "preload"}
) | {"budget"}

_BUDGET_KEYS = frozenset({"max_work", "max_seconds"})


def config_from_json(payload: Optional[Mapping]) -> AnalysisConfig:
    """Parse a request's ``"config"`` object into an AnalysisConfig.

    ``None``/``{}`` mean the defaults (the same ones ``repro-swift
    verify`` uses: swift over the full type-state domain).
    """
    if payload is None:
        payload = {}
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"config must be an object, not {type(payload).__name__}")
    fields = dict(payload)
    unknown = sorted(set(fields) - CONFIG_KEYS)
    if unknown:
        raise ProtocolError(
            f"unknown config key(s) {unknown}; allowed: {sorted(CONFIG_KEYS)}"
        )
    budget = fields.pop("budget", None)
    if budget is not None and (
        not isinstance(budget, Mapping) or set(budget) - _BUDGET_KEYS
    ):
        raise ProtocolError(
            f'budget must be an object with keys from {sorted(_BUDGET_KEYS)}'
        )
    sites = fields.get("tracked_sites")
    if sites is not None:
        if not isinstance(sites, (list, tuple)) or not all(
            isinstance(site, str) for site in sites
        ):
            raise ProtocolError("tracked_sites must be a list of strings")
        fields["tracked_sites"] = frozenset(sites)
    fields.setdefault("domain", "full")
    try:
        if budget is not None:
            fields["budget"] = Budget(**budget)
        return AnalysisConfig(**fields)
    except (ValueError, TypeError) as exc:
        raise ProtocolError(str(exc)) from None


def config_to_json(config: AnalysisConfig) -> dict:
    """``config`` as a request's ``"config"`` object: the inverse of
    :func:`config_from_json` (the runtime attachments ``sink`` and
    ``preload`` do not travel).  Responses report a config's identity,
    :meth:`AnalysisConfig.canonical_dict`, instead."""
    fields = {
        field.name: getattr(config, field.name)
        for field in dataclasses.fields(config)
        if field.name in CONFIG_KEYS
    }
    if config.tracked_sites is not None:
        fields["tracked_sites"] = sorted(config.tracked_sites)
    if config.budget is not None:
        fields["budget"] = {
            "max_work": config.budget.max_work,
            "max_seconds": config.budget.max_seconds,
        }
    return fields


def parse_request(payload) -> dict:
    """Validate the envelope of one request; returns it as a dict."""
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            f"request must be a JSON object, not {type(payload).__name__}"
        )
    op = payload.get("op")
    if op not in OPS:
        raise ProtocolError(f"unknown op {op!r}; expected one of {sorted(OPS)}")
    unknown = sorted(set(payload) - OP_KEYS[op])
    if unknown:
        raise ProtocolError(
            f"unknown key(s) {unknown} for op {op!r}; "
            f"allowed: {sorted(OP_KEYS[op])}"
        )
    return dict(payload)


def ok_response(op: str, request_id=None, **fields) -> dict:
    out = {"ok": True, "op": op}
    if request_id is not None:
        out["id"] = request_id
    out.update(fields)
    return out


def error_response(message: str, op: Optional[str] = None, request_id=None) -> dict:
    out = {"ok": False, "error": message}
    if op is not None:
        out["op"] = op
    if request_id is not None:
        out["id"] = request_id
    return out
