"""Analysis-as-a-service: the resident daemon and its clients.

The paper's premise is that bottom-up summaries make interprocedural
results *reusable*; :mod:`repro.incremental` built the reuse substrate
(persistent store, warm starts, decode cache), and this package is the
deployment shape that actually amortizes it — one long-lived process
holding decoded warm starts resident instead of paying process
startup, program parsing, and snapshot decode on every invocation.

* :mod:`repro.service.daemon` — :class:`AnalysisService`: resident
  warm-start LRU, per-(program lineage, config) store shards, request
  coalescing, trace streaming, draining shutdown;
* :mod:`repro.service.protocol` — the JSON request/response format and
  :func:`config_from_json` (service-visible ``AnalysisConfig``);
* :mod:`repro.service.stdio` — stdio-JSONL front end;
* :mod:`repro.service.http` — localhost HTTP front end (ndjson bodies);
* :mod:`repro.service.client` — stdlib HTTP client
  (``repro-swift client``, benchmarks).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.daemon import (
    AnalysisService,
    StreamSink,
    program_digest,
    program_lineage,
)
from repro.service.http import ServiceHTTPServer, make_server, serve_http
from repro.service.protocol import (
    OPS,
    ProtocolError,
    config_from_json,
    config_to_json,
)
from repro.service.stdio import StdioFrontend

__all__ = [
    "AnalysisService",
    "OPS",
    "ProtocolError",
    "ServiceClient",
    "ServiceError",
    "ServiceHTTPServer",
    "StdioFrontend",
    "StreamSink",
    "config_from_json",
    "config_to_json",
    "make_server",
    "program_digest",
    "program_lineage",
    "serve_http",
]
