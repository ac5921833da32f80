"""Command-line interface.

::

    repro-swift verify prog.mini --property File --engine swift
    repro-swift verify prog.ir --all-properties
    repro-swift verify prog.mini --engine td --scheduler fifo
    repro-swift verify prog.mini --domain killgen
    repro-swift analyze prog.mini --store .repro-store
    repro-swift query-point prog.mini worker3 --store .repro-store
    repro-swift query-point prog.mini hub:4 --kind summaries --store .repro-store
    repro-swift serve --root .repro-service --http 127.0.0.1:8731
    repro-swift client analyze prog.mini --server http://127.0.0.1:8731
    repro-swift client demand prog.mini --target worker3 --server http://127.0.0.1:8731
    repro-swift client stats --server http://127.0.0.1:8731
    repro-swift client shutdown --server http://127.0.0.1:8731
    repro-swift store stats .repro-store
    repro-swift store gc .repro-store --keep 4
    repro-swift store clear .repro-store
    repro-swift dump-ir prog.mini
    repro-swift dot prog.mini --proc main
    repro-swift bench hedc
    repro-swift experiments table1 table3
    repro-swift trace record prog.mini --out trace.jsonl
    repro-swift trace summarize trace.jsonl
    repro-swift trace diff before.jsonl after.jsonl

Files ending in ``.mini`` are treated as MiniOO source and compiled;
anything else is parsed as textual IR (the ``proc name { ... }`` format
of :mod:`repro.ir.parser`).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from pathlib import Path
from typing import List, Optional

from repro.ir.parser import parse_program
from repro.ir.printer import format_program
from repro.ir.program import Program
from repro.typestate.properties import property_by_name


def _program_format(path: str) -> str:
    """``mini`` for MiniOO source (a ``.mini`` file), else ``ir``."""
    return "mini" if path.endswith(".mini") else "ir"


class _UsageError(Exception):
    """A flag value the configuration refuses, or an input file that
    cannot be read; :func:`main` prints it as one ``error: …`` line on
    stderr and exits 2."""


def load_program(path: str) -> Program:
    """Load a program from MiniOO source or textual IR."""
    text = _checked(Path(path).read_text)
    if _program_format(path) == "mini":
        from repro.frontend import compile_minioo

        return compile_minioo(text)
    return parse_program(text)


def _checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``, its ``ValueError`` or ``OSError`` (an
    unreadable input file) a usage error."""
    try:
        return build(*args, **kwargs)
    except (ValueError, OSError) as exc:
        raise _UsageError(exc) from None


#: The flags :func:`_add_config_flags` may declare that name a config field.
_CONFIG_FLAGS = (
    "engine", "domain", "k", "theta", "scheduler", "widening_delay",
    "descending_iters",
)


def _config(args: argparse.Namespace):
    """The :class:`~repro.framework.config.AnalysisConfig` of a verb's
    flags; a field the verb has no flag for keeps the config default."""
    from repro.framework.config import make_config
    from repro.framework.metrics import Budget

    budget = getattr(args, "budget", None)
    return _checked(
        make_config,
        budget=None if budget is None else _checked(Budget, max_work=budget),
        **{name: getattr(args, name, None) for name in _CONFIG_FLAGS},
    )


def _print_verdict(
    name: str,
    answer,
    *,
    kind: str = "errors",
    at=None,
    td_summaries: Optional[int] = None,
    timed_out: bool = False,
) -> int:
    """Print one verdict block and return the verb's exit code.

    ``answer`` is the encoded form
    (:func:`repro.typestate.client.encode_answer`, also the service's
    JSON); ``at`` names a demand query's target.  The exit code is 2
    when the run exceeded its budget, 1 for protocol violations, else
    0.  ``verify``, ``analyze``, the query verbs and every client verb
    print through here, so CI can byte-compare their verdict lines.
    """
    if timed_out:
        print(f"{name}: analysis exceeded its budget")
        return 2
    where = "" if at is None else f" at {at}"
    if kind == "errors":
        if not answer:
            summaries = (
                "" if td_summaries is None
                else f" ({td_summaries} top-down summaries)"
            )
            print(f"{name}: ok{where}{summaries}")
            return 0
        print(f"{name}: {len(answer)} possible protocol violation(s){where}")
        for point, site in answer:
            print(f"  object from {site} may be in the error state at {point}")
        return 1
    if kind == "summaries":
        print(f"{at}: {len(answer)} summary pair(s)")
        for entry, exit_state in answer:
            print(f"  {entry} -> {exit_state}")
        return 0
    print(f"{at}: {len(answer)} entry state(s)")
    for state in answer:
        print(f"  {state}")
    return 0


def _print_batch(name: str, kind: str, answers, timed_out: bool) -> int:
    """The per-target sections of a batch answer (``query-batch``,
    ``client demand`` with several targets): ``answers`` yields
    ``(target, encoded answer)`` pairs, read only when the run finished."""
    if timed_out:
        return _print_verdict(name, None, timed_out=True)
    code = 0
    for target, answer in answers:
        print(f"-- target {target}")
        code = max(code, _print_verdict(name, answer, kind=kind, at=target))
    return code


def cmd_verify(args: argparse.Namespace) -> int:
    from repro.typestate.client import encode_answer, run_typestate
    from repro.typestate.multi import run_multi_property

    config = _config(args)
    program = load_program(args.file)
    if not config.domain.startswith("typestate-"):
        # Fact domains carry no type-state property: run the session
        # directly and report the facts reaching main's exit.
        from repro.framework.session import analysis_session

        if args.all_properties:
            print("--all-properties only applies to the type-state domains")
            return 2
        outcome = analysis_session().run(program, config)
        if outcome.timed_out:
            return _print_verdict(args.domain, None, timed_out=True)
        print(
            f"{args.domain}: {len(outcome.findings)} fact(s) at main's exit "
            f"({outcome.td_summaries} top-down summaries)"
        )
        for fact in sorted(outcome.findings, key=str):
            print(f"  {fact}")
        return 0
    if args.all_properties:
        report = run_multi_property(program, config=config)
        for line in report.summary_lines():
            print(line)
        return 1 if report.total_errors else 0
    prop = property_by_name(args.property)
    report = run_typestate(program, prop, config)
    return _print_verdict(
        prop.name,
        encode_answer("errors", report.errors),
        td_summaries=report.td_summaries,
        timed_out=report.timed_out,
    )


def cmd_dump_ir(args: argparse.Namespace) -> int:
    print(format_program(load_program(args.file)))
    return 0


def cmd_dot(args: argparse.Namespace) -> int:
    from repro.callgraph import build_call_graph
    from repro.ir.cfg import ControlFlowGraphs
    from repro.ir.dot import call_graph_to_dot, cfg_to_dot

    program = load_program(args.file)
    if args.proc:
        if args.proc not in program:
            raise _UsageError(f"no procedure {args.proc!r} in {args.file}")
        cfgs = ControlFlowGraphs(program)
        print(cfg_to_dot(cfgs[args.proc]))
    else:
        print(call_graph_to_dot(build_call_graph(program)))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench import (
        benchmark_names,
        load_benchmark,
        load_shape,
        shape_names,
    )
    from repro.experiments.harness import run_engine

    config = _config(args)
    if args.name in benchmark_names():
        benchmark = load_benchmark(args.name)
    elif args.name in shape_names():
        # Generated shapes are pure functions of (shape, size, seed):
        # --seed reproduces the exact same program anywhere.
        benchmark = load_shape(args.name, seed=args.seed)
    else:
        print(
            f"unknown benchmark {args.name!r}; choose from "
            f"{benchmark_names() + shape_names()}"
        )
        return 2
    for engine in ("td", "bu", "swift"):
        run = run_engine(benchmark, engine, k=config.k, theta=config.theta)
        print(
            f"{engine:6} {run.time_label:>9}  "
            f"td-summaries={run.td_summaries}  bu-summaries={run.bu_summaries}"
        )
    return 0


def cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import __main__ as runner

    for name in args.names:
        if name not in runner.EXHIBITS:
            raise _UsageError(
                f"unknown exhibit {name!r}; choose from {', '.join(runner.EXHIBITS)}"
            )
    runner.run(args.names, parallel=args.parallel, trace=args.trace)
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.framework.tracing import JsonlSink, Profile, diff_traces, read_jsonl

    if args.trace_command == "record":
        from repro.typestate.client import run_typestate

        config = _config(args)
        program = load_program(args.file)
        sink = JsonlSink(args.out)
        try:
            report = run_typestate(
                program, property_by_name(args.property), config, sink=sink
            )
        finally:
            sink.close()
        profile = Profile.from_jsonl(args.out)
        outcome = "timeout" if report.timed_out else f"{len(report.errors)} error(s)"
        print(
            f"recorded {profile.total_events} events to {args.out} "
            f"({args.engine} on {args.file}: {outcome})"
        )
        return 0
    if args.trace_command == "summarize":
        profile = Profile.from_events(_checked(read_jsonl, args.file))
        print(
            profile.render(
                limit=args.limit, title=f"Trace summary: {args.file}"
            )
        )
        return 0
    if args.trace_command == "diff":
        delta = diff_traces(
            _checked(read_jsonl, args.left), _checked(read_jsonl, args.right)
        )
        if not delta:
            print(f"traces agree ({args.left} vs {args.right})")
            return 0
        print(f"{len(delta)} differing (kind, proc) event counts:")
        for kind, proc, left_count, right_count in delta:
            print(f"  {kind:22} {proc or '<program>':20} {left_count:>8} -> {right_count}")
        return 1
    raise AssertionError(f"unknown trace subcommand {args.trace_command!r}")


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.incremental import SummaryStore, analyze_with_store
    from repro.typestate.client import encode_answer

    config = _config(args)
    program = load_program(args.file)
    outcome = analyze_with_store(
        program,
        property_by_name(args.property),
        SummaryStore(args.store),
        config,
        meta={"file": args.file},
    )
    report = outcome.report
    start = "cold" if outcome.cold else "warm"
    print(
        f"{args.property}: {start} start, "
        f"hits={outcome.store_hits} misses={outcome.store_misses} "
        f"invalidated={outcome.store_invalidated} "
        f"work={report.result.metrics.total_work}"
    )
    if outcome.saved:
        print(f"snapshot: {outcome.snapshot_path}")
    elif report.timed_out:
        print("snapshot not saved (run exceeded its budget)")
    return _print_verdict(
        args.property,
        encode_answer("errors", report.errors),
        td_summaries=report.td_summaries,
        timed_out=report.timed_out,
    )


def cmd_query(args: argparse.Namespace) -> int:
    """``query-point`` (one target) and ``query-batch`` (several): the
    same demand run, each with its own header."""
    from repro.incremental import SummaryStore
    from repro.query import QueryError, run_query, run_query_batch
    from repro.typestate.client import encode_answer

    config = _config(args)
    program = load_program(args.file)
    batch = args.command == "query-batch"
    try:
        outcome = (run_query_batch if batch else run_query)(
            program,
            property_by_name(args.property),
            SummaryStore(args.store),
            args.targets,
            args.kind,
            config,
            query_precision=args.query_precision,
        )
    except QueryError as exc:
        print(f"query error: {exc}")
        return 2
    start = "cold" if outcome.cold else "warm"
    if not batch:
        print(
            f"{args.property}: demand {outcome.target} ({outcome.kind}), "
            f"{start} store, cone={outcome.cone_size}/{len(program)} "
            f"frontier={outcome.frontier_size} "
            f"hits={outcome.store_hits} misses={outcome.store_misses} "
            f"work={outcome.total_work} "
            f"out-of-cone-rows={outcome.out_of_cone_interior_rows} "
            f"frontier-snapshot={outcome.frontier_snapshot} "
            f"store-load={outcome.store_load_seconds:.6f}s"
        )
        return _print_verdict(
            args.property,
            encode_answer(outcome.kind, outcome.answer),
            kind=outcome.kind,
            at=outcome.target,
            timed_out=outcome.timed_out,
        )
    print(
        f"{args.property}: batch demand {len(outcome.plan.targets)} target(s) "
        f"({outcome.kind}), {start} store, "
        f"components={outcome.batch_components} solves={outcome.solves} "
        f"frontier-hits={outcome.frontier_snapshot_hits} "
        f"work={outcome.total_work} "
        f"out-of-cone-rows={outcome.out_of_cone_interior_rows} "
        f"store-load={outcome.store_load_seconds:.6f}s"
    )
    for comp in outcome.components:
        solved = "solved" if comp.solved else "empty-cone"
        print(
            f"component {comp.index}: {len(comp.targets)} target(s) "
            f"cone={comp.cone_size} frontier={comp.frontier_size} {solved} "
            f"work={comp.total_work} "
            f"frontier-snapshot={comp.frontier_snapshot}"
        )
    return _print_batch(
        args.property,
        outcome.kind,
        (
            (target, encode_answer(outcome.kind, outcome.answers[target]))
            for target in outcome.plan.targets
        ),
        outcome.timed_out,
    )


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import AnalysisService

    host, _, port = args.http.rpartition(":")
    if not args.stdio and not (port.isdecimal() and int(port) <= 65535):
        raise _UsageError(
            f"--http port must be a number from 0 to 65535, not {port!r}"
        )
    service = _checked(AnalysisService, args.root, lru_size=args.lru_size)
    if args.stdio:
        from repro.service.stdio import StdioFrontend

        return StdioFrontend(service, sys.stdin, sys.stdout).serve()
    from repro.service.http import make_server

    server = make_server(service, host or "127.0.0.1", int(port))
    bound = server.server_address
    print(
        f"repro-swift service listening on http://{bound[0]}:{bound[1]} "
        f"(store root {args.root}, lru {args.lru_size})",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return 0


def cmd_client(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceClient, ServiceError
    from repro.service.protocol import config_to_json

    client = ServiceClient(args.server)
    command = args.client_command
    if command not in ("stats", "shutdown"):
        # Input errors are the caller's, not the transport's: refuse
        # them before anything is sent.
        request = {
            "fmt": _program_format(args.file),
            "prop": args.property,
            "config": config_to_json(_config(args)),
        }
        text = _checked(Path(args.file).read_text)
    try:
        if command == "stats":
            import json

            print(json.dumps(client.stats(), indent=2, sort_keys=True))
            return 0
        if command == "shutdown":
            response = client.shutdown()
            print(
                f"service shut down "
                f"({response['drained_requests']} request(s) served)"
            )
            return 0
        if command == "query":
            response = client.query(text, **request)
            print(
                f"shard={response['shard']} known={response['known']} "
                f"resident={response['resident']} snapshot={response['snapshot']}"
            )
            return 0
        if command == "demand":
            return _client_demand(args, client, text, request)
        on_trace = None
        if args.trace:
            on_trace = lambda event: print(f"  trace: {event}")
        response = client.analyze(
            text, trace=args.trace, op=command, on_trace=on_trace, **request
        )
        # Header mirrors `analyze --store`; the verdict lines below
        # it are byte-identical to `repro-swift verify`'s output.
        start = "cold" if response["cold"] else "warm"
        coalesced = " (coalesced)" if response.get("coalesced") else ""
        print(
            f"{args.property}: {start} start{coalesced}, "
            f"hits={response.get('store_hits', 0)} "
            f"misses={response.get('store_misses', 0)} "
            f"invalidated={response.get('store_invalidated', 0)} "
            f"work={response['work']}"
        )
        return _print_verdict(
            args.property,
            response["errors"],
            td_summaries=response["td_summaries"],
            timed_out=response["timed_out"],
        )
    except ServiceError as exc:
        print(f"service error: {exc}")
        return 2
    except OSError as exc:
        print(f"cannot reach {args.server}: {exc}")
        return 2


def _client_demand(args, client, text: str, request: dict) -> int:
    """``client demand``: one target, or a batch when several are given."""
    batch = len(args.targets) > 1
    response = client.demand(
        text,
        None if batch else args.targets[0],
        kind=args.kind,
        targets=args.targets if batch else None,
        precision=args.precision,
        **request,
    )
    start = "cold" if response["cold"] else "warm"
    if not batch:
        print(
            f"{args.property}: demand {response['target']} "
            f"({response['kind']}), {start} store, "
            f"cone={response['cone_size']}/{response['program_procs']} "
            f"work={response['work']} ({response['elapsed_ms']}ms)"
        )
        return _print_verdict(
            args.property,
            response["answer"],
            kind=response["kind"],
            at=response["target"],
            timed_out=response["timed_out"],
        )
    coalesced = " (coalesced)" if response.get("coalesced") else ""
    print(
        f"{args.property}: batch demand "
        f"{len(response['targets'])} target(s) "
        f"({response['kind']}), {start} store{coalesced}, "
        f"components={response['batch_components']} "
        f"solves={response['solves']} "
        f"frontier-hits={response['frontier_snapshot_hits']} "
        f"work={response['work']} ({response['elapsed_ms']}ms)"
    )
    return _print_batch(
        args.property,
        response["kind"],
        ((target, response["answers"][target]) for target in response["targets"]),
        response["timed_out"],
    )


def cmd_store(args: argparse.Namespace) -> int:
    from repro.incremental import SummaryStore

    store = SummaryStore(args.dir)
    if args.store_command == "stats":
        rows = store.stats()
        if not rows:
            print(f"no snapshots under {args.dir}")
            return 0
        for row in rows:
            if row.get("corrupt"):
                print(f"{row['file']}: CORRUPT ({row['bytes']} bytes)")
                continue
            print(
                f"{row['file']}: {row['engine']}/{row['domain']} "
                f"property={row['property']} procs={row['procedures']} "
                f"contexts={row['contexts']} td-rows={row['td_rows']} "
                f"bu-summaries={row['bu_summaries']} ({row['bytes']} bytes, "
                f"log {row['log_bytes']} bytes over {row['appends']} appended "
                f"save(s))"
            )
        return 0
    if args.store_command == "gc":
        removed = _checked(store.gc, keep=args.keep)
        compacted = store.compact()
        print(
            f"removed {len(removed)} file(s), compacted {len(compacted)}, "
            f"kept {len(store.snapshot_paths())}"
        )
        return 0
    if args.store_command == "clear":
        print(f"removed {store.clear()} file(s)")
        return 0
    raise AssertionError(f"unknown store subcommand {args.store_command!r}")


def _add_config_flags(
    parser: argparse.ArgumentParser,
    engines=None,
    domains=("simple", "full"),
    *,
    all_properties: bool = False,
    thresholds: bool = True,
    budget=False,
    scheduler: bool = False,
    widening=None,
) -> None:
    """Declare the flags :func:`_config` reads, in one order.

    ``engines`` (when given) adds ``--property``, ``--engine`` and
    ``--domain``; ``thresholds`` adds ``--k`` and ``--theta``;
    ``budget`` adds ``--budget`` (a string is its help text);
    ``widening`` is the help-text pair of ``--widening-delay`` and
    ``--descending-iters``.
    """
    if engines is not None:
        parser.add_argument("--property", default="File")
        if all_properties:
            parser.add_argument("--all-properties", action="store_true")
        parser.add_argument("--engine", choices=engines, default="swift")
        parser.add_argument("--domain", choices=list(domains), default="full")
    if thresholds:
        parser.add_argument("--k", type=int, default=5)
        parser.add_argument("--theta", type=int, default=1)
    if budget:
        help_text = budget if isinstance(budget, str) else None
        parser.add_argument("--budget", type=int, default=None, help=help_text)
    if scheduler:
        from repro.framework.topdown import TopDownEngine

        parser.add_argument(
            "--scheduler",
            choices=TopDownEngine.POP_ORDERS,
            default=TopDownEngine.POP_ORDERS[0],
            help="worklist pop order (results are identical across orders)",
        )
    if widening is not None:
        delay_help, iters_help = widening
        parser.add_argument(
            "--widening-delay", type=int, default=2, help=delay_help
        )
        parser.add_argument(
            "--descending-iters", type=int, default=0, help=iters_help
        )


_KIND_HELP = "question asked: error reachability, summary pairs, entry states"
_WORK_BUDGET = "work budget"


def build_parser() -> argparse.ArgumentParser:
    from repro.framework.registry import ENGINES
    from repro.typestate.client import QUERY_KINDS, QUERY_PRECISIONS

    engines = ENGINES.names()
    # Verbs that read or write the summary store take the engines with
    # a warm-start hook.
    preload_engines = [
        name for name in engines if ENGINES.get(name).supports_preload
    ]

    parser = argparse.ArgumentParser(
        prog="repro-swift",
        description="Hybrid top-down/bottom-up interprocedural analysis (PLDI'14 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="verify a property / run a fact domain")
    verify.add_argument("file")
    _add_config_flags(
        verify,
        engines,
        [
            "simple",
            "full",
            "killgen",
            "copyprop",
            "interval",
            "interval-typestate",
        ],
        all_properties=True,
        budget=_WORK_BUDGET,
        scheduler=True,
        widening=(
            "join visits at a widening point before widening kicks in "
            "(infinite-height domains only; finite domains ignore it)",
            "narrowing (descending) passes after the ascending fixpoint "
            "(infinite-height domains only)",
        ),
    )
    verify.set_defaults(fn=cmd_verify)

    analyze = sub.add_parser(
        "analyze", help="verify with a persistent summary store (incremental)"
    )
    analyze.add_argument("file")
    analyze.add_argument("--store", required=True, metavar="DIR", help="store directory")
    _add_config_flags(
        analyze,
        preload_engines,
        ["simple", "full", "interval-typestate"],
        budget=_WORK_BUDGET,
        widening=(
            "join visits before widening (infinite-height domains only); "
            "part of the store fingerprint for those domains",
            "narrowing passes after the ascending fixpoint "
            "(infinite-height domains only)",
        ),
    )
    analyze.set_defaults(fn=cmd_analyze)

    for verb, verb_help, nargs, target_help in (
        (
            "query-point",
            "demand query: analyze only the target's cone, reusing the store",
            None,
            "procedure name, or proc:index for one program point",
        ),
        (
            "query-batch",
            "batch demand query: one warm-start solve per connected "
            "cone-union component, per-target verdicts identical to query-point",
            "+",
            "procedure names and/or proc:index points",
        ),
    ):
        query = sub.add_parser(verb, help=verb_help)
        query.add_argument("file")
        query.add_argument(
            "targets", nargs=nargs, metavar="target", help=target_help
        )
        query.add_argument(
            "--store", required=True, metavar="DIR", help="store directory"
        )
        query.add_argument(
            "--kind", choices=QUERY_KINDS, default="errors", help=_KIND_HELP
        )
        _add_config_flags(query, preload_engines, budget=_WORK_BUDGET)
        query.add_argument(
            "--query-precision",
            choices=QUERY_PRECISIONS,
            default="td",
            help="td pins the cone to reference precision; swift leaves "
            "BU triggers live inside the cone",
        )
        query.set_defaults(fn=cmd_query)

    serve = sub.add_parser(
        "serve", help="run the resident analysis service (daemon)"
    )
    serve.add_argument(
        "--root",
        default=".repro-service",
        metavar="DIR",
        help="store root; snapshots shard under DIR/<program lineage>/",
    )
    serve.add_argument(
        "--http",
        default="127.0.0.1:8731",
        metavar="HOST:PORT",
        help="listen address (port 0 picks a free port)",
    )
    serve.add_argument(
        "--stdio",
        action="store_true",
        help="serve JSONL over stdin/stdout instead of HTTP",
    )
    serve.add_argument(
        "--lru-size",
        type=int,
        default=8,
        metavar="N",
        help="resident decoded warm starts kept (true LRU)",
    )
    serve.set_defaults(fn=cmd_serve)

    client = sub.add_parser("client", help="talk to a running service")
    client_sub = client.add_subparsers(dest="client_command", required=True)

    def _client_common(sub_parser, with_file=True):
        if with_file:
            sub_parser.add_argument("file")
        sub_parser.add_argument(
            "--server",
            default="http://127.0.0.1:8731",
            help="service base URL",
        )
        sub_parser.set_defaults(fn=cmd_client)

    for verb in ("analyze", "edit"):
        sub_parser = client_sub.add_parser(
            verb,
            help=(
                "verify through the service"
                if verb == "analyze"
                else "re-verify a changed program through the service"
            ),
        )
        _client_common(sub_parser)
        _add_config_flags(sub_parser, engines, budget=True)
        sub_parser.add_argument(
            "--trace",
            action="store_true",
            help="stream the engine's trace events while the run happens",
        )

    query = client_sub.add_parser(
        "query",
        help="metadata only: what the service knows about (program, config) "
        "— runs no analysis; to answer a point question, use 'demand'",
    )
    _client_common(query)
    _add_config_flags(query, engines, thresholds=False)

    demand = client_sub.add_parser(
        "demand",
        help="run a demand (point) query: analyze only the target's cone "
        "through the service — distinct from 'query', which runs nothing",
    )
    _client_common(demand)
    demand.add_argument(
        "--target",
        required=True,
        action="append",
        dest="targets",
        metavar="TARGET",
        help="procedure name, or proc:index for one program point; "
        "repeat for a batch (one solve per connected cone component)",
    )
    demand.add_argument("--kind", choices=QUERY_KINDS, default="errors")
    _add_config_flags(demand, preload_engines)
    demand.add_argument("--precision", choices=QUERY_PRECISIONS, default="td")

    stats = client_sub.add_parser("stats", help="service counters as JSON")
    _client_common(stats, with_file=False)

    shutdown = client_sub.add_parser(
        "shutdown", help="drain in-flight requests, then stop the daemon"
    )
    _client_common(shutdown, with_file=False)

    store = sub.add_parser("store", help="inspect or maintain a summary store")
    store_sub = store.add_subparsers(dest="store_command", required=True)
    stats = store_sub.add_parser("stats", help="one line per snapshot")
    stats.add_argument("dir")
    stats.set_defaults(fn=cmd_store)
    gc = store_sub.add_parser(
        "gc", help="drop all but the newest snapshots and compact their logs"
    )
    gc.add_argument("dir")
    gc.add_argument("--keep", type=int, default=8)
    gc.set_defaults(fn=cmd_store)
    clear = store_sub.add_parser("clear", help="remove every snapshot")
    clear.add_argument("dir")
    clear.set_defaults(fn=cmd_store)

    dump = sub.add_parser("dump-ir", help="compile/parse and print the IR")
    dump.add_argument("file")
    dump.set_defaults(fn=cmd_dump_ir)

    dot = sub.add_parser("dot", help="emit graphviz for the call graph or one CFG")
    dot.add_argument("file")
    dot.add_argument("--proc", default=None)
    dot.set_defaults(fn=cmd_dot)

    bench = sub.add_parser(
        "bench", help="race the engines on a suite benchmark or generated shape"
    )
    bench.add_argument("name")
    _add_config_flags(bench)
    bench.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override a generated shape's seed (byte-for-byte reproducible)",
    )
    bench.set_defaults(fn=cmd_bench)

    experiments = sub.add_parser("experiments", help="regenerate tables/figures")
    experiments.add_argument("names", nargs="*")
    experiments.add_argument(
        "--parallel",
        type=int,
        default=0,
        metavar="N",
        help="compute each exhibit's independent rows in N worker processes "
        "(same rows as a serial run; see experiments/harness.py)",
    )
    experiments.add_argument(
        "--trace",
        default=None,
        metavar="DIR",
        help="record each engine run's analysis events to a JSONL file "
        "under DIR/<exhibit>/",
    )
    experiments.set_defaults(fn=cmd_experiments)

    trace = sub.add_parser("trace", help="record, summarize, or diff analysis traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    record = trace_sub.add_parser("record", help="run an engine, recording events to JSONL")
    record.add_argument("file")
    record.add_argument("--out", default="trace.jsonl", help="JSONL output path")
    _add_config_flags(record, engines, budget=_WORK_BUDGET)
    record.set_defaults(fn=cmd_trace)

    summarize = trace_sub.add_parser(
        "summarize", help="per-procedure event counts and summary hit rates"
    )
    summarize.add_argument("file")
    summarize.add_argument("--limit", type=int, default=20, help="rows to show")
    summarize.set_defaults(fn=cmd_trace)

    diff = trace_sub.add_parser(
        "diff", help="compare per-(kind, proc) event counts of two traces"
    )
    diff.add_argument("left")
    diff.add_argument("right")
    diff.set_defaults(fn=cmd_trace)
    return parser


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares, built on first use: building
    it imports the registries and creates ~25 subparsers, which would
    otherwise cost each in-process call (edit loops, the end-to-end
    benchmark) milliseconds.  Parsing never mutates it; each call gets
    a fresh namespace."""
    return build_parser()


#: The verbs whose one invocation is one analysis request, run inside
#: :func:`~repro.framework.session.request_scope`.  ``serve``,
#: ``experiments`` and ``bench`` live long and scope each request or
#: engine run themselves.
_REQUEST_VERBS = frozenset(
    {"verify", "analyze", "query-point", "query-batch", "trace record"}
)


def main(argv: Optional[List[str]] = None) -> int:
    from repro.framework.session import request_scope

    args = _parser().parse_args(argv)
    verb = args.command
    if verb == "trace":
        verb += " " + args.trace_command
    scope = request_scope() if verb in _REQUEST_VERBS else contextlib.nullcontext()
    try:
        with scope:
            return args.fn(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe: exit quietly.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
