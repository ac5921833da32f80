"""Tests for the command-line interface."""

import argparse
import gc
import weakref
from pathlib import Path

import pytest

from repro import cli
from repro.cli import build_parser, load_program, main
from repro.framework.session import AnalysisSession
from repro.framework.registry import ENGINES
from repro.framework.topdown import TopDownEngine
from repro.incremental import SummaryStore

GOOD_MINI = """
class Writer { method flush(f) { f.#open(); f.#close(); } }
main { w = new Writer(); r = new Writer(); w.flush(r); }
"""

BAD_MINI = """
class Writer { method close2(f) { f.#close(); f.#close(); } }
main { w = new Writer(); r = new Writer(); r.#open(); w.close2(r); }
"""

IR_TEXT = """
proc main {
  v = new h1;
  f = v;
  f.open();
  f.close();
}
"""


@pytest.fixture
def mini_file(tmp_path):
    def write(text, name="prog.mini"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_load_program_minioo_and_ir(mini_file):
    program = load_program(mini_file(GOOD_MINI))
    assert "Writer$flush" in program
    program = load_program(mini_file(IR_TEXT, "prog.ir"))
    assert "main" in program


def test_verify_ok_exit_code(mini_file, capsys):
    assert main(["verify", mini_file(GOOD_MINI)]) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_violation_exit_code(mini_file, capsys):
    assert main(["verify", mini_file(BAD_MINI)]) == 1
    out = capsys.readouterr().out
    assert "violation" in out and "error state" in out


def test_verify_budget_timeout(mini_file, capsys):
    assert main(["verify", mini_file(GOOD_MINI), "--budget", "2"]) == 2
    assert "budget" in capsys.readouterr().out
    # 0 is a limit, not "no budget": the first unit of work crosses it.
    assert main(["verify", mini_file(GOOD_MINI), "--budget", "0"]) == 2
    assert "exceeded its budget" in capsys.readouterr().out


def test_verify_all_properties(mini_file, capsys):
    assert main(["verify", mini_file(GOOD_MINI), "--all-properties"]) == 0
    assert "File: ok" in capsys.readouterr().out


def test_verify_engine_choices(mini_file, monkeypatch):
    for engine in ("td", "bu", "swift"):
        assert main(["verify", mini_file(GOOD_MINI), "--engine", engine]) == 0
        assert gc.isenabled()
    # An analysis verb runs with the collector paused; every exit, a
    # usage error or a raised exception included, runs one young
    # collection and restores the collector, and a caller that had
    # paused it keeps it paused.
    assert main(["verify", mini_file(GOOD_MINI) + ".missing"]) == 2
    assert gc.isenabled()
    cycles = []

    def failing(*args, **kwargs):
        assert not gc.isenabled()
        node = argparse.Namespace()
        node.self = node
        cycles.append(weakref.ref(node))
        del node  # cyclic garbage once the request is over
        raise RuntimeError("solve failed")

    monkeypatch.setattr("repro.typestate.client.run_typestate", failing)
    for caller_enabled in (True, False):
        if not caller_enabled:
            gc.disable()
        try:
            with pytest.raises(RuntimeError, match="solve failed"):
                main(["verify", mini_file(GOOD_MINI)])
            assert gc.isenabled() is caller_enabled
        finally:
            gc.enable()
    assert len(cycles) == 2 and cycles[1]() is None
    monkeypatch.undo()
    gc.disable()
    try:
        assert main(["verify", mini_file(GOOD_MINI)]) == 0
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_dump_ir(mini_file, capsys):
    assert main(["dump-ir", mini_file(GOOD_MINI)]) == 0
    out = capsys.readouterr().out
    assert "proc Writer$flush" in out
    assert "call Writer$flush" in out


def test_dot_call_graph_and_cfg(mini_file, capsys):
    path = mini_file(GOOD_MINI)
    assert main(["dot", path]) == 0
    assert "digraph callgraph" in capsys.readouterr().out
    assert main(["dot", path, "--proc", "main"]) == 0
    assert "digraph" in capsys.readouterr().out


def test_parser_requires_command(capsys, tmp_path):
    with pytest.raises(SystemExit):
        build_parser().parse_args([])
    # main() builds its parser once and shares it: a usage error through
    # it still exits 2, and repeated calls do not accumulate
    # ``append`` options.
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err
    # A value the configuration refuses is one error line, not a
    # traceback, and is refused before any file is read or sent.
    for argv, message in [
        (["verify", "prog.mini", "--k", "-1"], "k must be at least 1"),
        (["bench", "hedc", "--theta", "0"], "theta must be at least 1"),
        (["client", "analyze", "prog.mini", "--k", "0"], "k must be at least 1"),
        (["serve", "--lru-size", "0"], "capacity must be at least 1"),
        (
            ["verify", "prog.mini", "--budget", "-5"],
            "budget max_work must be None or a non-negative number, not -5",
        ),
    ]:
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
    # Bad input is the caller's error, not the transport's or a
    # traceback: a missing program is refused by every verb that reads
    # one (before anything is sent), a non-numeric port before the
    # service is built; so are an unreadable or malformed trace and a
    # procedure the program lacks.
    missing = str(tmp_path / "missing.mini")
    gone = f"No such file or directory: {missing!r}"
    store = ["--store", str(tmp_path / "store")]
    no_trace = str(tmp_path / "missing.jsonl")
    event = '{"kind": "propagate", "proc": "main"}\n'
    good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    good.write_text(event)
    bad.write_text(event + '["propagate"]\n')
    program = tmp_path / "prog.ir"
    program.write_text(IR_TEXT)
    for argv, message in [
        (["trace", "summarize", no_trace], f"{no_trace!r}"),
        (["trace", "summarize", str(bad)], f"{bad}:2: not a JSON trace event"),
        (["trace", "diff", str(good), no_trace], f"{no_trace!r}"),
        (["trace", "diff", str(bad), str(good)], f"{bad}:2: not a JSON trace event"),
        (["dot", str(program), "--proc", "NOSUCH"], f"'NOSUCH' in {program}"),
        (["client", "analyze", missing], gone),
        (["verify", missing], gone),
        (["analyze", missing, *store], gone),
        (["query-point", missing, "main", *store], gone),
        (["query-batch", missing, "main", *store], gone),
        (["serve", "--http", "127.0.0.1:http"], "not 'http'"),
    ]:
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.err.endswith(f"{message}\n")
    assert cli._parser() is cli._parser()
    targets = [
        cli._parser().parse_args(
            ["client", "demand", "prog.mini", "--target", target]
        ).targets
        for target in ("a", "b")
    ]
    assert targets == [["a"], ["b"]]
    # The demand verbs offer exactly the kinds and precisions the query
    # layer validates.
    from repro.query import QUERY_KINDS, QUERY_PRECISIONS

    local, remote = {("query-point",), ("query-batch",)}, {("client", "demand")}
    for option, choices, verbs in (
        ("--kind", QUERY_KINDS, local | remote),
        ("--query-precision", QUERY_PRECISIONS, local),
        ("--precision", QUERY_PRECISIONS, remote),
    ):
        owners = dict(_option_owners(cli._parser(), option))
        assert set(owners) == verbs, option
        for action in owners.values():
            assert tuple(action.choices) == choices, option


def test_bench_unknown_name(capsys):
    assert main(["bench", "not-a-benchmark"]) == 2
    assert "unknown benchmark" in capsys.readouterr().out


def test_analyze_cold_then_warm(mini_file, tmp_path, capsys):
    path = mini_file(GOOD_MINI)
    store = str(tmp_path / "store")
    assert main(["analyze", path, "--store", store]) == 0
    out = capsys.readouterr().out
    assert "cold start" in out and "snapshot:" in out and "ok" in out
    assert main(["analyze", path, "--store", store]) == 0
    out = capsys.readouterr().out
    assert "warm start" in out and "work=0" in out
    assert "hits=0" not in out  # the warm run must actually hit


def test_analyze_violation_and_timeout(mini_file, tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["analyze", mini_file(BAD_MINI), "--store", store]) == 1
    assert "violation" in capsys.readouterr().out
    code = main(["analyze", mini_file(GOOD_MINI), "--store", store, "--budget", "2"])
    assert code == 2
    out = capsys.readouterr().out
    assert "budget" in out and "not saved" in out


def test_store_stats_gc_clear(mini_file, tmp_path, capsys):
    store = str(tmp_path / "store")
    assert main(["store", "stats", store]) == 0
    assert "no snapshots" in capsys.readouterr().out
    assert main(["analyze", mini_file(GOOD_MINI), "--store", store]) == 0
    capsys.readouterr()
    assert main(["store", "stats", store]) == 0
    out = capsys.readouterr().out
    # v2 config fingerprints carry the canonical registry domain name.
    assert "swift/typestate-full" in out and "property=File" in out
    assert "frontier=" not in out  # the snapshot is the only file
    assert "(0 bytes" not in out and "log 0 bytes over 0 appended save(s))" in out
    # An edit appends to the snapshot; gc compacts that log in place.
    edited = GOOD_MINI.replace("f.#close();", "f.#close(); f.#open(); f.#close();")
    path = mini_file(edited, name="edit.mini")
    assert main(["analyze", path, "--store", store]) == 0
    capsys.readouterr()
    assert main(["store", "stats", store]) == 0
    out = capsys.readouterr().out
    assert "over 1 appended save(s))" in out and "log 0 bytes" not in out
    assert main(["store", "gc", store]) == 0
    assert "removed 0 file(s), compacted 1, kept 1" in capsys.readouterr().out
    assert main(["store", "stats", store]) == 0
    assert "log 0 bytes over 0 appended save(s))" in capsys.readouterr().out
    # A negative --keep is refused, and nothing is deleted.
    assert main(["store", "gc", store, "--keep", "-1"]) == 2
    assert capsys.readouterr().err == "error: keep must be at least 0, not -1\n"
    assert len(SummaryStore(store).snapshot_paths()) == 1
    # gc removes the snapshot and a projection an older store left.
    (Path(store) / "frontier-0123.jsonl").write_text("stray\n")
    assert main(["store", "gc", store, "--keep", "0"]) == 0
    assert "removed 2" in capsys.readouterr().out
    assert main(["store", "clear", store]) == 0
    assert "removed 0" in capsys.readouterr().out


def test_trace_record_and_summarize(mini_file, tmp_path, capsys):
    out = str(tmp_path / "trace.jsonl")
    assert main(["trace", "record", mini_file(BAD_MINI), "--out", out]) == 0
    assert "recorded" in capsys.readouterr().out
    from repro.framework.tracing import read_jsonl

    events = read_jsonl(out)
    assert events and all(e.kind for e in events)
    assert main(["trace", "summarize", out]) == 0
    text = capsys.readouterr().out
    assert "propagations" in text and "main" in text


def test_trace_diff(mini_file, tmp_path, capsys):
    path = mini_file(BAD_MINI)
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert main(["trace", "record", path, "--out", a]) == 0
    assert main(["trace", "record", path, "--out", b]) == 0
    assert main(["trace", "diff", a, b]) == 0
    assert "agree" in capsys.readouterr().out
    # A different engine's trace differs (td has no bu events but also a
    # different propagation pattern is possible; budget-truncate instead).
    c = str(tmp_path / "c.jsonl")
    assert main(["trace", "record", path, "--out", c, "--budget", "3"]) == 0
    assert main(["trace", "diff", a, c]) == 1
    assert "differing" in capsys.readouterr().out


# -- value mode: widening knobs and unsupported-domain errors -------------------

LOOP_IR = """
proc main {
  v = new h1;
  v.open();
  loop {
    v.incr();
    v.le10();
  }
  v.close();
}
"""


def test_verify_interval_typestate_domain(mini_file, capsys):
    path = mini_file(LOOP_IR, "loop.ir")
    assert main(["verify", path, "--domain", "interval-typestate"]) == 0
    assert "ok" in capsys.readouterr().out


def test_verify_interval_fact_domain(mini_file, capsys):
    path = mini_file(LOOP_IR, "loop.ir")
    assert main(["verify", path, "--domain", "interval"]) == 0
    out = capsys.readouterr().out
    # The widened counter fact reaches main's exit.
    assert "fact(s) at main's exit" in out
    assert "v:[0,+inf]" in out


def test_verify_widening_knob_flags_accepted(mini_file, capsys, monkeypatch):
    path = mini_file(LOOP_IR, "loop.ir")
    knobs = ["--domain", "interval-typestate", "--widening-delay", "0"]
    assert main(["verify", path, *knobs, "--descending-iters", "2"]) == 0
    assert "ok" in capsys.readouterr().out
    # --all-properties runs every property under the same knobs.
    seen, run = [], AnalysisSession.run

    def spy(self, program, config, **kwargs):
        seen.append((config.widening_delay, config.descending_iters, config.scheduler))
        return run(self, program, config, **kwargs)

    monkeypatch.setattr(AnalysisSession, "run", spy)
    argv = ["verify", path, "--all-properties", *knobs, "--descending-iters", "3"]
    assert main(argv + ["--scheduler", "fifo"]) == 0
    assert set(seen) == {(0, 3, "fifo")}


def test_analyze_widening_knobs_rekey_store(mini_file, tmp_path, capsys):
    path = mini_file(LOOP_IR, "loop.ir")
    store = str(tmp_path / "store")
    base = ["analyze", path, "--store", store, "--domain", "interval-typestate"]
    assert main(base) == 0
    assert "cold start" in capsys.readouterr().out
    assert main(base) == 0
    assert "warm start" in capsys.readouterr().out
    # A knob change is a new config fingerprint: cold again, never wrong.
    assert main(base + ["--widening-delay", "4"]) == 0
    assert "cold start" in capsys.readouterr().out


# -- choice lists come from their registries ------------------------------------------
def _option_owners(parser, option, path=()):
    """``(subcommand path, action)`` for every parser offering ``option``."""
    for action in parser._actions:
        if option in action.option_strings:
            yield path, action
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _option_owners(sub, option, path + (name,))


#: Verbs that read or write the summary store: their ``--engine`` offers
#: only the engines with a warm-start hook.
_PRELOAD_VERBS = {
    ("analyze",),
    ("query-point",),
    ("query-batch",),
    ("client", "demand"),
}


def _registry(option, path):
    if option == "--scheduler":
        return TopDownEngine.POP_ORDERS
    if path in _PRELOAD_VERBS:
        return [name for name in ENGINES if ENGINES.get(name).supports_preload]
    return ENGINES.names()


def _registry_choices():
    parser = build_parser()
    for option in ("--engine", "--scheduler"):
        for path, action in _option_owners(parser, option):
            yield pytest.param(
                path,
                option,
                action,
                tuple(_registry(option, path)),
                id=" ".join(path + (option,)),
            )


@pytest.mark.parametrize("path, option, action, registry", _registry_choices())
def test_choice_list_matches_its_registry(path, option, action, registry, capsys):
    assert tuple(action.choices) == registry
    retired = {"--engine": "concurrent", "--scheduler": "scc-topo"}[option]
    with pytest.raises(SystemExit) as exc:
        main([*path, "prog.mini", option, retired])
    assert exc.value.code == 2
    assert f"invalid choice: '{retired}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [["--batched"], ["--batch-size", "8"], ["--kernel", "object"]],
    ids=["batched", "batch-size", "kernel"],
)
def test_retired_verify_flags_are_usage_errors(mini_file, flags, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", mini_file(GOOD_MINI), *flags])
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "prog.mini", "--store", "st"],
        ["query-point", "prog.mini", "--store", "st"],
        ["query-batch", "prog.mini", "--store", "st"],
        ["client", "analyze", "prog.mini"],
        ["client", "edit", "prog.mini"],
    ],
    ids=lambda argv: " ".join(argv[: 2 if argv[0] == "client" else 1]),
)
def test_retired_kernel_flag_is_refused_by_every_verb(argv, capsys):
    # Refused while parsing: nothing is read, analyzed or sent.
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--kernel", "object"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kernel" in capsys.readouterr().err
