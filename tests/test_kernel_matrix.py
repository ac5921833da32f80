"""Kernel ≡ object equivalence across the whole engine × domain matrix.

The compiled kernel (DESIGN §11) is *wall-clock-only*: for every
registered engine, every domain, and every scheduling policy, a kernel
run must produce the same verdict, the same summary counts, and the
same deterministic work counters as the object run with the same
policy.  Baselines are policy-matched — only ``kernel`` varies within a
comparison — because SWIFT/concurrent counters legitimately depend on
propagation order, which schedulers change.  The concurrent engine's
counters also follow thread timing (whether a worker job has landed by
the next call), so its worker jobs run inline here: both runs see the
same interleaving.

A hypothesis sweep extends the fixed corpus with random programs.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.typestate.client import run_typestate
from repro.typestate.properties import FILE_PROPERTY

from tests.helpers import all_small_programs, pin_concurrent_interleaving
from tests.test_property_based import ENGINE_SETTINGS, programs

ENGINES = ["td", "bu", "swift", "concurrent"]
DOMAINS = ["simple", "full"]
# The default order and the breadth-first ablation order.
POLICIES = ["lifo", "fifo"]
KERNELS = ["bitset"]


def _work_signature(report):
    m = report.result.metrics
    return (
        report.errors,
        report.td_summaries,
        report.bu_summaries,
        report.timed_out,
        m.transfers,
        m.rtransfers,
        m.compositions,
        m.propagations,
        m.td_summary_reuses,
        m.relations_created,
        m.summary_instantiations,
        m.total_work,
    )


def _run(program, engine, domain, scheduler, kernel):
    return run_typestate(
        program,
        FILE_PROPERTY,
        engine=engine,
        domain=domain,
        scheduler=scheduler,
        kernel=kernel,
    )


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("domain", DOMAINS)
def test_kernels_match_object_engines(monkeypatch, engine, domain):
    pin_concurrent_interleaving(monkeypatch)
    for program in all_small_programs():
        for scheduler in POLICIES:
            baseline = _work_signature(
                _run(program, engine, domain, scheduler, "object")
            )
            for kernel in KERNELS:
                kernel_sig = _work_signature(
                    _run(program, engine, domain, scheduler, kernel)
                )
                assert kernel_sig == baseline, (
                    f"{engine}/{domain}/{scheduler} kernel={kernel}"
                )


@ENGINE_SETTINGS
@given(program=programs())
def test_bitset_td_matches_object_on_random_programs(program):
    baseline = _work_signature(
        _run(program, "td", "simple", "lifo", "object")
    )
    assert (
        _work_signature(_run(program, "td", "simple", "lifo", "bitset"))
        == baseline
    )


@ENGINE_SETTINGS
@given(program=programs())
def test_bitset_swift_matches_object_on_random_programs(program):
    baseline = _work_signature(
        _run(program, "swift", "full", "lifo", "object")
    )
    assert (
        _work_signature(_run(program, "swift", "full", "lifo", "bitset"))
        == baseline
    )
