"""Fuzz loop for the batch planner (ISSUE 10 satellite).

Hypothesis drives random target sets over random program shapes and
checks the one property the planner promises: batch answers are
byte-identical to per-target :func:`repro.query.run_query` answers.
A mismatch shrinks to a minimal (shape, target set) witness — the
shapes are chosen so shrinking moves toward fewer procedures and
fewer targets, not toward a different topology.
"""

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.bench.workloads import hub_flood, scc_heavy, wide_fanout
from repro.incremental import SummaryStore, analyze_with_store, clear_warm_cache
from repro.query import run_query, run_query_batch
from repro.typestate.properties import FILE_PROPERTY

from tests.test_property_based import programs

FUZZ_SETTINGS = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Small instances of every workload family, keyed for shrinking: the
#: earlier entries are the smaller programs.
SHAPE_BUILDERS = [
    lambda seed: hub_flood(3 + seed % 3),
    lambda seed: wide_fanout(8 + 4 * (seed % 3), seed=seed),
    lambda seed: scc_heavy(8 + 4 * (seed % 3), seed=seed),
]


@st.composite
def shape_and_targets(draw):
    builder = draw(st.sampled_from(SHAPE_BUILDERS))
    program = builder(draw(st.integers(min_value=0, max_value=5)))
    names = sorted(program.names())
    targets = draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=6)
    )
    return program, targets


def assert_batch_matches_sequential(program, targets, engine):
    with tempfile.TemporaryDirectory() as root:
        store = SummaryStore(root)
        analyze_with_store(
            program, FILE_PROPERTY, store, engine=engine, domain="simple"
        )
        clear_warm_cache()
        batch = run_query_batch(
            program, FILE_PROPERTY, store, targets, engine=engine
        )
        clear_warm_cache()
        for target in targets:
            single = run_query(
                program, FILE_PROPERTY, store, target, engine=engine
            )
            assert batch.answer_for(target) == single.answer, (
                engine,
                target,
                sorted(program.names()),
            )
        assert batch.out_of_cone_interior_rows == 0


@FUZZ_SETTINGS
@given(
    pair=shape_and_targets(),
    engine=st.sampled_from(["td", "swift"]),
)
def test_batch_equals_sequential_on_random_shapes(pair, engine):
    program, targets = pair
    assert_batch_matches_sequential(program, targets, engine)


@FUZZ_SETTINGS
@given(program=programs(), data=st.data())
def test_batch_equals_sequential_on_random_programs(program, data):
    names = sorted(program.names())
    targets = data.draw(
        st.lists(st.sampled_from(names), min_size=1, max_size=4)
    )
    assert_batch_matches_sequential(program, targets, "swift")
