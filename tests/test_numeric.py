"""Unit tests for the interval domain and the interval×typestate product.

The algebra layer of DESIGN §14: interval lattice laws (including the
widening/narrowing contracts that make value-mode fixpoints terminate),
sparse environments, compositional transforms and their skeleton-based
relation-set widening, and the reduced product's row-wise reduction.
"""

import base64
import pickle
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.ir.commands import Assign, FieldLoad, Invoke, New, Skip
from repro.numeric.bu_analysis import (
    IDENTITY_TRANSFORM,
    IntervalBU,
    IntervalTransform,
    collapse_by_skeleton,
    transform_skeleton,
)
from repro.numeric.interval import (
    EMPTY_ENV,
    TOP,
    ZERO,
    Interval,
    IntervalEnv,
    numeric_op,
)
from repro.numeric.product import (
    IntervalTypestateBU,
    IntervalTypestateTD,
    ProductValue,
    product_bootstrap,
)
from repro.numeric.td_analysis import IntervalTD
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.states import AbstractState, bootstrap_state


# -- intervals -------------------------------------------------------------------


def test_interval_empty_rejected():
    with pytest.raises(ValueError):
        Interval(3, 2)


def test_interval_order_and_join_meet():
    a, b = Interval(0, 5), Interval(3, 10)
    assert a.leq(TOP) and b.leq(TOP)
    assert not a.leq(b)
    assert a.join(b) == Interval(0, 10)
    assert a.meet(b) == Interval(3, 5)
    assert Interval(0, 1).meet(Interval(5, 9)) is None
    assert a.leq(a.join(b)) and b.leq(a.join(b))
    assert a.meet(b).leq(a)


def test_interval_widen_unstable_bounds_to_infinity():
    prev, new = Interval(0, 3), Interval(0, 4)
    widened = prev.widen(prev.join(new))
    assert widened == Interval(0, None)  # hi moved: jumps to +inf
    assert prev.widen(prev) == prev  # stable bounds survive
    assert Interval(1, 3).widen(Interval(0, 3)) == Interval(None, 3)


def test_interval_widen_covers_both_arguments():
    for prev, new in [
        (Interval(0, 0), Interval(0, 7)),
        (Interval(-2, 5), Interval(-9, 5)),
        (Interval(0, 1), Interval(None, 2)),
    ]:
        widened = prev.widen(prev.join(new))
        assert prev.leq(widened) and new.leq(widened)


def test_interval_narrow_refines_only_infinite_bounds():
    widened = Interval(0, None)
    assert widened.narrow(Interval(0, 7)) == Interval(0, 7)
    # A finite bound is never moved by narrowing (termination).
    assert Interval(0, 9).narrow(Interval(2, 5)) == Interval(0, 9)


def test_interval_shift_and_add():
    assert ZERO.shift(3) == Interval(3, 3)
    assert Interval(1, None).shift(-1) == Interval(0, None)
    assert Interval(1, 2).add(Interval(10, 20)) == Interval(11, 22)
    assert Interval(1, 2).add(TOP) == TOP


def test_numeric_op_parsing():
    assert numeric_op("incr") == ("shift", 1)
    assert numeric_op("decr") == ("shift", -1)
    assert numeric_op("reset") == ("const", ZERO)
    assert numeric_op("le10") == ("le", 10)
    assert numeric_op("ge-3") == ("ge", -3)
    for untracked in ("open", "close", "read", "write", "le", "gex", "le1x"):
        assert numeric_op(untracked) is None


# -- environments ----------------------------------------------------------------


def test_env_absent_is_top_and_top_dropped():
    env = IntervalEnv([("x", Interval(0, 1)), ("y", TOP)])
    assert env.get("x") == Interval(0, 1)
    assert env.get("y") == TOP
    assert env.get("z") == TOP
    assert env.set("x", TOP).bindings == ()
    assert EMPTY_ENV.bindings == ()


def test_env_join_keeps_only_shared_bindings():
    a = IntervalEnv([("x", Interval(0, 1)), ("y", Interval(5, 5))])
    b = IntervalEnv([("x", Interval(3, 4))])
    joined = a.join(b)
    assert joined.get("x") == Interval(0, 4)
    assert joined.get("y") == TOP  # bound on one side only: joins to TOP
    assert a.leq(joined) and b.leq(joined)


def test_env_widen_then_narrow_round_trip():
    prev = IntervalEnv([("c", Interval(0, 0))])
    new = IntervalEnv([("c", Interval(0, 1))])
    widened = prev.widen(prev.join(new))
    assert widened.get("c") == Interval(0, None)
    narrowed = widened.narrow(IntervalEnv([("c", Interval(0, 7))]))
    assert narrowed.get("c") == Interval(0, 7)


def test_env_canonical_equality_and_str():
    a = IntervalEnv([("x", Interval(0, 1)), ("y", Interval(2, 3))])
    b = IntervalEnv([("y", Interval(2, 3)), ("x", Interval(0, 1))])
    assert a == b and hash(a) == hash(b) and str(a) == str(b)


# -- top-down transfer -----------------------------------------------------------


def test_td_transfer_new_assign_and_guards():
    td = IntervalTD()
    env = next(iter(td.transfer(New("x", "h"), EMPTY_ENV)))
    assert env.get("x") == ZERO
    env = next(iter(td.transfer(Invoke("x", "incr"), env)))
    assert env.get("x") == Interval(1, 1)
    env = next(iter(td.transfer(Assign("y", "x"), env)))
    assert env.get("y") == Interval(1, 1)
    # A satisfiable guard meets; an infeasible one kills the path.
    env = next(iter(td.transfer(Invoke("x", "le5"), env)))
    assert env.get("x") == Interval(1, 1)
    assert td.transfer(Invoke("x", "ge9"), env) == frozenset()
    # Untracked methods and loads are numeric no-ops / forgets.
    assert td.transfer(Invoke("x", "open"), env) == frozenset({env})
    forgot = next(iter(td.transfer(FieldLoad("x", "y", "fld"), env)))
    assert forgot.get("x") == TOP


def test_td_is_infinite_and_finite_lattice_hooks():
    td = IntervalTD()
    assert not td.is_finite()
    a = IntervalEnv([("x", Interval(0, 1))])
    b = IntervalEnv([("x", Interval(0, 5))])
    assert td.leq(a, b) and not td.leq(b, a)
    assert td.join(a, b) == b
    assert td.widen(a, b).get("x") == Interval(0, None)
    assert td.narrow(td.widen(a, b), b) == b


# -- bottom-up transforms --------------------------------------------------------


def test_transform_identity_actions_are_dropped():
    t = IntervalTransform([("x", ("shift", "x", ZERO))])
    assert t == IDENTITY_TRANSFORM
    assert t.resolve("x") == ("shift", "x", ZERO)


def test_rtransfer_and_rcompose_track_counters():
    bu = IntervalBU()
    (t,) = bu.rtransfer(New("c", "h"), bu.identity())
    (t,) = bu.rtransfer(Invoke("c", "incr"), t)
    assert t.resolve("c") == ("const", Interval(1, 1))
    # Composition substitutes through the first transform.
    (shift,) = bu.rtransfer(Invoke("d", "incr"), bu.identity())
    (comp,) = bu.rcompose(shift, shift)
    assert comp.resolve("d") == ("shift", "d", Interval(2, 2))
    # Apply reads sources from the *entry* environment.
    env = IntervalEnv([("d", Interval(5, 5))])
    (out,) = bu.apply(comp, env)
    assert out.get("d") == Interval(7, 7)


def test_rtransfer_guard_on_const_is_exact():
    bu = IntervalBU()
    (t,) = bu.rtransfer(New("c", "h"), bu.identity())
    (guarded,) = bu.rtransfer(Invoke("c", "le0"), t)
    assert guarded.resolve("c") == ("const", ZERO)
    assert bu.rtransfer(Invoke("c", "ge3"), t) == frozenset()
    # Guard on a non-constant source is dropped (sound over-approx).
    assert bu.rtransfer(Invoke("x", "le5"), bu.identity()) == frozenset(
        {bu.identity()}
    )


def test_skeleton_collapse_bounds_set_and_widen_across_iterates():
    def const(var, lo, hi):
        return IntervalTransform([(var, ("const", Interval(lo, hi)))])

    group = frozenset({const("c", 0, 1), const("c", 0, 2), const("c", 0, 3)})
    collapsed = collapse_by_skeleton(group)
    assert len(collapsed) == 1
    (merged,) = collapsed
    assert merged.resolve("c") == ("const", Interval(0, 3))
    # Same skeleton, moved payload across iterates: widened to +inf.
    again = collapse_by_skeleton(frozenset({const("c", 0, 4)}), collapsed)
    (widened,) = again
    assert widened.resolve("c") == ("const", Interval(0, None))
    # Stable payload: widening leaves it alone (chain stabilizes).
    stable = collapse_by_skeleton(again, again)
    assert stable == again


def test_rwiden_is_collapse():
    bu = IntervalBU()
    assert not bu.r_is_finite()
    t1 = IntervalTransform([("c", ("const", Interval(0, 1)))])
    t2 = IntervalTransform([("c", ("const", Interval(0, 2)))])
    assert bu.rwiden(frozenset(), frozenset({t1, t2})) == collapse_by_skeleton(
        frozenset({t1, t2})
    )
    assert transform_skeleton(t1) == transform_skeleton(t2)


# -- the reduced product ---------------------------------------------------------


def test_product_rows_merge_by_typestate():
    sigma = bootstrap_state(FILE_PROPERTY)
    pv = ProductValue(
        [
            (sigma, IntervalEnv([("x", Interval(0, 1))])),
            (sigma, IntervalEnv([("x", Interval(3, 4))])),
        ]
    )
    assert len(pv.rows) == 1
    assert pv.rows[0][1].get("x") == Interval(0, 4)


def test_product_lattice_rowwise():
    sigma = bootstrap_state(FILE_PROPERTY)
    small = ProductValue([(sigma, IntervalEnv([("x", Interval(0, 1))]))])
    big = ProductValue([(sigma, IntervalEnv([("x", Interval(0, 9))]))])
    assert small.leq(big) and not big.leq(small)
    assert small.join(big) == big
    widened = small.widen(big)
    assert widened.rows[0][1].get("x") == Interval(0, None)
    assert widened.narrow(big) == big
    # Rows carrying equal environments share one result object per
    # distinct pair.
    env = IntervalEnv([("c", Interval(0, 0))])
    bigger = IntervalEnv([("c", Interval(0, 1))])
    cur = ProductValue((sigma, env) for sigma in ROW_STATES)
    new = ProductValue((sigma, IntervalEnv(bigger.bindings)) for sigma in ROW_STATES)
    joined = cur.join(new)
    (first, *rest) = [e for _, e in joined.rows]
    assert first == bigger and all(e is first for e in rest)
    assert cur.widen(joined).rows[0][1].get("c") == Interval(0, None)


def test_product_transfer_reduction_kills_infeasible_row():
    td = IntervalTypestateTD(FILE_PROPERTY)
    pv = product_bootstrap(FILE_PROPERTY)
    (pv,) = td.transfer(New("x", "h"), pv)
    # Every row binds x to [0,0]; a contradictory guard kills them all,
    # sharpening the type-state side (the reduction).
    assert td.transfer(Invoke("x", "ge7"), pv) == frozenset()
    (ok,) = td.transfer(Invoke("x", "le7"), pv)
    assert all(env.get("x") == ZERO for _, env in ok.rows)


def test_product_bu_componentwise_and_predicates():
    bu = IntervalTypestateBU(FILE_PROPERTY)
    assert not bu.r_is_finite()
    ident = bu.identity()
    outs = bu.rtransfer(Skip(), ident)
    assert outs == frozenset({ident})
    pv = product_bootstrap(FILE_PROPERTY)
    applied = bu.apply(ident, pv)
    assert applied == frozenset({pv})
    assert bu.in_domain(ident, pv)
    assert bu.domain_predicate(ident) == bu.ts.domain_predicate(ident.ts)


def test_product_rwiden_groups_by_ts_and_skeleton():
    bu = IntervalTypestateBU(FILE_PROPERTY)
    ident = bu.identity()

    def with_const(lo, hi):
        num = IntervalTransform([("c", ("const", Interval(lo, hi)))])
        from repro.numeric.product import ProductRelation

        return ProductRelation(ident.ts, num)

    first = bu.rwiden(frozenset(), frozenset({with_const(0, 1), with_const(0, 2)}))
    assert len(first) == 1
    (merged,) = first
    assert merged.num.resolve("c") == ("const", Interval(0, 2))
    second = bu.rwiden(first, frozenset({with_const(0, 3)}))
    (widened,) = second
    assert widened.num.resolve("c") == ("const", Interval(0, None))
    assert widened.ts == ident.ts


# -- fast paths: identity results and lazy strings (DESIGN §14) ------------------
#
# The ``_ref_*`` functions are the lattice formulas as first written —
# allocate a fresh value every time, format strings eagerly — over plain
# data: an interval is ``(lo, hi)``, an environment a sorted tuple of
# ``(var, (lo, hi))`` with TOP dropped, a product value a tuple of
# ``(str(sigma), env)`` rows sorted by the state string.  The fast
# paths must agree with them exactly.

BOUNDS = st.one_of(st.none(), st.integers(-4, 4))
ENV_VARS = ["a", "b", "c", "d"]
ROW_STATES = [
    bootstrap_state(FILE_PROPERTY),
    AbstractState("h1", "opened", frozenset({"f"})),
    AbstractState("h1", "closed", frozenset()),
    AbstractState("h2", "error", frozenset({"a", "f"})),
]


@st.composite
def intervals(draw):
    lo, hi = draw(BOUNDS), draw(BOUNDS)
    if lo is not None and hi is not None and lo > hi:
        lo, hi = hi, lo
    return Interval(lo, hi)


envs = st.dictionaries(st.sampled_from(ENV_VARS), intervals(), max_size=4).map(
    lambda d: IntervalEnv(d.items())
)
product_rows = st.lists(st.tuples(st.sampled_from(ROW_STATES), envs), min_size=1, max_size=6)


def _iv(x):
    return (x.lo, x.hi)


def _ref_leq(a, b):
    return (b[0] is None or (a[0] is not None and a[0] >= b[0])) and (
        b[1] is None or (a[1] is not None and a[1] <= b[1])
    )


def _ref_join(a, b):
    lo = None if a[0] is None or b[0] is None else min(a[0], b[0])
    hi = None if a[1] is None or b[1] is None else max(a[1], b[1])
    return (lo, hi)


def _ref_widen(a, b):
    lo = a[0] if (a[0] is not None and b[0] is not None and b[0] >= a[0]) else None
    hi = a[1] if (a[1] is not None and b[1] is not None and b[1] <= a[1]) else None
    return (lo, hi)


def _ref_narrow(a, b):
    return (b[0] if a[0] is None else a[0], b[1] if a[1] is None else a[1])


def _ref_env(items):
    return tuple(sorted((v, iv) for v, iv in items if iv != (None, None)))


def _env(env):
    return _ref_env((v, _iv(iv)) for v, iv in env.bindings)


def _ref_env_leq(a, b):
    mine = dict(a)
    return all(_ref_leq(mine.get(v, (None, None)), iv) for v, iv in b)


def _ref_env_pointwise(op, a, b):
    theirs = dict(b)
    return _ref_env((v, op(iv, theirs[v])) for v, iv in a if v in theirs)


def _ref_env_narrow(a, b):
    items = dict(b)
    for v, iv in a:
        got = items.get(v)
        items[v] = iv if got is None else _ref_narrow(iv, got)
    return _ref_env(items.items())


def _ref_env_str(env):
    def fmt(bound, sign):
        return f"{sign}inf" if bound is None else str(bound)

    return "{" + ",".join(f"{v}:[{fmt(lo, '-')},{fmt(hi, '+')}]" for v, (lo, hi) in env) + "}"


def _pv(pv):
    return tuple((str(sigma), _env(env)) for sigma, env in pv.rows)


def _ref_pv(rows):
    merged = {}
    for key, env in rows:
        cur = merged.get(key)
        merged[key] = env if cur is None else _ref_env_pointwise(_ref_join, cur, env)
    return tuple(sorted(merged.items()))


def _ref_pv_leq(a, b):
    theirs = dict(b)
    return all(k in theirs and _ref_env_leq(env, theirs[k]) for k, env in a)


def _ref_pv_widen(a, b):
    mine = dict(a)
    return _ref_pv(
        (k, env if k not in mine else _ref_env_pointwise(_ref_widen, mine[k], env))
        for k, env in b
    )


def _ref_pv_narrow(a, b):
    theirs = dict(b)
    return _ref_pv((k, _ref_env_narrow(env, theirs[k])) for k, env in a if k in theirs)


@given(a=intervals(), b=intervals())
def test_interval_lattice_matches_reference(a, b):
    assert a.leq(b) == _ref_leq(_iv(a), _iv(b))
    assert _iv(a.join(b)) == _ref_join(_iv(a), _iv(b))
    assert _iv(a.widen(b)) == _ref_widen(_iv(a), _iv(b))
    upper = a.join(b)  # narrowing is defined below its receiver
    assert _iv(upper.narrow(b)) == _ref_narrow(_iv(upper), _iv(b))
    assert a.join(a) is a and a.widen(a) is a
    if b.leq(a):
        assert a.join(b) is a and a.widen(b) is a


@given(a=envs, b=envs)
def test_env_lattice_matches_reference(a, b):
    ra, rb = _env(a), _env(b)
    assert a.leq(b) == _ref_env_leq(ra, rb)
    assert _env(a.join(b)) == _ref_env_pointwise(_ref_join, ra, rb)
    assert _env(a.widen(b)) == _ref_env_pointwise(_ref_widen, ra, rb)
    upper = a.join(b)  # narrowing is defined below its receiver
    assert _env(upper.narrow(b)) == _ref_env_narrow(_env(upper), rb)
    assert a.join(a) is a and a.widen(a) is a and a.leq(a)
    if b.leq(a):
        assert a.join(b) is a and a.widen(b) is a
    assert upper.join(a) is upper and upper.join(b) is upper
    # The lazy string is the eager canonical form.
    for env in (a, b, upper, a.widen(b), upper.narrow(b)):
        want = _ref_env_str(_env(env))
        hash(env)  # hashing never needs (or builds) the string
        assert str(env) == want and str(env) == want
        assert repr(env) == f"IntervalEnv({want})"
        assert (env == IntervalEnv(env.bindings)) and hash(env) == hash(
            IntervalEnv(env.bindings)
        )


@given(rows_a=product_rows, rows_b=product_rows)
def test_product_lattice_matches_reference(rows_a, rows_b):
    a, b = ProductValue(rows_a), ProductValue(rows_b)
    for pv, rows in ((a, rows_a), (b, rows_b)):
        # Rows are ordered by the state's canonical string, whatever the
        # input order, and merged rows join their environments.
        assert _pv(pv) == _ref_pv((str(sigma), _env(env)) for sigma, env in rows)
        assert ProductValue(reversed(rows)) == pv
        assert [str(s) for s, _ in ProductValue(reversed(rows)).rows] == [
            str(s) for s, _ in pv.rows
        ]
        want = "{" + "; ".join(f"{s}@{_ref_env_str(e)}" for s, e in _pv(pv)) + "}"
        assert str(pv) == want and repr(pv) == f"ProductValue({want})"
    ra, rb = _pv(a), _pv(b)
    assert a.leq(b) == _ref_pv_leq(ra, rb)
    assert _pv(a.join(b)) == _ref_pv(ra + rb)
    assert _pv(a.widen(b)) == _ref_pv_widen(ra, rb)
    upper = a.join(b)  # narrowing is defined below its receiver
    assert _pv(upper.narrow(b)) == _ref_pv_narrow(_pv(upper), rb)
    assert a.join(a) is a and a.leq(a)
    if b.leq(a):
        assert a.join(b) is a
    assert upper.join(a) is upper and upper.join(b) is upper


# -- crossing a process boundary ---------------------------------------------------

_PICKLE_SCRIPT = """
import base64, pickle, sys
from repro.ir.commands import Invoke, New
from repro.numeric.bu_analysis import IntervalTransform
from repro.numeric.interval import Interval, IntervalEnv
from repro.numeric.product import IntervalTypestateBU, ProductValue, product_bootstrap
from repro.typestate.properties import FILE_PROPERTY
from repro.typestate.states import AbstractState

env = IntervalEnv([("cnt", Interval(0, None)), ("x", Interval(-1, 3))])
bu = IntervalTypestateBU(FILE_PROPERTY)
ident = bu.identity()
relations = sorted(
    (r for cmd in (New("f", "h1"), Invoke("f", "open"), Invoke("cnt", "incr"))
     for r in bu.rtransfer(cmd, ident)),
    key=str,
)
values = [
    Interval(0, 5),
    env,
    ProductValue([(AbstractState("h1", "opened", frozenset({"f"})), env)]),
    product_bootstrap(FILE_PROPERTY),
    IntervalTransform([("cnt", ("shift", "cnt", Interval(1, 1)))]),
    ident,
] + relations
if sys.argv[1] == "dump":
    sys.stdout.write(base64.b64encode(pickle.dumps(values)).decode())
else:
    got = pickle.loads(base64.b64decode(sys.stdin.read()))
    assert len(got) == len(values)
    for mine, theirs in zip(values, got):
        assert theirs == mine and hash(theirs) == hash(mine), (mine, theirs)
        assert theirs in set(values) and str(theirs) == str(mine)
    print(len(got))
"""


def test_numeric_values_cross_a_process_boundary():
    """Values pickled under one hash seed unpickle under another equal,
    hash-equal and findable in sets (the cached hashes are recomputed)."""
    src = str(Path(__file__).resolve().parent.parent / "src")

    def run(seed, mode, stdin=""):
        proc = subprocess.run(
            [sys.executable, "-c", _PICKLE_SCRIPT, mode],
            input=stdin,
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    dumped = run("12345", "dump")
    assert int(run("999", "load", dumped)) >= 7
    # In-process round trips rebuild through the constructors too.
    values = pickle.loads(base64.b64decode(dumped))
    assert pickle.loads(pickle.dumps(values)) == values
