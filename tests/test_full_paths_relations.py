"""Unit tests for access paths, path patterns, and full relations."""

import hypothesis.strategies as st
import pytest
from hypothesis import given

from repro.framework.predicates import TRUE, Conjunction
from repro.typestate.full import (
    ExactPath,
    FullAbstractState,
    FullTransformerRelation,
    HasField,
    InMust,
    Rooted,
    matches_any,
    path_fields,
    path_root,
)
from repro.typestate.full.paths import (
    filter_removed,
    is_valid_path,
    normalize_patterns,
    strip_field,
    strip_rooted,
)
from repro.typestate.full.relations import _CompiledMask
from repro.typestate.properties import FILE_PROPERTY


def test_path_root_and_fields():
    assert path_root("v") == "v"
    assert path_root("v.f.g") == "v"
    assert path_fields("v") == ()
    assert path_fields("v.f.g") == ("f", "g")


def test_path_validity():
    assert is_valid_path("v")
    assert is_valid_path("v.f.g")
    assert not is_valid_path("v.f.g.h")  # more than two fields
    assert not is_valid_path("v..f")


def test_pattern_matching():
    assert ExactPath("v.f").matches("v.f")
    assert not ExactPath("v.f").matches("v")
    assert Rooted("v").matches("v")
    assert Rooted("v").matches("v.f.g")
    assert not Rooted("v").matches("vv.f")
    assert HasField("f").matches("x.f")
    assert HasField("f").matches("x.g.f")
    assert not HasField("f").matches("f")  # 'f' here is a variable


_VARS = ("u", "v", "w")
_FIELDS = ("f", "g", "log")
_var = st.sampled_from(_VARS)
_field = st.sampled_from(_FIELDS)
#: Bare, one-field and two-field access paths.
_path = st.one_of(
    _var,
    st.builds("{}.{}".format, _var, _field),
    st.builds("{}.{}.{}".format, _var, _field, _field),
)
_pattern = st.one_of(
    st.builds(Rooted, _var), st.builds(HasField, _field), st.builds(ExactPath, _path)
)


@given(paths=st.frozensets(_path, max_size=10), patterns=st.frozensets(_pattern, max_size=4))
def test_matches_any_and_filter(paths, patterns):
    """The set-algebra filters equal the pattern-by-pattern reference
    ``filter_removed`` and return the very same set when nothing
    matches."""
    fixed = [Rooted("v"), HasField("log")]
    assert matches_any(fixed, "v.x")
    assert matches_any(fixed, "w.log")
    assert not matches_any(fixed, "w.data")
    assert filter_removed(
        frozenset({"v", "w.log", "w.data", "u"}), frozenset(fixed)
    ) == frozenset({"w.data", "u"})

    def check(got, removal):
        want = filter_removed(paths, frozenset(removal))
        assert got == want
        assert (got is paths) == (want == paths)

    mask = _CompiledMask(patterns)
    check(mask.filter(paths), patterns)
    for path in paths:
        assert mask.matches(path) == matches_any(patterns, path)
    for var in _VARS:
        check(strip_rooted(paths, var), [Rooted(var)])
    for fieldname in _FIELDS:
        check(strip_field(paths, fieldname), [HasField(fieldname)])


def test_normalize_drops_covered_exact_patterns():
    patterns = normalize_patterns([ExactPath("v.f"), Rooted("v"), ExactPath("w")])
    assert Rooted("v") in patterns
    assert ExactPath("v.f") not in patterns
    assert ExactPath("w") in patterns


def _rel(**kwargs):
    empty = frozenset()
    defaults = dict(
        iota=FILE_PROPERTY.identity_function(),
        rem_must=empty,
        add_must=empty,
        rem_mustnot=empty,
        add_mustnot=empty,
        pred=TRUE,
    )
    defaults.update(kwargs)
    return FullTransformerRelation(**defaults)


def test_relation_status_queries():
    r = _rel(
        rem_must=frozenset({Rooted("v")}),
        add_must=frozenset({"w"}),
        add_mustnot=frozenset({"u"}),
    )
    assert r.must_status("w") == "in"
    assert r.must_status("v.f") == "out"
    assert r.must_status("x") == "dep"
    assert r.mustnot_status("u") == "in"
    assert r.mustnot_status("x") == "dep"


def test_relation_transform():
    r = _rel(
        rem_must=frozenset({Rooted("v")}),
        add_must=frozenset({"w"}),
        rem_mustnot=frozenset({HasField("f")}),
        add_mustnot=frozenset({"v"}),
    )
    sigma = FullAbstractState(
        "h", "closed", frozenset({"v", "v.f", "x"}), frozenset({"y.f", "z"})
    )
    out = r.transform(sigma)
    assert out.must == frozenset({"x", "w"})
    assert out.mustnot == frozenset({"z", "v"})
    assert out.site == "h" and out.state == "closed"


def test_relation_rejects_add_overlap():
    with pytest.raises(ValueError):
        _rel(add_must=frozenset({"v"}), add_mustnot=frozenset({"v"}))


def test_relation_equality_and_hash():
    a = _rel(add_must=frozenset({"w"}))
    b = _rel(add_must=frozenset({"w"}))
    assert a == b and hash(a) == hash(b)
    c = _rel(add_must=frozenset({"x"}))
    assert a != c
    assert len({a, b, c}) == 2


def test_relation_str_mentions_components():
    r = _rel(
        add_must=frozenset({"w"}),
        pred=Conjunction.of([InMust("w")]),
    )
    text = str(r)
    assert "inMust(w)" in text and "w" in text
