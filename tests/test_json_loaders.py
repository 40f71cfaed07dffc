"""The JSON loaders either return or raise ValueError, whatever the document."""

import copy
import json

from hypothesis import HealthCheck, example, given, settings, strategies as st

from wignerlab import (
    DensityState,
    bundle_spec_from_json,
    cyclic_rep,
    finite_group_from_json,
    finite_group_to_json,
    philox_stream,
    quaternion_rep,
    random_density,
    rep_from_config,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])

# what a malformed document may hold where a number belongs: other JSON types,
# non-integral and non-finite floats, integers beyond a C long or a double
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 8), st.sampled_from([2**70, -(2**70), 2**2000]),
    st.floats(allow_nan=True, allow_infinity=True), st.text("ab", max_size=2),
)
JUNK = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=3), inner,
                                                                max_size=2),
    max_leaves=6,
)
# where a dimension or an order belongs, values stay small: admitting large
# dimensions is a separate budget
SMALL = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 8), st.floats(-1, 8),
    st.sampled_from([float("nan"), float("inf")]), st.text("ab", max_size=2),
)

VALID_GROUPS = [
    finite_group_to_json(r.group, r)
    for r in (cyclic_rep(1), cyclic_rep(2), cyclic_rep(3, dim=2), quaternion_rep())
]


def _replace(draw, node):
    """node with one descendant, picked by a random walk, replaced by junk."""
    if isinstance(node, (dict, list)) and node and draw(st.booleans()):
        key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
        node = copy.copy(node)
        node[key] = _replace(draw, node[key])
        return node
    return draw(JUNK)


@st.composite
def mutated(draw, docs):
    doc = copy.deepcopy(draw(docs))
    for _ in range(draw(st.integers(0, 2))):
        doc = _replace(draw, doc)
    return doc


GROUP_DOCS = mutated(st.sampled_from(VALID_GROUPS))
STATE_DOCS = mutated(st.builds(
    lambda d, seed: random_density(d, philox_stream(seed, 0)).to_json(),
    st.integers(1, 8), st.integers(0, 9),
))
REP_CONFIGS = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["su2", "su3", "q8"])}, optional={"dim": SMALL}),
    st.fixed_dictionaries({"kind": st.just("zn"), "n": SMALL}, optional={"dim": SMALL}),
    st.fixed_dictionaries({"kind": st.just("u1"), "weights": st.lists(SCALARS, max_size=4)}),
    st.fixed_dictionaries({"kind": st.just("finite"), "group": GROUP_DOCS}),
    JUNK,
)
BUNDLE_DOCS = st.one_of(
    st.fixed_dictionaries({"points": st.lists(
        st.fixed_dictionaries({"label": st.sampled_from(["x0", "x1"]) | JUNK,
                               "rep": REP_CONFIGS}),
        max_size=3,
    ) | JUNK}),
    JUNK,
)


def _returns_or_value_error(load, doc):
    try:
        return load(doc)
    except ValueError:
        return None


@PROPERTY
@given(GROUP_DOCS)
@example({"labels": ["e"], "table": [[2**70]], "identity": 0})
@example({"labels": ["e", "a"], "table": [[0, 1.7], [1.2, 0]], "identity": 0.9})
def test_group_documents_load_exactly_or_raise_value_error(doc):
    loaded = _returns_or_value_error(finite_group_from_json, doc)
    if loaded is not None:
        # nothing was rounded or truncated on the way in
        encoded = finite_group_to_json(loaded[0])
        assert json.dumps(encoded["table"]) == json.dumps(doc["table"])
        assert json.dumps(encoded["identity"]) == json.dumps(doc["identity"])


@PROPERTY
@given(STATE_DOCS)
@example({"d": 1, "rho": [[[2**2000, 0]]]})
@example({"d": 1.5, "rho": [[[1.0, 0.0]]]})
def test_state_documents_load_or_raise_value_error(doc):
    state = _returns_or_value_error(DensityState.from_json, doc)
    if state is not None:
        assert state.to_json() == doc


@PROPERTY
@given(BUNDLE_DOCS)
@example({"schema_version": 1, "points": []})
@example({"points": [{"label": "x0", "rep": {"kind": "u1", "weights": [2**2000]}}]})
def test_bundle_specs_load_or_raise_value_error(doc):
    _returns_or_value_error(bundle_spec_from_json, doc)


@PROPERTY
@given(REP_CONFIGS)
@example({"kind": "su2", "dim": 2.5})
@example({"kind": "u1", "weights": [1.5, -0.5]})
@example({"kind": "zn", "n": 3, "dim": 0})
@example({"kind": "q8", "dim": -1})
def test_rep_configs_load_exactly_or_raise_value_error(doc):
    rep = _returns_or_value_error(rep_from_config, doc)
    if rep is None or doc["kind"] == "finite":
        return
    # nothing was rounded or truncated on the way in
    assert rep.dim >= 1
    if doc["kind"] == "u1":
        assert json.dumps(list(rep.meta["weights"])) == json.dumps(doc["weights"])
    else:
        if doc["kind"] == "zn":
            assert json.dumps(rep.group.order) == json.dumps(doc["n"])
        default = {"su2": 2, "su3": 3, "q8": 2, "zn": doc.get("n")}[doc["kind"]]
        assert json.dumps(rep.dim) == json.dumps(doc.get("dim", default))
