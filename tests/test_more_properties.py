"""Additional property-based tests: query language, version vectors,
lease tables, freeze helpers, ordering predicates."""

from hypothesis import given, settings, strategies as st

from repro.info.reconcile import compare_vectors, merged_vector
from repro.gc.leases import LeaseTable
from repro.trading.query import PropertyQuery
from repro.util.freeze import FrozenRecord, is_frozen
from tests.conftest import deep_freeze

# ---------------------------------------------------------------------------
# Property query language
# ---------------------------------------------------------------------------

prop_names = st.sampled_from(["cost", "region", "tier", "count"])
prop_values = st.one_of(st.integers(-100, 100),
                        st.sampled_from(["eu", "us", "gold"]),
                        st.booleans())
property_dicts = st.dictionaries(prop_names, prop_values, max_size=4)


@given(property_dicts, st.sampled_from(["cost", "count"]),
       st.integers(-100, 100))
@settings(max_examples=200)
def test_query_comparison_agrees_with_python(props, name, threshold):
    """`name < threshold` matches exactly when Python's < would, with
    missing values comparing false (the language's totality rule)."""
    query = PropertyQuery(f"{name} < {threshold}")
    value = props.get(name)
    expected = value is not None and not isinstance(value, str) \
        and value < threshold
    assert query.matches(props) == expected


@given(property_dicts)
@settings(max_examples=100)
def test_query_negation_is_complement(props):
    positive = PropertyQuery("region == 'eu'")
    negative = PropertyQuery("not (region == 'eu')")
    assert positive.matches(props) != negative.matches(props)


@given(property_dicts)
@settings(max_examples=100)
def test_query_conjunction_semantics(props):
    a = PropertyQuery("cost < 10")
    b = PropertyQuery("region == 'eu'")
    both = PropertyQuery("cost < 10 and region == 'eu'")
    assert both.matches(props) == (a.matches(props) and b.matches(props))


@given(property_dicts)
@settings(max_examples=100)
def test_query_de_morgan(props):
    left = PropertyQuery("not (cost < 10 or region == 'eu')")
    right = PropertyQuery("not (cost < 10) and not (region == 'eu')")
    assert left.matches(props) == right.matches(props)


# ---------------------------------------------------------------------------
# Version vectors
# ---------------------------------------------------------------------------

vectors = st.dictionaries(st.sampled_from(["A", "B", "C"]),
                          st.integers(0, 5), max_size=3)


@given(vectors)
@settings(max_examples=100)
def test_vector_comparison_reflexive(vector):
    assert compare_vectors(vector, vector) == "equal"


@given(vectors, vectors)
@settings(max_examples=200)
def test_vector_comparison_antisymmetric(a, b):
    forward = compare_vectors(a, b)
    backward = compare_vectors(b, a)
    opposite = {"a_dominates": "b_dominates",
                "b_dominates": "a_dominates",
                "equal": "equal",
                "concurrent": "concurrent"}
    assert backward == opposite[forward]


@given(vectors, vectors)
@settings(max_examples=200)
def test_merged_vector_dominates_both(a, b):
    merged = merged_vector(a, b)
    assert compare_vectors(merged, a) in ("equal", "a_dominates")
    assert compare_vectors(merged, b) in ("equal", "a_dominates")


@given(vectors, vectors, vectors)
@settings(max_examples=200)
def test_dominance_transitive(a, b, c):
    if compare_vectors(a, b) == "a_dominates" and \
            compare_vectors(b, c) == "a_dominates":
        assert compare_vectors(a, c) == "a_dominates"


# ---------------------------------------------------------------------------
# Lease tables
# ---------------------------------------------------------------------------

lease_ops = st.lists(
    st.tuples(st.sampled_from(["grant", "renew", "advance"]),
              st.sampled_from(["i1", "i2"]),
              st.sampled_from(["h1", "h2", "h3"])),
    max_size=30)


@given(lease_ops)
@settings(max_examples=100)
def test_lease_table_matches_reference_model(ops):
    table = LeaseTable()
    table.default_ttl_ms = 10.0
    model = {}  # (iface, holder) -> expiry
    now = 0.0
    for op, iface, holder in ops:
        if op == "grant":
            table.grant(iface, holder, now)
            model[(iface, holder)] = now + 10.0
        elif op == "renew":
            table.renew(iface, holder, now)
            if (iface, holder) in model:
                model[(iface, holder)] = now + 10.0
        else:
            now += 5.0
        for check_iface in ("i1", "i2"):
            expected = {h for (i, h), expiry in model.items()
                        if i == check_iface and expiry > now}
            assert table.live_holders(check_iface, now) == expected


# ---------------------------------------------------------------------------
# Freeze helpers
# ---------------------------------------------------------------------------

freezable = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=8)),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.text(min_size=1, max_size=5), children,
                        max_size=3)),
    max_leaves=10)


@given(freezable)
@settings(max_examples=200)
def test_deep_freeze_produces_frozen(value):
    frozen = deep_freeze(value)
    assert is_frozen(frozen)


@given(st.dictionaries(st.text(min_size=1, max_size=5),
                       st.integers(), min_size=1, max_size=4))
@settings(max_examples=100)
def test_frozen_record_behaves_like_its_dict(mapping):
    record = FrozenRecord(mapping)
    assert record == mapping
    assert set(record.keys()) == set(mapping.keys())
    assert len(record) == len(mapping)
    for key, value in mapping.items():
        assert record[key] == value
        assert key in record
    assert hash(record) == hash(FrozenRecord(dict(mapping)))
