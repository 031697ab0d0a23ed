"""Property-based round-trip tests for the wire formats and marshaller."""

from hypothesis import given, settings, strategies as st

from repro.ndr.codec import Marshaller
from repro.ndr import PackedFormat, TaggedFormat

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=30),
    st.binary(max_size=30),
)


def trees(depth=3):
    if depth == 0:
        return scalars
    sub = trees(depth - 1)
    return st.one_of(
        scalars,
        st.lists(sub, max_size=4),
        st.dictionaries(st.text(max_size=8), sub, max_size=4),
    )


@given(trees())
@settings(max_examples=200)
def test_packed_roundtrip(value):
    fmt = PackedFormat()
    assert fmt.loads(fmt.dumps(value)) == value


@given(trees())
@settings(max_examples=200)
def test_tagged_roundtrip(value):
    fmt = TaggedFormat()
    assert fmt.loads(fmt.dumps(value)) == value


def adt_values(depth=2):
    """Values legal at ADT interfaces: immutable all the way down."""
    if depth == 0:
        return scalars
    sub = adt_values(depth - 1)
    return st.one_of(
        scalars,
        st.lists(sub, max_size=3).map(tuple),
        st.dictionaries(st.text(min_size=1, max_size=6), sub, max_size=3),
    )


def normalise(value):
    """The marshaller's canonical form: tuples and FrozenRecords."""
    from repro.util.freeze import FrozenRecord

    if isinstance(value, (list, tuple)):
        return tuple(normalise(v) for v in value)
    if isinstance(value, dict):
        return FrozenRecord({k: normalise(v) for k, v in value.items()})
    return value


@given(adt_values())
@settings(max_examples=200)
def test_marshaller_roundtrip_is_canonical(value):
    m = Marshaller()
    assert m.unmarshal(m.marshal(value)) == normalise(value)


@given(adt_values())
@settings(max_examples=100)
def test_marshal_then_wire_then_unmarshal(value):
    m = Marshaller()
    for fmt in (PackedFormat(), TaggedFormat()):
        wired = fmt.loads(fmt.dumps(m.marshal(value)))
        assert m.unmarshal(wired) == normalise(value)


@given(adt_values())
@settings(max_examples=100)
def test_marshalling_is_idempotent_on_canonical_values(value):
    m = Marshaller()
    once = m.unmarshal(m.marshal(value))
    twice = m.unmarshal(m.marshal(once))
    assert once == twice


# ---------------------------------------------------------------------------
# Deterministic fuzz: DeterministicRandom-forked value streams, pinned
# independent of hypothesis.  Every generated tree must (a) encode to
# the *same bytes* through the zero-copy fast path and the reference
# walk of ``tests/ndr_reference.py``, (b) survive decode(encode(v)) == v
# — through both decoders — for both wire formats, and (c) in disguise,
# its scalars and containers swapped for subclasses and something no
# format encodes set beside it, give the reference's bytes and the
# reference's error: the fast writers' own fallback.
# ---------------------------------------------------------------------------

import enum
from collections import OrderedDict, defaultdict, namedtuple
from functools import partial

from repro.errors import MarshalError
from repro.ndr.formats import get_format
from repro.sim.rand import DeterministicRandom
from tests.ndr_reference import dumps_reference, loads_reference

_ALPHABET = "abz019 _-.:/é✓日"


def _gen_value(rng, depth):
    kind = rng.randint(0, 9 if depth > 0 else 6)
    if kind == 0:
        return None
    if kind == 1:
        return rng.chance(0.5)
    if kind == 2:
        return rng.randint(-2 ** 40, 2 ** 40)
    if kind == 3:
        # Across and beyond the 64-bit fixed-width boundary.
        return rng.choice([2 ** 63 - 1, -(2 ** 63), 2 ** 64 + 7,
                           -(2 ** 90), 2 ** 100 + 1])
    if kind == 4:
        return rng.uniform(-1e9, 1e9)
    if kind == 5:
        return "".join(rng.choice(_ALPHABET)
                       for _ in range(rng.randint(0, 12)))
    if kind == 6:
        return bytes(rng.randint(0, 255)
                     for _ in range(rng.randint(0, 12)))
    if kind == 7:
        return [_gen_value(rng, depth - 1)
                for _ in range(rng.randint(0, 4))]
    # dict: string keys only (the wire formats reject anything else)
    return {
        "".join(rng.choice(_ALPHABET)
                for _ in range(rng.randint(1, 6))):
            _gen_value(rng, depth - 1)
        for _ in range(rng.randint(0, 4))
    }


def _deep_eq(a, b):
    """Equality that refuses bool/int conflation and container drift."""
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return (len(a) == len(b)
                and all(_deep_eq(x, y) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (set(a) == set(b)
                and all(_deep_eq(a[k], b[k]) for k in a))
    return a == b


_Level = enum.IntEnum("_Level", {"LOW": -7, "HIGH": 2 ** 40})
_Pair = namedtuple("_Pair", "first second")


class _Text(str):
    pass


class _Blob(bytes):
    pass


class _Real(float):
    pass


class _Items(list):
    pass


_SUBCLASSES = {str: _Text, bytes: _Blob, float: _Real}

#: What no wire format encodes: a map with a non-string key, a set, an
#: application object.
_UNENCODABLE = (lambda: {1: "int key"}, lambda: {2, 3}, object)


def _disguised(rng, value):
    """*value* with scalars, containers and map keys swapped, at random,
    for subclasses of their types — an ``IntEnum`` member, a namedtuple,
    an ``OrderedDict`` or a ``defaultdict`` among them."""
    tp = type(value)
    if tp is list:
        items = [_disguised(rng, item) for item in value]
        kinds = [list, tuple, _Items]
        if len(items) == 2:
            kinds.append(_Pair._make)
        return rng.choice(kinds)(items)
    if tp is dict:
        items = {_Text(key) if type(key) is str and rng.chance(0.3) else key:
                 _disguised(rng, item) for key, item in value.items()}
        return rng.choice([dict, OrderedDict,
                           partial(defaultdict, list)])(items)
    if rng.chance(0.5):
        return value
    if tp is int:
        return rng.choice(list(_Level))
    if tp in _SUBCLASSES:
        return _SUBCLASSES[tp](value)
    return value


def _raised(encode, value):
    """The type and text of the error *encode* raises on *value*."""
    try:
        encode(value)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_deterministic_fuzz_zero_copy_matches_reference():
    root = DeterministicRandom(2027, "ndr-fuzz")
    for case in range(150):
        rng = root.fork(f"case-{case}")
        value = {"v": _gen_value(rng, 4)}
        twist = root.fork(f"disguise-{case}")
        disguised = _disguised(twist, value)
        poisoned = _disguised(twist, [value, twist.choice(_UNENCODABLE)()])
        for fmt_name in ("packed", "tagged"):
            fmt = get_format(fmt_name)
            fast = fmt.dumps(value)
            reference = dumps_reference(fmt, value)
            assert fast == reference, (fmt_name, case, value)
            decoded_fast = fmt.loads(fast)
            decoded_ref = loads_reference(fmt, fast)
            assert _deep_eq(decoded_fast, value), (fmt_name, case)
            assert _deep_eq(decoded_ref, value), (fmt_name, case)
            assert fmt.dumps(disguised) == dumps_reference(
                fmt, disguised), (fmt_name, case, disguised)
            error = _raised(fmt.dumps, poisoned)
            assert error == _raised(partial(dumps_reference, fmt), poisoned)
            assert error[0] is MarshalError, (fmt_name, case, error)


def test_deterministic_fuzz_is_reproducible():
    # The stream itself is pinned: same seed, same trees — so a fuzz
    # failure elsewhere always names a reproducible case number.
    a = _gen_value(DeterministicRandom(2027, "ndr-fuzz").fork("case-0"), 4)
    b = _gen_value(DeterministicRandom(2027, "ndr-fuzz").fork("case-0"), 4)
    assert _deep_eq(a, b)
