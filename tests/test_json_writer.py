"""Property tests: the one json writer against the route it replaced.

The oracle below is that route, kept verbatim: the payload is copied with
every number rounded to 12 significant digits, then laid out by
``json.dumps(indent=2, sort_keys=True, allow_nan=False)``.  The writer must
give the same bytes for every payload tree, and refuse NaN and infinities
with the same ValueError.  A float64 array, which only the writer accepts,
must give the bytes of its nested lists.
"""

import json
import math
from types import GeneratorType

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rotbell.cli import _fmt, _json_text

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True)


def _round_tree(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round_tree(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, GeneratorType)):
        return [_round_tree(v) for v in obj]
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return float(_fmt(obj))


def _oracle(obj):
    return json.dumps(_round_tree(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"


# Where a notation switches: .12g writes exponents below 1e-4 and from 1e12 on,
# repr from 1e16 on; values a few 12th-digit steps away round across them.
_PIVOTS = [1e-5, 1e-4, 1e12, 1e15, 1e16]
_near_pivots = st.builds(
    lambda p, k, sign: sign * p * (1.0 + k * 2.5e-13),
    st.sampled_from(_PIVOTS), st.integers(-8, 8), st.sampled_from([1.0, -1.0]),
)
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308]),
    _near_pivots,
)
_texts = st.one_of(st.text(), st.sampled_from(
    ['"', "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é", "\u2028", "\ud800", "😀", "a/b"]))
_POOL = [0.0, -0.0, 0.5, -0.25, 1e-17, 0.1 + 0.2, 5e-324, 1e16, 9.99999999999995e-5]


class _Gen(list):
    """A list that the payload hands over as a fresh generator."""


class _Array:
    """A float64 array: the writer gets the array, the oracle its nested lists."""

    def __init__(self, arr):
        self.arr = arr


def _realise(tree, for_writer):
    if isinstance(tree, _Array):
        return tree.arr if for_writer else tree.arr.tolist()
    if isinstance(tree, _Gen):
        return (_realise(v, for_writer) for v in tree)
    if isinstance(tree, dict):
        return {k: _realise(v, for_writer) for k, v in tree.items()}
    if isinstance(tree, (list, tuple)):
        return type(tree)(_realise(v, for_writer) for v in tree)
    return tree


_arrays = st.builds(
    lambda a, transpose: _Array(a.T if transpose else a),
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=4),
               elements=st.one_of(st.sampled_from(_POOL), _floats)),
    st.booleans(),
)
_leaves = st.one_of(
    _floats,
    _floats.map(np.float64),
    st.floats(width=32, allow_nan=False, allow_infinity=False).map(np.float32),
    st.integers(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    _texts,
    _arrays,
)
_trees = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4),
        st.lists(kids, max_size=4).map(tuple),
        st.lists(kids, max_size=4).map(_Gen),
        st.dictionaries(_texts, kids, max_size=4),
    ),
    max_leaves=30,
)


@SETTINGS
@given(_trees)
def test_writer_matches_the_old_route_byte_for_byte(tree):
    assert _json_text(_realise(tree, True)) == _oracle(_realise(tree, False))


@SETTINGS
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=6),
                  elements=st.sampled_from(_POOL)))
def test_arrays_of_repeated_values_and_signed_zeros(arr):
    assert _json_text({"a": [arr]}) == _oracle({"a": [arr.tolist()]})


def test_signed_zeros_side_by_side_in_an_array():
    arr = np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]])
    text = _json_text(arr)
    assert text == _oracle(arr.tolist())
    assert text.count("-0.0") == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float32("nan"),
                                 np.float64("-inf"), np.array([0.5, math.nan, 0.5]),
                                 np.array([[1.0, 0.0], [math.inf, 0.0]])])
def test_non_finite_numbers_raise_the_old_message(bad):
    payload = {"report": {"r": bad, "ok": True}}
    with pytest.raises(ValueError) as want:
        _oracle({"report": {"r": bad.tolist() if isinstance(bad, np.ndarray) else bad,
                            "ok": True}})
    with pytest.raises(ValueError) as got:
        _json_text(payload)
    assert str(got.value) == str(want.value)
