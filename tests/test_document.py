"""``document.dumps`` against ``json.dumps(value, indent=2)``, which it
stands in for so that no command imports ``json``."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oppositions.document import dumps

# every code point, surrogates included, which the default alphabet leaves out
TEXT = st.text(st.characters(min_codepoint=0, max_codepoint=0x10FFFF, exclude_categories=()))
DOCUMENTS = st.recursive(
    st.none() | st.booleans() | st.integers() | TEXT,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=300)
@given(DOCUMENTS)
def test_same_text_as_json(value):
    assert dumps(value) == json.dumps(value, indent=2)


def test_every_code_point_as_a_one_character_string():
    strings = [chr(code) for code in range(0x110000)]
    ours, theirs = dumps(strings), json.dumps(strings, indent=2)
    if ours != theirs:  # line 0 is the opening bracket, and line 1 + code holds chr(code)
        lines = zip(ours.split("\n")[1:], theirs.split("\n")[1:])
        wrong = [hex(code) for code, (a, b) in enumerate(lines) if a != b]
        pytest.fail(f"{len(wrong)} code points differ, from {wrong[:4]}")


@pytest.mark.parametrize(
    "value",
    [
        {"schema_version": 1, "nodes": [], "pairs": {}, "matches": True, "exact": False},
        [None, -0, 10**40, ""],
        ((), ((1,),)),
        "a\x7f\x1f\ud800",
    ],
    ids=["flat", "scalars", "tuples", "escapes"],
)
def test_examples(value):
    assert dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.0, {1, 2}, b"bytes", {1: "a"}, {"a": [{"b": 0.5}]}, {("a",): 1}, {None: 1}],
    ids=["float", "set", "bytes", "int-key", "nested-float", "tuple-key", "none-key"],
)
def test_other_values_and_keys_raise_type_error(value):
    with pytest.raises(TypeError):
        dumps(value)
