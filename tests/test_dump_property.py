"""Property: jsondoc.dump, and the pieces of jsondoc.iterdump joined, are exactly the bytes
of json.dumps(doc, indent=2) plus a newline.

The trees mix entry records ({"row", "col", "poly"} with int, int, str values,
as a document of ``sections_json`` holds them) with records that only look
like them: a bool or str where an int belongs, another key order, an extra key.
"""
import json

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from citaylor.jsondoc import dump, iterdump  # noqa: E402

TEXT = st.text(
    st.one_of(
        st.characters(codec="utf-8"),  # any code point but a surrogate
        st.characters(min_codepoint=0x10000),  # outside the BMP: a surrogate pair in JSON
        st.sampled_from('"\\/\x00\x08\x1f\x7f\n\t '),
    ),
    max_size=8,
)
INTS = st.one_of(st.integers(-5, 5), st.integers(-(2**200), 2**200))
LEAVES = st.one_of(st.none(), st.booleans(), INTS, TEXT)


@st.composite
def entry_records(draw):
    """A canonical entry record, or one that differs from it in one or more ways."""
    if draw(st.booleans()):
        return {"row": draw(INTS), "col": draw(INTS), "poly": draw(TEXT)}
    values = {
        "row": draw(st.one_of(INTS, st.booleans(), TEXT)),
        "col": draw(st.one_of(INTS, st.booleans(), st.none())),
        "poly": draw(st.one_of(TEXT, INTS, st.booleans())),
    }
    record = {key: values[key] for key in draw(st.permutations(list(values)))}
    if draw(st.booleans()):
        record[draw(TEXT)] = draw(LEAVES)
    return record


TREES = st.recursive(
    st.one_of(LEAVES, st.lists(entry_records(), min_size=1, max_size=6)),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.dictionaries(TEXT, children, max_size=4)
    ),
    max_leaves=16,
)


@settings(max_examples=100, deadline=None)
@given(TREES)
def test_dump_equals_json_dumps_indent_2(doc):
    expected = json.dumps(doc, indent=2) + "\n"
    assert dump(doc) == expected
    assert "".join(iterdump(doc)) == expected


@pytest.mark.parametrize("doc", [1.5, {"a": {1, 2}}, [b"bytes"]])
def test_dump_rejects_what_a_document_never_holds(doc):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        dump(doc)
