import json
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ddepoly.documents import DocumentError, InputDocument, dump_report, jsonable, parse_scalar, zeros_csv
from ddepoly.poly import NEG_INF
from ddepoly.roots import Interval


def test_parse_scalar_kinds():
    assert parse_scalar("3/4", "$") == Fraction(3, 4)
    assert parse_scalar(7, "$") == 7
    assert isinstance(parse_scalar("2.5e-3", "$"), mpmath.mpf)
    assert isinstance(parse_scalar(0.25, "$"), mpmath.mpf)
    with pytest.raises(DocumentError):
        parse_scalar("1/0", "$")
    with pytest.raises(DocumentError):
        parse_scalar(None, "$")


def test_rational_document_round_trip():
    doc = {"sequence": [["1"], ["0", "2"], ["-2", "0", "4"], ["0", "-12", "0", "8"]]}
    parsed = InputDocument.from_dict(doc)
    emitted = [jsonable(p) for p in parsed.sequence]
    assert emitted == doc["sequence"]
    reparsed = InputDocument.from_dict({"sequence": emitted})
    assert reparsed.sequence == parsed.sequence


def test_document_requires_single_payload():
    with pytest.raises(DocumentError):
        InputDocument.from_dict({"family": {"kind": "bell"}, "sequence": [["1"]], "N": 3})
    with pytest.raises(DocumentError):
        InputDocument.from_dict({})
    with pytest.raises(DocumentError):
        InputDocument.from_dict({"family": {"kind": "bell"}})  # missing N


def test_document_rejects_mixed_kinds():
    with pytest.raises(DocumentError):
        InputDocument.from_dict({"sequence": [["1"], ["0.5", "1"], ["1/2", "0", "1"]]})


@pytest.mark.parametrize("extra", [{"N": 2.5}, {"N": 0}, {"tolerance": [1]}, {"tolerance": "loose"}])
def test_coefficient_document_rejects_bad_n_and_tolerance(extra):
    with pytest.raises(DocumentError):
        InputDocument.from_dict({"coefficients": [{"A": ["-1"], "B": ["0", "2"]}] * 3, **extra})


def test_coefficient_document_degree_bounds():
    with pytest.raises(DocumentError):
        InputDocument.from_dict({"coefficients": [{"A": ["0", "0", "0", "1"], "B": ["1"]}]})


def test_dump_report_deterministic():
    payload = {"command": "demo", "value": Fraction(1, 3), "point": NEG_INF}
    a = dump_report(payload, timestamp=False)
    b = dump_report(payload, timestamp=False)
    assert a == b
    assert json.loads(a)["value"] == "1/3"
    assert json.loads(a)["point"] == "-inf"
    assert "timestamp" in json.loads(dump_report(payload, timestamp=True))


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(min_value=-10**400, max_value=10**400),
    st.text(), st.text(st.characters(max_codepoint=0x20)), st.floats(),
    st.sampled_from([-0.0, 1e300, float("nan"), float("inf"), float("-inf")]),
)
_VALUES = st.recursive(
    _SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4), max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.text(), _VALUES, max_size=5))
@example({})
@example({"a\"b\\c\n\x00\x1f\u00e9\u2028\U0001f600": [
    "\u00e9\u4e2d\U0001f600", "\x00\x01\x1f\x7f\t\r\b\f", 2**200, -2**200, True, False, None, [], {},
    [[]], {"": {}}, -0.0, 0.0, 1e300, -1e-300, float("nan"), float("inf"), float("-inf"),
]})
def test_dump_report_is_json_dumps_indented_and_sorted(doc):
    text = dump_report(doc, timestamp=False)
    assert text == json.dumps(jsonable(doc), indent=2, sort_keys=True) + "\n"


def test_zeros_csv_shape():
    iv = Interval(Fraction(1, 4), Fraction(1, 2))
    pt = Interval(Fraction(2), Fraction(2), False, False)
    text = zeros_csv([(1, 0, iv), (2, 0, pt)])
    lines = text.strip().splitlines()
    assert lines[0] == "n,index,lo,hi,mid"
    assert lines[2] == "2,0,2.0,2.0,2.0"
