import json
from fractions import Fraction

import mpmath
import pytest

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


def test_zeros_csv_shape():
    iv = Interval(Fraction(1, 4), Fraction(1, 2))
    pt = Interval(Fraction(2), Fraction(2), False, False)
    text = zeros_csv([(1, 0, iv), (2, 0, pt)])
    lines = text.strip().splitlines()
    assert lines[0] == "n,index,lo,hi,mid"
    assert lines[2] == "2,0,2.0,2.0,2.0"
