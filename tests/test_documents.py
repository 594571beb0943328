"""Input document parsing, canonical emission, and report plumbing."""

import json
from fractions import Fraction

import numpy as np
import pytest

from jsrkit.core import MatrixSet
from jsrkit.documents import FORMAT_VERSION, InputDocument, ParseError, RunReport
from jsrkit.ultrametric import PAdicMatrixSet

COMPLEX_DOC = """
{
  "format": 1,
  "dim": 2,
  "field": "complex",
  "members": [
    [[[0, 0], [1, 0]], [[0, 0], [0, 0]]],
    [[[0.5, -0.25], [0, 0]], [[0, 0], [1, 1]]]
  ],
  "labels": ["a", "b"],
  "meta": {"origin": "test"}
}
"""

PADIC_DOC = """
{
  "format": 1,
  "dim": 2,
  "field": {"kind": "rational_padic", "prime": 5},
  "members": [[["0", "1"], ["5", "0"]], [["2/4", "0"], ["0", "-3"]]]
}
"""


def test_parse_complex_document():
    doc = InputDocument.parse(COMPLEX_DOC)
    assert doc.dim == 2
    assert doc.field_kind == "complex"
    assert doc.prime is None
    assert doc.labels == ("a", "b")
    assert doc.meta == {"origin": "test"}
    s = doc.to_matrix_set()
    assert s.size == 2 and s.dim == 2
    assert s.stack[1, 0, 0] == 0.5 - 0.25j


def test_parse_padic_document_normalizes():
    doc = InputDocument.parse(PADIC_DOC)
    assert doc.field_kind == "rational_padic"
    assert doc.prime == 5
    # "2/4" was canonicalized at parse time
    assert doc.to_json_obj()["members"][1][0][0] == "1/2"
    ps = doc.to_padic_set()
    assert ps.stack[1, 0, 0] == Fraction(1, 2)


def test_round_trip_is_byte_identical():
    for text in (COMPLEX_DOC, PADIC_DOC):
        first = InputDocument.parse(text).emit()
        second = InputDocument.parse(first).emit()
        assert first == second


def test_digest_ignores_formatting_but_not_content():
    doc = InputDocument.parse(PADIC_DOC)
    squashed = json.dumps(json.loads(PADIC_DOC))
    assert InputDocument.parse(squashed).digest() == doc.digest()
    changed = PADIC_DOC.replace('"prime": 5', '"prime": 7')
    assert InputDocument.parse(changed).digest() != doc.digest()


def test_matrix_set_round_trip_values():
    rng = np.random.default_rng(1)
    mats = [
        rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        for _ in range(2)
    ]
    s = MatrixSet.from_arrays(mats)
    doc = InputDocument(s, labels=["x", "y"])
    back = InputDocument.parse(doc.emit()).to_matrix_set()
    assert np.array_equal(s.stack, back.stack)


def test_padic_set_round_trip_values():
    ps = PAdicMatrixSet([[["1/3", 2], [0, "-7/2"]], [[1, 0], [0, 1]]], 3)
    doc = InputDocument(ps, meta={"k": 1})
    back = InputDocument.parse(doc.emit()).to_padic_set()
    assert np.array_equal(back.stack, ps.stack)
    assert back.prime == 3


def test_field_mismatch_raises():
    with pytest.raises(ParseError, match="complex-field"):
        InputDocument.parse(PADIC_DOC).to_matrix_set()
    with pytest.raises(ParseError, match="rational_padic"):
        InputDocument.parse(COMPLEX_DOC).to_padic_set()


@pytest.mark.parametrize(
    "mangle,needle",
    [
        (lambda o: o.update(format=2), "format"),
        (lambda o: o.update(dim="two"), "dim"),
        (lambda o: o.update(dim=0), "dim"),
        (lambda o: o.update(field="real"), "field"),
        (lambda o: o.update(field={"kind": "rational_padic", "prime": 6}), "field.prime"),
        (lambda o: o.update(members=[]), "members"),
        (lambda o: o.update(labels=["just-one"]), "labels"),
        (lambda o: o.update(meta=[1, 2]), "meta"),
    ],
)
def test_validation_names_the_field(mangle, needle):
    obj = json.loads(COMPLEX_DOC)
    mangle(obj)
    with pytest.raises(ParseError, match=needle):
        InputDocument.parse(json.dumps(obj))


def test_member_shape_errors_carry_indices():
    obj = json.loads(COMPLEX_DOC)
    obj["members"][1][1] = [[0, 0]]  # one entry short
    with pytest.raises(ParseError, match=r"members\[1\]\[1\]"):
        InputDocument.parse(json.dumps(obj))
    obj = json.loads(COMPLEX_DOC)
    obj["members"][0][0][1] = [1.0]  # not an [re, im] pair
    with pytest.raises(ParseError, match=r"members\[0\]\[0\]\[1\]"):
        InputDocument.parse(json.dumps(obj))


def test_rational_entries_refuse_floats():
    obj = json.loads(PADIC_DOC)
    obj["members"][0][0][0] = 0.5
    with pytest.raises(ParseError, match="a/b"):
        InputDocument.parse(json.dumps(obj))


def test_bad_json_reports_position():
    with pytest.raises(ParseError, match="line"):
        InputDocument.parse("{\n  broken\n}")


def test_non_finite_entries_rejected():
    obj = json.loads(COMPLEX_DOC)
    obj["members"][0][0][0] = [1e999, 0]  # parses as inf
    with pytest.raises(ParseError, match="finite"):
        InputDocument.parse(json.dumps(obj))


@pytest.mark.parametrize("part", [0, 1])
def test_integer_beyond_float_range_rejected(part):
    # float() of such an integer overflows rather than giving inf
    obj = json.loads(COMPLEX_DOC)
    obj["members"][1][0][0][part] = 10**400
    with pytest.raises(ParseError, match=r"members\[1\]\[0\]\[0\]: entries must be finite"):
        InputDocument.parse(json.dumps(obj))


def test_run_report_emission_is_stable():
    kwargs = dict(
        tool="jsrkit",
        version="0.0-test",
        command="estimate",
        input_digest="d" * 64,
        config={"depth": 4, "norm": "spectral"},
        seed=7,
        results={"interval": {"lower": 0.5, "upper": 1.0}},
    )
    a = RunReport(**kwargs, wall_time_s=0.25)
    b = RunReport(**kwargs, wall_time_s=99.0)
    ja, jb = json.loads(a.emit()), json.loads(b.emit())
    ja.pop("wall_time_s"), jb.pop("wall_time_s")
    assert ja == jb
    assert a.emit() == RunReport(**kwargs, wall_time_s=0.25).emit()


def test_format_version_is_one():
    assert FORMAT_VERSION == 1
