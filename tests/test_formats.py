import json
from fractions import Fraction

import pytest

from schuralg.basis import SchurElement, basis_element, identity_element
from schuralg.formats import (
    canonical_json,
    element_to_json,
    euler_class_to_dot,
    format_element,
    format_matrix,
    format_partition,
    format_scalar,
    matrix_to_dot,
    parse_matrix,
    parse_partition,
)
from schuralg.multiplication import euler_classes
from schuralg.partitions import partitions_of


def test_matrix_literal_round_trip():
    text = "2,0,0;1,0,2;0,0,0"
    D = parse_matrix(text)
    assert D == ((2, 0, 0), (1, 0, 2), (0, 0, 0))
    assert format_matrix(D) == text


def test_parse_matrix_rejects_garbage():
    with pytest.raises(ValueError):
        parse_matrix("1,x;0,0")
    with pytest.raises(ValueError):
        parse_matrix("1,2;3")
    with pytest.raises(ValueError):
        parse_matrix("1,-2;0,0")


@pytest.mark.parametrize("cell", ["1_0", "+1", "\u0663", "-2"])
def test_literals_accept_ascii_digits_only(cell):
    with pytest.raises(ValueError):
        parse_matrix(f"{cell},0;0,0")
    with pytest.raises(ValueError):
        parse_partition(f"{cell},1")


def test_partition_literal_round_trip():
    assert parse_partition("3,1") == (3, 1)
    assert format_partition((3, 1)) == "[3,1]"
    assert parse_partition("") == ()
    for d in range(7):
        for shape in partitions_of(d):
            assert parse_partition(format_partition(shape)) == shape
    for text in ("1,3", "a,b", "[[2,1]]", "[2,1", "2,1]", "[0]"):
        with pytest.raises(ValueError):
            parse_partition(text)


def test_format_scalar_lowest_terms():
    assert format_scalar(Fraction(6, 4)) == "3/2"
    assert format_scalar(Fraction(8, 4)) == "2"
    assert format_scalar(5) == "5"
    assert format_scalar(Fraction(-1, 3)) == "-1/3"


def test_format_element_sorted_and_readable():
    e = identity_element(2, 2)
    assert format_element(e) == "[0,0;0,2] + [1,0;0,1] + [2,0;0,0]"
    x = basis_element(((2, 0), (0, 0))).scale(Fraction(1, 2))
    assert format_element(x) == "1/2*[2,0;0,0]"
    assert format_element(SchurElement.zero(2, 2)) == "0"


def test_element_json_uses_string_rationals():
    x = basis_element(((2, 0), (0, 0))).scale(Fraction(3, 8))
    payload = element_to_json(x)
    assert payload["terms"] == [{"matrix": [[2, 0], [0, 0]], "coeff": "3/8"}]


def test_canonical_json_round_trip_is_byte_identical():
    payload = {"b": [1, 2, {"y": "3/4", "x": 1}], "a": "value"}
    text = canonical_json(payload)
    assert canonical_json(json.loads(text)) == text


def test_matrix_dot_pins_graph_orientation():
    # source row = columns, destination row = rows of the matrix
    D = ((2, 0, 0), (1, 0, 2), (0, 0, 0))
    dot = matrix_to_dot(D)
    lines = dot.splitlines()
    assert lines.count("  s1 -- d1;") == 2
    assert lines.count("  s1 -- d2;") == 1
    assert lines.count("  s3 -- d2;") == 2
    assert sum(1 for line in lines if " -- " in line) == 5


def test_matrix_dot_deterministic():
    D = ((0, 1), (1, 0))
    assert matrix_to_dot(D) == matrix_to_dot(D)
    assert "rankdir=TB;" in matrix_to_dot(D)


def test_euler_class_dot_labels_counts():
    left = ((2, 0), (0, 0))
    right = ((1, 0), (1, 0))
    (cls,) = euler_classes(left, right)
    dot = euler_class_to_dot(cls)
    assert 's1 -- d1 [label="via 1 x1"];' in dot
    assert 's1 -- d2 [label="via 1 x1"];' in dot
