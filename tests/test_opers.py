import itertools

import pytest

from opercalc import (
    BundleNumerics,
    CurveParams,
    OperShape,
    frobenius_oper_consistency,
    oper_polygon,
    oper_quotient_degrees,
    oper_space_dimensions,
    polygon_from_quotient_data,
    threshold_C,
)


class TestOperShape:
    def test_rank_and_degree_relations(self):
        shape = OperShape(BundleNumerics(2, -1), 3, CurveParams(2))
        assert shape.rank == 6
        assert shape.degree == 3 * (-1 + 2 * 2 * 1)

    def test_degree_divisible_by_length(self):
        for r, g, l in itertools.product(range(1, 5), range(2, 5), range(1, 5)):
            shape = OperShape(BundleNumerics(r, -r), l, CurveParams(g))
            assert shape.degree % l == 0

    def test_canonical_degree_zero_shape(self):
        shape = OperShape.degree_zero_type_one(4, CurveParams(3))
        assert shape.degree == 0
        assert shape.length == 4
        assert shape.quotient == BundleNumerics(1, -6)


class TestOperPolygon:
    @pytest.mark.parametrize(
        "r,g,expected",
        [
            (2, 2, ((0, 0), (1, 1), (2, 0))),
            (3, 2, ((0, 0), (1, 2), (2, 2), (3, 0))),
            (2, 3, ((0, 0), (1, 2), (2, 0))),
        ],
    )
    def test_vertices(self, r, g, expected):
        assert oper_polygon(r, g).breakpoints == expected

    def test_rejects_rank_one(self):
        with pytest.raises(ValueError):
            oper_polygon(1, 2)

    def test_matches_quotient_construction(self):
        for r, g in itertools.product(range(2, 9), range(2, 6)):
            shape = OperShape.degree_zero_type_one(r, CurveParams(g))
            quots = oper_quotient_degrees(shape)
            poly = polygon_from_quotient_data(
                [b.rank for b in quots], [b.degree for b in quots]
            )
            assert poly == oper_polygon(r, g)

    def test_symmetric(self):
        for r, g in itertools.product(range(2, 9), range(2, 6)):
            poly = oper_polygon(r, g)
            for i in range(r + 1):
                assert poly.value_at(i) == poly.value_at(r - i)


class TestOperQuotientDegrees:
    def test_length_two(self):
        shape = OperShape(BundleNumerics(1, -1), 2, CurveParams(2))
        assert [(b.rank, b.degree) for b in oper_quotient_degrees(shape)] == [
            (1, -1),
            (1, 1),
        ]

    def test_length_three_sums_to_zero(self):
        shape = OperShape(BundleNumerics(1, -2), 3, CurveParams(2))
        quots = oper_quotient_degrees(shape)
        assert [(b.rank, b.degree) for b in quots] == [(1, -2), (1, 0), (1, 2)]
        assert sum(b.degree for b in quots) == 0 == shape.degree

    def test_length_one_is_the_bundle(self):
        shape = OperShape(BundleNumerics(2, 0), 1, CurveParams(2))
        assert [(b.rank, b.degree) for b in oper_quotient_degrees(shape)] == [(2, 0)]

    def test_degrees_sum_to_shape_degree(self):
        shape = OperShape(BundleNumerics(3, 5), 4, CurveParams(3))
        assert sum(b.degree for b in oper_quotient_degrees(shape)) == shape.degree


class TestIdentities:
    @pytest.mark.parametrize(
        "r,g,expected", [(2, 2, 0), (2, 5, 0), (3, 2, 6), (4, 3, 48)]
    )
    def test_threshold(self, r, g, expected):
        assert threshold_C(r, g) == expected

    @pytest.mark.parametrize("r,g,expected", [(2, 2, 3), (3, 2, 8), (2, 3, 6)])
    def test_space_dimensions(self, r, g, expected):
        assert oper_space_dimensions(r, g) == expected

    @pytest.mark.parametrize(
        "rank,degree,g,p",
        [(1, 0, 2, 3), (2, 1, 2, 5), (1, 0, 2, 2)],
    )
    def test_frobenius_oper_consistency(self, rank, degree, g, p):
        assert frobenius_oper_consistency(
            BundleNumerics(rank, degree), CurveParams(g, p)
        )
