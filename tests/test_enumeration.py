import itertools
import json
import math
import operator
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from opercalc import cli, enumeration
from opercalc.core import _scaled_values
from opercalc.enumeration import ABOVE, OPER, UNDER, _places, iter_admissible
from opercalc.laws import random_polygon
from opercalc import (
    HNPolygon,
    enumerate_admissible,
    enumerate_admissible_slow,
    key_inequality_check,
    oper_polygon,
    polygon_from_quotient_data,
    shatz_leq,
    strata_poset,
    verify_oper_maximality,
)
from test_core import quotient_data


def unpruned_slow_oracle(r, g):
    """The quotient-data walk without the bounds from the later parts: each
    degree is kept only to slopes within (l-1)(2g-2) of 0 that increase by at
    most the gap, and total degree 0 fixes the last one.  An oracle for the
    pruned walk of ``enumerate_admissible_slow``."""
    gap = 2 * g - 2
    found = set()

    def extend(degrees, comp, bound):
        i = len(degrees)
        n = comp[i]
        lo, hi = -n * bound, n * bound
        if degrees:
            d0, n0 = degrees[-1], comp[i - 1]
            lo = max(lo, n * d0 // n0 + 1)
            hi = min(hi, n * (d0 + gap * n0) // n0)
        if i == len(comp) - 1:
            d = -sum(degrees)
            if lo <= d <= hi:
                found.add(polygon_from_quotient_data(comp, degrees + (d,)))
            return
        for d in range(lo, hi + 1):
            extend(degrees + (d,), comp, bound)

    for l in range(1, r + 1):
        # a composition of r into l parts is a choice of l - 1 cuts in 1 .. r-1
        for cuts in itertools.combinations(range(1, r), l - 1):
            ends = (0,) + cuts + (r,)
            extend((), tuple(b - a for a, b in zip(ends, ends[1:])), (l - 1) * gap)
    return tuple(sorted(found, key=lambda p: p.breakpoints))


def target_inequalities_from_quotient_data(polygon, g):
    """deg(V_i) <= (g-1)(n_1+...+n_i)(n_{i+1}+...+n_l) at every flag step,
    with each side summed from the quotient data (n_j, d_j): the paper's form
    of the target inequalities, an oracle for the "under" reading of
    ``_places``, which reads V_i from the breakpoints."""
    qd = quotient_data(polygon)  # slopes increasing: bottom-up order
    return all(
        sum(d for _, d in qd[i:]) <= (g - 1) * sum(n for n, _ in qd[:i]) * sum(n for n, _ in qd[i:])
        for i in range(1, len(qd))
    )


def slow_oracle_walk(r, g):
    """The polygons of ``enumerate_admissible_slow(r, g)``, the calls of its
    ``extend`` (nodes of the walk) and those that fix the last degree (leaves)."""
    nodes = leaves = 0

    def count(frame, event, arg):
        nonlocal nodes, leaves
        if event == "call" and frame.f_code.co_name == "extend":
            nodes += 1
            args = frame.f_locals
            leaves += len(args["degrees"]) == len(args["comp"]) - 1

    sys.setprofile(count)
    try:
        polys = enumerate_admissible_slow(r, g)
    finally:
        sys.setprofile(None)
    return polys, nodes, leaves


class TestEnumerateAdmissible:
    def test_rank_two_genus_two(self):
        polys = enumerate_admissible(2, 2)
        assert set(polys) == {
            HNPolygon(((0, 0), (2, 0))),
            HNPolygon(((0, 0), (1, 1), (2, 0))),
        }

    def test_rank_three_genus_two(self):
        polys = enumerate_admissible(3, 2)
        expected = {
            HNPolygon(((0, 0), (3, 0))),
            HNPolygon(((0, 0), (1, 1), (3, 0))),
            HNPolygon(((0, 0), (2, 1), (3, 0))),
            HNPolygon(((0, 0), (1, 1), (2, 1), (3, 0))),
            HNPolygon(((0, 0), (1, 2), (2, 2), (3, 0))),
        }
        assert set(polys) == expected

    def test_rank_two_genus_three(self):
        polys = enumerate_admissible(2, 3)
        assert set(polys) == {
            HNPolygon(((0, 0), (2, 0))),
            HNPolygon(((0, 0), (1, 1), (2, 0))),
            HNPolygon(((0, 0), (1, 2), (2, 0))),
        }

    @pytest.mark.parametrize("r, g", [(4, 2), (6, 2), (5, 3), (7, 3)])
    def test_output_sorted_and_deduplicated(self, r, g):
        polys = enumerate_admissible(r, g)
        assert list(polys) == sorted(set(polys), key=lambda p: p.breakpoints)

    def test_limit_accepts_exactly_max_polygons(self, monkeypatch):
        monkeypatch.setattr(enumeration, "MAX_POLYGONS", 5)
        assert len(enumerate_admissible(3, 2)) == 5

    def test_limit_refuses_one_polygon_more(self, monkeypatch):
        monkeypatch.setattr(enumeration, "MAX_POLYGONS", 4)
        with pytest.raises(ValueError, match="rank 3 genus 2 .*MAX_POLYGONS = 4"):
            enumerate_admissible(3, 2)

    def test_iter_admissible_refuses_when_called(self, monkeypatch):
        # The count decides before the walk: a refused search yields no polygon first.
        listed = enumerate_admissible_slow(3, 2)  # its 5 polygons
        monkeypatch.setattr(enumeration, "MAX_POLYGONS", 5)
        assert tuple(iter_admissible(3, 2)) == listed
        monkeypatch.setattr(enumeration, "MAX_POLYGONS", 4)
        walks = []
        monkeypatch.setattr(enumeration, "_complete", lambda *args: walks.append(args))
        with pytest.raises(ValueError, match="rank 3 genus 2 .*MAX_POLYGONS = 4"):
            iter_admissible(3, 2)
        assert walks == []

    def test_counts_at_ranks_nine_and_ten(self):
        # the slow oracle takes about 0.1 s at r=9 and 0.4 s at r=10, where
        # the count agrees with it too
        polys = enumerate_admissible(9, 2)
        assert len(polys) == 4513
        assert polys == enumerate_admissible_slow(9, 2)
        report = verify_oper_maximality(10, 2)
        assert report.unique_maximum
        assert report.count == 15126

    @pytest.mark.parametrize("r", range(2, 11))
    def test_symmetric_unit_family_bounds_the_count(self, r):
        # unit segments, integer slopes s_i = -s_{r+1-i} falling by 1 or 2:
        # the family behind the refusal of large ranks before the search
        k, odd = divmod(r, 2)
        halves = [(1,), (2,)] if odd else [(1,)]  # s_k, above the middle
        for _ in range(k - 1):
            halves = [(h[0] + step,) + h for h in halves for step in (1, 2)]
        family = set()
        for half in halves:
            slopes = half + (0,) * odd + tuple(-s for s in reversed(half))
            ys = itertools.accumulate(slopes, initial=0)
            family.add(HNPolygon(tuple(enumerate(ys))))
        assert len(family) == 2 ** (k - 1 + odd)
        assert family <= set(enumerate_admissible(r, 2))

    def test_refuses_large_ranks_before_searching(self, monkeypatch):
        def no_search(*args):
            raise AssertionError("searched")

        monkeypatch.setattr(enumeration, "_complete", no_search)
        monkeypatch.setattr(enumeration, "_steps", no_search)  # nor count
        for r in (38, 10**9):
            for search in (iter_admissible, enumerate_admissible, verify_oper_maximality):
                with pytest.raises(ValueError, match="MAX_POLYGONS = 250000"):
                    search(r, 2)

    def test_walk_stays_lazy(self):
        # The search memoizes ranges of next breakpoints, not the children
        # they expand to: tables that expand each range into a tuple of y
        # values allocate about 33 MB before the first polygon here.  The
        # count refuses this rank and genus, so the walk is run directly.
        with pytest.raises(ValueError, match="MAX_POLYGONS = 250000"):
            iter_admissible(37, 100)
        tracemalloc.start()
        try:
            walk = enumeration._complete(37, 100, ((0, 0),), lambda x, y: ((x, y),),
                                         HNPolygon._from_search)
            first = next(walk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert first.breakpoints == ((0, 0), (1, 1), (2, 1), (37, 0))
        assert peak < 100_000

    @pytest.mark.parametrize("r, g, tables", [(4, 2, 19), (5, 3, 181), (6, 2, 138),
                                              (7, 3, 1126)])
    def test_walk_computes_each_step_table_once(self, monkeypatch, r, g, tables):
        # The origin's steps are in closed form, and each later state's are
        # computed at its first visit.  An origin range loosened by a step
        # yields the same polygons but reaches more states: 1132 or more at
        # rank 7 genus 3.  The count before the walk visits the same states.
        steps, calls = enumeration._steps, 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return steps(*args)

        monkeypatch.setattr(enumeration, "_steps", counted)
        enumeration._count(r, g)
        assert calls == tables
        for _ in iter_admissible(r, g):
            pass
        assert calls == 3 * tables  # the count again, then the walk

    @pytest.mark.parametrize("r, g", [*itertools.product(range(2, 7), range(2, 5)), (7, 3)])
    def test_count_equals_the_slow_oracle(self, r, g):
        # test_search_builds_what_the_constructor_accepts ties it to the walk
        assert enumeration._count(r, g) == len(enumerate_admissible_slow(r, g))

    def test_count_is_exact_to_the_limit_and_stops_past_it(self, monkeypatch):
        # Rank 7 genus 3 has 5767 polygons: counted exactly at a limit of 5767,
        # one past a limit of 5766, and only some way past a limit of 100.
        for limit, counted in ((5767, 5767), (5766, 5767), (100, 141)):
            monkeypatch.setattr(enumeration, "MAX_POLYGONS", limit)
            assert enumeration._count(7, 3) == counted

    @pytest.mark.parametrize("r, g, calls", [(37, 2, 5_000), (3, 1000, 260_000)])
    def test_count_refuses_within_a_bound_on_step_tables(self, monkeypatch, r, g, calls):
        # The count returns once it passes the limit.  Rank 37 genus 2, the
        # widest fan-out below the rank guard, computes 4382 step tables, where
        # a whole count takes over a minute; rank 3 genus 1000, where nearly
        # every state closes one polygon, computes 250 274.
        steps, made = enumeration._steps, 0

        def counted(*args):
            nonlocal made
            made += 1
            return steps(*args)

        monkeypatch.setattr(enumeration, "_steps", counted)
        assert enumeration._count(r, g) > enumeration.MAX_POLYGONS
        assert made < calls
        with pytest.raises(ValueError, match=f"rank {r} genus {g} .*MAX_POLYGONS = 250000"):
            iter_admissible(r, g)

    def test_gap_constraints_hold(self):
        gap = 2 * 3 - 2
        for poly in enumerate_admissible(4, 3):
            slopes = [Fraction(d, n) for n, d in quotient_data(poly)]
            for lo, hi in zip(slopes, slopes[1:]):
                assert hi - lo <= gap

    @pytest.mark.parametrize("r, g", itertools.product(range(2, 9), range(2, 5)))
    def test_search_builds_what_the_constructor_accepts(self, r, g):
        # The search skips the constructor's checks, which its bounds prove;
        # rebuilding through the constructor checks that proof on each polygon.
        # The same walk pins the canonical order, and the places that _places
        # reads at breakpoints against equality and the scaled-values
        # dominance test.
        top = oper_polygon(r, g)
        scale = math.lcm(*range(1, r + 1))
        ceiling = _scaled_values(top, scale)
        types = set()
        count, previous = 0, ()
        rows = zip(iter_admissible(r, g), _places(r, g, g))
        for count, (poly, place) in enumerate(rows, 1):
            types.update(map(type, itertools.chain.from_iterable(poly.breakpoints)))
            checked = HNPolygon(poly.breakpoints)
            assert checked == poly and hash(checked) == hash(poly)
            assert poly.breakpoints > previous
            previous = poly.breakpoints
            vector = _scaled_values(poly, scale)
            under = all(map(operator.le, vector, ceiling))
            assert place == (OPER if poly == top else UNDER if under else ABOVE)
        assert types == {int}
        assert count == enumeration._count(r, g)
        assert count == {(5, 3): 237, (7, 3): 5767, (8, 3): 29_427, (8, 4): 238_211}.get(
            (r, g), count)

    def test_slow_oracle_agrees(self):
        grid = [*itertools.product(range(2, 8), range(2, 5)), (8, 2), (8, 3)]
        for r, g in grid:
            assert enumerate_admissible(r, g) == enumerate_admissible_slow(r, g)

    def test_pruned_oracle_equals_the_unpruned_walk(self):
        for r, g in itertools.product(range(2, 7), range(2, 5)):
            assert enumerate_admissible_slow(r, g) == unpruned_slow_oracle(r, g)

    @pytest.mark.parametrize("r, g", itertools.product(range(2, 7), (2, 3)))
    def test_pruned_oracle_reaches_no_dead_leaf(self, r, g):
        # One step before the last part, the bounds from the later parts are
        # the last slope's own conditions, so every leaf the walk reaches is a
        # polygon; a bound loosened by one adds leaves that are not.
        polys, nodes, leaves = slow_oracle_walk(r, g)
        assert leaves == len(polys)
        if (r, g) == (6, 3):
            assert (nodes, leaves) == (2255, 1155)  # unpruned: 44 119 nodes, 33 936 leaves

    def test_count_weakly_increasing_in_genus(self):
        for r in range(2, 6):
            counts = [len(enumerate_admissible(r, g)) for g in (2, 3, 4)]
            assert counts == sorted(counts)


class TestVerifyOperMaximality:
    def test_rank_two(self):
        report = verify_oper_maximality(2, 2)
        assert report.unique_maximum
        assert report.count == 2

    def test_rank_three(self):
        report = verify_oper_maximality(3, 2)
        assert report.unique_maximum
        assert report.count == 5

    def test_rank_four(self):
        report = verify_oper_maximality(4, 2)
        assert report.unique_maximum
        assert not report.counterexamples

    @pytest.mark.parametrize("r, g", [(3, 2), (5, 2), (4, 3)])
    def test_report_counts_the_polygons_it_checked(self, r, g):
        assert verify_oper_maximality(r, g).count == len(enumerate_admissible(r, g))

    def test_reads_to_the_listing_limit(self, monkeypatch):
        monkeypatch.setattr(enumeration, "MAX_POLYGONS", 5)
        assert verify_oper_maximality(3, 2).count == 5
        monkeypatch.setattr(enumeration, "MAX_POLYGONS", 4)
        with pytest.raises(ValueError, match="rank 3 genus 2 .*MAX_POLYGONS = 4"):
            verify_oper_maximality(3, 2)

    def test_holds_no_polygon_list(self):
        tracemalloc.start()
        try:
            report = verify_oper_maximality(7, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (report.unique_maximum, report.count) == (True, 5767)
        assert peak < 1_000_000  # a tuple of the 5767 polygons peaks at about 3 MB

    def test_a_pass_builds_no_polygon(self, monkeypatch):
        # A pass tallies the search's places: the oper polygon it reads them
        # against is the one polygon built, and no search polygon is.
        init, built = HNPolygon.__init__, []

        def counted(self, breakpoints):
            built.append(breakpoints)
            init(self, breakpoints)

        def searched(cls, breakpoints):
            raise AssertionError("built a search polygon")

        monkeypatch.setattr(HNPolygon, "__init__", counted)
        monkeypatch.setattr(HNPolygon, "_from_search", classmethod(searched))
        report = verify_oper_maximality(7, 3)
        assert (report.unique_maximum, report.count) == (True, 5767)
        assert len(built) == 1

    @pytest.mark.parametrize("r, g", [(3, 2), (4, 2), (5, 3), (6, 2), (7, 3)])
    def test_fails_with_the_true_oper_polygon_under_a_lowered_one(self, r, g, monkeypatch,
                                                                   capsys):
        # Lowered by 1 at every interior breakpoint, the "oper polygon" leaves
        # exactly one admissible polygon above it: the true one.
        monkeypatch.setattr(enumeration, "oper_polygon", lambda r, g: HNPolygon(
            [(x, y - (0 < x < r)) for x, y in oper_polygon(r, g).breakpoints]))
        report = verify_oper_maximality(r, g)
        assert report.unique_maximum is False
        assert report.counterexamples == (oper_polygon(r, g),)
        argv = ["enumerate", "--rank", str(r), "--genus", str(g), "--verify", "--format", "json"]
        assert cli.run(argv) == 1
        out, err = capsys.readouterr()
        assert (json.loads(out)["passed"], err) == (False, "")

    @pytest.mark.parametrize(
        "r, g", [(r, 2) for r in range(2, 6)] + [(r, 3) for r in range(2, 5)]
    )
    def test_hasse_diagram_has_oper_polygon_as_only_maximum(self, r, g):
        # unique_maximum is derived from dominance plus presence; this checks
        # uniqueness by the independent route of the poset's maximal elements.
        poset = strata_poset(enumerate_admissible(r, g))
        maxima = poset.maximal_indices()
        assert len(maxima) == 1
        assert poset.elements[maxima[0]] == oper_polygon(r, g)


class TestVerifyTargetInequalities:
    def test_agrees_with_the_quotient_data_form(self):
        # The genus-4 search chains hold those of genus 2 and 3, whose slope
        # gap is narrower.  Each is placed against the oper polygons of genera
        # 2 .. 5, so that some lie above.  Random polygons, which the search
        # does not yield, are read against the oper polygon by shatz_leq.
        outcomes = set()
        for r, genus in itertools.product(range(2, 8), range(2, 6)):
            for poly, place in zip(iter_admissible(r, 4), _places(r, 4, genus)):
                expected = target_inequalities_from_quotient_data(poly, genus)
                assert (place != ABOVE) == expected, (poly, genus)
                outcomes.add(expected)
        assert outcomes == {True, False}
        outcomes = set()
        rng = random.Random(20231019)
        for _ in range(2100):
            poly = random_polygon(rng, rng.randint(2, 9))
            genus = rng.randint(2, 5)
            expected = target_inequalities_from_quotient_data(poly, genus)
            assert shatz_leq(poly, oper_polygon(poly.endpoint[0], genus)) == expected, (poly, genus)
            outcomes.add(expected)
        assert outcomes == {True, False}


class TestKeyInequality:
    def test_all_zero(self):
        assert key_inequality_check(2, (0,))

    def test_example(self):
        assert key_inequality_check(3, (1, 1))

    def test_requires_matching_length(self):
        with pytest.raises(ValueError):
            key_inequality_check(4, (1, 2))

    def test_names_an_iterator_by_its_values(self):
        with pytest.raises(ValueError) as info:
            key_inequality_check(3, iter([1, "a"]))
        assert str(info.value) == "m values must be integers, got (1, 'a')"

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError) as info:
            key_inequality_check(3, (1, -1))
        assert str(info.value) == "m values must be nonnegative"

    def test_exhaustive_small_ranges(self):
        for l in range(2, 7):
            for m_values in itertools.product(range(5), repeat=l - 1):
                assert key_inequality_check(l, m_values)
