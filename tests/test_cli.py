import csv
import gc
import io
import itertools
import json
import re
import shlex
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from opercalc import (
    HNPolygon, cli, enumerate_admissible, enumerate_admissible_slow, enumeration, oper_polygon,
    shatz_leq,
)
from opercalc.cli import _cell, _json_default, main, run
from opercalc import laws
from opercalc.laws import ALL_LAWS, Law

import gates  # tests/gates.py, the CLI's end-to-end gates, run by CI


@pytest.fixture()
def capture(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


class TestOperPolygonCommand:
    def test_json_output(self, capture):
        code, out, _ = capture("oper-polygon", "--rank", "3", "--genus", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"breakpoints": [[0, 0], [1, 2], [2, 2], [3, 0]]}

    def test_json_round_trips(self, capture):
        _, out, _ = capture("oper-polygon", "--rank", "5", "--genus", "3", "--format", "json")
        poly = HNPolygon(json.loads(out)["breakpoints"])
        assert poly.breakpoints == tuple((i, i * (5 - i) * 2) for i in range(6))

    def test_invalid_rank_is_usage_error(self, capture):
        code, _, err = capture("oper-polygon", "--rank", "1", "--genus", "2")
        assert code == 2
        assert "error" in err

    def test_refuses_more_breakpoints_than_the_listing_limit(self, capture, monkeypatch):
        monkeypatch.setattr("opercalc.enumeration.MAX_POLYGONS", 4)
        code, out, err = capture("oper-polygon", "--rank", "4", "--genus", "2")
        assert (code, out) == (2, "")
        assert err == ("error: rank 4 oper polygon has 5 breakpoints, more than "
                       "MAX_POLYGONS = 4; refusing to print them\n")
        code, out, _ = capture("oper-polygon", "--rank", "3", "--genus", "2", "--format", "csv")
        assert (code, out) == (0, "rank,degree\n0,0\n1,2\n2,2\n3,0\n")


FORMATS = ("json", "csv", "table")

# Exact stdout, in json, csv and table, of each command that prints one record.
RECORD_OUTPUTS = {
    "pushforward --rank 2 --degree 3 --genus 3 --char 5": (
        '{"degree": 19, "rank": 10, "slope": {"den": "10", "num": "19"}}\n',
        "rank,degree,slope\n10,19,19/10\n",
        "rank  degree  slope\n10    19      19/10\n",
    ),
    "hirschowitz --n 5 --d 3 --m 2 --genus 3": (
        '{"epsilon": 4, "slope_bound": {"den": "1", "num": "-1"}}\n',
        "epsilon,slope_bound\n4,-1\n",
        "epsilon  slope_bound\n4        -1\n",
    ),
    "quot --q-rank 2 --q-degree 5 --rank 3 --genus 3 --char 5": (
        '{"case": 2, "dim_lower_bound": 21, "hypothesis_met": true, "nonempty": true, '
        '"slope_lower_bound": {"den": "30", "num": "11"}}\n',
        "hypothesis_met,nonempty,case,slope_lower_bound,dim_lower_bound\n"
        "true,true,2,11/30,21\n",
        "hypothesis_met  nonempty  case  slope_lower_bound  dim_lower_bound\n"
        "true            true      2     11/30              21\n",
    ),
    "optimize --weight 4 --cap 2": (
        '{"cap": 2, "max_score": 6, "weight": 4}\n',
        "weight,cap,max_score\n4,2,6\n",
        "weight  cap  max_score\n4       2    6\n",
    ),
    "optimize --weight 9 --cap 3 --oracle": (
        '{"agree": true, "brute_force": 36, "cap": 3, "closed_form": 36, '
        '"maximizers": [[1, 1, 1, 1, 1, 1, 1, 1, 1]], "weight": 9}\n',
        "weight,cap,closed_form,brute_force,agree,maximizers\n"
        '9,3,36,36,true,"1,1,1,1,1,1,1,1,1"\n',
        "weight  cap  closed_form  brute_force  agree  maximizers\n"
        "9       3    36           36           true   1,1,1,1,1,1,1,1,1\n",
    ),
    "sun-bound --profile 3,2,2,1 --genus 3 --char 7": (
        '{"gap_term": {"den": "14", "num": "15"}, "profile": [3, 2, 2, 1]}\n',
        'profile,gap_term\n"3,2,2,1",15/14\n',
        "profile  gap_term\n3,2,2,1  15/14\n",
    ),
    "sun-bound --profile 4 --genus 3 --char 7": (
        '{"gap_term": {"den": "7", "num": "12"}, "profile": [4]}\n',
        "profile,gap_term\n4,12/7\n",
        "profile  gap_term\n4        12/7\n",
    ),
    "dims --rank 4 --genus 3": (
        '{"destabilized_locus_dim": null, "hitchin_base_dim": 30, "oper_quot_degree": -6, '
        '"oper_space_dim": 30, "quot_expected": 0, "threshold_C": 48}\n',
        "threshold_C,hitchin_base_dim,oper_space_dim,destabilized_locus_dim,quot_expected,"
        "oper_quot_degree\n48,30,30,-,0,-6\n",
        "threshold_C  hitchin_base_dim  oper_space_dim  destabilized_locus_dim  quot_expected  "
        "oper_quot_degree\n48           30                30              -                 "
        "      0              -6\n",
    ),
    "enumerate --rank 5 --genus 3 --verify": (
        '{"all_dominated": true, "count": 237, "genus": 3, "oper_polygon_present": true, '
        '"passed": true, "rank": 5, "unique_maximum": true}\n',
        "count,all_dominated,oper_polygon_present,unique_maximum,passed\n"
        "237,true,true,true,true\n",
        "count  all_dominated  oper_polygon_present  unique_maximum  passed\n"
        "237    true           true                  true            true\n",
    ),
}


@pytest.mark.parametrize("line", RECORD_OUTPUTS)
@pytest.mark.parametrize("fmt", FORMATS)
def test_record_output_is_pinned(capture, line, fmt):
    code, out, err = capture(*line.split(), "--format", fmt)
    assert (code, out, err) == (0, RECORD_OUTPUTS[line][FORMATS.index(fmt)], "")


@pytest.mark.parametrize("value, cell", [
    ([1, 1], "1,1"), ([4], "4"), ([[1, 1], [2]], "1,1 2"), ([[1, 1, 1]], "1,1,1"),
    ((1, 1), "1,1"), (((1, 1), (2,)), "1,1 2"), ((), ""),
])
def test_list_cell(value, cell):
    assert _cell(value) == cell


@pytest.mark.parametrize("value, cell", [
    (HNPolygon(((0, 0), (1, 2), (2, 2), (3, 0))), "0,0;1,2;2,2;3,0"),
    (Fraction(19, 10), "19/10"), (Fraction(-4, 2), "-2"), (True, "true"), (None, "-"),
])
def test_cell(value, cell):
    assert _cell(value) == cell


def test_json_default_refuses_other_values():
    with pytest.raises(TypeError, match="object is not JSON serializable"):
        _json_default(object())


class Terminal(io.StringIO):
    def isatty(self):
        return True


@pytest.mark.parametrize("stdout, no_color, header", [
    (Terminal, None, "\033[1mrank  degree\033[0m"),
    (Terminal, "1", "rank  degree"),
    (io.StringIO, None, "rank  degree"),
])
def test_table_header_is_bold_only_on_a_terminal_without_no_color(monkeypatch, stdout,
                                                                    no_color, header):
    if no_color is None:
        monkeypatch.delenv("NO_COLOR", raising=False)
    else:
        monkeypatch.setenv("NO_COLOR", no_color)
    out = stdout()
    monkeypatch.setattr(sys, "stdout", out)
    assert run(["oper-polygon", "--rank", "3", "--genus", "2"]) == 0
    assert out.getvalue() == f"{header}\n0     0\n1     2\n2     2\n3     0\n"


class TestCalculatorCommands:
    def test_pushforward_table(self, capture):
        code, out, _ = capture(
            "pushforward", "--rank", "1", "--degree", "-1", "--genus", "2", "--char", "3"
        )
        assert code == 0
        assert "1/3" in out

    @pytest.mark.parametrize("char, code", [(2**61 - 1, 0), (318_665_857_834_031_151_167_461, 2)])
    def test_pushforward_decides_a_large_characteristic(self, capture, char, code):
        argv = ("pushforward", "--rank", "1", "--degree", "0", "--genus", "2", "--char")
        assert capture(*argv, str(char))[0] == code

    def test_hirschowitz_json(self, capture):
        code, out, _ = capture(
            "hirschowitz", "--n", "2", "--d", "0", "--m", "1", "--genus", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["epsilon"] == 1
        assert payload["slope_bound"] == {"num": "-1", "den": "1"}

    def test_quot_json(self, capture):
        code, out, _ = capture(
            "quot", "--q-rank", "1", "--q-degree", "-1", "--rank", "2",
            "--genus", "2", "--char", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["hypothesis_met"] is True
        assert payload["dim_lower_bound"] == 0

    def test_optimize_with_oracle(self, capture):
        code, out, _ = capture(
            "optimize", "--weight", "4", "--cap", "2", "--oracle", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["closed_form"] == payload["brute_force"] == 6
        assert payload["maximizers"] == [[1, 1, 1, 1]]

    @pytest.mark.parametrize("weight, cap", [("2000", "1"), ("1200", "2")])
    def test_optimize_oracle_walks_profiles_deeper_than_the_recursion_limit(
        self, capture, weight, cap
    ):
        code, out, _ = capture(
            "optimize", "--weight", weight, "--cap", cap, "--oracle", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["agree"] is True

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    def test_optimize_refuses_cap_below_one(self, capture, oracle):
        code, out, err = capture("optimize", "--weight", "4", "--cap", "0", *oracle)
        assert (code, out, err) == (2, "", "error: cap must be >= 1, got 0\n")

    def test_optimize_oracle_refuses_past_the_profile_limit(self, capture):
        code, out, err = capture("optimize", "--weight", "200", "--cap", "200", "--oracle")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "MAX_PARTS = 12500000" in err

    def test_sun_bound_cap_option_is_gone(self, capture):
        code, out, _ = capture(
            "sun-bound", "--profile", "1,1", "--cap", "3", "--genus", "2", "--char", "5"
        )
        assert (code, out) == (2, "")

    @pytest.mark.parametrize("profile", ["0", "1.5", ",", "", "2,0", "2,-1", "a,1"])
    def test_sun_bound_refuses_a_malformed_profile(self, capture, profile):
        code, out, err = capture("sun-bound", "--profile", profile, "--genus", "2", "--char", "3")
        assert (code, out) == (2, "")
        assert err == ("error: profile must be comma-separated positive integers, "
                       f"got {profile!r}\n")

    def test_sun_bound_notes_characteristic_two(self, capture):
        code, _, err = capture("sun-bound", "--profile", "1,1", "--genus", "2", "--char", "2")
        assert (code, err) == (
            0, "note: characteristic 2 evaluates (p-1)/2 as the exact rational 1/2\n")

    def test_sun_bound_csv(self, capture):
        code, out, _ = capture(
            "sun-bound", "--profile", "1,1", "--genus", "2", "--char", "5",
            "--format", "csv",
        )
        assert code == 0
        assert "3/5" in out

    def test_dims_table(self, capture):
        code, out, _ = capture("dims", "--rank", "2", "--genus", "2")
        assert code == 0
        for token in ("threshold_C", "0", "3", "2", "-1"):
            assert token in out


class TestEnumerateCommand:
    def test_verify_passes(self, capture):
        code, out, _ = capture("enumerate", "--rank", "2", "--genus", "2", "--verify")
        assert code == 0
        assert "2" in out and "true" in out

    def test_json_lists_all_polygons(self, capture):
        code, out, _ = capture(
            "enumerate", "--rank", "3", "--genus", "2", "--format", "json"
        )
        assert code == 0
        polys = tuple(HNPolygon(obj["breakpoints"]) for obj in json.loads(out))
        assert polys == enumerate_admissible(3, 2)

    @pytest.mark.parametrize("r, g", itertools.product(range(2, 9), (2, 3)))
    def test_json_listing_bytes_match_the_slow_oracle(self, capture, r, g):
        # The listing's text fold against the encoder on the search's polygons
        # at every pair, and against the independent oracle where it runs fast.
        code, out, _ = capture(
            "enumerate", "--rank", str(r), "--genus", str(g), "--format", "json"
        )
        encoded = json.dumps(enumerate_admissible(r, g), sort_keys=True, default=_json_default)
        assert (code, out) == (0, encoded + "\n")
        if r <= 6:
            listing = [{"breakpoints": [[x, y] for x, y in p.breakpoints]}
                       for p in enumerate_admissible_slow(r, g)]
            assert out == json.dumps(listing, sort_keys=True) + "\n"

    def test_json_listing_builds_no_polygon(self, capture, monkeypatch):
        def built(*args):
            raise AssertionError("built a polygon")

        monkeypatch.setattr(HNPolygon, "__init__", built)
        monkeypatch.setattr(HNPolygon, "_from_search", classmethod(built))
        code, out, _ = capture("enumerate", "--rank", "4", "--genus", "2", "--format", "json")
        assert code == 0 and out.count('{"breakpoints": ') == 13

    @pytest.mark.parametrize("fmt", ["csv", "table"])
    @pytest.mark.parametrize("r, g", itertools.product(range(2, 7), (2, 3)))
    def test_listing_cells_match_the_cell_renderer(self, capture, r, g, fmt):
        # The listing's cell fold and _cell both write a polygon's breakpoints:
        # each row must be what _cell writes for the oracle's polygon and flags.
        code, out, _ = capture("enumerate", "--rank", str(r), "--genus", str(g), "--format", fmt)
        lines = list(csv.reader(io.StringIO(out))) if fmt == "csv" else [
            line.split() for line in out.splitlines()]
        top = oper_polygon(r, g)
        expected = [[_cell(p), _cell(p == top), _cell(shatz_leq(p, top))]
                    for p in enumerate_admissible_slow(r, g)]
        assert code == 0 and lines == [["breakpoints", "is_oper", "dominated_by_oper"], *expected]

    def test_csv_flags_the_oper_polygon(self, capture):
        code, out, _ = capture(
            "enumerate", "--rank", "3", "--genus", "2", "--format", "csv"
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["breakpoints", "is_oper", "dominated_by_oper"]
        assert len(rows) == len(enumerate_admissible(3, 2))
        assert sum(row[1] == "true" for row in rows) == 1
        assert {row[1] for row in rows} == {"true", "false"}
        assert all(row[2] == "true" for row in rows)

    def test_csv_listing_holds_no_polygon_list(self, capture, monkeypatch):
        # What the listing holds when emit starts to render its rows: a tuple
        # of the 5767 polygons at rank 7 genus 3 holds about 1 MB there.
        emit, held = cli.emit, []

        def entered(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return emit(*args)

        monkeypatch.setattr(cli, "emit", entered)
        tracemalloc.start()
        try:
            code, out, _ = capture("enumerate", "--rank", "7", "--genus", "3", "--format", "csv")
        finally:
            tracemalloc.stop()
        assert (code, out.count("\n")) == (0, 1 + 5767)
        assert held[0] < 100_000

    def test_deterministic_output(self, capture):
        _, first, _ = capture("enumerate", "--rank", "4", "--genus", "2", "--format", "csv")
        _, second, _ = capture("enumerate", "--rank", "4", "--genus", "2", "--format", "csv")
        assert first == second

    def test_strata_has_unique_maximum(self, capture):
        code, out, _ = capture("strata", "--rank", "3", "--genus", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["elements"]) == 5
        assert len(payload["maximal"]) == 1
        top = payload["elements"][payload["maximal"][0]]
        assert top == {"breakpoints": [[0, 0], [1, 2], [2, 2], [3, 0]]}

    def test_strata_refuses_too_many_elements(self, capture, monkeypatch):
        monkeypatch.setattr("opercalc.core.STRATA_MAX_ELEMENTS", 4)
        code, out, err = capture("strata", "--rank", "3", "--genus", "2")
        assert code == 2
        assert out == ""
        assert "5 polygons, above the limit of 4" in err

    def test_strata_reads_no_polygon_past_its_own_limit(self, capture, monkeypatch):
        yielded = set()
        complete = enumeration._complete

        def counted(*args):
            for poly in complete(*args):
                yielded.add(poly)
                yield poly

        monkeypatch.setattr("opercalc.core.STRATA_MAX_ELEMENTS", 4)
        monkeypatch.setattr(enumeration, "_complete", counted)
        code, out, err = capture("strata", "--rank", "5", "--genus", "3")
        assert (code, out) == (2, "")
        assert "5 polygons, above the limit of 4" in err
        assert len(yielded) == 5  # of the 237 at rank 5 genus 3

    @pytest.mark.parametrize("limit, message", [
        ("opercalc.enumeration.MAX_POLYGONS", "more than MAX_POLYGONS = 4"),
        ("opercalc.core.STRATA_MAX_ELEMENTS", "5 polygons, above the limit of 4"),
    ])
    def test_strata_refuses_at_the_smaller_limit(self, capture, monkeypatch, limit, message):
        # rank 3 genus 2 has 5 polygons: either limit, lowered to 4, refuses them
        monkeypatch.setattr(limit, 4)
        code, out, err = capture("strata", "--rank", "3", "--genus", "2", "--format", "json")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("extra", [("enumerate",), ("enumerate", "--verify"),
                                       ("enumerate", "--format", "csv"),
                                       ("enumerate", "--format", "json")])
    def test_refuses_past_the_polygon_limit(self, capture, monkeypatch, extra):
        monkeypatch.setattr("opercalc.enumeration.MAX_POLYGONS", 4)
        code, out, err = capture(*extra, "--rank", "3", "--genus", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "MAX_POLYGONS = 4" in err

    @pytest.mark.parametrize("command", ["enumerate", "strata"])
    def test_max_rank_option_is_gone(self, capture, command):
        code, out, _ = capture(command, "--rank", "9", "--genus", "2", "--max-rank", "9")
        assert code == 2
        assert out == ""


def test_dims_needs_rank_and_genus_or_a_config(capture):
    assert capture("dims") == (2, "", "error: dims requires --rank and --genus (or --config)\n")


class TestSweepConfig:
    def test_dims_config_produces_csv_rows(self, capture, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"rank": [2, 3], "genus": [2, 3], "char": [5]}))
        code, out, _ = capture("dims", "--config", str(config))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 4  # header + one row per combination

    def test_a_byte_order_mark_is_skipped(self, capture, tmp_path):
        sweep = json.dumps({"rank": [2, 3], "genus": [2, 3], "char": [5, None]}).encode()
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        plain.write_bytes(sweep)
        marked.write_bytes(b"\xef\xbb\xbf" + sweep)  # the UTF-8 byte order mark
        expected = capture("dims", "--config", str(plain))
        assert expected[0] == 0 and expected[1].count("\n") == 1 + 8
        assert capture("dims", "--config", str(marked)) == expected

    def test_missing_config_is_usage_error(self, capture, tmp_path):
        code, out, err = capture("dims", "--config", str(tmp_path / "absent.json"))
        assert (code, out) == (2, "")
        assert err.startswith("error: cannot read config") and err.count("\n") == 1

    @pytest.mark.parametrize("sweep, field", [
        ([2], "JSON object"),
        ({"rank": 3, "genus": [2]}, "'rank'"),
        ({"genus": [2]}, "'rank'"),
        ({"rank": [2]}, "'genus'"),
        ({"rank": [2], "genus": [2], "char": [True]}, "'char'"),
        ({"rank": [3], "genus": [2], "char": [4, -7, 0, 1]}, "'char'"),
        ({"rank": [3], "genus": [2], "char": [5, 4]}, "'char'"),
        ({"rank": [3], "genus": [2], "char": [None, -7]}, "'char'"),
        ({"rank": [3], "genus": [2], "char": [0]}, "'char'"),
        ({"rank": [3], "genus": [2], "char": [1]}, "'char'"),
        ({"rank": [3], "genus": [2], "char": [318_665_857_834_031_151_167_461]}, "'char'"),
        # the file itself: bytes are written as they are
        (b"rank = 3\n", "not UTF-8 JSON: Expecting value"),
        (b"\xff{}", "not UTF-8 JSON: 'utf-8' codec can't decode byte 0xff"),
    ])
    def test_malformed_config_is_usage_error(self, capture, tmp_path, sweep, field):
        config = tmp_path / "sweep.json"
        config.write_bytes(sweep if isinstance(sweep, bytes) else json.dumps(sweep).encode())
        code, out, err = capture("dims", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err and str(config) in err

    @pytest.mark.parametrize("option, sweep, message", [
        ("--rank", {"genus": [2]}, "rank must be >= 2, got 0"),
        ("--genus", {"rank": [2]}, "genus must be >= 2, got 0"),
    ])
    def test_a_zero_option_fills_what_the_config_omits(self, capture, tmp_path, option,
                                                        sweep, message):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(sweep))
        code, out, err = capture("dims", option, "0", "--config", str(config))
        assert (code, out, err) == (2, "", f"error: {message}\n")


# Each command's help line and its options beside --format: (flag, required, help).
COMMAND_HELP = {
    "oper-polygon": ("polygon with vertices (i, i(r-i)(g-1))",
                     [("--rank", True, ""), ("--genus", True, "")]),
    "pushforward": ("rank/degree/slope of the Frobenius pushforward",
                    [("--rank", True, ""), ("--degree", True, ""), ("--genus", True, ""),
                     ("--char", True, "")]),
    "hirschowitz": ("guaranteed subbundle slope bound",
                    [("--n", True, ""), ("--d", True, ""), ("--m", True, ""),
                     ("--genus", True, "")]),
    "quot": ("non-emptiness certificate and dimension bounds",
             [("--q-rank", True, ""), ("--q-degree", True, ""), ("--rank", True, ""),
              ("--genus", True, ""), ("--char", True, "")]),
    "optimize": ("maximum of the filtration score",
                 [("--weight", True, ""), ("--cap", True, ""),
                  ("--oracle", False, "also run the exhaustive enumeration and compare")]),
    "sun-bound": ("exact slope gap term for a filtration profile",
                  [("--profile", True, "comma-separated weakly decreasing parts, e.g. 2,1,1"),
                   ("--genus", True, ""), ("--char", True, "")]),
    "enumerate": ("all admissible degree-0 polygons of a given rank",
                  [("--rank", True, ""), ("--genus", True, ""),
                   ("--verify", False, "check dominance by the oper polygon; exit 1 on failure")]),
    "strata": ("Hasse diagram of the admissible polygons",
               [("--rank", True, ""), ("--genus", True, "")]),
    "dims": ("threshold constant and dimension identities",
             [("--rank", False, ""), ("--genus", False, ""),
              ("--config", False, "JSON sweep file {rank: [..], genus: [..], char: [..]}; "
               "emits one CSV row per combination")]),
    "check-laws": ("run every cross-formula identity", []),
}


def words(text: str) -> str:
    """``text`` with every run of white space made one blank, so that the
    checks below do not depend on where help text wraps."""
    return " ".join(text.split())


class TestArgumentParsing:
    @pytest.mark.parametrize("flag", ["--help", "-h", "--he"])
    def test_top_level_help_lists_every_command(self, capture, flag):
        code, out, err = capture(flag)
        assert (code, err) == (0, "")
        assert out.startswith("usage: opercalc")
        for command, (text, _) in COMMAND_HELP.items():
            assert f" {command} {text}" in words(out)

    @pytest.mark.parametrize("command", COMMAND_HELP)
    def test_command_help_lists_every_option(self, capture, command):
        code, out, err = capture(command, "--help")
        assert (code, err) == (0, "")
        text = words(out)
        assert text.startswith(f"usage: opercalc {command} [-h] [--format {{json,csv,table}}]")
        assert "--format {json,csv,table} output format (default: table)" in text
        for flag, required, help_text in COMMAND_HELP[command][1]:
            assert f" {flag}" in text and help_text in text
            # the usage line brackets exactly the options that may be left out
            assert (f"[{flag}" not in text) is required

    @pytest.mark.parametrize("argv", [
        ("enumerate", "-h"),
        ("enumerate", "--rank", "3", "--help"),
        ("enumerate", "--rank", "3", "--genus", "2", "--verify", "--hel"),
    ])
    def test_help_after_options(self, capture, argv):
        code, out, err = capture(*argv)
        assert (code, err) == (0, "")
        assert words(out).startswith("usage: opercalc enumerate") and "--verify" in out

    @pytest.mark.parametrize("argv", [
        "pushforward --rank=1 --degree=-1 --genus=2 --char=3 --format=json",
        "pushforward --rank 1 --degree=-1 --genus 2 --char 3 --format json",
        "pushforward --ra 1 --deg -1 --gen 2 --ch 3 --form json",
        "pushforward --rank 9 --degree 5 --genus 2 --char 3 --format csv"
        " --rank 1 --degree -1 --format json",
    ])
    def test_equals_form_prefixes_negatives_and_last_value(self, capture, argv):
        expected = capture("pushforward", "--rank", "1", "--degree", "-1", "--genus", "2",
                           "--char", "3", "--format", "json")
        assert expected == (0, '{"degree": 1, "rank": 3, "slope": {"den": "3", "num": "1"}}\n', "")
        assert capture(*argv.split()) == expected

    @pytest.mark.parametrize("argv, named", [
        ((), "command"),
        (("no-such-command",), "'no-such-command'"),
        (("dims", "--bogus"), "--bogus"),
        (("enumerate", "--rank", "3", "--genus", "2", "extra"), "extra"),
        (("dims", "--rank"), "--rank"),
        (("dims", "--rank", "--genus", "2"), "--rank"),
        (("pushforward", "--rank", "1", "--degree", "-x", "--genus", "2", "--char", "3"),
         "--degree"),
        (("dims", "--rank", "x"), "'x'"),
        (("enumerate", "--rank", "3", "--genus", "2", "--format", "xml"), "'xml'"),
        (("enumerate", "--rank", "3", "--genus", "2", "--format=js"), "'js'"),
        (("enumerate", "--rank", "3"), "--genus"),
        (("quot", "--q-rank", "1"), "--q-degree, --rank, --genus, --char"),
        (("enumerate", "--rank", "3", "--genus", "2", "--verify=x"), "--verify"),
        (("quot", "--q", "1", "--rank", "2", "--genus", "2", "--char", "3"), "--q"),
    ])
    def test_usage_error(self, capture, argv, named):
        code, out, err = capture(*argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: opercalc")
        last = err.splitlines()[-1]
        assert last.startswith("opercalc") and ": error: " in last and named in last


class TestUsageErrors:
    def test_unknown_subcommand(self, capture):
        code, _, _ = capture("no-such-command")
        assert code == 2

    def test_unknown_flag(self, capture):
        code, _, _ = capture("dims", "--rank", "2", "--genus", "2", "--bogus")
        assert code == 2

    def test_check_laws_passes(self, capture):
        code, out, _ = capture("check-laws")
        assert code == 0
        rows = [line.split() for line in out.splitlines()[1:]]
        assert rows == [[law.name, "PASS"] for law in ALL_LAWS]

    def test_check_laws_fails_a_law_with_no_cases(self, capture, monkeypatch):
        vacuous = Law("vacuous", lambda: (), lambda: True)
        monkeypatch.setattr(laws, "ALL_LAWS", (ALL_LAWS[0], vacuous))
        code, out, _ = capture("check-laws", "--format", "csv")
        assert code == 1
        assert out.splitlines()[1:] == [
            f"{ALL_LAWS[0].name},PASS,",
            "vacuous,FAIL,no cases checked",
        ]


class TestMain:
    """``main``, the console entry point, runs with the collector off and
    freezes every object before it exits."""

    @pytest.mark.parametrize("argv, code", [
        (["enumerate", "--rank", "3", "--genus", "2", "--verify"], 0),
        (["enumerate", "--rank", "3", "--genus", "x"], 2),
    ], ids=["verify", "usage-error"])
    def test_exits_with_the_code_of_run_and_the_collector_off(self, monkeypatch, capsys,
                                                               argv, code):
        monkeypatch.setattr(sys, "argv", ["opercalc", *argv])
        try:
            with pytest.raises(SystemExit) as exited:
                main()
            assert exited.value.code == code
            assert not gc.isenabled()
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
            gc.enable()
        out, err = capsys.readouterr()
        if code == 0:
            assert (out.split()[-2:], err) == (["true", "true"], "")
        else:
            assert out == "" and "invalid int value: 'x'" in err

    def test_the_commands_leave_no_cyclic_garbage(self, capture):
        """What keeping the collector off rests on: a collection after the
        largest commands frees a few objects at most, however long their
        output."""
        gc.collect()
        gc.disable()
        try:
            for argv in (["enumerate", "--rank", "8", "--genus", "3", "--format", "json"],
                         ["strata", "--rank", "7", "--genus", "3"],
                         ["check-laws"]):
                code, out, _ = capture(*argv)
                assert code == 0 and out
            freed = gc.collect()
        finally:
            gc.enable()
        assert freed < 50


README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def readme_cli_examples() -> list[list[str]]:
    """The argument lists of the code block under README's "CLI" heading."""
    block = README.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines()]


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=" ".join)
def test_readme_cli_examples_run(capture, tmp_path, monkeypatch, argv):
    # the sweep config the README's "Dimension sweeps" section writes to sweep.json
    sweep = README.split("\n## Dimension sweeps\n", 1)[1]
    (tmp_path / "sweep.json").write_text(re.search(r"`(\{.*?\})`", sweep).group(1))
    monkeypatch.chdir(tmp_path)
    assert argv[0] == "opercalc"
    code, out, err = capture(*argv[1:])
    assert (code, err) == (0, "")
    assert out


def test_every_gate_parses_and_states_its_bounds():
    # CI runs tests/gates.py's table at full size; here each row must still name a
    # command and options that the CLI parses, so that a rename fails Tier-1 too.
    handlers = {entry[0] for entry in cli.COMMANDS.values()}
    argvs = [gate.argv for gate in gates.GATES]
    assert argvs and len(set(argvs)) == len(argvs)
    for gate in gates.GATES:
        parsed = cli._parse(gate.argv.split(" "))
        assert not isinstance(parsed, int) and parsed[0] in handlers, gate.argv
        assert gate.timeout_s > 0 and gate.rss_mb > 0, gate.argv
        assert gate.stdout == "empty" or (
            isinstance(gate.stdout, tuple) and len(gate.stdout) == 2 and gate.stdout[0] > 0
            and re.fullmatch("[0-9a-f]{64}", gate.stdout[1])), gate.argv
