import csv
import io
import json

import pytest

from opercalc import HNPolygon, enumerate_admissible
from opercalc.cli import _cell, run
from opercalc import laws
from opercalc.laws import ALL_LAWS, Law


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
        poly = HNPolygon.from_json(json.loads(out))
        assert poly.breakpoints == tuple((i, i * (5 - i) * 2) for i in range(6))

    def test_invalid_rank_is_usage_error(self, capture):
        code, _, err = capture("oper-polygon", "--rank", "1", "--genus", "2")
        assert code == 2
        assert "error" in err


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
])
def test_list_cell(value, cell):
    assert _cell(value) == cell


class TestCalculatorCommands:
    def test_pushforward_table(self, capture):
        code, out, _ = capture(
            "pushforward", "--rank", "1", "--degree", "-1", "--genus", "2", "--char", "3"
        )
        assert code == 0
        assert "1/3" in out

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

    def test_optimize_oracle_refuses_past_the_profile_limit(self, capture, monkeypatch):
        monkeypatch.setattr("opercalc.filtrations.MAX_PROFILES", 4)
        code, out, err = capture("optimize", "--weight", "6", "--cap", "6", "--oracle")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "MAX_PROFILES = 4" in err

    def test_sun_bound_cap_option_is_gone(self, capture):
        code, out, _ = capture(
            "sun-bound", "--profile", "1,1", "--cap", "3", "--genus", "2", "--char", "5"
        )
        assert (code, out) == (2, "")

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
        polys = tuple(HNPolygon.from_json(obj) for obj in json.loads(out))
        assert polys == enumerate_admissible(3, 2)

    def test_csv_flags_the_oper_polygon(self, capture):
        code, out, _ = capture(
            "enumerate", "--rank", "3", "--genus", "2", "--format", "csv"
        )
        assert code == 0
        header, *rows = csv.reader(io.StringIO(out))
        assert header == ["breakpoints", "is_oper", "dominated_by_oper"]
        assert len(rows) == len(enumerate_admissible(3, 2))
        assert sum(row[1] == "True" for row in rows) == 1
        assert all(row[2] == "True" for row in rows)

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

    @pytest.mark.parametrize("extra", [
        ("enumerate",), ("enumerate", "--verify"), ("strata",),
    ])
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


class TestSweepConfig:
    def test_dims_config_produces_csv_rows(self, capture, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"rank": [2, 3], "genus": [2, 3], "char": [5]}))
        code, out, _ = capture("dims", "--config", str(config))
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 4  # header + one row per combination

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
    ])
    def test_malformed_config_is_usage_error(self, capture, tmp_path, sweep, field):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps(sweep))
        code, out, err = capture("dims", "--config", str(config))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err


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
