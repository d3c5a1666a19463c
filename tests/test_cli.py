import json

import pytest

from boxdisc import cli, scenarios
from boxdisc.cli import execute, main, render_csv, render_json, render_table
from boxdisc.scenarios import SCENARIO_IDS


def run_main(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArgumentValidation:
    def test_monte_carlo_without_samples_is_usage_error(self, capsys):
        code, _, err = run_main(capsys, "--all", "--method", "monte_carlo")
        assert code == 2 and "samples" in err

    def test_samples_without_monte_carlo_is_usage_error(self, capsys):
        code, _, err = run_main(capsys, "--all", "--samples", "1000")
        assert code == 2 and "samples" in err

    def test_all_and_scenario_conflict(self, capsys):
        code, _, _ = run_main(capsys, "--all", "--scenario", "one-ref-minerror")
        assert code == 2

    def test_unknown_scenario_id(self, capsys):
        code, _, err = run_main(capsys, "--scenario", "bogus")
        assert code == 2 and "bogus" in err

    def test_no_selection(self, capsys):
        code, _, err = run_main(capsys)
        assert code == 2 and err

    def test_too_few_nodes(self, capsys):
        code, _, err = run_main(capsys, "--all", "--nodes", "7")
        assert code == 2 and "nodes" in err

    def test_unknown_format_rejected_by_argparse(self, capsys):
        code, _, _ = run_main(capsys, "--all", "--format", "xml")
        assert code == 2


class TestListFlag:
    def test_lists_all_scenarios(self, capsys):
        code, out, _ = run_main(capsys, "--list")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == len(SCENARIO_IDS)
        for sid, line in zip(SCENARIO_IDS, lines):
            assert line.startswith(sid + ":")


class TestRunOutputs:
    def test_single_scenario_json(self, capsys):
        code, out, err = run_main(
            capsys, "--scenario", "one-ref-minerror", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)
        assert len(records) == 1
        rec = records[0]
        assert list(rec) == list(cli.RECORD_FIELDS)
        assert rec["scenario"] == "one-ref-minerror"
        assert rec["analytic"] == pytest.approx(0.125, abs=1e-12)
        assert rec["mc_estimate"] is None
        assert rec["pass"] is True
        assert "1/1 scenarios passed" in err

    def test_all_scenarios_table(self, capsys):
        code, out, err = run_main(capsys, "--all")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split()[0] == "scenario"
        body = [ln for ln in lines[2:] if ln.strip()]
        assert len(body) == len(SCENARIO_IDS)
        assert all("pass" in ln for ln in body)
        assert "11/11 scenarios passed" in err

    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run_main(
            capsys, "--scenario", "two-ref-singlet", "--format", "csv"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == (
            "scenario,mode,method,analytic,paper_value,"
            "mc_estimate,mc_stderr,cross_talk,pass"
        )
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "two-ref-singlet"
        assert cells[5] == "" and cells[6] == ""  # no sampling columns

    def test_duplicate_scenario_flags_deduped(self, capsys):
        code, out, _ = run_main(
            capsys,
            "--scenario",
            "one-ref-minerror",
            "--scenario",
            "one-ref-minerror",
            "--format",
            "csv",
        )
        assert code == 0 and len(out.splitlines()) == 2

    def test_quadrature_method_flag(self, capsys):
        code, out, _ = run_main(
            capsys,
            "--scenario",
            "one-ref-unambiguous",
            "--method",
            "quadrature",
            "--nodes",
            "16",
            "--format",
            "csv",
        )
        assert code == 0 and ",quadrature," in out.splitlines()[1]

    def test_all_pass_at_smallest_accepted_nodes(self, capsys):
        code, out, _ = run_main(
            capsys, "--all", "--method", "quadrature", "--nodes", "8", "--format", "csv"
        )
        rows = out.splitlines()[1:]
        assert code == 0 and len(rows) == len(SCENARIO_IDS)
        assert all(row.endswith(",true") for row in rows)

    def test_monte_carlo_run_is_deterministic(self, capsys):
        argv = (
            "--scenario",
            "one-ref-unambiguous",
            "--method",
            "monte_carlo",
            "--samples",
            "20000",
            "--seed",
            "5",
            "--format",
            "csv",
        )
        code1, out1, _ = run_main(capsys, *argv)
        code2, out2, _ = run_main(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.splitlines()[1].split(",")[5] != ""


class TestConfigObject:
    """``execute`` called directly with its run configuration."""

    def test_execute_returns_records_and_flag(self):
        records, ok = execute(("one-ref-minerror",))
        assert ok and len(records) == 1
        assert records[0]["method"] == "design"

    def test_tight_tolerance_fails_runs(self, monkeypatch):
        monkeypatch.setattr(scenarios, "PASS_TOL", 0.0)
        records, ok = execute(("one-ref-minerror",))
        assert ok is False and records[0]["pass"] is False

    def test_repeated_id_runs_once(self, monkeypatch):
        ran = []
        run = scenarios.run_scenario

        def counting_run(scenario, *args, **kwargs):
            ran.append(scenario.id)
            return run(scenario, *args, **kwargs)

        monkeypatch.setattr(scenarios, "run_scenario", counting_run)
        ids = ["one-ref-unambiguous", "one-ref-minerror", "one-ref-unambiguous"]
        records, ok = execute(ids)
        assert ran == ["one-ref-minerror", "one-ref-unambiguous"]
        assert [rec["scenario"] for rec in records] == ran and ok


class TestRendering:
    def sample_records(self):
        records, _ = execute(("one-ref-minerror",))
        return records

    def test_json_round_trip_is_byte_stable(self):
        records = self.sample_records()
        text = render_json(records)
        parsed = json.loads(text)
        assert render_json(parsed) == text

    def test_table_uses_dash_for_missing(self):
        table = render_table(self.sample_records())
        row = table.splitlines()[2]
        assert " - " in row

    def test_csv_and_json_agree_on_analytic(self):
        records = self.sample_records()
        csv_val = render_csv(records).splitlines()[1].split(",")[3]
        json_val = json.loads(render_json(records))[0]["analytic"]
        assert float(csv_val) == json_val

    def test_number_format_is_stable_under_reparse(self):
        assert cli._fmt_number(0.125) == "0.125"
        text = cli._fmt_number(1 / 3)
        assert cli._fmt_number(float(text)) == text
