import dataclasses
import json

import pytest

from boxdisc import cli, haar, scenarios, states
from boxdisc.cli import execute, main, render_csv, render_json, render_table
from boxdisc.discrimination import Povm
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

    def test_one_sample_is_usage_error(self, capsys):
        # One sample has stderr 0, so the Monte Carlo gate could never pass.
        code, out, err = run_main(
            capsys, "--all", "--method", "monte_carlo", "--samples", "1"
        )
        assert code == 2 and not out and "one sample has no error bar" in err

    def test_too_few_nodes(self, capsys):
        code, _, err = run_main(capsys, "--all", "--nodes", "6")
        assert code == 2 and "nodes must be at least 7" in err

    def test_too_many_nodes(self, capsys):
        # The grid holds nodes**3 elements; past the cap the run would exhaust
        # memory instead of failing with a usage message.
        code, out, err = run_main(
            capsys, "--all", "--method", "quadrature", "--nodes", str(haar.MAX_NODES + 1)
        )
        assert code == 2 and not out
        assert f"nodes must be at most {haar.MAX_NODES}" in err and "usage:" in err

    def test_help_names_the_node_range(self, capsys):
        code, out, _ = run_main(capsys, "--help")
        assert code == 0 and f"from {haar.MIN_NODES} to {haar.MAX_NODES}" in " ".join(out.split())

    def test_quadrature_default_is_the_smallest_rule(self, capsys):
        argv = ("--all", "--method", "quadrature", "--format", "json")
        assert run_main(capsys, *argv) == run_main(capsys, *argv, "--nodes", str(haar.MIN_NODES))
        _, out, _ = run_main(capsys, "--help")
        assert f"(default: {haar.MIN_NODES})" in " ".join(out.split())

    def test_unknown_format_rejected_by_argparse(self, capsys):
        code, _, _ = run_main(capsys, "--all", "--format", "xml")
        assert code == 2


class TestParserReuse:
    """main shares one parser between calls; no call leaks into the next."""

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_consecutive_calls_keep_their_own_selection(self, capsys):
        code, out, _ = run_main(capsys, "--scenario", "one-ref-minerror", "--format", "json")
        assert code == 0 and [rec["scenario"] for rec in json.loads(out)] == ["one-ref-minerror"]
        code, out, _ = run_main(capsys, "--scenario", "order-uv-refs", "--format", "json")
        assert code == 0 and [rec["scenario"] for rec in json.loads(out)] == ["order-uv-refs"]

    def test_format_switches_between_calls(self, capsys):
        argv = ("--scenario", "two-ref-singlet", "--format")
        _, out, _ = run_main(capsys, *argv, "csv")
        assert out.splitlines()[0] == cli.CSV_HEADER
        _, out, _ = run_main(capsys, *argv, "json")
        assert json.loads(out)[0]["scenario"] == "two-ref-singlet"
        _, out, _ = run_main(capsys, "--scenario", "two-ref-singlet")
        assert out.splitlines()[0].split() == list(cli.RECORD_FIELDS)

    def test_help_after_a_run_names_the_node_range(self, capsys):
        run_main(capsys, "--scenario", "one-ref-minerror", "--nodes", "9")
        code, out, _ = run_main(capsys, "--help")
        assert code == 0 and "from 7 to 64" in " ".join(out.split())


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
            capsys, "--all", "--method", "quadrature", "--nodes", "7", "--format", "csv"
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

    @pytest.mark.parametrize("seed", ("1", "99"))
    def test_monte_carlo_line_does_not_depend_on_batchmates(self, capsys, seed):
        argv = ("--method", "monte_carlo", "--samples", "3000", "--seed", seed)
        argv += ("--format", "json")

        def json_lines(*select):
            _, out, _ = run_main(capsys, *select, *argv)
            return [line.rstrip(",") for line in out.splitlines()[1:-1]]

        together = json_lines("--all")
        assert len(together) == len(SCENARIO_IDS)
        for sid, line in zip(SCENARIO_IDS, together):
            assert json_lines("--scenario", sid) == [line]

    def test_monte_carlo_run_draws_once_per_box_group(self, capsys, monkeypatch):
        calls = []
        draw = haar.draw_boxes

        def counting_draw(samples, seed, labels):
            calls.append(tuple(labels))
            return draw(samples, seed, labels)

        monkeypatch.setattr(haar, "draw_boxes", counting_draw)
        code, _, _ = run_main(
            capsys, "--all", "--method", "monte_carlo", "--samples", "5000", "--seed", "7"
        )
        assert code == 0 and calls == [("U", "V")]


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
        run = scenarios.run_scenarios

        def counting_run(batch, *args, **kwargs):
            ran.append([scenario.id for scenario in batch])
            return run(batch, *args, **kwargs)

        monkeypatch.setattr(scenarios, "run_scenarios", counting_run)
        ids = ["one-ref-unambiguous", "one-ref-minerror", "one-ref-unambiguous"]
        records, ok = execute(ids)
        assert ran == [["one-ref-minerror", "one-ref-unambiguous"]]
        assert [rec["scenario"] for rec in records] == ran[0] and ok

    def test_execute_builds_through_the_module_attribute(self, monkeypatch):
        built = []
        build = scenarios.build_scenario

        def counting_build(sid):
            built.append(sid)
            return build(sid)

        monkeypatch.setattr(scenarios, "build_scenario", counting_build)
        ids = ["two-ref-singlet", "one-ref-minerror", "two-ref-singlet"]
        _, ok = execute(ids)
        assert built == ["one-ref-minerror", "two-ref-singlet"] and ok


class TestCrossTalkResolution:
    """Records carry cross_talk rounded to 1e-12 absolute; the gate reads the raw value."""

    def test_rounding_noise_prints_as_zero(self):
        records, ok = execute(SCENARIO_IDS)
        results = scenarios.run_scenarios([scenarios.build_scenario(sid) for sid in SCENARIO_IDS])
        unambiguous = [rec for rec in records if rec["mode"] == "unambiguous"]
        assert ok and unambiguous and all(rec["cross_talk"] == 0 for rec in unambiguous)
        assert all(rec["cross_talk"] is None for rec in records if rec["mode"] == "min_error")
        raw = [res.cross_talk for res in results if res.scenario.mode == "unambiguous"]
        assert len(raw) == len(unambiguous) and any(value != 0 for value in raw)

    def test_cross_talk_of_4e_9_prints_and_fails(self, capsys, monkeypatch):
        # The POVM of test_scenarios.py::TestGateScales::test_cross_talk_of_4e_9_fails.
        p_sym, p_anti = states.sym_antisym_projectors((0, 1), 2)
        povm = Povm({"identify-2": p_sym + 4e-9 * p_anti, "fail": (1 - 4e-9) * p_anti})
        build = scenarios.build_scenario
        monkeypatch.setattr(
            scenarios, "build_scenario", lambda sid: dataclasses.replace(build(sid), povm=povm)
        )
        code, out, _ = run_main(capsys, "--scenario", "one-ref-unambiguous", "--format", "csv")
        row = dict(zip(cli.CSV_HEADER.split(","), out.splitlines()[1].split(",")))
        assert code == 1 and row["cross_talk"] == "4e-09" and row["pass"] == "false"


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
