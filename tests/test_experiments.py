"""Tests for the experiment registry and the claim checks it carries.

Every registered experiment runs at its quick configuration (the tables
EXPERIMENTS.md records) and its ``check`` must find every paper claim
holding; the render paths must report a broken claim and refuse to put a
full render over the committed file.
"""

import dataclasses

import pytest

from repro.cli import main
from repro.experiments import format_markdown_table, format_table
from repro.experiments.registry import EXPERIMENTS


class TestReporting:
    def test_plain_table(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10, "b": 0.00001}]
        text = format_table(rows, title="demo")
        assert "demo" in text
        assert "a" in text.splitlines()[1]
        assert len(text.splitlines()) == 5

    def test_markdown_table(self):
        rows = [{"x": 1}, {"x": 2, "y": "z"}]
        text = format_markdown_table(rows)
        assert text.startswith("| x")
        assert "| 2 | z |" in text
        assert "| (1/eps) log(\\|X\\|) |" in format_markdown_table(
            [{"formula": "(1/eps) log(|X|)"}])

    def test_empty(self):
        assert "(no rows)" in format_table([])
        assert "(no rows)" in format_markdown_table([])


def _quick_tables(name):
    experiment = EXPERIMENTS[name]
    tables = experiment.tables(experiment.quick)
    assert tables and all(rows for _, rows in tables)
    return tables


@pytest.mark.parametrize("name", [name for name in EXPERIMENTS
                                  if name != "table1"])
def test_quick_tables_hold_the_paper_claims(name):
    assert EXPERIMENTS[name].check(_quick_tables(name)) == []


class TestTable1:
    """T1 has two tables, the measured rows and the asymptotic formulas."""

    @pytest.fixture(scope="class")
    def tables(self):
        return _quick_tables("table1")

    def test_measured_rows(self, tables):
        assert EXPERIMENTS["table1"].check(tables) == []

    def test_theoretical_rows(self, tables):
        check = EXPERIMENTS["table1"].check
        measured, (subtitle, formulas) = tables
        assert subtitle == "T1: Table 1 (asymptotic formulas)"
        assert len(formulas) == 3
        assert check([measured, (subtitle, formulas[::-1])]) == [
            "the formula errors order this work < [3] < [4]"]
        assert check([measured, (subtitle, formulas[:2])]) == [
            "Table 1 has three formula rows"]


def _paper_config(tmp_path, name):
    path = tmp_path / "paper.yaml"
    path.write_text("kind: paper\nsections:\n"
                    f"  - {{experiment: {name}, title: {name}, commentary: c}}\n")
    return path


def test_registry_names_are_the_paper_sections():
    pytest.importorskip("yaml")
    from repro.experiments.matrix import load_config

    paper = load_config("experiments/configs/paper.yaml")
    assert [section.experiment for section in paper.sections] == list(EXPERIMENTS)


def test_a_doctored_table_fails_its_check_and_the_render(tmp_path, capsys,
                                                         monkeypatch):
    pytest.importorskip("yaml")
    table1 = EXPERIMENTS["table1"]

    def doctored(config):
        tables = table1.tables(config)
        tables[0][1][0]["recall"] = 0.5
        return tables

    monkeypatch.setitem(EXPERIMENTS, "table1",
                        dataclasses.replace(table1, tables=doctored))
    output = tmp_path / "out.md"
    assert main(["matrix", "render", str(_paper_config(tmp_path, "table1")),
                 "--quick", "--output", str(output)]) == 1
    assert output.is_file()
    assert ("CLAIM FAILED: table1: the expander sketch recovers every planted "
            "heavy hitter (recall 1.0)") in capsys.readouterr().err


def test_run_and_the_full_render_pass_the_same_full_config(tmp_path,
                                                           monkeypatch):
    pytest.importorskip("yaml")
    experiment = EXPERIMENTS["composed-rr"]
    seen = []

    def spy(config):
        seen.append(config)
        return experiment.tables(config)

    monkeypatch.setitem(EXPERIMENTS, "composed-rr",
                        dataclasses.replace(experiment, tables=spy))
    assert main(["run", "composed-rr"]) == 0
    assert main(["matrix", "render",
                 str(_paper_config(tmp_path, "composed-rr")),
                 "--output", str(tmp_path / "full.md")]) == 0
    assert len(seen) == 2
    assert all(config is experiment.full for config in seen)


def test_a_full_render_requires_an_output_path(tmp_path, capsys, monkeypatch):
    pytest.importorskip("yaml")
    monkeypatch.chdir(tmp_path)
    assert main(["matrix", "render",
                 str(_paper_config(tmp_path, "composed-rr"))]) == 2
    assert "--output" in capsys.readouterr().err
    assert not (tmp_path / "EXPERIMENTS.md").exists()
