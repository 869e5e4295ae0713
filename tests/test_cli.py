"""End-to-end runs of the command-line interface."""

import csv
import json
import re

import pytest

from simplicent import example_graph, write_edge_list
from simplicent.cli import main


@pytest.fixture()
def fig_file(tmp_path):
    path = tmp_path / "fig.txt"
    write_edge_list(example_graph(), str(path))
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        rows = [row for row in csv.reader(line for line in fh if not line.startswith("#"))]
    return rows[0], rows[1:]


class TestBuild:
    def test_counts_table(self, fig_file, capsys):
        assert main(["build", fig_file]) == 0
        out = capsys.readouterr().out
        assert "0,nodes,9,14" in out
        assert "1,edges,14," in out
        assert "2,triangles,7," in out
        assert "3,tetrahedra,1,NA" in out

    def test_empty_file_succeeds(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("")
        assert main(["build", str(empty)]) == 0
        assert "0,nodes,0," in capsys.readouterr().out

    def test_missing_file_exit_2(self, tmp_path, capsys):
        assert main(["build", str(tmp_path / "nope.txt")]) == 2

    def test_malformed_file_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("a b\none two three\n")
        assert main(["build", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err


class TestGenerate:
    def test_round_trip_counts(self, tmp_path, capsys):
        out = tmp_path / "s52.txt"
        assert main(["generate", "S", "5", "2", "-o", str(out)]) == 0
        assert "[7, 11, 5, 0]" in capsys.readouterr().out
        assert main(["build", str(out)]) == 0
        built = capsys.readouterr().out
        assert "0,nodes,7," in built and "2,triangles,5," in built

    def test_t_family_params(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        assert main(["generate", "T", "2", "1", "2", "4", "-o", str(out)]) == 0
        assert main(["build", str(out)]) == 0
        assert "2,triangles,8," in capsys.readouterr().out

    def test_stdout_edge_list(self, capsys):
        assert main(["generate", "P", "3", "1"]) == 0
        out = capsys.readouterr().out
        edges = [l for l in out.splitlines() if not l.startswith("#")]
        assert edges == ["0 1", "1 2", "2 3"]

    def test_unknown_family_exit_2(self, capsys):
        assert main(["generate", "Q", "3", "1"]) == 2


class TestCentrality:
    def test_subgraph_value_in_csv(self, fig_file, tmp_path):
        out = tmp_path / "cent.csv"
        assert main([
            "centrality", fig_file, "--level", "1,2", "--measure", "subgraph,degree",
            "-o", str(out),
        ]) == 0
        header, rows = read_csv(str(out))
        assert header == ["level", "id", "vertices", "subgraph", "degree"]
        by_key = {(r[0], r[2]): r for r in rows}
        assert float(by_key[("1", "1,4")][3]) == pytest.approx(2.714, abs=1e-3)
        assert float(by_key[("2", "3,4,5")][4]) == 3.0
        assert len(rows) == 14 + 7

    def test_json_format_with_metadata(self, fig_file, tmp_path):
        out = tmp_path / "cent.json"
        assert main([
            "centrality", fig_file, "--level", "0", "--measure", "degree",
            "--format", "json", "-o", str(out),
        ]) == 0
        payload = json.loads(open(out).read())
        assert payload["metadata"]["version"]
        assert payload["metadata"]["command"] == "centrality"
        assert payload["metadata"]["seed"] == 0
        assert len(payload["rows"]) == 9

    def test_level_beyond_depth_exit_4(self, fig_file):
        assert main(["centrality", fig_file, "--level", "3", "--measure", "degree"]) == 4

    def test_bad_alpha_exit_2(self, fig_file):
        assert main(["centrality", fig_file, "--level", "1", "--measure", "katz",
                     "--alpha", "99"]) == 2

    def test_unknown_measure_exit_2(self, fig_file):
        assert main(["centrality", fig_file, "--measure", "pagerank"]) == 2

    def test_subgraph_above_dense_limit_names_the_option(self, fig_file, capsys):
        assert main(["centrality", fig_file, "--level", "1", "--measure", "subgraph",
                     "--dense-limit", "4"]) == 2
        assert "--dense-limit" in capsys.readouterr().err

    def test_subgraph_overflow_exits_2_naming_level_and_lambda(self, tmp_path, capsys):
        star = tmp_path / "s800.txt"
        out = tmp_path / "cent.csv"
        assert main(["generate", "S", "800", "1", "-o", str(star)]) == 0
        capsys.readouterr()
        assert main(["centrality", str(star), "--level", "1", "--measure", "subgraph", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert "level 1" in err and "lambda_1 = 799" in err
        assert not out.exists()


class TestDistance:
    def test_p_family_average_length(self, tmp_path, capsys):
        edge_file = tmp_path / "p52.txt"
        assert main(["generate", "P", "5", "2", "-o", str(edge_file)]) == 0
        capsys.readouterr()
        assert main(["distance", str(edge_file), "--level", "2"]) == 0
        out = capsys.readouterr().out
        assert "avg path length per component [2]" in out
        assert "diameter 4" in out


class TestFitDegree:
    def test_table_emitted(self, tmp_path, capsys):
        edge_file = tmp_path / "s.txt"
        assert main(["generate", "S", "40", "1", "-o", str(edge_file)]) == 0
        capsys.readouterr()
        out_csv = tmp_path / "fits.csv"
        assert main(["fit-degree", str(edge_file), "--level", "0", "-o", str(out_csv)]) == 0
        header, rows = read_csv(str(out_csv))
        assert header == ["family", "params", "lnL", "AIC", "BIC", "deltaAIC", "status"]
        assert len(rows) == 6
        text = capsys.readouterr().out
        assert "selection" in text

    def test_single_level_summary_line(self, fig_file, tmp_path, capsys):
        out_csv = tmp_path / "fits.csv"
        assert main(["fit-degree", fig_file, "--level", "1", "-o", str(out_csv)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"level 1 \(14 degrees\): selection \S+ \(.+\)", lines[0])
        assert len(lines) == 1 + 6  # one line per family
        assert open(out_csv).readline().startswith("# simplicent ")

    def test_more_than_one_level_rejected(self, fig_file, tmp_path, capsys):
        out_csv = tmp_path / "fits.csv"
        assert main(["fit-degree", fig_file, "--level", "1,2", "-o", str(out_csv)]) == 2
        captured = capsys.readouterr()
        assert "--level 1,2" in captured.err
        assert captured.out == ""
        assert not out_csv.exists()


class TestCorrelate:
    def test_na_on_constant_vectors(self, tmp_path, capsys):
        edge_file = tmp_path / "s.txt"
        assert main(["generate", "S", "6", "2", "-o", str(edge_file)]) == 0
        capsys.readouterr()
        assert main([
            "correlate", str(edge_file), "--level", "2", "--measure", "degree,closeness",
        ]) == 0
        out = capsys.readouterr().out
        assert "NA" in out

    def test_fig_table(self, fig_file, tmp_path):
        out = tmp_path / "corr.csv"
        assert main([
            "correlate", fig_file, "--level", "0,1", "--measure", "degree,subgraph",
            "-o", str(out),
        ]) == 0
        header, rows = read_csv(str(out))
        assert header[0] == "ranking"
        assert any(r[0].startswith("avg:") for r in rows)


class TestEssential:
    def test_long_format_csv(self, fig_file, tmp_path):
        ann = tmp_path / "ann.txt"
        ann.write_text("1 1\n4 1\n6 1\n2 0\n")
        out = tmp_path / "ess.csv"
        assert main([
            "essential", fig_file, "--annotations", str(ann), "--level", "0,2",
            "--measure", "degree", "--grid", "10,50", "--seed", "7",
            "--repetitions", "50", "-o", str(out),
        ]) == 0
        header, rows = read_csv(str(out))
        assert header == ["measure", "level", "x", "count", "percentage"]
        measures = {r[0] for r in rows}
        assert measures == {"degree", "random"}
        assert len(rows) == 2 * 2 + 2  # two levels x two grid points + baseline

    def test_missing_annotations_flag_errors(self, fig_file, capsys):
        with pytest.raises(SystemExit) as err:
            main(["essential", fig_file])
        assert err.value.code == 2


def test_threads_flag_does_not_change_results(fig_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out, threads in ((a, "1"), (b, "4")):
        assert main([
            "centrality", fig_file, "--level", "1", "--measure", "closeness,betweenness",
            "--threads", threads, "-o", str(out),
        ]) == 0
    strip = lambda p: [l for l in open(p) if not l.startswith("#")]
    assert strip(a) == strip(b)


def test_metadata_lines_echo_config(fig_file, tmp_path):
    out = tmp_path / "m.csv"
    assert main(["build", fig_file, "-o", str(out), "--threads", "2"]) == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("# simplicent ")
    config = json.loads(lines[1].split("# config: ")[1])
    assert config["threads"] == 2
    assert config["input"] == fig_file
    assert config["version"]


def test_matrix_limit_option_removed(fig_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["distance", fig_file, "--matrix-limit", "10"])
    assert err.value.code == 2
    assert "--matrix-limit" in capsys.readouterr().err
