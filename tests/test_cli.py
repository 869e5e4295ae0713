"""End-to-end runs of the command-line interface."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from simplicent import (
    MEASURES,
    build_clique_complex,
    cli,
    compute,
    stats,
    example_graph,
    level_summary,
    read_edge_list,
    write_edge_list,
)
from simplicent.cli import main


@pytest.fixture()
def fig_file(tmp_path):
    path = tmp_path / "fig.txt"
    write_edge_list(example_graph(), str(path))
    return str(path)


@pytest.fixture(params=[("S", "6", "2"), ("T", "2", "2", "0", "3"), ("P", "7", "2"), None],
                ids=["S-6-2", "T-2-203", "P-7-2", "fig"])
def small_file(request, tmp_path, fig_file):
    """A family member from ``simplicent generate``, or the 9-node example."""
    if request.param is None:
        return fig_file
    path = tmp_path / "family.txt"
    assert main(["generate", *request.param, "-o", str(path)]) == 0
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
        assert "3,tetrahedra,1,0" in out

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

    def test_dropped_edges_warned_once(self, tmp_path):
        edges = tmp_path / "dups.txt"
        edges.write_text("a b\nb c\na a\nb a\nc d\n")
        src = os.path.dirname(os.path.dirname(cli.__file__))
        code = f"import sys; from simplicent.cli import main; sys.exit(main(['build', {str(edges)!r}]))"
        done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        warned = [line for line in done.stderr.splitlines() if "dropped" in line]
        assert warned == ["edge list: dropped 1 self-loops and 1 duplicate edges"]

    @pytest.mark.parametrize("max_level", ["0", "3", "5"])
    def test_every_exit_0_count_is_finite(self, small_file, tmp_path, max_level):
        out = tmp_path / "build.csv"
        assert main(["build", small_file, "--max-level", max_level, "-o", str(out)]) == 0
        header, rows = read_csv(str(out))
        assert header[2:] == ["simplices", "interactions"]
        assert len(rows) == int(max_level) + 1
        bad = [row for row in rows if any(cell == "NA" or not math.isfinite(float(cell)) for cell in row[2:])]
        assert not bad, bad


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

    @pytest.mark.parametrize("command", ["centrality", "correlate", "essential"])
    def test_dense_limit_refuses_before_any_measure(self, fig_file, tmp_path, capsys, monkeypatch, command):
        """Levels 0, 1 and 2 of the example have 9, 12 and 4 simplices with a
        neighbour, so a limit of 11 refuses level 1, before level 0 runs."""
        calls = []

        def counted(c, k, measure, **kwargs):
            calls.append((k, measure))
            return compute(c, k, measure, **kwargs)

        monkeypatch.setattr(cli, "compute", counted)
        monkeypatch.setattr(stats, "compute", counted)
        ann = tmp_path / "ann.txt"
        ann.write_text("1 1\n2 0\n")
        extra = ["--annotations", str(ann)] if command == "essential" else []
        assert main([command, fig_file, *extra, "--level", "0,1,2", "--measure", "closeness,subgraph",
                     "--dense-limit", "11"]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert "level 1 has 12 simplices with a neighbour" in err and "--dense-limit" in err
        assert main([command, fig_file, *extra, "--level", "0,1,2", "--measure", "closeness,subgraph",
                     "--dense-limit", "12"]) == 0
        assert len(calls) == 6

    @pytest.mark.parametrize("measure", MEASURES)
    def test_every_exit_0_score_is_finite(self, small_file, tmp_path, measure):
        for k in range(3):
            out = tmp_path / f"cent{k}.csv"
            if main(["centrality", small_file, "--level", str(k), "--measure", measure, "-o", str(out)]) != 0:
                continue
            _, rows = read_csv(str(out))
            bad = [row for row in rows if row[3] == "NA" or not math.isfinite(float(row[3]))]
            assert not bad, (k, bad)

    def test_dense_limit_does_not_reach_katz_or_eigenvector(self, small_file, tmp_path):
        bodies = []
        for limit in ([], ["--dense-limit", "0"]):
            out = tmp_path / "cent.csv"
            assert main(["centrality", small_file, "--level", "1", "--measure", "katz,eigenvector",
                         "-o", str(out), *limit]) == 0
            with open(out, encoding="utf-8") as fh:
                bodies.append([line for line in fh if not line.startswith("#")])
        assert bodies[0] == bodies[1]

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

    def test_component_sizes_pair_with_their_path_lengths(self, tmp_path, capsys):
        # components in label order: {1,2} alone, then {1,3}, {2,3}, {3,4}
        edge_file = tmp_path / "pendant.txt"
        edge_file.write_text("1 2\n1 3\n2 3\n3 4\n")
        assert main(["distance", str(edge_file), "--level", "1", "-o", str(tmp_path / "d.csv")]) == 0
        out = capsys.readouterr().out
        assert "2 components [3+1], diameter 2, avg path length per component [1.33333333333;NA]" in out

    def test_every_exit_0_eccentricity_is_finite(self, small_file, tmp_path):
        ran = 0
        for k in range(3):
            out = tmp_path / f"dist{k}.csv"
            if main(["distance", small_file, "--level", str(k), "-o", str(out)]) != 0:
                continue
            ran += 1
            header, rows = read_csv(str(out))
            assert header[3] == "eccentricity"
            bad = [row for row in rows if row[3] == "NA" or not math.isfinite(float(row[3]))]
            assert not bad, (k, bad)
        assert ran


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
    @pytest.mark.parametrize("family, level", [(("6", "2"), "2"), (("3", "1"), "1")], ids=["S-6-2", "S-3-1"])
    def test_constant_ranking_exits_2(self, tmp_path, capsys, family, level):
        edge_file = tmp_path / "s.txt"
        assert main(["generate", "S", *family, "-o", str(edge_file)]) == 0
        capsys.readouterr()
        assert main([
            "correlate", str(edge_file), "--level", level, "--measure", "degree,closeness",
        ]) == 2
        captured = capsys.readouterr()
        assert "NA" not in captured.out
        assert f"ranking at level {level} is constant for degree or closeness" in captured.err

    def test_single_measure_prints_only_inter_level_averages(self, fig_file, capsys):
        assert main(["correlate", fig_file, "--level", "0,1", "--measure", "degree"]) == 0
        out = capsys.readouterr().out
        # a level has no pair of measures, so only the inter-level block has an average
        rho = re.search(r"^level0:degree,1,(\S+)$", out, re.M).group(1)
        avg_rows = re.findall(r"^avg:.*$", out, re.M)
        assert [row.split(",")[:2] for row in avg_rows] == [["avg:level0~level1", rho]]
        assert re.findall(r"^<r_.*$", out, re.M) == [f"<r_0,1> = {rho}"]

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

    @pytest.mark.parametrize("measure", MEASURES)
    def test_every_exit_0_count_and_percentage_is_finite(self, small_file, tmp_path, measure):
        ann = tmp_path / "ann.txt"
        ann.write_text("".join(f"{label} {i % 2}\n" for i, label in enumerate(read_edge_list(small_file).labels)))
        ran = 0
        for k in range(3):
            out = tmp_path / f"ess{k}.csv"
            if main(["essential", small_file, "--annotations", str(ann), "--level", str(k),
                     "--measure", measure, "--repetitions", "10", "-o", str(out)]) != 0:
                continue
            ran += 1
            header, rows = read_csv(str(out))
            assert header[3:] == ["count", "percentage"]
            bad = [row for row in rows if any(cell == "NA" or not math.isfinite(float(cell)) for cell in row[3:])]
            assert not bad, (k, bad)
        assert ran

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


@pytest.mark.parametrize("argv, message", [
    (["fit-degree", "--level", "1", "--families", "gamma,gamma,normal"], "--families lists 'gamma' more than once"),
    (["correlate", "--level", "1", "--measure", "degree,degree"], "--measure lists 'degree' more than once"),
    (["distance", "--level", "1,2,1"], "--level lists 1 more than once"),
], ids=["families", "measure", "level"])
def test_repeated_value_exits_2_naming_it(fig_file, tmp_path, capsys, argv, message):
    out = tmp_path / "out.csv"
    assert main([argv[0], fig_file, *argv[1:], "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("argv, option", [
    (["centrality", "--level", ""], "--level"),
    (["distance", "--level", ","], "--level"),
    (["fit-degree", "--level", ""], "--level"),
    (["centrality", "--measure", ""], "--measure"),
    (["correlate", "--measure", ""], "--measure"),
    (["fit-degree", "--families", ""], "--families"),
    (["essential", "--annotations", "ann.txt", "--grid", ""], "--grid"),
], ids=["centrality-level", "distance-level", "fit-degree-level", "centrality-measure", "correlate-measure",
        "families", "grid"])
def test_empty_list_exits_2_naming_it(fig_file, tmp_path, capsys, argv, option):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as err:
        main([argv[0], fig_file, *argv[1:], "-o", str(out)])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert f"argument {option}: expected at least one comma-separated value" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_metadata_lines_echo_config(fig_file, tmp_path):
    out = tmp_path / "m.csv"
    assert main(["build", fig_file, "-o", str(out), "--threads", "2"]) == 0
    lines = open(out).read().splitlines()
    assert lines[0].startswith("# simplicent ")
    config = json.loads(lines[1].split("# config: ")[1])
    assert "threads" not in config
    assert config["input"] == fig_file
    assert config["version"]


def test_matrix_limit_option_removed(fig_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["distance", fig_file, "--matrix-limit", "10"])
    assert err.value.code == 2
    assert "--matrix-limit" in capsys.readouterr().err


# Labels with commas, quotes and non-ASCII text: a triangle, a tail and a pendant.
LABELED_EDGES = 'a,b "q"\n"q" é\né a,b\né 日本\n日本 x"y\nx"y "q"\nplain a,b\n'
SPECIAL_CELLS = {  # per measure: NA, inf, -0, and whole numbers on both sides of .12g's exponent switch
    "degree": [999999999999.0, -3.0, 0.0, 7.0],
    "harmonic": [math.nan, math.inf, -math.inf, -0.0, 1e-300, 1 / 3, 123456789012345.0, 2.5e16, -7.0],
    "closeness": [1e12, 2.0, 5.0],
    "eccentricity": [-0.0, 2.0, 3.0],
}


def _oracle_fmt(value):
    if value is None:
        return "NA"
    if isinstance(value, float):
        if math.isnan(value):
            return "NA"
        if math.isinf(value):
            return "inf"
        return format(value, ".12g")
    return str(value)


def _row_oracle(argv, columns, rows):
    """The output text written one row and one value at a time."""
    cfg = cli._config_from(cli._build_parser().parse_args(argv))
    if cfg.format == "json":
        payload = {
            "metadata": cfg.metadata(),
            "columns": columns,
            "rows": [[None if isinstance(v, float) and math.isnan(v) else v for v in row] for row in rows],
        }
        return json.dumps(payload, indent=2) + "\n"
    buf = io.StringIO()
    buf.write(f"# simplicent {cli.__version__}\n")
    buf.write(f"# config: {json.dumps(cfg.metadata(), sort_keys=True)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_oracle_fmt(v) for v in row])
    return buf.getvalue()


def _with_specials(scores, specials):
    return np.resize(np.array(specials, dtype=np.float64), len(scores))  # the specials, repeated


@pytest.fixture()
def labeled_file(tmp_path):
    path = tmp_path / "labeled.txt"
    path.write_text(LABELED_EDGES, encoding="utf-8")
    return str(path)


class TestColumnOutput:
    """Column-wise CSV and JSON writing matches the row-by-row oracle byte
    for byte, on awkward labels and on non-finite cells."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_centrality_matches_row_oracle(self, labeled_file, tmp_path, monkeypatch, fmt):
        vectors = []

        def special_compute(c, k, measure, **kwargs):
            vec = compute(c, k, measure, **kwargs)
            vec.scores = _with_specials(vec.scores, SPECIAL_CELLS[measure])
            vectors.append(vec)
            return vec

        monkeypatch.setattr(cli, "compute", special_compute)
        out = tmp_path / f"cent.{fmt}"
        argv = ["centrality", labeled_file, "--level", "0,1,2", "--measure", "degree,harmonic,closeness",
                "--format", fmt, "-o", str(out)]
        assert main(argv) == 0
        c = build_clique_complex(read_edge_list(labeled_file), 3)
        measures = ["degree", "harmonic", "closeness"]
        rows, it = [], iter(vectors)
        for k in (0, 1, 2):
            level = [next(it) for _ in measures]
            for sid, label in enumerate(c.simplex_labels(k)):
                rows.append([k, sid, label] + [float(vec.scores[sid]) for vec in level])
        want = _row_oracle(argv, ["level", "id", "vertices"] + measures, rows)
        assert out.read_bytes() == want.encode("utf-8")
        if fmt == "csv":  # the oracle saw every awkward label and cell
            for cell in ('"a,b,""q"",é"', '"日本,x""y"', ",NA,", ",inf,", ",-0,", "1e-300", "1.23456789012e+14",
                         ",999999999999,", ",1e+12\n", ",-3,"):
                assert cell in want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_distance_matches_row_oracle(self, labeled_file, tmp_path, monkeypatch, capsys, fmt):
        summaries = []

        def special_summary(c, k):
            summary = level_summary(c, k)
            summary.eccentricities = _with_specials(summary.eccentricities, SPECIAL_CELLS["eccentricity"])
            summaries.append(summary)
            return summary

        monkeypatch.setattr(cli, "level_summary", special_summary)
        argv = ["distance", labeled_file, "--level", "1,0", "--format", fmt]
        assert main(argv) == 0
        c = build_clique_complex(read_edge_list(labeled_file), 3)
        rows = [
            [s.level, sid, label, float(s.eccentricities[sid])]
            for s in summaries
            for sid, label in enumerate(c.simplex_labels(s.level))
        ]
        want = _row_oracle(argv, ["level", "id", "vertices", "eccentricity"], rows)
        assert capsys.readouterr().out.endswith(want)
        assert fmt == "json" or '1,0,"a,b,""q""",-0\n' in want
