"""Command-line front end.

Commands: build | centrality | distance | fit-degree | correlate |
essential | generate.  Each command takes only the options it reads, and its
tables carry the options it accepted; ``generate`` writes a plain edge list.
Exit codes: 0 success, 2 input error (argparse's refusals too), 3 numeric
non-convergence, 4 insufficient complex depth.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import itertools
import json
import math
import sys

import numpy as np

from . import __version__
from .adjacency import combined_adjacency, interaction_count
from .centrality import DEFAULT_DENSE_LIMIT, MEASURES, compute, covered_simplices
from .complexes import (
    CliqueComplex,
    build_clique_complex,
    generate_P,
    generate_S,
    generate_T,
    parse_edge_list,
    write_edge_list,
)
from .errors import InsufficientDepthError, NonConvergenceError
from .essential import (
    DEFAULT_GRID,
    detection_curve,
    project_to_nodes,
    random_baseline,
    rank_nodes,
    read_annotations,
)
from .paths import level_summary
from .stats import FAMILIES, correlation_table, degree_distribution, fit_all, select_model

LEVEL_NAMES = {0: "nodes", 1: "edges", 2: "triangles", 3: "tetrahedra"}


# Option types.  Each refuses a bad value with ArgumentTypeError, so argparse
# exits 2 with a message that names the option.

def _checked(convert, ok, rule: str):
    """The type of an option whose converted value must satisfy ``ok``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{value} is not {rule}")
        return value
    parse.__name__ = convert.__name__  # so argparse still says "invalid int value: 'x'"
    return parse


def _comma_list(convert=str, known: tuple[str, ...] = (), distinct: bool = True):
    """The type of a comma-separated list option: the parts, empty ones
    skipped, each converted and, when ``known`` is given, one of those.  An
    empty list is refused, and so is a repeated value when ``distinct``."""
    def parse(text: str) -> list:
        values = [convert(part) for part in text.split(",") if part != ""]
        if not values:
            raise argparse.ArgumentTypeError("expected at least one comma-separated value")
        for i, v in enumerate(values):
            if known and v not in known:
                raise argparse.ArgumentTypeError(f"unknown value {v!r}; known: {', '.join(known)}")
            if distinct and v in values[:i]:
                raise argparse.ArgumentTypeError(f"lists {v!r} more than once")
        return values
    parse.__name__ = convert.__name__
    return parse


_level = _checked(int, lambda k: k >= 0, ">= 0")  # a --level entry, or --max-level


def _fmt(value) -> str:
    if value is None or isinstance(value, float) and math.isnan(value):
        return "NA"
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _cells(column) -> list[str]:
    """A column's CSV cells by :func:`_fmt`'s rules.  A list is formatted
    value by value, a numpy array in one pass by its dtype."""
    if not isinstance(column, np.ndarray):
        return list(map(_fmt, column))
    if column.dtype.kind != "f":
        return list(map(str, column.tolist()))
    cells = list(map(format, column.tolist(), itertools.repeat(".12g")))
    for i in np.flatnonzero(np.isnan(column)).tolist():
        cells[i] = "NA"
    return cells


def _json_values(column) -> list:
    values = column.tolist() if isinstance(column, np.ndarray) else column
    return [None if isinstance(v, float) and math.isnan(v) else v for v in values]


def _metadata(args: argparse.Namespace) -> dict:
    """The options the command accepted, as parsed, and the library version.
    Unset options and the ignored ``--threads`` are left out."""
    meta = {k: v for k, v in vars(args).items() if v is not None and k not in ("run", "threads")}
    meta["version"] = __version__
    return meta


def _emit(args: argparse.Namespace, header: list[str], columns: list) -> None:
    """Write equal-length columns, each a list or a numpy array, as CSV rows
    ('#'-prefixed metadata lines) or JSON, to the output path or stdout.
    UTF-8, newline-terminated, '.' decimal."""
    if args.format == "json":
        payload = {
            "metadata": _metadata(args),
            "columns": header,
            "rows": list(zip(*map(_json_values, columns))),
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# simplicent {__version__}\n")
        buf.write(f"# config: {json.dumps(_metadata(args), sort_keys=True)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*map(_cells, columns)))
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _simplex_columns(c: CliqueComplex, levels: list[int], scores: list[list[np.ndarray]]) -> list:
    """Columns of one row per simplex of each level in turn: level, id and
    vertices, then one float column per entry of ``scores``, which holds an
    array per level."""
    counts = [c.n_simplices(k) for k in levels]
    return [
        np.repeat(np.array(levels, dtype=np.int64), counts),
        np.concatenate([np.zeros(0, dtype=np.int64), *map(np.arange, counts)]),
        list(itertools.chain.from_iterable(map(c.simplex_labels, levels))),
        *(np.concatenate([np.zeros(0), *per_level]) for per_level in scores),
    ]


def _load_complex(path: str, max_level: int) -> CliqueComplex:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            graph, _ = parse_edge_list(fh)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return build_clique_complex(graph, max_level)


def _check_dense_limit(c: CliqueComplex, args: argparse.Namespace) -> None:
    """Refuse the run before any measure is computed when subgraph
    centrality is requested at a level above ``--dense-limit``."""
    if "subgraph" in args.measures:
        for k in args.levels:
            covered_simplices(c, k, args.dense_limit)


def _level_name(k: int) -> str:
    return LEVEL_NAMES.get(k, f"{k}-simplices")


def _cmd_build(args: argparse.Namespace) -> int:
    # one level more than is printed: the top level's interactions need its cofaces
    c = _load_complex(args.input, args.max_level + 1)
    rows = []
    for k in range(args.max_level + 1):
        rows.append([k, _level_name(k), c.n_simplices(k), interaction_count(combined_adjacency(c, k))])
    _emit(args, ["level", "name", "simplices", "interactions"], list(zip(*rows)))
    return 0


def _cmd_centrality(args: argparse.Namespace) -> int:
    c = _load_complex(args.input, args.max_level)
    _check_dense_limit(c, args)
    scores: list[list[np.ndarray]] = [[] for _ in args.measures]
    for k in args.levels:
        for per_level, m in zip(scores, args.measures):
            vec = compute(c, k, m, normalized=args.normalized, alpha=args.alpha, dense_limit=args.dense_limit)
            per_level.append(vec.scores)
    _emit(args, ["level", "id", "vertices"] + args.measures, _simplex_columns(c, args.levels, scores))
    return 0


def _cmd_distance(args: argparse.Namespace) -> int:
    c = _load_complex(args.input, args.max_level)
    for k in args.levels:
        if c.n_simplices(k) == 0:
            raise ValueError(f"level {k} has no simplices, so it has no diameter or path lengths")
    eccentricities = []
    for k in args.levels:
        summary = level_summary(c, k)
        # largest component first; sorted() is stable, so equal sizes keep their label order
        by_size = sorted(zip(summary.component_sizes, summary.avg_path_lengths), key=lambda comp: -comp[0])
        sizes = "+".join(str(size) for size, _ in by_size)
        lks = ";".join(_fmt(avg) for _, avg in by_size)
        print(
            f"level {k}: {summary.n} simplices, {len(summary.component_sizes)} components "
            f"[{sizes}], diameter {_fmt(summary.diameter)}, avg path length per component [{lks}]"
        )
        eccentricities.append(summary.eccentricities)
    _emit(args, ["level", "id", "vertices", "eccentricity"], _simplex_columns(c, args.levels, [eccentricities]))
    return 0


def _cmd_fit_degree(args: argparse.Namespace) -> int:
    if len(args.levels) > 1:
        levels = ",".join(str(k) for k in args.levels)
        raise ValueError(f"fit-degree fits one level per run; got --level {levels}")
    c = _load_complex(args.input, args.max_level)
    k = args.levels[0]
    dist = degree_distribution(c, k)
    fits = fit_all(dist.sample, tuple(args.families))
    selection = select_model(fits)
    delta_aic = {f.family: d for f, d in zip(selection.ranked, selection.delta_aic)}
    rows = []
    for fit in fits:
        rows.append(
            [
                fit.family,
                " ".join(f"{k_}={_fmt(v)}" for k_, v in fit.params.items()) or "NA",
                fit.loglik if fit.success else None,
                fit.aic if fit.success else None,
                fit.bic if fit.success else None,
                delta_aic.get(fit.family),
                "ok" if fit.success else fit.message,
            ]
        )
    _emit(args, ["family", "params", "lnL", "AIC", "BIC", "deltaAIC", "status"], list(zip(*rows)))
    print(f"level {k} ({dist.sample.size} degrees): selection {selection.label} ({selection.verdict})")
    width = max(len(r[0]) for r in rows)
    for row in rows:
        print(
            f"  {row[0]:<{width}}  lnL={_fmt(row[2]):>14}  AIC={_fmt(row[3]):>14}  "
            f"BIC={_fmt(row[4]):>14}  dAIC={_fmt(row[5]):>10}  {row[6]}"
        )
    return 0


def _cmd_correlate(args: argparse.Namespace) -> int:
    c = _load_complex(args.input, args.max_level)
    _check_dense_limit(c, args)
    table = correlation_table(
        c,
        measures=tuple(args.measures),
        levels=tuple(args.levels),
        dense_limit=args.dense_limit,
    )
    undefined = np.argwhere(np.isnan(table.matrix))
    if undefined.size:
        keys = [(k, m) for k in table.levels for m in table.measures]
        (k1, m1), (k2, m2) = (keys[i] for i in undefined[0])
        which = (f"at level {k1} is constant for {m1} or {m2}" if k1 == k2
                 else f"is constant for {m1} at level {k1} or {m2} at level {k2}")
        raise ValueError(f"ranking {which}, so their Spearman coefficient is undefined")
    rows = [[label, *table.matrix[i].tolist()] for i, label in enumerate(table.labels)]
    for (ka, kb), value in table.averages.items():
        rows.append([f"avg:level{ka}~level{kb}"] + [value] + [math.nan] * (len(table.labels) - 1))
    _emit(args, ["ranking"] + table.labels, list(zip(*rows)))
    for (ka, kb), value in table.averages.items():
        print(f"<r_{ka},{kb}> = {_fmt(value)}")
    return 0


def _cmd_essential(args: argparse.Namespace) -> int:
    c = _load_complex(args.input, args.max_level)
    flags = read_annotations(args.annotations).flags_for(c.graph)
    grid = tuple(args.grid)
    _check_dense_limit(c, args)
    rows = []
    for k in args.levels:
        for m in args.measures:
            vec = compute(c, k, m, dense_limit=args.dense_limit)
            node_vec = vec if k == 0 else project_to_nodes(c, vec)
            curve = detection_curve(rank_nodes(node_vec), flags, grid, measure=m)
            for x, count, pct in zip(curve.grid, curve.counts, curve.percentages):
                rows.append([m, k, x, count, pct])
    baseline = random_baseline(c.graph.n, flags, grid, seed=args.seed, repetitions=args.repetitions)
    for x, count, pct in zip(baseline.grid, baseline.counts, baseline.percentages):
        rows.append(["random", None, x, count, pct])
    _emit(args, ["measure", "level", "x", "count", "percentage"], list(zip(*rows)))
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    family, params = args.family, args.params
    if family == "S":
        if len(params) != 2:
            raise ValueError("generate S needs: l k")
        c = generate_S(params[0], params[1])
    elif family == "P":
        if len(params) != 2:
            raise ValueError("generate P needs: l k")
        c = generate_P(params[0], params[1])
    else:
        if len(params) < 2:
            raise ValueError("generate T needs: k x1 .. x_{k+1}")
        c = generate_T(params[0], params[1:])
    header = [f"simplicent {__version__}", f"generated family={family} params={params}"]
    if args.output:
        write_edge_list(c.graph, args.output, header=header)
        print(f"wrote {c.graph.m} edges to {args.output}; level counts {c.counts()}")
    else:
        for line in header:
            print(f"# {line}")
        for u, v in c.graph.edges:
            print(f"{c.graph.labels[u]} {c.graph.labels[v]}")
    return 0


@functools.cache  # built once per process; every call of main parses with it
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplicent",
        description="Clique-complex centrality analysis of undirected networks.",
    )
    parser.add_argument("--version", action="version", version=f"simplicent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, summary, levels=None, measures=None, dense_limit=False) -> argparse.ArgumentParser:
        """A subcommand that reads an edge list and writes a CSV/JSON table.
        It takes ``--level`` and ``--measure`` only when given their defaults,
        and ``--dense-limit`` only when asked to.  List defaults are given as
        text, which argparse converts on every parse, so no parsed list is
        shared between runs of the cached parser."""
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        p.add_argument("input", help="edge-list file (two labels per line, '#' comments)")
        p.add_argument("--max-level", type=_level, default=3,
                       help="highest simplex level to materialize (default 3)")
        p.add_argument("-o", "--output", help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        # every stage runs in one thread; the option is still parsed, and ignored,
        # so that existing command lines (perfbench's among them) keep working
        p.add_argument("--threads", type=int, help=argparse.SUPPRESS)
        if levels:
            p.add_argument("--level", type=_comma_list(_level), default=levels, dest="levels",
                           help=f"comma-separated levels (default {levels})")
        if measures:
            p.add_argument("--measure", type=_comma_list(known=MEASURES), default=measures, dest="measures",
                           help=f"comma-separated measures from {','.join(MEASURES)} (default {measures})")
        if dense_limit:
            p.add_argument("--dense-limit", type=int, default=DEFAULT_DENSE_LIMIT,
                           help="most simplices with a neighbour in one level that the eigendecomposition behind "
                                f"subgraph centrality may cover; isolated ones score 1 (default {DEFAULT_DENSE_LIMIT})")
        return p

    command("build", _cmd_build, "lift an edge list and print per-level counts")

    p = command("centrality", _cmd_centrality, "simplex centralities as CSV/JSON",
                "0,1,2", "degree,closeness,subgraph", dense_limit=True)
    p.add_argument("--alpha", type=_checked(float, lambda a: a > 0, "> 0"),
                   help="Katz damping (default 0.5/lambda1)")
    p.add_argument("--unnormalized", action="store_false", dest="normalized",
                   help="report raw closeness/betweenness")

    command("distance", _cmd_distance, "per-level path summaries and eccentricities", "0,1,2")

    p = command("fit-degree", _cmd_fit_degree, "fit degree distributions and select a model", "0")
    p.add_argument("--families", type=_comma_list(known=FAMILIES), default=",".join(FAMILIES))

    command("correlate", _cmd_correlate, "Spearman correlations between rankings",
            "0,1,2", "degree,subgraph,closeness", dense_limit=True)

    p = command("essential", _cmd_essential, "essential-node detection curves",
                "0,1,2", "degree,closeness,subgraph", dense_limit=True)
    p.add_argument("--annotations", required=True, help="file of 'label 0|1' lines")
    p.add_argument("--grid", type=_comma_list(_checked(float, lambda x: 0 < x <= 100, "in (0, 100]"), distinct=False),
                   default=",".join(map(str, DEFAULT_GRID)), help="top-percentage grid (default 1,3,5,10,15,20,25)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repetitions", type=_checked(int, lambda r: r >= 1, ">= 1"), default=100)

    p = sub.add_parser("generate", help="write a plain edge list for a synthetic family")
    p.set_defaults(run=_cmd_generate)
    p.add_argument("family", type=str.upper, choices=("S", "T", "P"))
    p.add_argument("params", type=int, nargs="+", help="S: l k | T: k x1..x_{k+1} | P: l k")
    p.add_argument("-o", "--output", help="output file (default: stdout)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse refused the command line (2) or printed --help or --version (0)
        return exc.code
    try:
        return args.run(args)
    except InsufficientDepthError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
