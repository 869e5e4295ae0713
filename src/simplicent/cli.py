"""Command-line front end.

Commands: build | centrality | distance | fit-degree | correlate |
essential | generate.  Exit codes: 0 success, 2 input error, 3 numeric
non-convergence, 4 insufficient complex depth.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace

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


@dataclass
class RunConfig:
    """Validated run options, echoed verbatim into output metadata."""

    command: str
    input: str | None = None
    output: str | None = None
    format: str = "csv"
    max_level: int = 3
    levels: list[int] = field(default_factory=list)
    measures: list[str] = field(default_factory=list)
    families: list[str] = field(default_factory=list)
    alpha: float | None = None
    normalized: bool = True
    seed: int = 0
    repetitions: int = 100
    grid: list[float] = field(default_factory=list)
    annotations: str | None = None
    dense_limit: int = DEFAULT_DENSE_LIMIT

    def validate(self) -> None:
        if self.format not in ("csv", "json"):
            raise ValueError(f"unknown format {self.format!r}")
        if self.max_level < 0:
            raise ValueError("max-level must be >= 0")
        if self.alpha is not None and self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        for x in self.grid:
            if not 0 < x <= 100:
                raise ValueError(f"grid percentage {x} outside (0, 100]")
        for m in self.measures:
            if m not in MEASURES:
                raise ValueError(f"unknown measure {m!r}; known: {', '.join(MEASURES)}")
        for fam in self.families:
            if fam not in FAMILIES:
                raise ValueError(f"unknown family {fam!r}; known: {', '.join(FAMILIES)}")
        for option, values in (("--level", self.levels), ("--measure", self.measures), ("--families", self.families)):
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise ValueError(f"{option} lists {repeated[0]!r} more than once")

    def metadata(self) -> dict:
        meta = {k: v for k, v in asdict(self).items() if v is not None}
        meta["version"] = __version__
        return meta


def _ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def _floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part != ""]


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        if math.isnan(value):
            return "NA"
        if math.isinf(value):
            return "inf"
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
    for i in np.flatnonzero(np.isnan(column) | np.isneginf(column)).tolist():
        cells[i] = "NA" if math.isnan(column[i]) else "inf"
    return cells


def _json_values(column) -> list:
    values = column.tolist() if isinstance(column, np.ndarray) else column
    return [None if isinstance(v, float) and math.isnan(v) else v for v in values]


def _emit(cfg: RunConfig, header: list[str], columns: list) -> None:
    """Write equal-length columns, each a list or a numpy array, as CSV rows
    ('#'-prefixed metadata lines) or JSON, to the output path or stdout.
    UTF-8, newline-terminated, '.' decimal."""
    if cfg.format == "json":
        payload = {
            "metadata": cfg.metadata(),
            "columns": header,
            "rows": list(zip(*map(_json_values, columns))),
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        buf = io.StringIO()
        buf.write(f"# simplicent {__version__}\n")
        buf.write(f"# config: {json.dumps(cfg.metadata(), sort_keys=True)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*map(_cells, columns)))
        text = buf.getvalue()
    if cfg.output:
        with open(cfg.output, "w", encoding="utf-8", newline="") as fh:
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


def _load_complex(cfg: RunConfig) -> CliqueComplex:
    if not cfg.input:
        raise ValueError("an input edge-list file is required")
    with open(cfg.input, "r", encoding="utf-8") as fh:
        try:
            graph, _ = parse_edge_list(fh)
        except ValueError as exc:
            raise ValueError(f"{cfg.input}: {exc}") from exc
    return build_clique_complex(graph, cfg.max_level)


def _check_dense_limit(c: CliqueComplex, cfg: RunConfig) -> None:
    """Refuse the run before any measure is computed when subgraph
    centrality is requested at a level above ``--dense-limit``."""
    if "subgraph" in cfg.measures:
        for k in cfg.levels:
            covered_simplices(c, k, cfg.dense_limit)


def _level_name(k: int) -> str:
    return LEVEL_NAMES.get(k, f"{k}-simplices")


def _cmd_build(cfg: RunConfig) -> int:
    # one level more than is printed: the top level's interactions need its cofaces
    c = _load_complex(replace(cfg, max_level=cfg.max_level + 1))
    rows = []
    for k in range(cfg.max_level + 1):
        rows.append([k, _level_name(k), c.n_simplices(k), interaction_count(combined_adjacency(c, k))])
    _emit(cfg, ["level", "name", "simplices", "interactions"], list(zip(*rows)))
    return 0


def _cmd_centrality(cfg: RunConfig) -> int:
    c = _load_complex(cfg)
    _check_dense_limit(c, cfg)
    scores: list[list[np.ndarray]] = [[] for _ in cfg.measures]
    for k in cfg.levels:
        for per_level, m in zip(scores, cfg.measures):
            vec = compute(c, k, m, normalized=cfg.normalized, alpha=cfg.alpha, dense_limit=cfg.dense_limit)
            per_level.append(vec.scores)
    _emit(cfg, ["level", "id", "vertices"] + list(cfg.measures), _simplex_columns(c, cfg.levels, scores))
    return 0


def _cmd_distance(cfg: RunConfig) -> int:
    c = _load_complex(cfg)
    eccentricities = []
    for k in cfg.levels:
        summary = level_summary(c, k)
        sizes = "+".join(str(s) for s in sorted(summary.component_sizes, reverse=True))
        lks = ";".join(_fmt(v) for v in summary.avg_path_lengths)
        print(
            f"level {k}: {summary.n} simplices, {len(summary.component_sizes)} components "
            f"[{sizes}], diameter {_fmt(summary.diameter)}, avg path length per component [{lks}]"
        )
        eccentricities.append(summary.eccentricities)
    _emit(cfg, ["level", "id", "vertices", "eccentricity"], _simplex_columns(c, cfg.levels, [eccentricities]))
    return 0


def _cmd_fit_degree(cfg: RunConfig) -> int:
    if len(cfg.levels) > 1:
        levels = ",".join(str(k) for k in cfg.levels)
        raise ValueError(f"fit-degree fits one level per run; got --level {levels}")
    c = _load_complex(cfg)
    k = cfg.levels[0] if cfg.levels else 0
    dist = degree_distribution(c, k)
    fits = fit_all(dist.sample, tuple(cfg.families) if cfg.families else FAMILIES)
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
    _emit(cfg, ["family", "params", "lnL", "AIC", "BIC", "deltaAIC", "status"], list(zip(*rows)))
    print(f"level {k} ({dist.sample.size} degrees): selection {selection.label} ({selection.verdict})")
    width = max(len(r[0]) for r in rows)
    for row in rows:
        print(
            f"  {row[0]:<{width}}  lnL={_fmt(row[2]):>14}  AIC={_fmt(row[3]):>14}  "
            f"BIC={_fmt(row[4]):>14}  dAIC={_fmt(row[5]):>10}  {row[6]}"
        )
    return 0


def _cmd_correlate(cfg: RunConfig) -> int:
    c = _load_complex(cfg)
    _check_dense_limit(c, cfg)
    table = correlation_table(
        c,
        measures=tuple(cfg.measures),
        levels=tuple(cfg.levels),
        dense_limit=cfg.dense_limit,
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
    _emit(cfg, ["ranking"] + table.labels, list(zip(*rows)))
    for (ka, kb), value in table.averages.items():
        print(f"<r_{ka},{kb}> = {_fmt(value)}")
    return 0


def _cmd_essential(cfg: RunConfig) -> int:
    c = _load_complex(cfg)
    if not cfg.annotations:
        raise ValueError("--annotations is required for the essential command")
    flags = read_annotations(cfg.annotations).flags_for(c.graph)
    grid = tuple(cfg.grid) if cfg.grid else DEFAULT_GRID
    _check_dense_limit(c, cfg)
    rows = []
    for k in cfg.levels:
        for m in cfg.measures:
            vec = compute(c, k, m, dense_limit=cfg.dense_limit)
            node_vec = vec if k == 0 else project_to_nodes(c, vec)
            curve = detection_curve(rank_nodes(node_vec), flags, grid, measure=m)
            for x, count, pct in zip(curve.grid, curve.counts, curve.percentages):
                rows.append([m, k, x, count, pct])
    baseline = random_baseline(c.graph.n, flags, grid, seed=cfg.seed, repetitions=cfg.repetitions)
    for x, count, pct in zip(baseline.grid, baseline.counts, baseline.percentages):
        rows.append(["random", None, x, count, pct])
    _emit(cfg, ["measure", "level", "x", "count", "percentage"], list(zip(*rows)))
    return 0


def _cmd_generate(cfg: RunConfig, family: str, params: list[int]) -> int:
    family = family.upper()
    if family == "S":
        if len(params) != 2:
            raise ValueError("generate S needs: l k")
        c = generate_S(params[0], params[1])
    elif family == "P":
        if len(params) != 2:
            raise ValueError("generate P needs: l k")
        c = generate_P(params[0], params[1])
    elif family == "T":
        if len(params) < 2:
            raise ValueError("generate T needs: k x1 .. x_{k+1}")
        c = generate_T(params[0], params[1:])
    else:
        raise ValueError(f"unknown family {family!r}; use S, T, or P")
    header = [
        f"simplicent {__version__}",
        f"generated family={family} params={params} seed={cfg.seed}",
    ]
    if cfg.output:
        write_edge_list(c.graph, cfg.output, header=header)
        print(f"wrote {c.graph.m} edges to {cfg.output}; level counts {c.counts()}")
    else:
        for line in header:
            print(f"# {line}")
        for u, v in c.graph.edges:
            print(f"{c.graph.labels[u]} {c.graph.labels[v]}")
    return 0


def _add_common(parser: argparse.ArgumentParser, with_input: bool = True) -> None:
    if with_input:
        parser.add_argument("input", help="edge-list file (two labels per line, '#' comments)")
        parser.add_argument("--max-level", type=int, default=3, dest="max_level",
                            help="highest simplex level to materialize (default 3)")
    parser.add_argument("-o", "--output", help="output file (default: stdout)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    # every stage runs in one thread; the option is still parsed, and ignored,
    # so that existing command lines (perfbench's among them) keep working
    parser.add_argument("--threads", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--dense-limit", type=int, default=DEFAULT_DENSE_LIMIT, dest="dense_limit",
                        help="most simplices with a neighbour in one level that the eigendecomposition behind "
                             f"subgraph centrality may cover; isolated ones score 1 (default {DEFAULT_DENSE_LIMIT})")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simplicent",
        description="Clique-complex centrality analysis of undirected networks.",
    )
    parser.add_argument("--version", action="version", version=f"simplicent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="lift an edge list and print per-level counts")
    _add_common(p)

    p = sub.add_parser("centrality", help="simplex centralities as CSV/JSON")
    _add_common(p)
    p.add_argument("--level", type=_ints, default=[0, 1, 2],
                   help="comma-separated levels (default 0,1,2)")
    p.add_argument("--measure", type=str, default="degree,closeness,subgraph",
                   help=f"comma-separated measures from: {','.join(MEASURES)}")
    p.add_argument("--alpha", type=float, default=None, help="Katz damping (default 0.5/lambda1)")
    p.add_argument("--unnormalized", action="store_true",
                   help="report raw closeness/betweenness")

    p = sub.add_parser("distance", help="per-level path summaries and eccentricities")
    _add_common(p)
    p.add_argument("--level", type=_ints, default=[0, 1, 2])

    p = sub.add_parser("fit-degree", help="fit degree distributions and select a model")
    _add_common(p)
    p.add_argument("--level", type=_ints, default=[0])
    p.add_argument("--families", type=str, default=",".join(FAMILIES))

    p = sub.add_parser("correlate", help="Spearman correlations between rankings")
    _add_common(p)
    p.add_argument("--level", type=_ints, default=[0, 1, 2])
    p.add_argument("--measure", type=str, default="degree,subgraph,closeness")

    p = sub.add_parser("essential", help="essential-node detection curves")
    _add_common(p)
    p.add_argument("--annotations", required=True, help="file of 'label 0|1' lines")
    p.add_argument("--level", type=_ints, default=[0, 1, 2])
    p.add_argument("--measure", type=str, default="degree,closeness,subgraph")
    p.add_argument("--grid", type=_floats, default=list(DEFAULT_GRID),
                   help="top-percentage grid (default 1,3,5,10,15,20,25)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repetitions", type=int, default=100)

    p = sub.add_parser("generate", help="emit an edge list for a synthetic family")
    p.add_argument("family", help="S | T | P")
    p.add_argument("params", type=int, nargs="+",
                   help="S: l k | T: k x1..x_{k+1} | P: l k")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p, with_input=False)

    return parser


def _config_from(args: argparse.Namespace) -> RunConfig:
    measures = getattr(args, "measure", "")
    cfg = RunConfig(
        command=args.command,
        input=getattr(args, "input", None),
        output=getattr(args, "output", None),
        format=getattr(args, "format", "csv"),
        max_level=getattr(args, "max_level", 3),
        levels=list(getattr(args, "level", [])),
        measures=[m for m in measures.split(",") if m] if isinstance(measures, str) else [],
        families=[f for f in getattr(args, "families", "").split(",") if f],
        alpha=getattr(args, "alpha", None),
        normalized=not getattr(args, "unnormalized", False),
        seed=getattr(args, "seed", 0),
        repetitions=getattr(args, "repetitions", 100),
        grid=list(getattr(args, "grid", [])),
        annotations=getattr(args, "annotations", None),
        dense_limit=getattr(args, "dense_limit", DEFAULT_DENSE_LIMIT),
    )
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config_from(args)
        if args.command == "build":
            return _cmd_build(cfg)
        if args.command == "centrality":
            return _cmd_centrality(cfg)
        if args.command == "distance":
            return _cmd_distance(cfg)
        if args.command == "fit-degree":
            return _cmd_fit_degree(cfg)
        if args.command == "correlate":
            return _cmd_correlate(cfg)
        if args.command == "essential":
            return _cmd_essential(cfg)
        if args.command == "generate":
            return _cmd_generate(cfg, args.family, list(args.params))
        raise ValueError(f"unknown command {args.command!r}")
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
