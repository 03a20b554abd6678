"""Command-line frontend.

Commands: construct, resolve, bounds, verify, export, classify.
Exit codes: 0 success; 1 for a design that fails validation (InvalidDesign)
or a solver that gives up (RetriesExhausted, BudgetExceeded); 2 for any
other ValueError or OSError: a command line, option or input file that
cannot be parsed or is not supported, or a file that cannot be read or
written.  main() alone maps an exception to its exit code, by its type, and
prints it as one line on stderr.  A rejected witness exits 1 too, reported
in the JSON of `resolve` and `verify`.  Randomized commands always run from
an explicit seed (default 0) and identical configurations produce
byte-identical reports.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import sys

from . import __version__
from . import bounds as bounds_mod
from . import designs, incidence, resolve

EXIT_OK, EXIT_FAIL, EXIT_USAGE = 0, 1, 2


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True, indent=2))


def _report(args, body: dict) -> dict:
    """The JSON report of a command: its parsed options are its config."""
    config = {k: v for k, v in vars(args).items() if k not in ("command", "func")}
    return {
        "tool": "designdim",
        "version": __version__,
        "command": args.command,
        "config": config,
        **body,
    }


def _read(path: str, parse):
    """parse(text) for the ASCII text of a file, naming a file that cannot
    be read."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            return parse(fh.read())
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from None


def _load(path: str, graphs: bool = False):
    """The design in a file or, with graphs (verify only), the incidence
    graph in an edge-list file; the header says which."""
    def parse(text):
        lines = designs.content_lines(text)
        if not (lines and lines[0].split()[0] == "G"):
            return designs.from_text(text)
        if not graphs:
            raise ValueError(f"{path} is a graph file, which only verify reads")
        return incidence.from_edge_text(text)

    return _read(path, parse)


def _design_summary(d) -> dict:
    if isinstance(d, designs.SymmetricDesign):
        return {"type": "SD", "v": d.v, "k": d.k, "lambda": d.lam}
    return {"type": "STD", "g": d.g, "k": d.k, "lambda": d.lam, "v": d.v}


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

# constructor name -> design from the integer parameter
_CONSTRUCTORS = {
    "pg": designs.projective_plane,
    "hadamard-design": lambda n: designs.hadamard_design(designs.hadamard_matrix(n)),
    "biaffine": designs.biaffine_plane,
    "hadamard-std": lambda n: designs.hadamard_std(designs.hadamard_matrix(n)),
}


def _cmd_construct(args) -> int:
    if args.constructor == "file":
        d = _load(args.parameter)
    else:
        (n,) = designs.int_line(args.parameter, f"{args.constructor} parameter", 1)
        d = _CONSTRUCTORS[args.constructor](n)
    report = designs.validate_design(d)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(designs.to_text(d))
    body = {
        "design": _design_summary(d),
        "valid": report.ok,
        "violations": list(report.violations),
    }
    _print_json(_report(args, body))
    if not report.ok:
        print(f"design does not validate: {report.violations[0]}", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# resolve
# ---------------------------------------------------------------------------

def _resolve_bound(d) -> int | None:
    try:
        return resolve.semi_resolving_sample_size(d)
    except ValueError:
        return None


def _cmd_resolve(args) -> int:
    if args.target == "full-mdim" and args.method == "random":
        raise ValueError("full-mdim supports methods exact and greedy only")
    d = _load(args.design)
    designs.require_valid(d)
    bound = _resolve_bound(d)
    solver = dict(
        method=args.method, s=args.s, seed=args.seed, max_retries=args.retries,
        budget=args.budget, limit=args.limit,
    )
    if args.target in ("semi-points", "semi-blocks"):
        role = args.target
        indices, trials = resolve.semi_resolving_set(
            d if role == "semi-points" else designs.dual(d), **solver
        )
        extra = {"bound_s": bound, "trials": trials}
    elif args.target == "split":
        split = resolve.split_resolving(d, **solver)
        role, indices = "split", split.graph_vertices(d.point_count)
        extra = {
            "points": list(split.points),
            "blocks": list(split.blocks),
            "bound_total": None if bound is None else 2 * bound,
        }
    else:  # full-mdim
        graph = incidence.incidence_graph(d)
        limit = args.limit if args.method == "exact" else 0
        result = resolve.metric_dimension(graph, limit=limit, budget=args.budget)
        role, indices = "full", result.landmarks
        extra = {"mu_lower": result.lower, "mu_upper": result.upper, "optimal": result.optimal}
    ok, detail = resolve.verify_witness(d, role, indices)
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(resolve.witness_to_text(role, indices))
    body = {
        "role": role,
        "size": len(indices),
        "verified": ok,
        "detail": detail,
        "witness": list(indices),
        **extra,
    }
    _print_json(_report(args, body))
    return EXIT_OK if ok else EXIT_FAIL


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def _chain_payload(report) -> dict:
    return {
        "v": report.v,
        "m": report.m,
        "s": report.s,
        "skipped": report.skipped,
        "E_num": report.expected.numerator,
        "E_den": report.expected.denominator,
        "E_float": float(report.expected),
        "chain_ok": (None if report.skipped else report.ok),
        "equivalence_holds": report.equivalence_holds,
        "links": [dataclasses.asdict(link) for link in report.links],
    }


def _cmd_bounds(args) -> int:
    if args.sweep:
        if args.design or args.bound_s or (args.v, args.m, args.s) != (None, None, None):
            raise ValueError("--design, --v, --m, --s and --bound-s do not apply to --sweep")
        rows = bounds_mod.projective_plane_sweep(
            args.qmax, mc_trials=args.mc_trials, seed=args.seed
        )
        buf = io.StringIO()
        buf.write(
            f"# designdim {__version__} sweep={args.sweep} qmax={args.qmax} "
            f"mc_trials={args.mc_trials} seed={args.seed}\n"
        )
        writer = csv.DictWriter(buf, fieldnames=bounds_mod.SWEEP_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        sys.stdout.write(buf.getvalue())
        return EXIT_OK
    if args.mc_trials:
        raise ValueError("--mc-trials applies only to --sweep")
    if args.design:
        d = _load(args.design)
        designs.require_valid(d)
        s = args.s
        if s is None:
            if not args.bound_s:
                raise ValueError("give --s or --bound-s with --design")
            s = resolve.semi_resolving_sample_size(d)
        expected = bounds_mod.design_expected_unresolved(d, s)
        body = {
            "design": _design_summary(d),
            "s": s,
            "E_num": expected.numerator,
            "E_den": expected.denominator,
            "E_float": float(expected),
        }
        if isinstance(d, designs.SymmetricDesign):
            chain = bounds_mod.inequality_chain(d.v, 2 * (d.k - d.lam), s)
            body["chain"] = _chain_payload(chain)
        else:
            upper = bounds_mod.expected_unresolved_std(d.g, d.k, d.lam, s)[1]
            body["E_upper_num"] = upper.numerator
            body["E_upper_den"] = upper.denominator
    elif args.v is None or args.m is None or args.s is None:
        raise ValueError("give --v, --m and --s (or --design)")
    else:
        body = _chain_payload(bounds_mod.inequality_chain(args.v, args.m, args.s))
    _print_json(_report(args, body))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify / export / classify
# ---------------------------------------------------------------------------

def _cmd_verify(args) -> int:
    subject = _load(args.design, graphs=True)
    role, indices = _read(args.witness, resolve.witness_from_text)
    ok, detail = resolve.verify_witness(subject, role, indices)
    body = {"role": role, "indices": list(indices), "verified": ok, "detail": detail}
    _print_json(_report(args, body))
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_export(args) -> int:
    text = incidence.to_edge_text(incidence.incidence_graph(_load(args.design)))
    if args.out:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_classify(args) -> int:
    graph = incidence.incidence_graph(_load(args.design))
    cls = incidence.classify(graph)
    array = incidence.intersection_array(graph)
    body = {
        "n": graph.n,
        "bipartite": cls.bipartite,
        "antipodal": cls.antipodal,
        "diameter": cls.diameter,
    }
    if isinstance(array, incidence.IntersectionArray):
        body["intersection_array"] = {
            "c": list(array.c), "a": list(array.a), "b": list(array.b),
        }
    else:
        body["intersection_array"] = None
    _print_json(_report(args, body))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="designdim",
        description="Construct designs, build incidence graphs, and compute "
        "or verify resolving sets and probabilistic size bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a design and write it to a file")
    p.add_argument("constructor", choices=[*_CONSTRUCTORS, "file"])
    p.add_argument("parameter", help="prime power q / matrix order n / input path")
    p.add_argument("-o", "--out", required=True, help="output design file")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("resolve", help="compute a (semi/split/full) resolving set")
    p.add_argument("design", help="design file")
    p.add_argument("--method", choices=["random", "greedy", "exact"], default="exact")
    p.add_argument(
        "--target",
        choices=["semi-points", "semi-blocks", "split", "full-mdim"],
        default="semi-points",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--retries", type=int, default=100)
    p.add_argument("--s", type=int, default=None, help="random sample size per side")
    p.add_argument("--budget", type=int, default=resolve.DEFAULT_NODE_BUDGET)
    p.add_argument("--limit", type=int, default=resolve.DEFAULT_EXACT_LIMIT)
    p.add_argument("--out", default=None, help="witness file to write")
    p.set_defaults(func=_cmd_resolve)

    p = sub.add_parser("bounds", help="expectation values and the inequality chain")
    p.add_argument("--v", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--s", type=int, default=None)
    p.add_argument("--design", default=None, help="design file instead of --v/--m")
    p.add_argument(
        "--bound-s",
        action="store_true",
        help="with --design: use s = ceil(v*ln(v)/(k-lambda))",
    )
    p.add_argument("--sweep", choices=["pg"], default=None)
    p.add_argument("--qmax", type=int, default=11)
    p.add_argument(
        "--mc-trials", type=int, default=0, help="with --sweep: Monte Carlo trials per row"
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("verify", help="recheck a witness file against a design")
    p.add_argument("design")
    p.add_argument("witness")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("export", help="write the incidence graph as an edge list")
    p.add_argument("design")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("classify", help="bipartite/antipodal/diameter of the graph")
    p.add_argument("design")
    p.set_defaults(func=_cmd_classify)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (designs.InvalidDesign, resolve.RetriesExhausted, resolve.BudgetExceeded) as exc:
        print(exc, file=sys.stderr)
        return EXIT_FAIL
    except (ValueError, OSError) as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
