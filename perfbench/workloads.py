"""The four workloads: inputs generated from the seed, job lists, oracles.

A job is one public designdim call (or one `cli.main` command).  Its
oracle runs after it, outside the timed region, and returns None when the
output is right or a message saying what is wrong.  Every design is
relabelled by a seeded isomorphism (points, blocks, and point classes for
nets), so a seed changes the labels the solvers see but never the answer.
A workload's plan is made afresh, on a fresh import of designdim, before
every pass, so the objects it holds live for one pass only.

Only public names of designdim are used: calls go through the package
namespace at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import designdim as dd
import designdim.cli  # cli.main is not re-exported by the package


@dataclass(frozen=True)
class Job:
    name: str
    call: Callable[[dict], object]  # reads earlier results of the pass
    check: Callable[[object, dict], str | None]


@dataclass
class Plan:
    jobs: list[Job]
    # largest_s from the jobs' best times: the designated hardest job
    largest: Callable[[dict[str, float]], float]
    warmup: list[Job]  # run once, untimed, before the timed passes


def one_job(name: str):
    return lambda best: best[name]


# ---------------------------------------------------------------------------
# instances
# ---------------------------------------------------------------------------

def build(name: str):
    """A design from its ladder name: pg<q>, hd<n>, hstd<n>, ba<q>, kvv<v>."""
    for prefix, make in (
        ("hstd", lambda n: dd.hadamard_std(dd.hadamard_matrix(n))),
        ("hd", lambda n: dd.hadamard_design(dd.hadamard_matrix(n))),
        ("pg", dd.projective_plane),
        ("ba", dd.biaffine_plane),
        ("kvv", dd.point_complement_design),
    ):
        if name.startswith(prefix) and name[len(prefix):].isdigit():
            return make(int(name[len(prefix):]))
    raise ValueError(f"unknown instance {name!r}")


def stream(seed: int, label: str) -> random.Random:
    """The seeded generator for one input; str seeds hash deterministically."""
    return random.Random(f"{seed}/{label}")


def relabel(d, rng: random.Random):
    """An isomorphic copy of d under random point, block and class orders."""
    points = list(range(d.point_count))
    rng.shuffle(points)
    order = list(range(len(d.blocks)))
    rng.shuffle(order)
    blocks = [()] * len(d.blocks)
    for j, blk in enumerate(d.blocks):
        blocks[order[j]] = tuple(sorted(points[x] for x in blk))
    if isinstance(d, dd.SymmetricDesign):
        return dd.SymmetricDesign(v=d.v, k=d.k, lam=d.lam, blocks=tuple(blocks))
    classes = [tuple(sorted(points[x] for x in c)) for c in d.classes]
    rng.shuffle(classes)
    return dd.TransversalDesign(
        g=d.g, k=d.k, lam=d.lam, classes=tuple(classes), blocks=tuple(blocks)
    )


def instance(name: str, seed: int):
    return relabel(build(name), stream(seed, name))


def solver_seed(seed: int, label: str) -> int:
    return stream(seed, "solver/" + label).randrange(1 << 32)


def expected_array(d):
    if isinstance(d, dd.SymmetricDesign):
        return dd.design_intersection_array(d.k, d.lam)
    return dd.net_intersection_array(d.lam, d.g)


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def both_routes_semi(d, graph, blocks) -> str | None:
    """A block set semi-resolves the points by the bitset route and by the
    distance route on an already built incidence graph."""
    v = d.point_count
    w_mask = dd.semi_resolving_witness(d, blocks)
    w_dist = dd.resolve.side_resolving_witness(graph, [v + b for b in blocks], range(v))
    if w_mask is not None or w_dist is not None:
        return f"unseparated pair: bitset {w_mask}, distance {w_dist}"
    return None


def verified(d, role, indices) -> str | None:
    ok, detail = dd.verify_witness(d, role, indices)
    return None if ok else f"witness rejected: {detail}"


# ---------------------------------------------------------------------------
# ladder: large designs through the polynomial layers
# ---------------------------------------------------------------------------

LADDER = ("pg13", "pg16", "hd64", "hstd32", "ba11")
LADDER_TINY = ("pg3", "hstd8", "hd16", "ba3")


def rung_jobs(name: str, d, seed: int) -> list[Job]:
    v = d.point_count
    g_key, dual_key = f"{name}.incidence_graph", f"{name}.dual"
    split_key = f"{name}.split_resolving"

    def same_parameters(c, st):
        return None if (c.v, c.k, c.lam) == (d.v, d.k, d.lam) else f"built {c}"

    def dual_ok(e, st):
        if (e.v, e.k, e.lam, len(e.blocks)) != (d.v, d.k, d.lam, len(d.blocks)):
            return "dual has other parameters"
        return None if dd.validate_design(e).ok else "dual does not validate"

    def graph_ok(g, st):
        edges = sum(len(b) for b in d.blocks)
        ok = g.n == v + len(d.blocks) and g.edge_count == edges and g.point_count == v
        return None if ok else f"graph n={g.n} m={g.edge_count}"

    def classify_ok(c, st):
        want = expected_array(d).diameter
        return None if c.bipartite and c.diameter == want else f"classified {c}"

    def split_ok(s, st):
        g = st[g_key]
        if dd.semi_resolving_witness(st[dual_key], s.points) is not None:
            return "points do not semi-resolve the blocks"
        if dd.resolving_witness(g, s.graph_vertices(v)) is not None:
            return "split set does not resolve the graph"
        return both_routes_semi(d, g, s.blocks)

    sample_seed = solver_seed(seed, name + "/random")
    split_seed = solver_seed(seed, name + "/split")
    return [
        Job(f"{name}.construct", lambda st: build(name), same_parameters),
        Job(f"{name}.validate_design", lambda st: dd.validate_design(d),
            lambda r, st: None if r.ok else f"rejected: {r.violations[:1]}"),
        Job(dual_key, lambda st: dd.dual(d), dual_ok),
        Job(g_key, lambda st: dd.incidence_graph(d), graph_ok),
        Job(f"{name}.intersection_array", lambda st: dd.intersection_array(st[g_key]),
            lambda a, st: None if a == expected_array(d) else f"array {a}"),
        Job(f"{name}.classify", lambda st: dd.classify(st[g_key]), classify_ok),
        Job(f"{name}.greedy_semi_resolving", lambda st: dd.greedy_semi_resolving(d),
            lambda b, st: both_routes_semi(d, st[g_key], b)),
        Job(f"{name}.randomized_semi_resolving",
            lambda st: dd.randomized_semi_resolving(
                d, s=dd.clamped_sample_size(d), seed=sample_seed),
            lambda r, st: both_routes_semi(d, st[g_key], r.blocks)),
        Job(split_key, lambda st: dd.split_resolving(d, method="random", seed=split_seed),
            split_ok),
        Job(f"{name}.verify_witness",
            lambda st: dd.verify_witness(d, "split", st[split_key].graph_vertices(v)),
            lambda r, st: None if r[0] else f"split witness rejected: {r[1]}"),
    ]


def ladder(seed: int, tiny: bool, workdir: Path, tracer) -> Plan:
    rungs = LADDER_TINY if tiny else LADDER
    jobs = []
    for name in rungs:
        jobs += rung_jobs(name, instance(name, seed), seed)
    fb_name = "pg2" if tiny else "pg7"
    fb = instance(fb_name, seed)
    fb_graph = dd.incidence_graph(fb)

    def fallback_ok(r, st):
        if r.optimal or not r.lower <= r.upper == len(r.landmarks):
            return f"fallback result {r}"
        return verified(fb, "full", r.landmarks)

    # limit=0 forces the greedy fallback, as `resolve --method greedy` does
    jobs.append(Job(f"{fb_name}.metric_dimension_greedy",
                    lambda st: dd.metric_dimension(fb_graph, limit=0), fallback_ok))
    # the first pass over large distance tables runs slow; one untimed
    # rung before timing lets the allocator settle
    warmup = [j for j in jobs if j.name.startswith(rungs[0] + ".")]
    top = [j.name for j in jobs if j.name.startswith(rungs[1] + ".")]
    return Plan(jobs=jobs, largest=lambda best: sum(best[n] for n in top), warmup=warmup)


# ---------------------------------------------------------------------------
# exact: small designs under branch and bound
# ---------------------------------------------------------------------------

# Reference values.  The metric dimensions 2, 4, 4, 6 and v-1 and the
# minimum semi-resolving size 3 (pg2) are the known values; the other sizes
# were computed at the baseline commit and are invariant under relabelling.
MDIM = {"ba4": 6, "ba2": 2, "ba3": 4, "hstd4": 4, "kvv3": 2, "kvv4": 3, "kvv5": 4, "kvv6": 5}
MDIM_TINY = ("ba2", "ba3", "hstd4", "kvv3", "kvv4", "kvv5")
MIN_SEMI = {"pg2": 3, "pg3": 6, "ba2": 2, "ba3": 4, "ba4": 6, "hstd2": 2, "hstd4": 3,
            "hstd8": 4}
MIN_SEMI_TINY = ("pg2", "ba2", "ba3", "hstd2", "hstd4")
SPLIT_EXACT = {"pg2": 6, "ba3": 8, "hstd4": 6, "hd8": 6}
# refutations (instance, size): no resolving set of that size exists.  The
# first is the designated hardest job.  Searches of several seconds (mu of
# pg3 and hstd8, min semi of ba5) are left out: on a shared host a single
# multi-second sample is too noisy to compare runs.
REFUTE = (("pg3", 6), ("hstd8", 5), ("ba4", 5))
REFUTE_TINY = (("ba3", 3),)


def exact(seed: int, tiny: bool, workdir: Path, tracer) -> Plan:
    mdim_names = MDIM_TINY if tiny else tuple(MDIM)
    semi_names = MIN_SEMI_TINY if tiny else tuple(MIN_SEMI)
    split_names = ("pg2", "ba3") if tiny else tuple(SPLIT_EXACT)
    refutes = REFUTE_TINY if tiny else REFUTE
    names = set(mdim_names) | set(semi_names) | set(split_names) | {n for n, _ in refutes}
    designs = {n: instance(n, seed) for n in sorted(names)}
    graphs = {n: dd.incidence_graph(designs[n]) for n in sorted(names)}

    def mdim_job(n):
        def check(r, st):
            if not r.optimal or r.upper != MDIM[n] or len(r.landmarks) != MDIM[n]:
                return f"mu {r.upper} (optimal={r.optimal}), expected {MDIM[n]}"
            return verified(designs[n], "full", r.landmarks)
        return Job(f"{n}.metric_dimension", lambda st: dd.metric_dimension(graphs[n]), check)

    def semi_job(n):
        def check(r, st):
            if len(r) != MIN_SEMI[n]:
                return f"size {len(r)}, expected {MIN_SEMI[n]}"
            return verified(designs[n], "semi-points", r)
        return Job(f"{n}.min_semi_resolving",
                   lambda st: dd.min_semi_resolving(designs[n]), check)

    def split_job(n):
        d = designs[n]

        def check(r, st):
            if r.size != SPLIT_EXACT[n]:
                return f"size {r.size}, expected {SPLIT_EXACT[n]}"
            return verified(d, "split", r.graph_vertices(d.point_count))
        return Job(f"{n}.split_exact", lambda st: dd.split_resolving(d, method="exact"), check)

    def refute_job(n, size):
        return Job(f"{n}.find_resolving_set_{size}",
                   lambda st: dd.find_resolving_set(graphs[n], size),
                   lambda r, st: None if r is None else f"found {r} below the metric dimension")

    jobs = [refute_job(n, size) for n, size in refutes]
    jobs += [mdim_job(n) for n in mdim_names]
    jobs += [semi_job(n) for n in semi_names]
    jobs += [split_job(n) for n in split_names]
    return Plan(jobs=jobs, largest=one_job(jobs[0].name), warmup=[mdim_job("ba3")])


# ---------------------------------------------------------------------------
# sampling: the bounds module
# ---------------------------------------------------------------------------

MC_DESIGNS = ("pg7", "pg13", "pg16", "hd64", "hstd32")
MC_DESIGNS_TINY = ("pg7", "hd16")
MC_FRACTIONS = (50, 75, 100)  # percent of clamped_sample_size
MC_TRIALS, MC_TRIALS_TINY = 200, 20
EXHAUSTIVE = ("pg3", "ba4", "hd16")
EXHAUSTIVE_TINY = ("pg2",)
CHAIN_Q = (101, 257)
CHAIN_Q_TINY = (11,)


def sampling(seed: int, tiny: bool, workdir: Path, tracer) -> Plan:
    trials = MC_TRIALS_TINY if tiny else MC_TRIALS
    jobs = []
    for n in MC_DESIGNS_TINY if tiny else MC_DESIGNS:
        d = instance(n, seed)
        full = dd.clamped_sample_size(d)
        for pct in MC_FRACTIONS:
            jobs.append(mc_job(n, d, max(1, full * pct // 100), pct, trials,
                               solver_seed(seed, f"{n}/mc{pct}")))
    for n in EXHAUSTIVE_TINY if tiny else EXHAUSTIVE:
        d = instance(n, seed)
        closed_key = f"{n}.closed_form"
        jobs.append(Job(
            closed_key,
            lambda st, d=d: [dd.design_expected_unresolved(d, s) for s in range(d.v + 1)],
            lambda r, st, d=d: None if r[0] == math.comb(d.v, 2) and r[-1] == 0
            else "closed form is wrong at s = 0 or s = v",
        ))
        for s in range(d.v + 1):
            jobs.append(Job(
                f"{n}.exhaustive_s{s}",
                lambda st, d=d, s=s: dd.exhaustive_expected_unresolved(d, s),
                lambda r, st, s=s, key=closed_key: None if r == st[key][s]
                else f"exhaustive {r} != closed form {st[key][s]}",
            ))
    for q in CHAIN_Q_TINY if tiny else CHAIN_Q:
        v, m = q * q + q + 1, 2 * q
        jobs.append(Job(f"chain_q{q}", lambda st, v=v, m=m: dd.inequality_chain(v, m),
                        lambda r, st, v=v, m=m: chain_ok(r, v, m)))
    largest = f"{'pg7' if tiny else 'pg16'}.monte_carlo_100"
    return Plan(jobs=jobs, largest=one_job(largest), warmup=jobs[:3])


def mc_job(name, d, s, pct, trials, mc_seed) -> Job:
    def check(r, st):
        want = max(0.0, float(1 - dd.design_expected_unresolved(d, s)))
        if (r.trials, r.sample_size, r.seed) != (trials, s, mc_seed):
            return f"ran {r.trials} trials of size {r.sample_size}"
        if not 0 <= r.successes <= trials or r.markov_lower != want:
            return f"successes {r.successes}, markov bound {r.markov_lower} != {want}"
        # the Markov bound holds for the true rate; six standard errors
        # below it would be a sampling defect, not chance
        slack = 6 * math.sqrt(want * (1 - want) / trials) + 1 / trials
        return None if r.rate >= want - slack else f"rate {r.rate} below bound {want}"
    return Job(f"{name}.monte_carlo_{pct}",
               lambda st: dd.monte_carlo_success(d, s, trials=trials, seed=mc_seed), check)


def chain_ok(r, v, m) -> str | None:
    if r.skipped or not r.ok or not r.equivalence_holds:
        return f"chain fails at v={v}, m={m}"
    return None if r.expected == dd.expected_unresolved(v, m, r.s) else "expectation differs"


# ---------------------------------------------------------------------------
# cli: one user's session through cli.main
# ---------------------------------------------------------------------------

CLI_FILES = ("pg2", "pg3", "pg7", "pg9", "hd16", "hd64", "ba3", "ba5", "hstd4", "hstd8", "hstd32")
CLI_FILES_TINY = ("pg2", "ba3", "hstd4")
CLI_SMALL = ("pg2", "pg3", "hd16", "ba3", "hstd4", "hstd8")  # greedy full-mdim
CLI_EXACT = {"pg2": (3, 5, 6), "ba3": (4, 4, 8), "hstd4": (3, 4, 6)}  # semi, mu, split


def run_cli(argv, tracer):
    """One command through cli.main: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    if tracer.enabled:
        tracer.begin(f"cli.{argv[0]}")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = dd.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
    finally:
        if tracer.enabled:
            tracer.end()
    tracer.count("cli.report_bytes", len(out.getvalue()))
    return rc, out.getvalue(), err.getvalue()


def report(r) -> dict:
    rc, out, err = r
    if rc != 0:
        raise ValueError(f"exit {rc}: {err.strip()[:200]}")
    return json.loads(out)


def corruptions(text: str, rng: random.Random) -> dict[str, str]:
    """Malformed variants of a design file, at seeded positions."""
    lines = text.splitlines()
    head, body = lines[0], lines[1:]
    at = rng.randrange(len(body))
    tokens = body[at].split()
    pos = rng.randrange(len(tokens))
    v = int(head.split()[1]) if head.startswith("SD") else int(head.split()[1]) * int(head.split()[2])

    def with_token(tok):
        t = list(tokens)
        t[pos] = tok
        return "\n".join([head] + body[:at] + [" ".join(t)] + body[at + 1:]) + "\n"

    moved = next(x for x in rng.sample(range(v), v) if str(x) not in tokens)
    return {
        "header": " ".join(head.split()[:3]) + "\n" + "\n".join(body) + "\n",
        "token": with_token(f"x{rng.randrange(10)}"),
        "short": "\n".join([head] + body[:at] + body[at + 1:]) + "\n",
        "range": with_token(str(v + rng.randrange(1, 50))),
        "moved": with_token(str(moved)),
        "empty": "# nothing here\n",
    }


def cli(seed: int, tiny: bool, workdir: Path, tracer) -> Plan:
    names = CLI_FILES_TINY if tiny else CLI_FILES
    designs = {n: instance(n, seed) for n in names}
    path = {n: str(workdir / f"{n}.txt") for n in names}
    for n, d in designs.items():
        Path(path[n]).write_text(dd.to_text(d), encoding="ascii")
    jobs = []

    def cmd(name, argv, check):
        jobs.append(Job(name, lambda st: run_cli(argv, tracer), check))

    for n, d in designs.items():
        f, graph_file = path[n], str(workdir / f"{n}.graph")
        s_seed = solver_seed(seed, f"cli/{n}")
        cmd(f"classify {n}", ["classify", f], classify_check(d))
        cmd(f"export {n}", ["export", f, "-o", graph_file], export_check(d, graph_file))
        bounds, s = bounds_argv(d, f)
        cmd(f"bounds {n}", bounds, bounds_check(d, s))
        for target, method, extra in (
            ("semi-points", "random", ["--seed", str(s_seed)]),
            ("semi-blocks", "greedy", []),
            ("split", "random", ["--seed", str(s_seed)]),
        ):
            wfile = str(workdir / f"{n}.{target}.rs")
            cmd(f"resolve {n} {target} {method}",
                ["resolve", f, "--method", method, "--target", target, "--out", wfile] + extra,
                resolve_check(d, target))
            cmd(f"verify {n} {target}", ["verify", f, wfile], verify_check)
        if n in CLI_SMALL:
            full_rs = str(workdir / f"{n}.full.rs")
            cmd(f"resolve {n} full-mdim greedy",
                ["resolve", f, "--method", "greedy", "--target", "full-mdim", "--out", full_rs],
                resolve_check(d, "full-mdim"))
            cmd(f"verify {n}.graph full", ["verify", graph_file, full_rs], verify_check)
        if n in CLI_EXACT:
            semi, mu, split = CLI_EXACT[n]
            for target, size in (("semi-points", semi), ("full-mdim", mu), ("split", split)):
                cmd(f"resolve {n} {target} exact", ["resolve", f, "--target", target],
                    resolve_check(d, target, size))
    for ctor, param in (("pg", "7"), ("hadamard-design", "16"), ("biaffine", "5"),
                        ("hadamard-std", "8")):
        out = str(workdir / f"built-{ctor}.txt")
        cmd(f"construct {ctor} {param}", ["construct", ctor, param, "-o", out], construct_check)
    first = names[0]
    cmd(f"construct file {first}",
        ["construct", "file", path[first], "-o", str(workdir / "copy.txt")], construct_check)
    cmd("bounds v m s", ["bounds", "--v", "57", "--m", "14", "--s", "40"],
        lambda r, st: None if report(r)["chain_ok"] else "chain fails")
    sweep = ["bounds", "--sweep", "pg", "--qmax", "9", "--mc-trials", "5" if tiny else "20",
             "--seed", str(solver_seed(seed, "cli/sweep"))]
    cmd("bounds sweep", sweep, sweep_check)
    cmd("bounds sweep repeat", sweep, repeat_check("bounds sweep"))
    rep_file = names[min(2, len(names) - 1)]
    rep = ["resolve", path[rep_file], "--method", "random", "--target", "split",
           "--seed", str(solver_seed(seed, "cli/repeat"))]
    cmd("resolve repeat 1", rep, resolve_check(designs[rep_file], "split"))
    cmd("resolve repeat 2", rep, repeat_check("resolve repeat 1"))

    # malformed inputs: each must exit 1 or 2 with no exception escaping.
    # `bounds --bound-s` on the STD 1 1 1 file is left out: it raises
    # ZeroDivisionError out of cli.main (ROADMAP, "Validate once, fail
    # cleanly"), and a workload has to run without a failing job.
    rng = stream(seed, "cli/malformed")
    victim = rng.choice(sorted(names))
    bad_files = corruptions(dd.to_text(designs[victim]), rng)
    bad_files["std111"] = "STD 1 1 1\n0\n0\n"  # degenerate, named in ROADMAP
    bad_files["std000"] = "STD 0 0 0\n"
    for kind, text in bad_files.items():
        Path(workdir / f"bad-{kind}.txt").write_text(text, encoding="ascii")
    bad = {kind: str(workdir / f"bad-{kind}.txt") for kind in bad_files}
    for argv in (
        ["classify", bad["header"]], ["resolve", bad["token"], "--method", "greedy"],
        ["classify", bad["short"]], ["resolve", bad["range"], "--method", "greedy"],
        ["classify", bad["range"]], ["resolve", bad["moved"], "--method", "greedy"],
        ["bounds", "--design", bad["moved"], "--s", "3"], ["construct", "file", bad["empty"],
                                                            "-o", str(workdir / "empty.out")],
        ["bounds", "--design", bad["std111"], "--s", "1"],
        ["bounds", "--design", bad["std000"], "--bound-s"],
    ):
        cmd("malformed " + " ".join(Path(a).stem if "/" in a else a for a in argv),
            argv, malformed_check)
    bad_rs = workdir / "bad-witness.rs"
    bad_rs.write_text("RS nope\n1 2\n", encoding="ascii")
    far_rs = workdir / "far-witness.rs"
    far_rs.write_text(f"RS split\n{3 * designs[first].point_count + rng.randrange(9)}\n",
                      encoding="ascii")
    cmd("malformed verify bad-witness", ["verify", path[first], str(bad_rs)], malformed_check)
    cmd("malformed verify far-witness", ["verify", path[first], str(far_rs)], malformed_check)
    largest = f"resolve {'pg9' if not tiny else 'hstd4'} split random"
    return Plan(jobs=jobs, largest=one_job(largest), warmup=jobs[:3])


def classify_check(d):
    def check(r, st):
        body = report(r)
        arr = expected_array(d)
        got = body["intersection_array"]
        ok = (body["n"] == 2 * d.point_count and body["bipartite"]
              and body["diameter"] == arr.diameter
              and got == {"c": list(arr.c), "a": list(arr.a), "b": list(arr.b)})
        return None if ok else f"classify reported {body}"
    return check


def export_check(d, graph_file):
    def check(r, st):
        if r[0] != 0:
            return f"exit {r[0]}: {r[2].strip()}"
        head = Path(graph_file).read_text(encoding="ascii").split("\n", 1)[0]
        want = f"G {2 * d.point_count} {sum(len(b) for b in d.blocks)} {d.point_count}"
        return None if head == want else f"header {head!r}, expected {want!r}"
    return check


def bounds_argv(d, f):
    """`bounds --bound-s` where the bound sample fits in the block count
    (the nets excluded by semi_resolving_sample_size need --s)."""
    s = math.ceil(d.v * math.log(d.v) / (d.k - d.lam))
    if s <= d.v:
        return ["bounds", "--design", f, "--bound-s"], s
    s = dd.clamped_sample_size(d)
    return ["bounds", "--design", f, "--s", str(s)], s


def bounds_check(d, s):
    def check(r, st):
        body = report(r)
        want = dd.design_expected_unresolved(d, s)
        if body["s"] != s or Fraction(body["E_num"], body["E_den"]) != want:
            return f"E = {body['E_num']}/{body['E_den']} at s = {body['s']}, expected {want}"
        if "chain" in body:
            chain = dd.inequality_chain(d.v, 2 * (d.k - d.lam), s)
            if body["chain"]["chain_ok"] != (None if chain.skipped else chain.ok):
                return "reported chain differs from inequality_chain"
        return None
    return check


def resolve_check(d, target, size=None):
    def check(r, st):
        body = report(r)
        if not body["verified"] or len(body["witness"]) != body["size"]:
            return f"resolve reported {body['detail']}"
        if size is not None and body["size"] != size:
            return f"size {body['size']}, expected {size}"
        role = {"full-mdim": "full"}.get(target, target)
        return verified(d, role, body["witness"])
    return check


def verify_check(r, st):
    return None if report(r)["verified"] else "witness not verified"


def construct_check(r, st):
    body = report(r)
    return None if body["valid"] else f"constructed design invalid: {body['violations']}"


def sweep_check(r, st):
    rc, out, err = r
    rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
    # header row plus one row per prime power q <= 9: 2 3 4 5 7 8 9
    if rc != 0 or len(rows) != 8:
        return f"sweep exit {rc} with {len(rows)} rows"
    return None


def repeat_check(first_key):
    def check(r, st):
        return None if r == st[first_key] else "repeated command gave another report"
    return check


def malformed_check(r, st):
    rc, out, err = r
    return None if rc in (1, 2) else f"malformed input exited {rc}"


WORKLOADS = {"ladder": ladder, "exact": exact, "sampling": sampling, "cli": cli}
