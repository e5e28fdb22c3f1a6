"""The four workloads: seeded inputs, fixed task lists and expected results.

A task is one library call, or one CLI invocation, that returns a verdict
or a result.  Every task is checked against an expectation computed without
the code under test where one exists (``source`` names it), and otherwise
against ``golden.json``, recorded on the seed commit by ``make_golden.py``.
Points, scalars and pairs are drawn by the seed from small fixed pools, so
that the golden record covers every input a seed can produce.

Tasks reach library functions through module attributes at call time, so a
tracer installed after set-up sees every call.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from beilinson import emod as E
from beilinson import kronecker as K
from beilinson import properties as P
from beilinson import reps as R

import fp
import inputs
import oracle

HERE = Path(__file__).resolve().parent
NAMES = ("point_sweep", "hom_route", "orbit_walk", "cli")
POOL_INDEX = {(5, 3): (0, 6, 12, 18, 24, 30), (7, 4): (0, 80, 160, 240, 320, 399)}


@dataclass
class Task:
    label: str
    run: Callable[[], object]
    render: Callable[[object], str]  # full result text, compared byte for byte
    check: Callable[[object, dict], str | None]  # reason the result is wrong, or None
    source: str  # what the expectation comes from
    verdict: Callable[[object], bool | None] = lambda obj: None
    full_sweep: Callable[[object], bool | None] = lambda obj: None


class Context:
    """Seed, work directory and golden record shared by one build."""

    def __init__(self, seed: int, workdir: Path, full_pools: bool, cli_prefix=None):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.full_pools = full_pools
        self.cli_prefix = cli_prefix
        path = HERE / "golden.json"
        self.golden = json.loads(path.read_text()) if path.exists() else {}

    def pick(self, items: list, count: int = 1) -> list:
        """Every item when recording the golden file, else count of them by the seed."""
        if self.full_pools:
            return list(items)
        return [items[int(i)] for i in sorted(self.rng.choice(len(items), count, replace=False))]

    def pool(self, p: int, r: int) -> list:
        pts = R.proj_points(p, r)
        return [pts[i] for i in POOL_INDEX[(p, r)]]

    def golden_check(self, label: str, facts: Callable[[object], object]):
        def check(obj, results):
            if label not in self.golden:
                return "no golden record"
            got = facts(obj)
            want = self.golden[label]
            return None if got == want else f"expected {want}, got {got}"
        check.facts = facts
        return check


# ---------------------------------------------------------------------------
# rendering helpers

def _digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(repr(a.shape).encode())
        h.update(np.ascontiguousarray(a, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


def _rep_arrays(rep) -> list[list[np.ndarray]]:
    return [[m.a for m in level] for level in rep.maps]


def _rep_digest(rep) -> str:
    return _digest([m for level in _rep_arrays(rep) for m in level])


def _report_facts(report) -> dict:
    witness = None
    if report.witness is not None:
        point, level = report.witness
        witness = [list(point.coords), level]
    return {"verdict": report.verdict, "witness": witness}


def _expected_facts(verdict_witness) -> dict:
    verdict, witness = verdict_witness
    if witness is not None:
        witness = [list(witness[0]), witness[1]]
    return {"verdict": verdict, "witness": witness}


def _needs_every_point(report, p: int, r: int) -> bool:
    if report.verdict:
        return True
    return report.witness[0].coords == oracle.points(p, r)[-1]


# ---------------------------------------------------------------------------
# point_sweep: definition-route sweeps over P^3(F_7), 400 points

def _sweep_tasks(label: str, rep, jt_expected=None, dual_label: str | None = None) -> list[Task]:
    p, r = rep.p, rep.r
    cache = {}

    def sweep_oracle():
        if "o" not in cache:
            cache["o"] = oracle.SweepOracle(p, r, rep.dims, _rep_arrays(rep))
        return cache["o"]

    def against(method, partner_suffix=None):
        def check(report, results):
            want = _expected_facts(getattr(sweep_oracle(), method)())
            got = _report_facts(report)
            if got != want:
                return f"expected {want}, got {got}"
            if partner_suffix and dual_label:
                partner = results.get(f"{dual_label} {partner_suffix}")
                if partner is None or partner.verdict != report.verdict:
                    return "duality does not swap EIP and EKP"
            return None
        return check

    def jordan_all():
        module = E.forget(rep)
        return [E.jordan_type(module, a) for a in R.proj_points(p, r)]

    def check_jt(jts, results):
        got = [jt.counts for jt in jts]
        if got != sweep_oracle().jordan_types():
            return "Jordan types differ from the step-composite ranks"
        if jt_expected is not None and any(c != jt_expected for c in got):
            return f"Jordan types differ from jt_formula {jt_expected}"
        return None

    source = "definition route (own elimination)" + (" + duality" if dual_label else "")
    report_task = dict(render=lambda rep_: rep_.to_json(), verdict=lambda rep_: rep_.verdict,
                       full_sweep=lambda rep_: _needs_every_point(rep_, p, r))
    return [
        Task(f"{label} eip_def", lambda: P.is_eip_def(rep), check=against("eip", "ekp_def"),
             source=source, **report_task),
        Task(f"{label} ekp_def", lambda: P.is_ekp_def(rep), check=against("ekp", "eip_def"),
             source=source, **report_task),
        Task(f"{label} cjt", lambda: P.constant_jordan_type(rep), check=against("cjt"),
             source="definition route (own elimination)", **report_task),
        Task(f"{label} jordan_all", jordan_all,
             render=lambda jts: json.dumps([jt.counts for jt in jts]), check=check_jt,
             source="step-composite ranks" + (" + jt_formula" if jt_expected else ""),
             full_sweep=lambda jts: True),
    ]


def _load_generated(ctx: Context, name: str, reps_json: list[dict]) -> list:
    """Write generated inputs as JSON, then load them through the library."""
    path = ctx.workdir / f"{name}.json"
    path.write_text(json.dumps(reps_json))
    return [R.BeilinsonRep.from_json(json.dumps(d)) for d in json.loads(path.read_text())]


def point_sweep(ctx: Context) -> list[Task]:
    p, r = 7, 4
    tasks = []
    for n, d in ((3, 2), (3, 3)):
        # m = n, where jt_formula gives the Jordan type at every point
        m_label, w_label = f"M({p},{n},{r},{n},{d})", f"W({p},{n},{r},{n},{d})"
        expected = E.jt_formula(n, d, r).counts
        tasks += _sweep_tasks(m_label, R.m_module(p, n, r, n, d), expected, dual_label=w_label)
        tasks += _sweep_tasks(w_label, R.w_module(p, n, r, n, d), expected, dual_label=m_label)
    generated = (inputs.random_reps(p, r, 3, 4, 2, ctx.rng)
                 + inputs.random_reps(p, r, 2, 6, 2, ctx.rng))
    for k, rep in enumerate(_load_generated(ctx, "point_sweep", generated)):
        tasks += _sweep_tasks(f"random#{k}{rep.dims}", rep)
    return tasks


# ---------------------------------------------------------------------------
# hom_route: homological checks, Hom systems and isomorphism searches

def _oracle_facts(rep, prop: str) -> dict:
    """Verdict and first witness of prop ('eip', 'ekp' or 'cjt') by the oracle."""
    sweep = oracle.SweepOracle(rep.p, rep.r, rep.dims, _rep_arrays(rep))
    return _expected_facts(getattr(sweep, prop)())


def _hom_route_task(label: str, rep, prop: str) -> Task:
    """The homological-route checker is_<prop>_hom, checked against the definition route."""
    def check(report, results):
        want, got = _oracle_facts(rep, prop), _report_facts(report)
        return None if got == want else f"expected {want}, got {got}"

    return Task(label, lambda: getattr(P, f"is_{prop}_hom")(rep),
                render=lambda rep_: rep_.to_json(), check=check,
                source="definition route (own elimination)", verdict=lambda rep_: rep_.verdict,
                full_sweep=lambda rep_: _needs_every_point(rep_, rep.p, rep.r))


def _ops(module) -> list[np.ndarray]:
    return [op.a for op in module.ops]


def _random_invertible(p: int, n: int, rng) -> np.ndarray:
    while True:
        g = rng.integers(0, p, size=(n, n), dtype=np.int64)
        if fp.rank(g, p) == n:
            return g


def _hom_dims(left, right) -> tuple[int, int]:
    """(dim End left, dim Hom(left, right)) for two modules or two representations."""
    if isinstance(left, E.ErModule):
        return (oracle.module_hom_dim(left.p, _ops(left), _ops(left)),
                oracle.module_hom_dim(left.p, _ops(left), _ops(right)))
    arrays = _rep_arrays(left)
    return (oracle.rep_hom_dim(left.p, left.dims, arrays, left.dims, arrays),
            oracle.rep_hom_dim(left.p, left.dims, arrays, right.dims, _rep_arrays(right)))


def _not_isomorphic(left, right, said_no: Callable[[object], bool]):
    """Check that a verdict is "no", certified by dim End(left) != dim Hom(left, right)."""
    def check(result, results):
        end, hom = _hom_dims(left, right)
        if end == hom:
            return "dim End equals dim Hom, so no independent expectation"
        return None if said_no(result) else f"dim End {end} != dim Hom {hom}, got {result}"
    return check


def _iso_task(label: str, left, right, expect: str | None, ctx: Context) -> Task:
    """is_isomorphic on modules; expect 'yes', 'no' (by Hom dimensions) or golden."""
    if expect == "yes":
        check = lambda v, results: None if v == "yes" else f"expected yes, got {v}"
        source = "isomorphic by construction"
    elif expect == "no":
        check = _not_isomorphic(left, right, lambda v: v == "no")
        source = "dim End != dim Hom"
    else:
        check = ctx.golden_check(label, lambda v: v)
        source = "golden"
    return Task(label, lambda: E.is_isomorphic(left, right), render=str, check=check,
                source=source, verdict=lambda v: v == "yes")


def hom_route(ctx: Context) -> list[Task]:
    p = 5
    tasks = []
    generated = inputs.random_reps(p, 3, 3, 3, 3, ctx.rng)
    for k, rep in enumerate(_load_generated(ctx, "hom_route", generated)):
        tasks.append(_hom_route_task(f"random#{k}{rep.dims} eip_hom", rep, "eip"))
        tasks.append(_hom_route_task(f"random#{k}{rep.dims} ekp_hom", rep, "ekp"))

    # no nonzero maps from equal-images W members to equal-kernels M members
    pairs = [((n, m, d), (n, m2, d2)) for n in (2, 3) for d in range(2, n + 1)
             for m in range(d, d + 3) for d2 in range(2, n + 1) for m2 in range(d2, d2 + 3)]
    for (n, m, d), (_, m2, d2) in ctx.pick(pairs, 6):
        a, b = R.w_module(p, n, 3, m, d), R.m_module(p, n, 3, m2, d2)

        def check_no_maps(v, results, a=a, b=b):
            sa = oracle.SweepOracle(p, 3, a.dims, _rep_arrays(a))
            sb = oracle.SweepOracle(p, 3, b.dims, _rep_arrays(b))
            if not (sa.eip()[0] and sb.ekp()[0]):
                return "pair is not equal-images to equal-kernels"
            hom = oracle.rep_hom_dim(p, a.dims, _rep_arrays(a), b.dims, _rep_arrays(b))
            return None if v == (hom == 0) else f"dim Hom = {hom}, got {v}"

        tasks.append(Task(f"no_maps W({p},{n},3,{m},{d})->M({p},{n},3,{m2},{d2})",
                          lambda a=a, b=b: P.no_maps_check(a, b), render=str, check=check_no_maps,
                          source="own Hom dimension", verdict=lambda v: v))

    for fam, rep in (("M", R.m_module(p, 3, 3, 3, 2)), ("W", R.w_module(p, 3, 3, 3, 2))):
        module = E.forget(rep)
        for k in range(2):
            g = R.FpMatrix(p, _random_invertible(p, 3, ctx.rng))
            tasks.append(_iso_task(f"iso {fam}({p},3,3,3,2) twist#{k}", module, E.twist(module, g),
                                   "yes", ctx))
    for q, r, d in ((3, 2, 2), (3, 2, 3), (3, 3, 2), (5, 2, 2)):
        left = E.forget(R.w_module(q, d, r, d, d))
        right = E.group_algebra_radical_power(q, r, r * (q - 1) + 1 - d)
        tasks.append(_iso_task(f"iso W({q},{d},{r},{d},{d}) radical power", left, right, "yes",
                               ctx))
    family = {
        "M(5,3,3,3,3)": R.m_module(p, 3, 3, 3, 3), "W(5,3,3,3,3)": R.w_module(p, 3, 3, 3, 3),
        "P0(5,3,3)": R.projective(p, 3, 3, 0), "I2(5,3,3)": R.injective(p, 3, 3, 2),
        "M(5,3,3,4,3)": R.m_module(p, 3, 3, 4, 3), "W(5,3,3,4,3)": R.w_module(p, 3, 3, 4, 3),
    }
    forgotten = {k: E.forget(v) for k, v in family.items()}
    for a, b, expect in (("W(5,3,3,3,3)", "P0(5,3,3)", "no"), ("M(5,3,3,3,3)", "I2(5,3,3)", None),
                         ("M(5,3,3,4,3)", "W(5,3,3,4,3)", None)):
        tasks.append(_iso_task(f"iso {a} vs {b}", forgotten[a], forgotten[b], expect, ctx))

    for r in (2, 3):
        module = E.forget(R.m_module(p, 3, r, 3, 2))

        def check_end(result, results, module=module):
            info = result[1]
            end = oracle.module_hom_dim(p, _ops(module), _ops(module))
            got = (info.dimension, info.commutative, info.local)
            return None if got == (end, True, True) else f"expected ({end}, True, True), got {got}"

        tasks.append(Task(f"end_algebra M({p},3,{r},3,2)",
                          lambda module=module: E.end_algebra(module),
                          render=_render_end, check=check_end,
                          source="own End dimension + slice modules are local"))
    big_end = forgotten["W(5,3,3,4,3)"]
    label = "end_algebra W(5,3,3,4,3)"
    tasks.append(Task(label, lambda: E.end_algebra(big_end), render=_render_end,
                      check=ctx.golden_check(label, lambda res: [res[1].dimension,
                                                                 res[1].commutative, res[1].local]),
                      source="golden"))
    w34 = E.forget(R.w_module(7, 3, 4, 4, 3))
    label = "hom_modules End W(7,3,4,4,3)"
    tasks.append(Task(label, lambda: E.hom_modules(w34, w34),
                      render=lambda basis: f"dim={len(basis)} {_digest([b.a for b in basis])}",
                      check=ctx.golden_check(label, len), source="golden"))

    # graded "no" at p = 2 that enumerates all 2^11 elements of Hom
    s0, s1 = R.simple(2, 2, 2, 0), R.simple(2, 2, 2, 1)
    left = _sum([s0, s0, s1, s1, s1])
    right = _sum([K.e_lambda(2, 2, (1, 0)), s0, s1, s1])

    tasks.append(Task("rep_isomorphic S0^2+S1^3 vs E+S0+S1^2 (p=2)",
                      lambda: R.rep_isomorphic(left, right), render=str,
                      check=_not_isomorphic(left, right, lambda v: v == "no"),
                      source="dim End != dim Hom", verdict=lambda v: v == "yes"))
    return tasks


def _sum(parts):
    acc = parts[0]
    for part in parts[1:]:
        acc = R.direct_sum(acc, part)
    return acc


def _render_end(result) -> str:
    basis, info = result
    return json.dumps([info.dimension, info.commutative, info.local, info.regime,
                       _digest([b.a for b in basis])])


# ---------------------------------------------------------------------------
# orbit_walk: Auslander-Reiten translates, widths and classification

def _coxeter(r: int, dims, inverse: bool) -> tuple[int, int]:
    d0, d1 = dims
    if inverse:
        return (-d0 + r * d1, -r * d0 + (r * r - 1) * d1)
    return ((r * r - 1) * d0 - r * d1, r * d0 - d1)


def _chain_task(label: str, rep, inverse: bool) -> Task:
    def run():
        step = K.tau_inv if inverse else K.tau
        first = step(rep)
        return [first, step(first)]

    def check(chain, results):
        dims = rep.dims
        for k, out in enumerate(chain, 1):
            dims = _coxeter(rep.r, dims, inverse)
            if out.dims != dims:
                return f"step {k}: dims {out.dims}, Coxeter law gives {dims}"
        return None

    return Task(label, run,
                render=lambda chain: json.dumps([[c.dims, _rep_digest(c)] for c in chain]),
                check=check, source="Coxeter law")


def _classify_task(label: str, rep) -> Task:
    def expected():
        for inverse, kind in ((False, "preprojective"), (True, "preinjective")):
            dims = rep.dims
            for k in range(9):
                dims = _coxeter(rep.r, dims, inverse)
                if dims[0] <= 0 or dims[1] <= 0:
                    return kind, k
        return "regular", None

    def check(info, results):
        want = expected()
        got = (info.kind, info.exponent)
        return None if got == want else f"expected {want}, got {got}"

    return Task(label, lambda: K.classify(rep),
                render=lambda c: json.dumps([c.kind, c.exponent, c.bound, c.tits_value]),
                check=check, source="Coxeter law")


def _width_task(label: str, rep, ctx: Context, expected: int | None = None) -> Task:
    if expected is None:
        check, source = ctx.golden_check(label, lambda rep_: rep_.width), "golden"
    else:
        check = lambda rep_, results: None if rep_.width == expected else f"width {rep_.width}"
        source = "width table"
    return Task(label, lambda: K.width(rep), render=lambda rep_: rep_.to_json(), check=check,
                source=source)


def orbit_walk(ctx: Context) -> list[Task]:
    tasks = []
    # the widths stated for (p, r) = (5, 3)
    tasks.append(_width_task("width W(5,2,3,3,2)", R.w_module(5, 2, 3, 3, 2), ctx, 0))
    tasks.append(_width_task("width E(5,3)(1,1,1)", K.e_lambda(5, 3, (1, 1, 1)), ctx, 1))
    x100 = R.x_module(5, 2, 3, R.ProjPoint(5, (1, 0, 0)), 0, 1)
    tasks.append(_width_task("width X(5,3)(1,0,0)", x100, ctx, 2))
    for p, r in ((5, 3), (7, 4)):
        bases = [(f"W({p},2,{r},3,2)", R.w_module(p, 2, r, 3, 2))]
        for lam in ctx.pick(ctx.pool(p, r), 3):
            bases.append((f"E({p},{r}){lam.coords}", K.e_lambda(p, r, lam.coords)))
        for alpha in ctx.pick(ctx.pool(p, r), 3):
            bases.append((f"X({p},{r}){alpha.coords}", R.x_module(p, 2, r, alpha, 0, 1)))
        for label, rep in bases:
            if (p, r) == (7, 4):
                tasks.append(_width_task(f"width {label}", rep, ctx))
            tasks.append(_chain_task(f"tau^1..2 {label}", rep, inverse=False))
            tasks.append(_chain_task(f"tau^-1..-2 {label}", rep, inverse=True))
            tasks.append(_classify_task(f"classify {label}", rep))
        for i in range(2):
            tasks.append(_classify_task(f"classify P{i}({p},2,{r})", R.projective(p, 2, r, i)))
            tasks.append(_classify_task(f"classify I{i}({p},2,{r})", R.injective(p, 2, r, i)))
    return tasks


# ---------------------------------------------------------------------------
# cli: fresh-process subcommands on stored JSON inputs

@dataclass
class CliResult:
    code: int
    stdout: str
    written: str | None

    def payload(self):
        return json.loads(self.stdout)


def _cli_task(ctx: Context, label: str, argv: list[str], check, source: str,
              writes: str | None = None, verdict=None, full_sweep=None) -> Task:
    def run():
        done = subprocess.run(ctx.cli_prefix() + argv, cwd=ctx.workdir, capture_output=True,
                              text=True)
        written = None
        if writes and done.returncode == 0:
            written = (ctx.workdir / writes).read_text()
        return CliResult(done.returncode, done.stdout, written)

    return Task(label, run, render=lambda res: f"exit={res.code}\n{res.stdout}\n{res.written}",
                check=check, source=source, verdict=verdict or (lambda res: None),
                full_sweep=full_sweep or (lambda res: None))


def _cli_check_property(rep, prop: str):
    def check(res, results):
        want = _oracle_facts(rep, prop)
        payload = res.payload()
        witness = payload.get("witness")
        got = {"verdict": payload["verdict"],
               "witness": None if witness is None else [witness["alpha"], witness["level"]]}
        if got != want:
            return f"expected {want}, got {got}"
        code = 0 if want["verdict"] else 1
        return None if res.code == code else f"exit {res.code}, expected {code}"
    return check


def _cli_construct(ctx, family: str, flags: list[str], rep, name: str) -> Task:
    def check(res, results):
        if res.code != 0:
            return f"exit {res.code}"
        written = json.loads(res.written)
        if tuple(written["dims"]) != rep.dims:
            return f"dims {written['dims']}, expected {rep.dims}"
        if res.written != rep.to_json() + "\n":
            return "file differs from the in-process construction"
        return None

    return _cli_task(ctx, f"construct {family} {' '.join(flags)}",
                     ["construct", family] + flags + ["--out", f"out/{name}"], check,
                     "family dimensions + in-process construction", writes=f"out/{name}")


def cli(ctx: Context) -> list[Task]:
    ctx.workdir.joinpath("in").mkdir(exist_ok=True)
    ctx.workdir.joinpath("out").mkdir(exist_ok=True)
    stored = {}

    def store(name, rep):
        ctx.workdir.joinpath("in", name).write_text(rep.to_json())
        stored[name] = rep
        return f"in/{name}"

    def prop_check(path, subcommand_prop):
        rep = stored[path[3:]]
        prop = subcommand_prop.removesuffix("-hom")
        return _cli_task(ctx, f"check {subcommand_prop} {path}",
                         ["check", subcommand_prop, "--rep", path, "--format", "json"],
                         _cli_check_property(rep, prop), "definition route (own elimination)",
                         verdict=_exit_verdict, full_sweep=lambda res: _cli_full_sweep(res, rep))

    w743 = store("w743.json", R.w_module(7, 3, 4, 4, 3))
    m7444 = store("m7444.json", R.m_module(7, 4, 4, 4, 4))
    m5332 = store("m5332.json", R.m_module(5, 3, 3, 3, 2))
    # two random representations per field; fixed shapes, entries from the seed
    generated = ([inputs.random_rep(7, 4, dims, ctx.rng) for dims in ((2, 3, 2), (3, 4, 4))]
                 + [inputs.random_rep(5, 3, dims, ctx.rng) for dims in ((2, 2, 2), (2, 3, 3))])
    loaded = _load_generated(ctx, "cli", generated)
    rand_a = [store(f"rand_a{k}.json", rep) for k, rep in enumerate(loaded[:2])]
    rand_h = [store(f"rand_h{k}.json", rep) for k, rep in enumerate(loaded[2:])]
    w532 = store("w532.json", R.w_module(5, 2, 3, 3, 2))
    e111 = store("e111.json", K.e_lambda(5, 3, (1, 1, 1)))
    x100 = store("x100.json", R.x_module(5, 2, 3, R.ProjPoint(5, (1, 0, 0)), 0, 1))

    tasks = [
        _cli_construct(ctx, "w", ["--p", "7", "--n", "3", "--r", "4", "--m", "4", "--d", "3"],
                       stored["w743.json"], "w.json"),
        prop_check(w743, "eip"), prop_check(w743, "cjt"), prop_check(m5332, "ekp-hom"),
    ]
    for path in rand_a:
        tasks += [prop_check(path, "eip"), prop_check(path, "ekp"), prop_check(path, "cjt")]
    for path in rand_h:
        tasks += [prop_check(path, "ekp-hom"), prop_check(path, "eip-hom")]
    jt_inputs = [(m7444, E.jt_formula(4, 4, 4).counts)] + [(path, None) for path in rand_a]
    for path, expected in jt_inputs:
        rep = stored[path[3:]]

        def check_jt(res, results, rep=rep, expected=expected):
            got = [tuple(row["blocks"]) for row in res.payload()["points"]]
            want = oracle.SweepOracle(rep.p, rep.r, rep.dims, _rep_arrays(rep)).jordan_types()
            if got != want or (expected is not None and any(c != expected for c in got)):
                return "Jordan types differ from the expectation"
            return None if res.code == 0 else f"exit {res.code}"

        tasks.append(_cli_task(ctx, f"jordan-type --all-alpha {path}",
                               ["jordan-type", "--all-alpha", "--rep", path, "--format", "json"],
                               check_jt,
                               "step-composite ranks" + (" + jt_formula" if expected else ""),
                               full_sweep=lambda res: True))
    for path, expected in ((w532, 0), (e111, 1), (x100, 2)):
        check = (lambda res, results, expected=expected:
                 None if (res.code, res.payload()["width"]) == (0, expected)
                 else f"width {res.payload()['width']}, expected {expected}")
        tasks.append(_cli_task(ctx, f"width {path}", ["width", "--rep", path, "--format", "json"],
                               check, "width table"))

    def check_end(res, results):
        module = E.forget(stored["m5332.json"])
        end = oracle.module_hom_dim(5, _ops(module), _ops(module))
        got = res.payload()
        ok = (got["dimension"], got["commutative"], got["local"]) == (end, True, True)
        if ok and res.code == 0:
            return None
        return f"expected dimension {end}, commutative and local: {got}"

    tasks.append(_cli_task(ctx, f"end-ring {m5332}",
                           ["end-ring", "--rep", m5332, "--format", "json"], check_end,
                           "own End dimension + slice modules are local"))

    # seeded points; golden records cover every point of the pools
    for lam in ctx.pick(ctx.pool(7, 4)):
        tag = "".join(map(str, lam.coords))
        e74 = store(f"e74_{tag}.json", K.e_lambda(7, 4, lam.coords))
        flags = ["--p", "7", "--n", "2", "--r", "4", "--lam", ",".join(map(str, lam.coords))]
        tasks.append(_cli_construct(ctx, "e", flags, stored[e74[3:]], "e.json"))
        for sub, fact in (("tau-orbit", "kind"), ("width", "width")):
            label = f"{sub} {e74}"
            tasks.append(_cli_task(ctx, label, [sub, "--rep", e74, "--format", "json"],
                                   ctx.golden_check(label, _cli_fact(fact)), "golden"))
    for alpha in ctx.pick(ctx.pool(5, 3)):
        tag = "".join(map(str, alpha.coords))
        xa = R.x_module(5, 2, 3, alpha, 0, 1)
        x53 = store(f"x53_{tag}.json", xa)
        taux = store(f"taux_{tag}.json", K.tau(xa))
        dualx = store(f"dualx_{tag}.json", R.dualize(xa))
        flags = ["--p", "5", "--n", "2", "--r", "3", "--alpha", ",".join(map(str, alpha.coords))]
        tasks.append(_cli_construct(ctx, "x", flags, xa, "x.json"))
        label = f"tau-orbit {x53}"
        tasks.append(_cli_task(ctx, label, ["tau-orbit", "--rep", x53, "--format", "json"],
                               ctx.golden_check(label, _cli_fact("kind")), "golden"))
        label = f"iso {taux} {dualx}"
        tasks.append(_cli_task(ctx, label, ["iso", taux, dualx, "--format", "json"],
                               ctx.golden_check(label, _cli_fact("verdict")), "golden",
                               verdict=_exit_verdict))
        beta = next(b for b in ctx.pick(ctx.pool(5, 3)) + ctx.pool(5, 3) if b != alpha)
        x53b = store(f"x53b_{tag}.json", R.x_module(5, 2, 3, beta, 0, 1))
        for modules in (False, True):
            flags = ["--as-modules"] if modules else []
            tasks.append(_cli_task(ctx, " ".join(["iso", x53, x53b] + flags),
                                   ["iso", x53, x53b, "--format", "json"] + flags,
                                   _cli_not_isomorphic(stored[x53[3:]], stored[x53b[3:]], modules),
                                   "dim End != dim Hom", verdict=_exit_verdict))
    return tasks


def _exit_verdict(res) -> bool:
    return res.code == 0


def _cli_fact(key: str):
    """Golden facts of a CLI result: the exit code and one field of its JSON output."""
    return lambda res: [res.code, res.payload()[key]]


def _cli_full_sweep(res, rep) -> bool:
    witness = res.payload().get("witness")
    return witness is None or tuple(witness["alpha"]) == oracle.points(rep.p, rep.r)[-1]


def _cli_not_isomorphic(left, right, modules: bool):
    if modules:
        left, right = E.forget(left), E.forget(right)
    return _not_isomorphic(left, right,
                           lambda res: (res.code, res.payload()["verdict"]) == (1, "no"))


BY_NAME = {"point_sweep": point_sweep, "hom_route": hom_route, "orbit_walk": orbit_walk,
           "cli": cli}


def build(name: str, seed: int, workdir: Path, full_pools: bool = False,
          cli_prefix=None) -> list[Task]:
    return BY_NAME[name](Context(seed, workdir, full_pools, cli_prefix))
