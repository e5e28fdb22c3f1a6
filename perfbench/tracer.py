"""Per-layer tracing of the ``beilinson`` package, installed from outside.

Each traced public function is replaced, in every module namespace that
binds it (``from .linalg import rank`` gives ``reps.rank``,
``properties.rank`` and so on), by a wrapper that records a span.  A span's
self time is its duration minus the time covered by traced spans it
encloses.  A few internal names are wrapped for counting only, without a
span: ``linalg._rref`` (elimination sizes), ``FpMatrix.__post_init__``
(constructions), ``properties.constant_rank`` and
``properties.cached_x_module`` (points swept, cache hits).  A name that is
missing from the package is listed in ``missing`` and its metrics read 0.
"""

from __future__ import annotations

import sys
import time

import fp

TRACED = {
    "linalg": ("rank", "kernel_basis", "image_basis", "solve_matrix", "quotient_projection"),
    "monomials": ("linear_form_power_matrix", "multiplication_matrix"),
    "reps": ("alpha_operator", "step_power_rank", "hom_space", "x_module"),
    "emod": ("forget", "jordan_type", "hom_modules", "is_isomorphic", "end_algebra", "rad_series"),
    "properties": ("is_eip_def", "is_ekp_def", "is_eip_hom", "is_ekp_hom", "constant_jordan_type"),
    "kronecker": ("tau", "tau_inv", "width", "classify"),
    "search": ("find_invertible",),
}
LAYERS = ("linalg", "monomials", "reps", "emod", "properties", "kronecker", "search", "cli")
SWEEPS = {"is_eip_def", "is_ekp_def", "is_eip_hom", "is_ekp_hom", "constant_rank"}
SYSTEM_OWNERS = {("reps", "hom_space"), ("emod", "hom_modules")}
CLI_SUBCOMMANDS = ("construct", "check", "jordan-type", "tau-orbit", "width", "end-ring", "iso")
COUNTS = (
    "linalg.elim_cells", "linalg.elim_bytes_computed", "linalg.fpmatrix_new.calls",
    "linalg.fpmatrix_new.setup_calls", "reps.hom_space.unknowns", "reps.hom_space.system_cells",
    "emod.hom_modules.system_cells", "properties.points_scanned", "properties.points_needed",
    "properties.sweep_useful_ratio", "properties.x_cache_hit_ratio", "kronecker.tau.max_dim",
    "search.candidates", "search.hit_ratio",
)
CLI_TIMES = ("cli.import_s",) + tuple(f"cli.{sub}.wall_s" for sub in CLI_SUBCOMMANDS)
OVERHEAD = ("trace.overhead_s", "trace.overhead_frac")


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = []
    for mod, fns in TRACED.items():
        for fn in fns:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
    names += [f"{layer}.raised" for layer in LAYERS]
    return names + list(COUNTS) + list(CLI_TIMES) + list(OVERHEAD)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac") or name.endswith("_ratio"):
        return "ratio"
    if name.endswith("bytes_computed"):
        return "B"
    return "count"


def is_timing(name: str) -> bool:
    """Timings vary run to run; every other per-layer metric must repeat."""
    return name.endswith("_s") or name.endswith("_frac")


def package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "beilinson" or name.startswith("beilinson."))]


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.raised = {layer: 0 for layer in LAYERS}
        self._last_raised: dict[str, BaseException] = {}
        self.counts = {
            "elim_cells": 0, "fpmatrix_new": 0, "hom_space_unknowns": 0,
            "hom_space_cells": 0, "hom_modules_cells": 0, "points_scanned": 0,
            "points_needed": 0, "x_lookups": 0, "x_hits": 0, "x_builds": 0, "tau_max_dim": 0,
            "candidates": 0, "search_yes": 0,
        }
        self.missing: list[str] = []
        self._children: list[list[float]] = []  # child time of each open span
        self._owners: list[str] = []  # open hom_space / hom_modules spans
        self._sweeps: list[set] = []  # points touched by each open sweep
        self._index: dict = {}
        self._patched: list = []

    # -- installation ---------------------------------------------------
    def install_constructor_counter(self):
        """Count FpMatrix constructions; safe to install before set-up."""
        from beilinson import linalg

        original = linalg.FpMatrix.__post_init__
        counts = self.counts

        def counted(obj):
            counts["fpmatrix_new"] += 1
            original(obj)

        linalg.FpMatrix.__post_init__ = counted
        self._patched.append((linalg.FpMatrix, "__post_init__", original))

    def install(self):
        mods = {m.__name__.rpartition(".")[2]: m for m in package_modules()}
        for mod, fns in TRACED.items():
            for fn in fns:
                self._patch(mods, mod, fn, timed=True)
        self._patch(mods, "linalg", "_rref", timed=False)
        self._patch(mods, "properties", "constant_rank", timed=False)
        self._patch(mods, "properties", "cached_x_module", timed=False)

    def uninstall(self):
        for target, attr, original in reversed(self._patched):
            setattr(target, attr, original)
        self._patched.clear()

    def _patch(self, mods, mod, fn, timed):
        original = getattr(mods.get(mod), fn, None)
        if original is None:
            self.missing.append(f"{mod}.{fn}")
            return
        wrapper = self._wrap(mod, fn, original, timed)
        for m in mods.values():
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    self._patched.append((m, attr, original))

    # -- wrappers --------------------------------------------------------
    def _wrap(self, mod, fn, original, timed):
        key = f"{mod}.{fn}"
        self.calls.setdefault(key, 0)
        self.self_s.setdefault(key, 0.0)
        before = getattr(self, f"_before_{fn}", None)
        after = getattr(self, f"_after_{fn}", None)
        is_sweep = fn in SWEEPS
        owns_system = (mod, fn) in SYSTEM_OWNERS
        children, calls, self_s = self._children, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            token = None
            if before:
                args, kwargs, token = before(args, kwargs)
            if is_sweep:
                self._sweeps.append(set())
            if owns_system:
                self._owners.append(key)
            if timed:
                children.append([0.0])
                start = clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                if self._last_raised.get(mod) is not exc:
                    self._last_raised[mod] = exc
                    self.raised[mod] += 1
                raise
            finally:
                if timed:
                    elapsed = clock() - start
                    child = children.pop()[0]
                    if children:
                        children[-1][0] += elapsed
                    calls[key] += 1
                    self_s[key] += elapsed - child
                if owns_system:
                    self._owners.pop()
                if is_sweep:
                    touched = self._sweeps.pop()
            if is_sweep:
                self._close_sweep(args[0], touched, result)
            if after:
                after(token, result)
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def _note_point(self, alpha):
        if self._sweeps:
            self._sweeps[-1].add(alpha.coords)

    def _close_sweep(self, rep, touched, report):
        key = (rep.p, rep.r)
        if key not in self._index:
            pts = fp.proj_points(rep.p, rep.r)
            self._index[key] = ({c: k for k, c in enumerate(pts)}, len(pts))
        index, total = self._index[key]
        needed = total if report.verdict else index[report.witness[0].coords] + 1
        self.counts["points_scanned"] += len(touched)
        self.counts["points_needed"] += needed

    def _before__rref(self, args, kwargs):
        a = args[0]
        cells = int(a.shape[0]) * int(a.shape[1])
        self.counts["elim_cells"] += cells
        if self._owners:
            if self._owners[-1] == "reps.hom_space":
                self.counts["hom_space_cells"] += cells
                self.counts["hom_space_unknowns"] += int(a.shape[1])
            else:
                self.counts["hom_modules_cells"] += cells
        return args, kwargs, None

    def _before_alpha_operator(self, args, kwargs):
        self._note_point(args[1])
        return args, kwargs, None

    def _before_cached_x_module(self, args, kwargs):
        self._note_point(args[3])
        self.counts["x_lookups"] += 1
        return args, kwargs, self.counts["x_builds"]

    def _after_cached_x_module(self, builds_before, result):
        if self.counts["x_builds"] == builds_before:
            self.counts["x_hits"] += 1

    def _before_x_module(self, args, kwargs):
        self.counts["x_builds"] += 1
        return args, kwargs, None

    def _after_tau(self, token, result):
        self.counts["tau_max_dim"] = max(self.counts["tau_max_dim"], result.total_dim)

    def _before_find_invertible(self, args, kwargs):
        args = list(args)
        invertible = args[3] if len(args) > 3 else kwargs["invertible"]
        counts = self.counts

        def counted(candidate):
            counts["candidates"] += 1
            return invertible(candidate)

        if len(args) > 3:
            args[3] = counted
        else:
            kwargs = dict(kwargs, invertible=counted)
        return tuple(args), kwargs, None

    def _after_find_invertible(self, token, result):
        if result == "yes":
            self.counts["search_yes"] += 1

    def state(self) -> dict:
        """Raw totals; states of several processes combine with ``merge``."""
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "raised": dict(self.raised), "counts": dict(self.counts)}


def merge(states: list[dict]) -> dict:
    """Sum raw states; the largest translate dimension is a maximum."""
    out = {"calls": {}, "self_s": {}, "raised": {}, "counts": {}}
    for st in states:
        for part in ("calls", "self_s", "raised", "counts"):
            for key, value in st[part].items():
                if key == "tau_max_dim":
                    out[part][key] = max(out[part].get(key, 0), value)
                else:
                    out[part][key] = out[part].get(key, 0) + value
    return out


def metrics(state: dict, setup_constructions: int = 0) -> dict[str, float]:
    """Library-side per-layer metrics of a raw state."""
    c = state["counts"]
    out: dict[str, float] = {}
    for mod, fns in TRACED.items():
        for fn in fns:
            key = f"{mod}.{fn}"
            out[f"{key}.calls"] = state["calls"].get(key, 0)
            out[f"{key}.self_s"] = state["self_s"].get(key, 0.0)
    for layer in LAYERS:
        out[f"{layer}.raised"] = state["raised"].get(layer, 0)
    out.update({
        "linalg.elim_cells": c["elim_cells"],
        "linalg.elim_bytes_computed": 8 * c["elim_cells"],
        "linalg.fpmatrix_new.calls": c["fpmatrix_new"] - setup_constructions,
        "linalg.fpmatrix_new.setup_calls": setup_constructions,
        "reps.hom_space.unknowns": c["hom_space_unknowns"],
        "reps.hom_space.system_cells": c["hom_space_cells"],
        "emod.hom_modules.system_cells": c["hom_modules_cells"],
        "properties.points_scanned": c["points_scanned"],
        "properties.points_needed": c["points_needed"],
        "properties.sweep_useful_ratio": _ratio(c["points_needed"], c["points_scanned"]),
        "properties.x_cache_hit_ratio": _ratio(c["x_hits"], c["x_lookups"]),
        "kronecker.tau.max_dim": c["tau_max_dim"],
        "search.candidates": c["candidates"],
        "search.hit_ratio": _ratio(c["search_yes"], c["candidates"]),
    })
    return out


def _ratio(num: float, den: float) -> float:
    """num / den, reading 0 when nothing was attempted."""
    return num / den if den else 0.0
