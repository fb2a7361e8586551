"""The traced run: spans and counters around klsc's layer entry points.

Each wrapped entry point records one span per call (name, start, end,
parent span) in flat arrays; the item id is implicit, because every item
runs in its own process and hands back its summary when it ends.  A span's
self time is its duration minus the time its child spans cover.

Functions are wrapped at every module that imported them by name (for
example ``klsc.sheaf.matvec`` and ``klsc.graded.matvec``); methods are
wrapped on their class.  A target that no longer exists is an error, so a
refactor cannot silently stop a layer from being measured.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

LAYERS = (
    "linalg", "graded", "sheaf", "fans", "matroids", "matroid_ih",
    "momentsheaf", "poly", "coxeter", "cli", "kls",
)

# (span name, module, attribute): functions, wrapped at each import site
FUNCTIONS = [
    ("linalg.kernel_basis", "klsc.linalg", "kernel_basis"),
    ("linalg.matvec", "klsc.linalg", "matvec"),
    ("graded.min_gen", "klsc.graded", "minimal_generator_degrees"),
    ("sheaf.build", "klsc.sheaf", "build_sheaf"),
    ("fans.construct", "klsc.fans", "cone_over_polytope"),
    ("fans.construct", "klsc.fans", "fan_face_poset"),
    ("matroid_ih.sheaf", "klsc.matroid_ih", "matroid_sheaf"),
    ("momentsheaf.compute", "klsc.momentsheaf", "compute_sheaf"),
    ("coxeter", "klsc.coxeter", "enumerate_interval"),
    ("coxeter", "klsc.coxeter", "bruhat_graph"),
    ("coxeter", "klsc.coxeter", "r_polynomial"),
    ("coxeter", "klsc.coxeter", "p_gkm_check"),
    ("kls.solve", "klsc.kls", "solve_kls"),
    ("kls.kernel", "klsc.kls", "verify_kernel"),
    ("kls.kernel", "klsc.kls", "eulerian_kernel"),
    ("kls.kernel", "klsc.kls", "matroid_kernel"),
    ("kls.kernel", "klsc.kls", "coxeter_R_kernel"),
    ("kls.z", "klsc.kls", "z_polynomial"),
    ("cli", "klsc.cli", "main"),
]

# (span name, module, class, method): methods, wrapped on the class
METHODS = [
    ("linalg.add", "klsc.linalg", "RowSpace", "add"),
    ("linalg.add", "klsc.linalg", "_GFRowSpace", "add"),
    ("graded.raised_span", "klsc.graded", "GradedModule", "raised_span"),
    ("sheaf.section_space", "klsc.sheaf", "PosetSheaf", "section_space"),
    ("fans.boundary", "klsc.fans", "FanLocalModel", "boundary"),
    ("matroids.lattice", "klsc.matroids", "Matroid", "lattice"),
    ("matroids.contract", "klsc.matroids", "Matroid", "contract"),
    ("momentsheaf.edge_reduce", "klsc.momentsheaf", "EdgeRing", "reduce"),
    ("poly.multipoly_mul", "klsc.poly", "MultiPoly", "__mul__"),
    ("coxeter", "klsc.coxeter", "CoxeterGroup", "__init__"),
]

# constructors that only feed counters, without a span of their own
COUNTED_INIT = [
    ("klsc.linalg", "RowSpace"),
    ("klsc.linalg", "_GFRowSpace"),
    ("klsc.matroid_ih", "MatroidIHSheaf"),
]

ADD_KINDS = ("qq", "gf", "tagged")

# Counters each workload must move.  A zero here fails the traced run,
# so a refactor that bypasses a layer shows up instead of reading as a gain.
PREDICTED_NONZERO = {
    "matroid-qq": [
        "linalg.add.qq.calls", "linalg.kernel_basis.calls", "matroids.contract.calls",
        "matroid_ih.sheaf.calls", "matroid_ih.builds", "kls.pairs",
    ],
    "matroid-modp": [
        "linalg.add.gf.calls", "linalg.kernel_basis.calls", "matroids.contract.calls",
        "matroid_ih.sheaf.calls", "matroid_ih.builds",
    ],
    "fan-qq": [
        "linalg.add.qq.calls", "linalg.matvec.calls", "linalg.kernel_basis.calls",
        "graded.raised_span.calls", "sheaf.section_space.calls", "fans.boundary.calls",
        "kls.pairs",
    ],
    "bruhat": [
        "linalg.add.qq.calls", "linalg.add.gf.calls", "linalg.add.tagged.calls",
        "momentsheaf.edge_reduce.calls", "poly.multipoly_mul.calls", "kls.pairs",
    ],
}

# every per-layer metric with its unit, in the order BENCHMARK.json lists them
METRIC_UNITS = {}
for _kind in ADD_KINDS:
    METRIC_UNITS[f"linalg.add.{_kind}.calls"] = "count"
    METRIC_UNITS[f"linalg.add.{_kind}.self_s"] = "s"
    METRIC_UNITS[f"linalg.add.{_kind}.useful_ratio"] = "ratio"
METRIC_UNITS.update({
    "linalg.matvec.calls": "count",
    "linalg.matvec.self_s": "s",
    "linalg.matvec.entries": "count",
    "linalg.matvec.nnz_ratio": "ratio",
    "linalg.kernel_basis.calls": "count",
    "linalg.kernel_basis.self_s": "s",
    "linalg.rowspace.count": "count",
    "linalg.rowspace.cols_sum": "count",
    "linalg.rowspace.cols_max": "count",
    "graded.raised_span.calls": "count",
    "graded.raised_span.self_s": "s",
    "graded.min_gen.self_s": "s",
    "sheaf.build.self_s": "s",
    "sheaf.section_space.calls": "count",
    "sheaf.section_space.self_s": "s",
    "fans.boundary.calls": "count",
    "fans.boundary.self_s": "s",
    "fans.construct.self_s": "s",
    "matroids.lattice.self_s": "s",
    "matroids.contract.calls": "count",
    "matroid_ih.sheaf.calls": "count",
    "matroid_ih.sheaf.self_s": "s",
    "matroid_ih.builds": "count",
    "matroid_ih.memo.hit_ratio": "ratio",
    "momentsheaf.compute.self_s": "s",
    "momentsheaf.edge_reduce.calls": "count",
    "momentsheaf.edge_reduce.self_s": "s",
    "momentsheaf.reduced_monomials.hit_ratio": "ratio",
    "poly.multipoly_mul.calls": "count",
    "poly.multipoly_mul.self_s": "s",
    "coxeter.self_s": "s",
    "cli.self_s": "s",
    "kls.solve.self_s": "s",
    "kls.kernel.self_s": "s",
    "kls.z.self_s": "s",
    "kls.pairs": "count",
})
for _layer in LAYERS:
    METRIC_UNITS[f"{_layer}.failed"] = "count"
METRIC_UNITS["trace.overhead_s"] = "s"


class TraceTargetError(RuntimeError):
    """A wrapped name no longer exists in klsc."""


def _resolve_module(name):
    try:
        return importlib.import_module(name)
    except ImportError as exc:
        raise TraceTargetError(f"traced module {name} is gone: {exc}") from exc


def _resolve_attr(owner, attr, where):
    if attr not in vars(owner):
        raise TraceTargetError(f"traced name {where}.{attr} no longer exists")
    return vars(owner)[attr]


def check_targets():
    """Resolve every target without patching; raises TraceTargetError."""
    for _, mod, attr in FUNCTIONS:
        _resolve_attr(_resolve_module(mod), attr, mod)
    for _, mod, cls, meth in METHODS:
        owner = _resolve_attr(_resolve_module(mod), cls, mod)
        _resolve_attr(owner, meth, f"{mod}.{cls}")
    for mod, cls in COUNTED_INIT:
        owner = _resolve_attr(_resolve_module(mod), cls, mod)
        _resolve_attr(owner, "__init__", f"{mod}.{cls}")
    _resolve_attr(_resolve_module("klsc.momentsheaf"), "reduced_monomials", "klsc.momentsheaf")


class Tracer:
    """Installed in an item's own process, after the fork; never undone."""

    def __init__(self):
        self.name_ids = {}
        self.span_names = []
        self.names = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = [-1]
        self.counts = dict.fromkeys(
            [f"linalg.add.{k}.useful" for k in ADD_KINDS]
            + ["linalg.matvec.entries", "linalg.matvec.nnz", "linalg.rowspace.count",
               "linalg.rowspace.cols_sum", "linalg.rowspace.cols_max",
               "matroid_ih.builds", "kls.pairs"]
            + [f"{layer}.failed" for layer in LAYERS],
            0,
        )
        self._hook_id = self._nid("trace.hook")

    def _nid(self, name):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self.name_ids[name]

    # -- wrappers -----------------------------------------------------------------

    def _wrap(self, name_of, fn, hook=None):
        """A wrapper recording one span per call.  ``name_of`` maps the call
        arguments to a span id; ``hook(args, result)`` updates counters and
        is recorded as a child span, so its cost leaves parents' self time."""
        names, parents, starts, ends, stack = (
            self.names, self.parents, self.starts, self.ends, self.stack,
        )
        counts = self.counts
        span_names = self.span_names
        hook_id = self._hook_id

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            nid = name_of(args)
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                counts[span_names[nid].split(".", 1)[0] + ".failed"] += 1
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                h = len(names)
                names.append(hook_id)
                parents.append(stack[-1])
                starts.append(perf_counter())
                ends.append(0.0)
                hook(args, result)
                ends[h] = perf_counter()
            return result

        return wrapper

    def _fixed(self, name):
        nid = self._nid(name)
        return lambda args: nid

    def install(self):
        import klsc.linalg

        gf_class = klsc.linalg._GFRowSpace
        add_ids = {k: self._nid(f"linalg.add.{k}") for k in ADD_KINDS}

        def add_kind(args):
            space = args[0]
            if isinstance(space, gf_class):
                return add_ids["gf"]
            return add_ids["qq" if space.tags is None else "tagged"]

        counts = self.counts
        span_names = self.span_names

        def add_hook(args, result):
            if result is not None:
                counts[span_names[add_kind(args)] + ".useful"] += 1

        def matvec_hook(args, result):
            rows = args[0]
            counts["linalg.matvec.entries"] += sum(map(len, rows))
            counts["linalg.matvec.nnz"] += sum(1 for r in rows for a in r if a)

        def pairs_hook(args, result):
            counts["kls.pairs"] += sum(1 for _ in result.pairs())

        hooks = {
            "linalg.add": add_hook,
            "linalg.matvec": matvec_hook,
            "kls.solve": pairs_hook,
        }

        for name, mod, attr in FUNCTIONS:
            module = _resolve_module(mod)
            original = _resolve_attr(module, attr, mod)
            wrapper = self._wrap(self._fixed(name), original, hooks.get(name))
            for site in [m for n, m in sys.modules.items() if n.startswith("klsc")]:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)

        for name, mod, cls, meth in METHODS:
            owner = _resolve_attr(_resolve_module(mod), cls, mod)
            original = _resolve_attr(owner, meth, f"{mod}.{cls}")
            name_of = add_kind if name == "linalg.add" else self._fixed(name)
            setattr(owner, meth, self._wrap(name_of, original, hooks.get(name)))

        for mod, cls in COUNTED_INIT:
            owner = _resolve_attr(_resolve_module(mod), cls, mod)
            original = _resolve_attr(owner, "__init__", f"{mod}.{cls}")
            setattr(owner, "__init__", self._counted_init(cls, original))

    def _counted_init(self, cls, original):
        counts = self.counts

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            if cls == "MatroidIHSheaf":
                counts["matroid_ih.builds"] += 1
            else:
                ncols = args[1] if len(args) > 1 else kwargs["ncols"]
                counts["linalg.rowspace.count"] += 1
                counts["linalg.rowspace.cols_sum"] += ncols
                counts["linalg.rowspace.cols_max"] = max(counts["linalg.rowspace.cols_max"], ncols)
            return original(obj, *args, **kwargs)

        return init

    # -- summary ------------------------------------------------------------------

    def summary(self):
        """Per span name: [calls, self seconds]; plus the counters."""
        n = len(self.names)
        covered = [0.0] * n
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(n):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        spans = {}
        for i in range(n):
            entry = spans.setdefault(self.span_names[self.names[i]], [0, 0.0])
            entry[0] += 1
            entry[1] += ends[i] - starts[i] - covered[i]
        spans.pop("trace.hook", None)
        import klsc.momentsheaf

        info = klsc.momentsheaf.reduced_monomials.cache_info()
        counts = dict(self.counts)
        counts["momentsheaf.reduced_monomials.hits"] = info.hits
        counts["momentsheaf.reduced_monomials.misses"] = info.misses
        return {"spans": spans, "counts": counts}


def merge(summaries):
    """Sum item summaries into one pass total (cols_max takes the max)."""
    spans, counts = {}, {}
    for s in summaries:
        for name, (calls, self_s) in s["spans"].items():
            entry = spans.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        for key, value in s["counts"].items():
            if key == "linalg.rowspace.cols_max":
                counts[key] = max(counts.get(key, 0), value)
            else:
                counts[key] = counts.get(key, 0) + value
    return {"spans": spans, "counts": counts}


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(total):
    """The per-layer metrics of one traced pass (without trace.overhead_s)."""
    spans, counts = total["spans"], total["counts"]

    def calls(name):
        return spans.get(name, [0, 0.0])[0]

    def self_s(*names):
        return sum(spans.get(n, [0, 0.0])[1] for n in names)

    out = {}
    for k in ADD_KINDS:
        name = f"linalg.add.{k}"
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
        out[f"{name}.useful_ratio"] = _ratio(counts[f"{name}.useful"], calls(name))
    out["linalg.matvec.calls"] = calls("linalg.matvec")
    out["linalg.matvec.self_s"] = self_s("linalg.matvec")
    out["linalg.matvec.entries"] = counts["linalg.matvec.entries"]
    out["linalg.matvec.nnz_ratio"] = _ratio(counts["linalg.matvec.nnz"], counts["linalg.matvec.entries"])
    out["linalg.kernel_basis.calls"] = calls("linalg.kernel_basis")
    out["linalg.kernel_basis.self_s"] = self_s("linalg.kernel_basis")
    for key in ("count", "cols_sum", "cols_max"):
        out[f"linalg.rowspace.{key}"] = counts[f"linalg.rowspace.{key}"]
    out["graded.raised_span.calls"] = calls("graded.raised_span")
    out["graded.raised_span.self_s"] = self_s("graded.raised_span")
    out["graded.min_gen.self_s"] = self_s("graded.min_gen")
    out["sheaf.build.self_s"] = self_s("sheaf.build")
    out["sheaf.section_space.calls"] = calls("sheaf.section_space")
    out["sheaf.section_space.self_s"] = self_s("sheaf.section_space")
    out["fans.boundary.calls"] = calls("fans.boundary")
    out["fans.boundary.self_s"] = self_s("fans.boundary")
    out["fans.construct.self_s"] = self_s("fans.construct")
    out["matroids.lattice.self_s"] = self_s("matroids.lattice")
    out["matroids.contract.calls"] = calls("matroids.contract")
    out["matroid_ih.sheaf.calls"] = calls("matroid_ih.sheaf")
    out["matroid_ih.sheaf.self_s"] = self_s("matroid_ih.sheaf")
    out["matroid_ih.builds"] = counts["matroid_ih.builds"]
    # matroid_sheaf builds one MatroidIHSheaf per memo miss and none on a hit
    out["matroid_ih.memo.hit_ratio"] = _ratio(
        calls("matroid_ih.sheaf") - counts["matroid_ih.builds"], calls("matroid_ih.sheaf")
    )
    out["momentsheaf.compute.self_s"] = self_s("momentsheaf.compute")
    out["momentsheaf.edge_reduce.calls"] = calls("momentsheaf.edge_reduce")
    out["momentsheaf.edge_reduce.self_s"] = self_s("momentsheaf.edge_reduce")
    hits = counts["momentsheaf.reduced_monomials.hits"]
    out["momentsheaf.reduced_monomials.hit_ratio"] = _ratio(
        hits, hits + counts["momentsheaf.reduced_monomials.misses"]
    )
    out["poly.multipoly_mul.calls"] = calls("poly.multipoly_mul")
    out["poly.multipoly_mul.self_s"] = self_s("poly.multipoly_mul")
    out["coxeter.self_s"] = self_s("coxeter")
    out["cli.self_s"] = self_s("cli")
    out["kls.solve.self_s"] = self_s("kls.solve")
    out["kls.kernel.self_s"] = self_s("kls.kernel")
    out["kls.z.self_s"] = self_s("kls.z")
    out["kls.pairs"] = counts["kls.pairs"]
    for layer in LAYERS:
        out[f"{layer}.failed"] = counts[f"{layer}.failed"]
    return out


def check_predictions(workload, metrics):
    """Names of counters predicted non-zero on this workload that read 0."""
    return [name for name in PREDICTED_NONZERO[workload] if not metrics[name]]
