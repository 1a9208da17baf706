"""Per-layer tracing of cycflats from outside the library.

Tracer.install() replaces each traced function everywhere a caller looks
it up: the class attribute for a method, and every cycflats module
global bound to the function for a plain function (rank_of_mask_array,
for one, is imported by name into invariants and expansion).  Each
wrapper records a span; a span's self time is its duration minus the
time its child spans cover.  Counters are added at the same boundaries.
Everything stays in memory until the caller reads Tracer.metrics().

Run as a script, this file is the child process of a traced CLI command:

    python3 bench/tracing.py STATS.json ARG...

runs `cycflats ARG...` under the tracer and writes the per-layer totals,
the import time and the in-process time to STATS.json.
"""

import json
import sys
import time
from collections import defaultdict


def _n(M):
    return M.ground.n


# (layer, module, attribute, span?, before, after)
# before(args, kwargs) -> state; after(args, kwargs, result, state, add)
def _targets():
    def masks(a, kw):
        return int(a[1].size)

    def table_missing(a, kw):
        return a[0]._table is None

    def cache_hit(a, kw):
        return a[1] in a[0]._rank_cache

    def minor_entries(a, kw):
        M, d, c = a[0], a[1], a[2]
        return 1 << (_n(M) - bin(d | c).count("1"))

    return [
        ("core.validate_axioms", "cycflats.core", "validate_axioms", True,
         None, lambda a, kw, res, st, add:
         add("core.validate_axioms.flats", len(res.zee))),
        ("core.rank", "cycflats.core", "Matroid.rank", True, cache_hit,
         lambda a, kw, res, st, add: add("core.rank.hits", int(st))),
        ("core.rank_of_mask_array", "cycflats.core", "rank_of_mask_array",
         True, masks, lambda a, kw, res, st, add:
         add("core.rank_of_mask_array.masks", st)),
        ("core.rank_table", "cycflats.core", "Matroid.rank_table", True,
         table_missing, lambda a, kw, res, st, add:
         (add("core.rank_table.builds", 1),
          add("core.rank_table.entries", 1 << _n(a[0]))) if st else None),
        ("core.lam_table", "cycflats.core", "Matroid.lam_table", True,
         None, None),
        ("core.minor", "cycflats.core", "Matroid._minor", True,
         minor_entries, lambda a, kw, res, st, add:
         add("core.minor.table_entries", st)),
        ("core.components", "cycflats.core", "Matroid.components", True,
         None, None),
        ("core.connected_flats", "cycflats.core", "Matroid.connected_flats",
         True, None, None),
        ("core.dual", "cycflats.core", "Matroid.dual", True, None, None),
        ("expansion.expand", "cycflats.expansion", "expand", True,
         None, None),
        ("expansion.deflate", "cycflats.expansion", "deflate_with_map",
         True, None, None),
        ("expansion.matroid_union", "cycflats.expansion", "matroid_union",
         True, None, lambda a, kw, res, st, add:
         add("expansion.matroid_union.table_entries", 1 << _n(res))),
        ("expansion.expand_via_union", "cycflats.expansion",
         "expand_via_union", True, None, None),
        ("connectivity.scan", "cycflats.connectivity", "_scan", False,
         None, lambda a, kw, res, st, add:
         add("connectivity.scan_entries", 1 << _n(a[0]))),
        ("connectivity.tutte_connectivity", "cycflats.connectivity",
         "tutte_connectivity", True, None, None),
        ("connectivity.vertical_connectivity", "cycflats.connectivity",
         "vertical_connectivity", True, None, None),
        ("connectivity.flats_cover", "cycflats.connectivity", "flats_cover",
         True, None, None),
        ("invariants.tutte_polynomial", "cycflats.invariants",
         "tutte_polynomial", True, None, lambda a, kw, res, st, add:
         add("invariants.tutte_polynomial.subsets", 1 << _n(a[0]))),
        ("branchwidth.branch_width_exact", "cycflats.branchwidth",
         "branch_width_exact", True, None, lambda a, kw, res, st, add:
         add("branchwidth.branch_width_exact.partition_work",
             3 ** _n(a[0]))),
        ("branchwidth.verify_tangle", "cycflats.branchwidth",
         "verify_tangle", True, None, lambda a, kw, res, st, add:
         add("branchwidth.verify_tangle.entries", 1 << _n(a[0]))),
        ("branchwidth.decomposition_width", "cycflats.branchwidth",
         "decomposition_width", True, None, None),
        ("classes.positroid_search", "cycflats.classes", "positroid_search",
         True, None, lambda a, kw, res, st, add:
         add("classes.positroid_search.orders_checked", res[1])),
        ("classes.is_positroid_order", "cycflats.classes",
         "is_positroid_order", True, None, None),
        ("classes.presentation_matroid", "cycflats.classes",
         "presentation_matroid", True, None, None),
    ]


# Every per-layer metric, in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    "core.validate_axioms.calls", "core.validate_axioms.flats",
    "core.validate_axioms.self_s",
    "core.rank.calls", "core.rank.cache_hit_ratio", "core.rank.self_s",
    "core.rank_of_mask_array.masks", "core.rank_of_mask_array.self_s",
    "core.rank_table.builds", "core.rank_table.entries",
    "core.rank_table.self_s", "core.lam_table.self_s",
    "core.minor.calls", "core.minor.table_entries", "core.minor.self_s",
    "core.components.self_s", "core.connected_flats.self_s",
    "core.dual.self_s",
    "expansion.expand.self_s", "expansion.deflate.self_s",
    "expansion.matroid_union.self_s", "expansion.expand_via_union.self_s",
    "expansion.matroid_union.table_entries",
    "connectivity.tutte_connectivity.self_s",
    "connectivity.vertical_connectivity.self_s",
    "connectivity.flats_cover.self_s", "connectivity.scan_entries",
    "invariants.tutte_polynomial.subsets",
    "invariants.tutte_polynomial.self_s",
    "branchwidth.branch_width_exact.calls",
    "branchwidth.branch_width_exact.partition_work",
    "branchwidth.branch_width_exact.self_s",
    "branchwidth.verify_tangle.self_s",
    "branchwidth.decomposition_width.self_s",
    "branchwidth.verify_tangle.entries",
    "classes.positroid_search.self_s", "classes.is_positroid_order.self_s",
    "classes.presentation_matroid.self_s",
    "classes.positroid_search.orders_checked",
    "cli.interpreter_s", "cli.import_s", "cli.command_self_s",
    "trace.wall_s", "trace.untraced_wall_s",
]


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.totals = defaultdict(float)
        self.top_s = 0.0          # time covered by outermost spans
        self._stack = []
        self._undo = []

    def add(self, key, value):
        self.totals[key] += value

    def _wrap(self, layer, fn, span, before, after):
        tracer = self

        def traced(*args, **kwargs):
            state = before(args, kwargs) if before else None
            if span:
                tracer._stack.append(0.0)
                t0 = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    child = tracer._stack.pop()
                    if tracer._stack:
                        tracer._stack[-1] += dt
                    else:
                        tracer.top_s += dt
                    tracer.add(layer + ".self_s", dt - child)
                    tracer.add(layer + ".calls", 1)
            else:
                result = fn(*args, **kwargs)
            if after:
                after(args, kwargs, result, state, tracer.add)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "cycflats" or name.startswith("cycflats.")]
        for layer, modname, attr, span, before, after in _targets():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(layer, orig, span, before,
                                              after))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(layer, orig, span, before, after)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo = []

    def metrics(self, extra):
        """Every LAYER_METRICS entry: totals, then the values in extra."""
        t = dict(self.totals)
        for key, value in extra.items():
            t[key] = t.get(key, 0.0) + value
        calls = t.get("core.rank.calls", 0.0)
        t["core.rank.cache_hit_ratio"] = (t.get("core.rank.hits", 0.0)
                                          / calls if calls else 0.0)
        return {name: {"value": t.get(name, 0.0), "unit": unit_of(name)}
                for name in LAYER_METRICS}


def _child(stats_path, argv):
    t0 = time.perf_counter()
    import cycflats.cli
    t1 = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    t2 = time.perf_counter()
    try:
        code = cycflats.cli.main(argv)
    except SystemExit as ex:          # argparse usage errors
        code = ex.code
    t3 = time.perf_counter()
    sys.stdout.flush()
    stats = dict(tracer.totals)
    stats["cli.import_s"] = t1 - t0
    stats["cli.command_self_s"] = (t3 - t2) - tracer.top_s
    stats["cli.in_process_s"] = time.perf_counter() - t0
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(_child(sys.argv[1], sys.argv[2:]))
