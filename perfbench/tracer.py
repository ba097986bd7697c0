"""Per-layer call tracing for the kappalab benchmark.

The tracer never edits the package. It replaces, for the duration of a
``with Tracer(kl) as tr:`` block, the names through which one kappalab module
(or the benchmark) calls a public function of another module, so every call
that crosses a module boundary is counted and timed. Calls a module makes to
its own functions are not wrapped (``build_family`` -> ``build_ag`` inside
``graphs``, ``components`` -> ``component_masks`` inside ``connectivity``),
which keeps the layer totals free of double counting. Two functions are only
ever called from their own module and are wrapped there: ``cli.main`` (the
benchmark calls it) and ``lemmas.sample_subset`` (the sampled-census worker
calls it).

Times are inclusive: ``graphs.build_s`` contains the ranking time that
``perms.rank_s`` also reports. ``kappa.engine_self_s`` is the one self time:
the scan spans minus the connectivity time spent inside them.

Counters live in this process. Calls made inside forked pool workers update
the workers' copies and are lost, which is why the sampled workload takes its
kernel and sampling counters from a jobs=1 pass.
"""

from __future__ import annotations

import resource
import time
from collections import Counter, defaultdict

RANK_FUNCS = ("rank", "even_rank", "unrank", "even_unrank")
BUILD_FUNCS = ("build_ag", "build_splitstar", "build_family")
KERNEL_FUNCS = ("count_components", "is_connected_after", "component_masks")
SCAN_FUNCS = ("kappa_ell_exhaustive", "hyper_connectivity_scan")

# (defining module, function name) for every wrapped public function
TARGETS = (
    [("perms", f) for f in RANK_FUNCS]
    + [("graphs", f) for f in BUILD_FUNCS]
    + [("connectivity", f) for f in KERNEL_FUNCS + ("components",)]
    + [("kappa", f) for f in SCAN_FUNCS + ("construct_paper_cut",)]
    + [("lemmas", "verify_cut_structure"), ("lemmas", "sample_subset")]
    + [("cli", "main")]
)
OWN_MODULE = {("lemmas", "sample_subset"), ("cli", "main")}
MODULES = ("perms", "graphs", "connectivity", "kappa", "lemmas", "cli", "_parallel")


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


class Tracer:
    """Counts and times cross-module calls into kappalab while installed."""

    def __init__(self, kl):
        self.kl = kl
        self.mods = {name: getattr(kl, name) for name in MODULES}
        self.calls: Counter = Counter()
        self.secs: defaultdict = defaultdict(float)
        self.subsets_covered = 0
        self.faults_checked = 0
        self.faults_examined = 0
        self.vertices_built = 0
        self.engine_self_s = 0.0
        self.tasks = 0
        self.pool_start_s = 0.0
        self.dispatch_capacity_s = 0.0  # jobs x wall time inside map/first_hit
        self.worker_cpu_s = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------

    def __enter__(self):
        wrappers = {}
        for mod_name, fn_name in TARGETS:
            fn = getattr(self.mods[mod_name], fn_name)
            wrappers[id(fn)] = (mod_name, fn_name, self._wrap(mod_name, fn_name, fn))
        runner_cls = self.mods["_parallel"].TaskRunner
        traced_runner = self._traced_runner_class(runner_cls)
        for holder in (self.kl, *self.mods.values()):
            for attr, value in list(vars(holder).items()):
                if value is runner_cls and holder is not self.mods["_parallel"]:
                    self._patch(holder, attr, traced_runner)
                    continue
                hit = wrappers.get(id(value))
                if hit is None:
                    continue
                mod_name, fn_name, wrapper = hit
                own = holder is self.mods[mod_name]
                if own and (mod_name, fn_name) not in OWN_MODULE:
                    continue
                self._patch(holder, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    def _patch(self, holder, attr, value):
        self._saved.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    # -- wrappers -------------------------------------------------------

    def _conn_s(self) -> float:
        secs = self.secs
        return sum(secs[f"connectivity.{f}"] for f in KERNEL_FUNCS + ("components",))

    def _wrap(self, mod_name, fn_name, fn):
        key = f"{mod_name}.{fn_name}"
        calls, secs, perf = self.calls, self.secs, time.perf_counter

        # leaf calls, millions per pass: the cheapest wrapper, no result accounting
        if mod_name in ("perms", "connectivity") or fn_name == "sample_subset":
            def hot(*args, **kwargs):
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    secs[key] += perf() - t0
                    calls[key] += 1
            return hot

        def outer(*args, **kwargs):
            c0 = self._conn_s()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                secs[key] += dt
                calls[key] += 1
            self._account(fn_name, result, dt, self._conn_s() - c0)
            return result
        return outer

    def _account(self, fn_name, result, dt, conn_dt):
        if fn_name in SCAN_FUNCS:
            self.engine_self_s += dt - conn_dt
            self.subsets_covered += (
                result.explored if fn_name == "kappa_ell_exhaustive" else result.scanned
            )
        elif fn_name in BUILD_FUNCS:
            self.vertices_built += result.vertex_count
        elif fn_name == "verify_cut_structure":
            self.faults_checked += result.instances_checked
            self.faults_examined += sum(c for _, c in result.outcome_counts)

    def _traced_runner_class(self, base):
        tracer = self
        perf = time.perf_counter

        class TracedTaskRunner(base):
            def __init__(self, jobs, state):
                self._children_cpu0 = children_cpu_s()
                t0 = perf()
                super().__init__(jobs, state)
                tracer.pool_start_s += perf() - t0

            def _timed(self, method, fn, tasks):
                cpu0 = time.process_time()
                t0 = perf()
                try:
                    return method(fn, tasks)
                finally:
                    dt = perf() - t0
                    tracer.dispatch_capacity_s += self.jobs * dt
                    if self._pool is None:
                        tracer.worker_cpu_s += time.process_time() - cpu0

            def map(self, fn, tasks):
                tracer.tasks += len(tasks)
                return self._timed(super().map, fn, tasks)

            def first_hit(self, fn, tasks):
                if self._pool is not None:  # upper bound: waves stop at a hit
                    tracer.tasks += len(tasks)
                    return self._timed(super().first_hit, fn, tasks)

                def counted(task):  # inline: count the tasks actually run
                    tracer.tasks += 1
                    return fn(task)
                return self._timed(super().first_hit, counted, tasks)

            def close(self):
                had_pool = self._pool is not None
                super().close()
                if had_pool:  # workers are reaped by now
                    tracer.worker_cpu_s += children_cpu_s() - self._children_cpu0

        return TracedTaskRunner

    # -- results --------------------------------------------------------

    def _sum(self, keys, table):
        return sum(table[k] for k in keys)

    def kernel_metrics(self) -> dict:
        """Connectivity and sampling counters (the ones lost in pool workers)."""
        kernel = [f"connectivity.{f}" for f in KERNEL_FUNCS]
        kernel_calls = self._sum(kernel, self.calls)
        kernel_s = self._sum(kernel, self.secs)
        return {
            "connectivity.kernel_calls": (kernel_calls, "count"),
            "connectivity.kernel_s": (kernel_s, "s"),
            "connectivity.subsets_per_s": (kernel_calls / kernel_s if kernel_s else 0.0, "1/s"),
            "connectivity.report_calls": (self.calls["connectivity.components"], "count"),
            "connectivity.report_s": (self.secs["connectivity.components"], "s"),
            "lemmas.sample_calls": (self.calls["lemmas.sample_subset"], "count"),
            "lemmas.sample_s": (self.secs["lemmas.sample_subset"], "s"),
        }

    def metrics(self, rows: int) -> dict:
        """Every per-layer metric, keyed by name, as (value, unit)."""
        ranks = [f"perms.{f}" for f in RANK_FUNCS]
        builds = [f"graphs.{f}" for f in BUILD_FUNCS]
        build_s = self._sum(builds, self.secs)
        checked = self.faults_checked
        return {
            "perms.rank_calls": (self._sum(ranks, self.calls), "count"),
            "perms.rank_s": (self._sum(ranks, self.secs), "s"),
            "graphs.build_s": (build_s, "s"),
            "graphs.vertices_per_s": (self.vertices_built / build_s if build_s else 0.0, "1/s"),
            **self.kernel_metrics(),
            "kappa.subsets_covered": (self.subsets_covered, "count"),
            "kappa.level_scan_s": (self.secs["kappa.kappa_ell_exhaustive"], "s"),
            "kappa.hyper_scan_s": (self.secs["kappa.hyper_connectivity_scan"], "s"),
            "kappa.engine_self_s": (self.engine_self_s, "s"),
            "kappa.paper_cut_s": (self.secs["kappa.construct_paper_cut"], "s"),
            "lemmas.faults_checked": (checked, "count"),
            "lemmas.faults_examined": (self.faults_examined, "count"),
            "lemmas.examine_frac": (self.faults_examined / checked if checked else 0.0, "ratio"),
            "lemmas.census_s": (self.secs["lemmas.verify_cut_structure"], "s"),
            "parallel.tasks": (self.tasks, "count"),
            "parallel.pool_start_s": (self.pool_start_s, "s"),
            "parallel.busy_frac": (
                self.worker_cpu_s / self.dispatch_capacity_s
                if self.dispatch_capacity_s else 0.0,
                "ratio",
            ),
            "cli.rows": (rows, "count"),
            "cli.table_s": (self.secs["cli.main"], "s"),
        }
