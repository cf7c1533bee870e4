"""Outside-in span tracer for the hollowlat layers.

The tracer replaces public functions of the hollowlat modules with wrappers,
in every hollowlat namespace that holds them, and restores them on
``uninstall``.  Nothing inside ``src/`` is changed or imported from here
beyond the modules themselves.

A span is ``(name, start, end, parent, request)``: ``parent`` is the index
of the enclosing span (-1 for a root) and ``request`` the request id the
harness set.  Spans stay in memory until ``write``.  Functions called
millions of times per request (``sum_of``, ``sum_all``, ``is_kind``) get a
counter instead of a span; their time lands in the caller's self time.
"""

from __future__ import annotations

import collections
import functools
import json
import sys
import time
import weakref

LAYERS = ("cli", "report", "modules", "lattice", "spectra", "pshollow")

# Per-layer time metric -> the functions whose self time it sums, as
# "layer.function" or "layer.Class.method".  Names a later version of the
# package no longer has are skipped, so the map may list them.
TIME_METRICS = {
    "cli.parse_s": ("cli.main", "cli.build_parser", "cli.parse_spec"),
    "cli.battery_s": ("cli.run", "cli.module_battery", "cli.lattice_battery",
                      "cli.cmd_submodules", "cli.cmd_spectra", "cli.cmd_pshollow",
                      "cli.cmd_represent", "cli.cmd_minimize", "cli.cmd_verify",
                      "cli.cmd_hasse"),
    "report.render_s": ("report.Report.render_text", "report.Report.render_machine",
                        "cli.emit_dot"),
    "modules.construct_s": ("modules.FiniteModule.__init__",
                            "modules.CosetModule.__init__"),
    "modules.enumerate_s": ("modules.enumerate_submodules", "modules.submodules_within"),
    "modules.bridge_s": ("modules.submodule_lattice",),
    "modules.second_reps_s": ("modules.find_minimal_second_representations",
                              "modules.find_second_submodules",
                              "modules.attached_annihilators"),
    "modules.predicates_s": (
        "modules.is_small", "modules.small_within", "modules.is_second_submodule",
        "modules.is_simple", "modules.is_semisimple_module",
        "modules.is_multiplication_module", "modules.is_comultiplication_module",
        "modules.is_distributive_module", "modules.is_pseudo_distributive_module",
        "modules.is_hollow_module", "modules.is_direct_summand",
        "modules.is_lifting_module", "modules.maximal_hollow_submodules",
        "modules.is_s_lifting_module", "modules.annihilator",
        "modules.kernel_of_ideal", "modules.quotient_module",
        "modules.image_in_quotient", "modules.distinct_ideal_images"),
    "lattice.build_s": ("lattice.build_lattice", "lattice.build_poset"),
    "lattice.action_s": ("lattice.make_action", "lattice.trivial_action",
                         "lattice.is_multiplication", "lattice.is_join_distributive"),
    "lattice.derived_s": ("lattice.dual_action", "lattice.star_action",
                          "lattice.lower_interval", "lattice.quotient"),
    "spectra.spectrum_s": ("spectra.spectrum",),
    "spectra.checkers_s": ("spectra.check_duality_theorem",
                           "spectra.check_spectrum_identities",
                           "spectra.check_double_dual", "spectra.variety",
                           "spectra.is_topological"),
    "pshollow.profile_s": ("pshollow.is_ps_hollow", "pshollow.find_ps_hollow_submodules"),
    "pshollow.search_s": ("pshollow.enumerate_minimal_representations",),
    "pshollow.minimality_s": ("pshollow.minimality_witnesses", "pshollow.is_minimal",
                              "pshollow.make_representation", "pshollow.minimize"),
    "pshollow.checkers_s": (
        "pshollow.is_hollow_ideal", "pshollow.check_min_cover_ideals",
        "pshollow.check_profile_of_sum", "pshollow.verify_first_uniqueness",
        "pshollow.verify_second_uniqueness", "pshollow.check_aligned_equality",
        "pshollow.check_nonsmall_inheritance", "pshollow.check_semisimple_equivalences",
        "pshollow.check_second_rep_equivalences", "pshollow.check_direct_sum_criteria",
        "pshollow.check_hull_disjoint_directness",
        "pshollow.check_hull_inheritance_directness"),
}

SEARCH = "pshollow.enumerate_minimal_representations"
ENUMERATE = "modules.enumerate_submodules"

# Every per-layer metric, in print order, with its unit.
PER_LAYER = (
    ("cli.parse_s", "s"), ("cli.battery_s", "s"), ("report.render_s", "s"),
    ("modules.construct_s", "s"), ("modules.enumerate_s", "s"),
    ("modules.submodules", "count"), ("modules.bridge_s", "s"),
    ("modules.second_reps_s", "s"), ("modules.predicates_s", "s"),
    ("modules.sum_of_calls", "count"),
    ("lattice.build_s", "s"), ("lattice.builds", "count"), ("lattice.action_s", "s"),
    ("lattice.derived_s", "s"),
    ("spectra.spectrum_s", "s"), ("spectra.is_kind_calls", "count"),
    ("spectra.checkers_s", "s"),
    ("pshollow.profile_s", "s"), ("pshollow.search_s", "s"),
    ("pshollow.minimality_s", "s"), ("pshollow.checkers_s", "s"),
    ("pshollow.families_examined", "count"), ("pshollow.representations_found", "count"),
    ("pshollow.search_yield", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)


def _resolve(target: str):
    """(owner, attribute, original) for a "layer.name" or "layer.Class.method"."""
    layer, _, rest = target.partition(".")
    owner = sys.modules.get(f"hollowlat.{layer}")
    if owner is None:
        return None
    *classes, attr = rest.split(".")
    for cls in classes:
        owner = getattr(owner, cls, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        original = owner.__dict__.get(attr)
    else:
        original = getattr(owner, attr, None)
    if not callable(original):
        return None
    return owner, attr, original


class Tracer:
    """Spans and counters for one traced run; install, run requests, uninstall."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[tuple[int, str]] = []  # (index, name) of each open span
        self.counts: collections.Counter = collections.Counter()
        self.request = -1
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._seen_modules: weakref.WeakSet = weakref.WeakSet()

    # -- wrapping ------------------------------------------------------------

    def _span(self, name, fn, on_result=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)  # filled in on exit; its index is the children's parent
            stack.append((index, name))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent, self.request)
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        return wrapper

    def _counter(self, key, fn, only_under=None):
        counts, stack = self.counts, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_under is None or (stack and stack[-1][1] == only_under):
                counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_enumerate(self, args, result):
        # Count each module's submodules once, on its first enumeration.
        module = args[0]
        if module not in self._seen_modules:
            self._seen_modules.add(module)
            self.counts["modules.submodules"] += len(result)

    def _on_search(self, args, result):
        self.counts["pshollow.representations_found"] += len(result)

    def _patch(self, target: str, make):
        found = _resolve(target)
        if found is None:
            self.missing.append(target)
            return
        owner, attr, original = found
        wrapper = make(original)
        if isinstance(owner, type):
            self._patched.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        # A module-level function: replace it in every hollowlat namespace
        # that imported it, so callers in other layers see the wrapper too.
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "hollowlat" or name.startswith("hollowlat.")):
                continue
            if module.__dict__.get(attr) is original:
                self._patched.append((module, attr, original))
                setattr(module, attr, wrapper)

    def install(self) -> None:
        hooks = {ENUMERATE: self._on_enumerate, SEARCH: self._on_search}
        for targets in TIME_METRICS.values():
            for target in targets:
                self._patch(target, lambda fn, t=target: self._span(t, fn, hooks.get(t)))
        self._patch("modules.sum_of", lambda fn: self._counter("modules.sum_of_calls", fn))
        self._patch("modules.sum_all", lambda fn: self._counter(
            "pshollow.families_examined", fn, only_under=SEARCH))
        self._patch("spectra.is_kind", lambda fn: self._counter("spectra.is_kind_calls", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- requests and results -----------------------------------------------

    def call(self, request_id: int, fn, *args):
        """Run fn(*args) as the root span of one request."""
        self.request = request_id
        return self._span("request", fn)(*args)

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child-span time."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = collections.defaultdict(float)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def metrics(self, passes: int, overhead_ratio: float) -> dict[str, float]:
        """Every per-layer metric, per traced pass of the workload."""
        selfs = self.self_times()
        values = {metric: sum(selfs.get(t, 0.0) for t in targets) / passes
                  for metric, targets in TIME_METRICS.items()}
        for key in ("modules.submodules", "modules.sum_of_calls", "spectra.is_kind_calls",
                    "pshollow.families_examined", "pshollow.representations_found"):
            values[key] = self.counts[key] / passes
        values["lattice.builds"] = sum(
            1 for name, *_ in self.spans if name == "lattice.build_lattice") / passes
        examined = values["pshollow.families_examined"]
        values["pshollow.search_yield"] = (
            values["pshollow.representations_found"] / examined if examined else 0.0)
        values["trace.overhead_ratio"] = overhead_ratio
        return {name: values[name] for name, _ in PER_LAYER}

    def layer_shares(self) -> dict[str, float]:
        """Share of request time spent in each layer's own code (self time)."""
        selfs = self.self_times()
        total = sum(selfs.values())
        shares = {layer: 0.0 for layer in LAYERS}
        shares["harness"] = selfs.get("request", 0.0) / total if total else 0.0
        for name, value in selfs.items():
            layer = name.partition(".")[0]
            if layer in shares and name != "request":
                shares[layer] += value / total if total else 0.0
        return shares

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, request in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "request": request}) + "\n")
