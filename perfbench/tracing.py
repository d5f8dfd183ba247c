"""Per-layer tracing for the benchmark.

The tracer wraps every public function of each wpml layer module at the
module attributes its callers look up (``from .proofs import derive_bounded``
binds ``wpml.entailment.derive_bounded``, a lazy ``from .lattice import
algebra_validates`` inside a function body reads ``wpml.lattice`` at call
time), so nothing inside ``src/wpml`` changes.  Spans are aggregated in
memory by (name, parent span name): count, inclusive time and self time.
A call of a function that is already open on the span stack (recursion)
runs unwrapped, so recursive kernels are one span.  Generator functions
get one span per ``next()``, so a catalog's time is measured while it is
consumed.

Deterministic counters are read at the same boundaries from arguments and
results, and from the ``ProofSearch`` instances, which are captured by
replacing ``wpml.proofs.ProofSearch`` with a recording subclass.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "formulas",
    "proofs",
    "lattice",
    "lframe",
    "catalog",
    "correspondence",
    "entailment",
    "interpolation",
    "duality",
    "amalgam",
    "generators",
    "sweeps",
)

ROOT = "bench"

# (metric, unit): the per-layer metrics, in BENCHMARK.json order.  Span
# metrics are "<layer>.<function>.calls|ms"; the rest are counters or
# derived below in `layer_metrics`.
SPAN_CALLS = (
    "proofs.derive_bounded",
    "lattice.algebra_validates",
    "lattice.enumerate_homs",
    "entailment.decide_entailment",
    "correspondence.frame_satisfies",
    "lframe.frame_validates",
    "lframe.filters",
    "lframe.fil_f",
)
SPAN_MS = SPAN_CALLS + (
    "proofs.cut_pool",
    "proofs.check_proof",
    "catalog.all_modal_lframes",
    "catalog.all_lattices",
    "correspondence.correspondence_check",
    "correspondence.pullback_preserves",
    "duality.fil_l",
    "duality.round_trip_iso",
    "duality.is_tight",
    "duality.dual_of_hom",
    "amalgam.superamalgamate",
    "amalgam.pullback",
    "amalgam.check_supamal_claim",
    "amalgam.jonsson_filters",
    "generators.sample_vformation",
    "generators.sample_modal_lattice",
    "generators.sample_inclusion_span",
)
COUNTERS = (
    "proofs.expansions",
    "proofs.memo_entries",
    "proofs.cut_pool.size",
    "proofs.screen.calls",
    "proofs.screen.rejects",
    "interpolation.candidates.tried",
    "interpolation.candidates.screened_out",
    "interpolation.obligations",
    "interpolation.pool.size",
    "entailment.frames_searched",
    "entailment.frames_filtered",
    "entailment.verdict.derivable",
    "entailment.verdict.refuted",
    "entailment.verdict.unknown",
    "catalog.all_modal_lframes.frames",
    "amalgam.pullback.points",
)
# Counters that must repeat exactly for a given workload and seed.
DETERMINISTIC = COUNTERS + tuple(f"{name}.calls" for name in SPAN_CALLS) + (
    "proofs.screen.reject_ratio",
)


def per_layer_spec() -> list[tuple[str, str]]:
    spec = []
    spec += [(f"{name}.calls", "count") for name in SPAN_CALLS]
    spec += [(f"{name}.ms", "ms") for name in SPAN_MS]
    spec += [(name, "count") for name in COUNTERS]
    spec.append(("proofs.screen.reject_ratio", "ratio"))
    spec += [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    spec.append(("trace.overhead", "ratio"))
    return spec


class Tracer:
    """Aggregated span recorder; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.stack = [[ROOT, 0.0, 0.0]]
        self.agg: dict[tuple[str, str], list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self.created: dict[str, int] = defaultdict(int)
        self.searches: list = []
        self._patches: list = []
        self._candidate = 0
        self._left_for = -1

    # --- spans -----------------------------------------------------------

    def _close(self, frame) -> None:
        name, start, child = frame
        dur = time.perf_counter() - start
        parent = self.stack[-1]
        parent[2] += dur
        key = (name, parent[0])
        a = self.agg.get(key)
        if a is None:
            a = self.agg[key] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child

    def span(self, name: str, thunk):
        """Run `thunk` as a span named `name` (the benchmark's item roots)."""
        self.stack.append([name, time.perf_counter(), 0.0])
        try:
            return thunk()
        finally:
            self._close(self.stack.pop())

    def _wrap_function(self, name: str, fn):
        tracer = self
        stack = self.stack
        hook = _HOOKS.get(name)
        open_ = [False]

        def wrapper(*args, **kwargs):
            if open_[0]:
                return fn(*args, **kwargs)
            parent = stack[-1][0]
            open_[0] = True
            stack.append([name, time.perf_counter(), 0.0])
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                open_[0] = False
                tracer._close(stack.pop())
                if hook is not None:
                    hook(tracer, parent, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self
        stack = self.stack
        yields = f"{name}.yields"

        def wrapper(*args, **kwargs):
            tracer.created[name] += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    parent = stack[-1][0]
                    stack.append([name, time.perf_counter(), 0.0])
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(stack.pop())
                    tracer.counts[yields] += 1
                    tracer.counts[f"{yields}<{parent}"] += 1
                    if name == "interpolation.enumerate_candidates":
                        tracer._candidate += 1
                    yield item
            finally:
                it.close()

        wrapper.__wrapped__ = fn
        return wrapper

    # --- patching --------------------------------------------------------

    def install(self) -> None:
        """Wrap the layer modules' public functions everywhere wpml binds
        them, and capture ProofSearch instances."""
        wrappers: dict[int, object] = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"wpml.{layer}")
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if inspect.isgeneratorfunction(obj):
                    wrappers[id(obj)] = self._wrap_generator(name, obj)
                else:
                    wrappers[id(obj)] = self._wrap_function(name, obj)
        for modname, module in list(sys.modules.items()):
            if modname != "wpml" and not modname.startswith("wpml."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._patches.append((module, attr, obj))
        proofs = sys.modules["wpml.proofs"]
        original = proofs.ProofSearch
        searches = self.searches

        class RecordedProofSearch(original):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                searches.append(self)

        proofs.ProofSearch = RecordedProofSearch
        self._patches.append((proofs, "ProofSearch", original))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()

    def harvest_searches(self) -> None:
        for search in self.searches:
            self.counts["proofs.expansions"] += search.expansions
            self.counts["proofs.memo_entries"] += len(search.success) + len(
                search.failed_at
            )
        self.searches.clear()

    # --- results ---------------------------------------------------------

    def spans(self) -> list[dict]:
        return [
            {
                "name": name,
                "parent": parent,
                "count": a[0],
                "ms": a[1] * 1e3,
                "self_ms": a[2] * 1e3,
            }
            for (name, parent), a in sorted(self.agg.items())
        ]

    def layer_metrics(self, overhead: float) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        self_ms: dict[str, float] = defaultdict(float)
        for (name, _parent), (count, dur, own) in self.agg.items():
            calls[name] += count
            incl[name] += dur * 1e3
            self_ms[name.split(".", 1)[0]] += own * 1e3
        for name, made in self.created.items():
            calls[name] = made  # a generator's calls are its creations
        c = self.counts
        out: dict[str, float] = {}
        for name in SPAN_CALLS:
            out[f"{name}.calls"] = calls.get(name, 0)
        for name in SPAN_MS:
            out[f"{name}.ms"] = incl.get(name, 0.0)
        derived = {
            "catalog.all_modal_lframes.frames": c["catalog.all_modal_lframes.yields"],
            "interpolation.candidates.tried": c[
                "interpolation.enumerate_candidates.yields"
            ],
            "interpolation.candidates.screened_out": c[
                "interpolation.enumerate_candidates.yields"
            ]
            - c["interpolation.left_obligations"],
            "entailment.frames_filtered": c[
                "catalog.all_modal_lframes.yields<entailment.decide_entailment"
            ]
            - c["entailment.frames_searched"],
        }
        for name in COUNTERS:
            out[name] = derived.get(name, c.get(name, 0))
        screens = c["proofs.screen.calls"]
        out["proofs.screen.reject_ratio"] = (
            c["proofs.screen.rejects"] / screens if screens else 0.0
        )
        for layer in LAYERS:
            out[f"{layer}.self_ms"] = self_ms.get(layer, 0.0)
        out["trace.overhead"] = overhead
        return out


# --- counters read at span boundaries -------------------------------------


def _on_algebra_validates(tracer, parent, result):
    if parent == "proofs.derive_bounded":
        tracer.counts["proofs.screen.calls"] += 1
        if result is not None:
            tracer.counts["proofs.screen.rejects"] += 1


def _on_derive_bounded(tracer, parent, result):
    tracer.harvest_searches()
    if parent == "interpolation.craig_interpolant":
        tracer.counts["interpolation.obligations"] += 1
        # the first obligation after a candidate is its left one
        if tracer._left_for != tracer._candidate:
            tracer._left_for = tracer._candidate
            tracer.counts["interpolation.left_obligations"] += 1


def _on_frame_validates(tracer, parent, result):
    if parent == "entailment.decide_entailment":
        tracer.counts["entailment.frames_searched"] += 1


def _on_decide_entailment(tracer, parent, result):
    if result is not None:
        tracer.counts[f"entailment.verdict.{result.verdict}"] += 1


def _on_size(counter):
    def hook(tracer, parent, result):
        if result is not None:
            tracer.counts[counter] += len(result)

    return hook


def _on_pullback(tracer, parent, result):
    if result is not None:
        tracer.counts["amalgam.pullback.points"] += len(result.points)


_HOOKS = {
    "lattice.algebra_validates": _on_algebra_validates,
    "proofs.derive_bounded": _on_derive_bounded,
    "proofs.cut_pool": _on_size("proofs.cut_pool.size"),
    "interpolation.candidate_pool": _on_size("interpolation.pool.size"),
    "lframe.frame_validates": _on_frame_validates,
    "entailment.decide_entailment": _on_decide_entailment,
    "amalgam.pullback": _on_pullback,
}
