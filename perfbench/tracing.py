"""Per-layer tracing of grassmat, patched in from the benchmark's own files.

Each layer's public entry points are wrapped in spans (name, start, end,
parent), kept in memory until the pass ends.  A name imported into
another module's namespace is patched in every grassmat module that
bound it.  The two hot leaves, `mul_into` and `clean_terms`, run
millions of times per pass, so they record no spans: their calls and
time add to counters and to the enclosing span, whose self time then
excludes them.

LAYERS lists every per-layer metric with the end-to-end metric it
should move and the workloads that exercise it.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Dict, List

from grassmat import cli, gmatrix, grassmann, harness, identities, poly, report, ring, witnesses

# metric, unit, better, end-to-end metric it should move, workloads
LAYERS = [
    ("grassmann.mul_into.calls", "count", "lower", "wall_s", "standard-dense ch-dense-rat"),
    ("grassmann.mul_into.self_s", "s", "lower", "wall_s", "standard-dense ch-dense-rat"),
    ("grassmann.term_pairs", "count", "lower", "wall_s", "standard-dense ch-dense-rat"),
    ("grassmann.ns_per_term_pair", "ns", "lower", "wall_s", "standard-dense ch-dense-rat"),
    ("grassmann.sign_cache_entries", "count", "lower", "peak_rss_mb", "standard-dense ch-dense-rat"),
    ("ring.clean_terms.calls", "count", "lower", "wall_s", "capelli-atoms"),
    ("ring.clean_terms.self_s", "s", "lower", "wall_s", "capelli-atoms"),
    ("ring.clean_terms.empty_share", "ratio", "lower", "wall_s", "capelli-atoms"),
    ("identities.standard_dp.calls", "count", "lower", "wall_s", "standard-dense"),
    ("identities.standard_dp.s", "s", "lower", "wall_s", "standard-dense"),
    ("identities.capelli_dp.calls", "count", "lower", "wall_s", "capelli-atoms"),
    ("identities.capelli_dp.s", "s", "lower", "wall_s", "capelli-atoms"),
    ("identities.dp_transition.calls", "count", "lower", "wall_s", "standard-dense capelli-atoms"),
    ("identities.dp_transition.self_s", "s", "lower", "wall_s", "standard-dense capelli-atoms"),
    ("identities.dp_states", "count", "lower", "wall_s peak_rss_mb", "standard-dense capelli-atoms"),
    ("identities.dp_states_peak", "count", "lower", "peak_rss_mb", "standard-dense capelli-atoms"),
    ("identities.dp_zero_entry_share", "ratio", "lower", "wall_s peak_rss_mb", "standard-dense capelli-atoms"),
    ("identities.standard_naive.s", "s", "lower", "wall_s", "standard-dense"),
    ("gmatrix.matmul.calls", "count", "lower", "wall_s", "capelli-atoms ch-dense-rat"),
    ("gmatrix.matmul.self_s", "s", "lower", "wall_s", "capelli-atoms ch-dense-rat"),
    ("gmatrix.json.s", "s", "lower", "wall_s", "open-search"),
    ("poly.charpoly.calls", "count", "lower", "wall_s", "ch-dense-rat"),
    ("poly.charpoly.s", "s", "lower", "wall_s", "ch-dense-rat"),
    ("poly.at_matrix.calls", "count", "lower", "wall_s", "ch-dense-rat"),
    ("poly.at_matrix.s", "s", "lower", "wall_s", "ch-dense-rat"),
    ("harness.run_campaign.self_s", "s", "lower", "wall_s", "open-search"),
    ("harness.random_grmatrix.s", "s", "lower", "wall_s", "standard-dense ch-dense-rat"),
    ("harness.atoms.s", "s", "lower", "wall_s setup_s", "open-search capelli-atoms"),
    ("harness.search.tuples_considered", "count", "lower", "wall_s", "open-search"),
    ("harness.search.tuples_evaluated", "count", "lower", "wall_s", "open-search"),
    ("harness.search.tuples_pruned", "count", "lower", "wall_s", "open-search"),
    ("witnesses.build.s", "s", "lower", "wall_s", "all"),
    ("cli.main.self_s", "s", "lower", "wall_s", "all"),
    ("report.to_json.s", "s", "lower", "wall_s", "open-search"),
    ("report.json_bytes", "bytes", "lower", "wall_s", "open-search"),
    ("trace.overhead_s", "s", "lower", "none (traced minus untraced wall_s)", "all"),
]

# units of the metrics that repeat exactly from run to run at a fixed seed
EXACT_UNITS = ("count", "ratio", "bytes")

# span name -> (module, attribute path) of every entry point it wraps
SPANS = {
    "identities.standard_dp": [(identities, "standard_dp")],
    "identities.capelli_dp": [(identities, "capelli_dp")],
    "identities.standard_naive": [(identities, "standard_naive")],
    "identities.dp_transition": [(identities, "_dp_transition")],
    "gmatrix.matmul": [(gmatrix, "GrMatrix.__mul__")],
    "gmatrix.json": [(gmatrix, "GrMatrix.to_json"), (gmatrix, "GrMatrix.from_json")],
    "poly.charpoly": [(poly, "charpoly")],
    "poly.at_matrix": [(poly, "Poly.at_matrix")],
    "harness.run_campaign": [(harness, "run_campaign")],
    "harness.random_grmatrix": [(harness, "random_grmatrix")],
    "harness.atoms": [(harness, "atoms")],
    "witnesses.build": [
        (witnesses, "ch_witness"),
        (witnesses, "capelli_witness"),
        (witnesses, "staircase_units"),
        (witnesses, "standard_witness"),
    ],
    "cli.main": [(cli, "main")],
    "report.to_json": [(report, "Report.to_json")],
}


def _grassmat_modules() -> list:
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "grassmat" or name.startswith("grassmat."))
    ]


def rebind(old, new) -> List[tuple]:
    """Point every grassmat module name bound to `old` at `new`.

    Returns the undo list for unpatch().
    """
    undo = []
    for mod in _grassmat_modules():
        for name, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, name, new)
                undo.append((mod, name, old))
    return undo


def unpatch(undo: List[tuple]) -> None:
    for owner, name, old in reversed(undo):
        setattr(owner, name, old)


class Tracer:
    """Spans and leaf counters for one traced pass."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index, leaf_s]
        self.stack: List[int] = []
        self.mul_calls = 0
        self.mul_s = 0.0
        self.term_pairs = 0
        self.clean_calls = 0
        self.clean_s = 0.0
        self.clean_empty = 0
        self.dp_states = 0
        self.dp_peak = 0
        self.dp_entries = 0
        self.dp_zero_entries = 0
        self.json_bytes = 0
        self.missing: List[str] = []  # entry points this version of grassmat lacks
        self._undo: List[tuple] = []

    # ----- wrappers -----

    def _span(self, name: str, fn: Callable, on_result=None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
                if on_result is not None:
                    # bookkeeping time is kept out of the span's self time
                    t = clock()
                    on_result(out)
                    rec[4] += clock() - t
            finally:
                rec[2] = clock()
                stack.pop()
            return out

        return traced

    def _leaf_mul(self, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def mul_into(acc, ta, tb, *rest):
            t = clock()
            fn(acc, ta, tb, *rest)
            dt = clock() - t
            self.mul_calls += 1
            self.mul_s += dt
            self.term_pairs += len(ta) * len(tb)
            if stack:
                spans[stack[-1]][4] += dt

        return mul_into

    def _leaf_clean(self, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def clean_terms(ring, terms):
            t = clock()
            out = fn(ring, terms)
            dt = clock() - t
            self.clean_calls += 1
            self.clean_s += dt
            if not out:
                self.clean_empty += 1
            if stack:
                spans[stack[-1]][4] += dt
            return out

        return clean_terms

    def _dp_layer(self, layer) -> None:
        """State counts from the value _dp_transition returns."""
        states = len(layer)
        self.dp_states += states
        self.dp_peak = max(self.dp_peak, states)
        for mat in layer.values():
            for row in getattr(mat, "rows", ()):
                for e in row:
                    self.dp_entries += 1
                    if not e.terms:
                        self.dp_zero_entries += 1

    def _json_out(self, text) -> None:
        self.json_bytes += len(text)

    # ----- patching -----

    def _wrap(self, name: str, module, path: str) -> None:
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            self.missing.append(f"{module.__name__}.{path}")
            return
        on_result = {
            "identities.dp_transition": self._dp_layer,
            "report.to_json": self._json_out,
        }.get(name)
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self._span(name, raw.__func__, on_result)))
            self._undo.append((owner, attr, raw))
        elif owner_name:
            setattr(owner, attr, self._span(name, raw, on_result))
            self._undo.append((owner, attr, raw))
        else:
            self._undo += rebind(raw, self._span(name, raw, on_result))

    def install(self) -> None:
        mul = getattr(grassmann, "mul_into", None)
        if mul is None:
            self.missing.append("grassmat.grassmann.mul_into")
        else:
            self._undo += rebind(mul, self._leaf_mul(mul))
        for cls in vars(ring).values():
            if isinstance(cls, type) and "clean_terms" in vars(cls):
                raw = vars(cls)["clean_terms"]
                setattr(cls, "clean_terms", self._leaf_clean(raw))
                self._undo.append((cls, "clean_terms", raw))
        for name, targets in SPANS.items():
            for module, path in targets:
                self._wrap(name, module, path)

    def uninstall(self) -> None:
        unpatch(self._undo)
        self._undo = []

    # ----- results -----

    def _by_layer(self) -> Dict[str, list]:
        """name -> [calls, inclusive s of outermost spans, self s]."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, list] = {}
        for i, (name, start, end, parent, leaf) in enumerate(spans):
            rec = out.setdefault(name, [0, 0.0, 0.0])
            rec[0] += 1
            rec[2] += end - start - child[i] - leaf
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                rec[1] += end - start
        return out

    def metrics(self) -> Dict[str, float]:
        by = self._by_layer()

        def calls(name):
            return by.get(name, [0, 0.0, 0.0])[0]

        def incl(name):
            return by.get(name, [0, 0.0, 0.0])[1]

        def self_s(name):
            return by.get(name, [0, 0.0, 0.0])[2]

        def share(part, whole):
            return part / whole if whole else 0.0

        return {
            "grassmann.mul_into.calls": self.mul_calls,
            "grassmann.mul_into.self_s": self.mul_s,
            "grassmann.term_pairs": self.term_pairs,
            "grassmann.ns_per_term_pair": share(self.mul_s * 1e9, self.term_pairs),
            "grassmann.sign_cache_entries": len(getattr(grassmann, "_SIGN_CACHE", ())),
            "ring.clean_terms.calls": self.clean_calls,
            "ring.clean_terms.self_s": self.clean_s,
            "ring.clean_terms.empty_share": share(self.clean_empty, self.clean_calls),
            "identities.standard_dp.calls": calls("identities.standard_dp"),
            "identities.standard_dp.s": incl("identities.standard_dp"),
            "identities.capelli_dp.calls": calls("identities.capelli_dp"),
            "identities.capelli_dp.s": incl("identities.capelli_dp"),
            "identities.dp_transition.calls": calls("identities.dp_transition"),
            "identities.dp_transition.self_s": self_s("identities.dp_transition"),
            "identities.dp_states": self.dp_states,
            "identities.dp_states_peak": self.dp_peak,
            "identities.dp_zero_entry_share": share(self.dp_zero_entries, self.dp_entries),
            "identities.standard_naive.s": incl("identities.standard_naive"),
            "gmatrix.matmul.calls": calls("gmatrix.matmul"),
            "gmatrix.matmul.self_s": self_s("gmatrix.matmul"),
            "gmatrix.json.s": incl("gmatrix.json"),
            "poly.charpoly.calls": calls("poly.charpoly"),
            "poly.charpoly.s": incl("poly.charpoly"),
            "poly.at_matrix.calls": calls("poly.at_matrix"),
            "poly.at_matrix.s": incl("poly.at_matrix"),
            "harness.run_campaign.self_s": self_s("harness.run_campaign"),
            "harness.random_grmatrix.s": incl("harness.random_grmatrix"),
            "harness.atoms.s": incl("harness.atoms"),
            "witnesses.build.s": incl("witnesses.build"),
            "cli.main.self_s": self_s("cli.main"),
            "report.to_json.s": incl("report.to_json"),
            "report.json_bytes": self.json_bytes,
        }
