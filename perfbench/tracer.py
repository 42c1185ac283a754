"""Outside-in tracing of the finspace layers.

The tracer wraps public functions of the package's modules from outside:
each call becomes a span (name, start, end, parent) kept in memory, and a
few calls also add counts computed from their arguments and results.
Nothing under ``src/finspace`` is edited.  Layers are the package's
modules; ``errors`` has no runtime cost and is not traced.

Two traps shape the code:

* ``finspace.homology`` as an attribute is the re-exported *function*, so
  modules are reached through ``importlib.import_module``.
* ``from .x import y`` copies ``y`` into every importing module, so each
  wrapper is rebound wherever the original object is found.

Hot leaf methods such as ``FinitePoset.leq`` (millions of calls a pass)
and the small ``intmat`` helpers are deliberately left unwrapped; their
time is charged to the nearest traced caller.
"""

import contextvars
import functools
import importlib
import sys
from time import perf_counter_ns

LAYERS = (
    "poset", "complexes", "intmat", "homology", "maps", "lefschetz",
    "dynamics", "formats", "cli", "casebook", "random_instances",
)

# module -> traced names; "Class.method" wraps a method, "Class" its __init__
TRACED = {
    "poset": [
        "FinitePoset", "FinitePoset.subposet", "FinitePoset.core",
        "FinitePoset.all_chains", "FinitePoset.euler_characteristic",
        "build_poset", "check_continuous", "are_homotopic",
        "all_monotone_maps",
    ],
    "complexes": [
        "SimplicialComplex.boundary_matrix", "order_complex", "face_poset",
        "barycentric_subdivision_space", "barycentric_subdivision_complex",
        "induced_simplicial_map", "chain_map_of",
    ],
    "intmat": ["matmul", "smith_normal_form", "unimodular_inverse"],
    "homology": [
        "homology", "poset_homology", "is_acyclic", "induced_on_homology",
        "induced_map_of_poset_map", "lefschetz_number", "invert",
    ],
    "maps": [
        "GraphSpace", "is_vietoris_like_map", "is_vietoris_like_multimap",
        "classify_continuity", "induced_multimap_homology",
        "compose_multimaps", "compose_map_then_multimap", "fiber_multimap",
        "selector_from_maxima", "enumerate_selectors",
    ],
    "lefschetz": [
        "classical_lefschetz", "theorem_A", "theorem_B", "theorem_C",
        "theorem_310", "corollary_multimap_coincidence",
        "coincidence_points", "multimap_coincidence_points",
    ],
    "dynamics": [
        "build_tower", "compose_h", "fiber_H", "attach_level_maps",
        "compose_f", "lambda_nm", "fixed_points_of_level",
        "fixed_chain_search",
    ],
    "formats": [
        "parse_poset_text", "parse_map_text", "parse_multimap_text",
        "serialize_poset", "serialize_map", "serialize_multimap",
    ],
    "cli": ["main"],
    "casebook": ["run_all", "run_property_suites"],
    "random_instances": [
        "random_poset", "random_monotone_map", "random_endomorphism",
        "susc_acyclic_multimap", "usc_maxima_multimap",
        "vietoris_map_corpus",
    ],
}


def _shape(M):
    return len(M), (len(M[0]) if M else 0)


def _max_bits(*mats):
    return max((abs(x).bit_length() for M in mats for row in M for x in row),
               default=0)


class Tracer:
    """Span store plus the count hooks; install() patches the package."""

    def __init__(self):
        self.names = []            # span name table
        self.spans = []            # [name_id, start, end, parent, t_in, t_out]
        self.counts = {}
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self._hooks = {
            "poset.core": self._core,
            "poset.all_chains": lambda a, r: self._add("poset.all_chains.chains", len(r)),
            "complexes.order_complex": lambda a, r: self._add(
                "complexes.order_complex.simplices",
                sum(len(level) for level in r.simplices)),
            "complexes.boundary_matrix": self._boundary,
            "intmat.smith_normal_form": self._snf,
            "intmat.matmul": self._matmul,
            "maps.GraphSpace": lambda a, r: self._add("maps.GraphSpace.pairs", len(a[0].space)),
            "maps.enumerate_selectors": lambda a, r: self._add(
                "maps.enumerate_selectors.selectors", len(r)),
        }

    # -- counts ------------------------------------------------------------

    def _add(self, key, k):
        self.counts[key] = self.counts.get(key, 0) + k

    def _core(self, args, result):
        self._add("poset.core.removed", len(args[0]) - len(result))
        self._add("poset.core.points", len(args[0]))

    def _boundary(self, args, M):
        rows, cols = _shape(M)
        self._add("complexes.boundary_matrix.cells", rows * cols)
        self._add("complexes.boundary_matrix.nnz",
                  sum(1 for row in M for x in row if x))

    def _snf(self, args, sf):
        self._add("intmat.smith_normal_form.cells", len(sf.U) * len(sf.V))
        factors = sf.invariant_factors
        self._add("intmat.smith_normal_form.unit_factors",
                  sum(1 for d in factors if d == 1))
        self._add("intmat.smith_normal_form.factors", len(factors))
        bits = _max_bits(sf.S, sf.U, sf.V)
        if bits > self.counts.get("intmat.smith_normal_form.max_bits", 0):
            self.counts["intmat.smith_normal_form.max_bits"] = bits

    def _matmul(self, args, result):
        m, k = _shape(args[0])
        n = _shape(args[1])[1]
        self._add("intmat.matmul.madds", m * k * n)

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn, cache=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, current = self.spans, self._current
        hook = self._hooks.get(name)
        calls_key = name + ".calls"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = perf_counter_ns()
            idx = len(spans)
            span = [name_id, 0, 0, current.get(), t_in, 0]
            spans.append(span)
            token = current.set(idx)
            before = cache.cache_info() if cache else None
            try:
                span[1] = perf_counter_ns()
                result = fn(*args, **kwargs)
                span[2] = perf_counter_ns()
            except BaseException:
                span[2] = span[5] = perf_counter_ns()
                current.reset(token)
                raise
            current.reset(token)
            self._add(calls_key, 1)
            if cache:
                after = cache.cache_info()
                self._add(name + ".hits", after.hits - before.hits)
                self._add(name + ".misses", after.misses - before.misses)
            if hook:
                hook(args, result)
            span[5] = perf_counter_ns()
            return result

        if cache:
            traced.cache_info = cache.cache_info
            traced.cache_clear = cache.cache_clear
        return traced

    def install(self):
        """Wrap every name in TRACED and rebind it across the package."""
        rebind = {}
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"finspace.{layer}")
            for dotted in names:
                owner_name, _, member = dotted.partition(".")
                owner = getattr(mod, owner_name)
                if member:  # a method, traced under its own name
                    fn = owner.__dict__[member]
                    setattr(owner, member, self._wrap(f"{layer}.{member}", fn))
                elif isinstance(owner, type):  # a class: trace construction
                    owner.__init__ = self._wrap(f"{layer}.{dotted}", owner.__init__)
                else:
                    cache = owner if hasattr(owner, "cache_info") else None
                    rebind[id(owner)] = self._wrap(f"{layer}.{dotted}", owner, cache)
        for modname, mod in list(sys.modules.items()):
            if modname != "finspace" and not modname.startswith("finspace."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in rebind:  # originals stay alive in the wrappers
                    setattr(mod, attr, rebind[id(value)])

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    # -- results -----------------------------------------------------------

    def self_times(self):
        """Seconds of self time per span name: own duration minus children.

        A child is charged with its whole wrapper interval, so the
        tracer's own bookkeeping is charged to no layer at all.
        """
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[5] - s[4]
        out = {}
        for s, ns in zip(self.spans, own):
            key = self.names[s[0]]
            out[key] = out.get(key, 0) + ns
        return {k: v / 1e9 for k, v in out.items()}

    def layer_metrics(self):
        """Per-layer metrics of the current pass, keyed as in BENCHMARK.json."""
        selfs = self.self_times()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                v for k, v in selfs.items() if k.split(".", 1)[0] == layer)
        for key, value in selfs.items():
            out[f"{key}.self_s"] = value
        counts = dict(self.counts)
        points = counts.pop("poset.core.points", 0)
        removed = counts.pop("poset.core.removed", 0)
        counts["poset.core.removed_ratio"] = removed / points if points else 0.0
        factors = counts.pop("intmat.smith_normal_form.factors", 0)
        units = counts.pop("intmat.smith_normal_form.unit_factors", 0)
        counts["intmat.smith_normal_form.unit_factor_ratio"] = (
            units / factors if factors else 0.0)
        out.update(counts)
        out["trace.spans"] = len(self.spans)
        return out
