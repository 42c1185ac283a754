"""The four benchmark workloads and their exact-result gate.

Each workload has a set-up that builds its inputs and a pass that runs
the timed operations.  Every operation's result is summarised and
compared with the exact value in ``EXPECTED``; a mismatch, an exception
or a nonzero CLI exit code counts as a failed operation.

The library is always reached through module attributes at call time
(``fs.build_tower``, ``cli.main``), so the tracer's rebinding of those
attributes is seen here too.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

import finspace as fs

# Minimal 6-point model of the 2-sphere: a, b < c, d < e, f.
SPHERE_ELEMENTS = list("abcdef")
SPHERE_RELATIONS = [
    ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
    ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f"),
]
TOWER_DEPTH = 2
CHAIN_POINTS = 10
# paper-suite runs this many consecutive seeds, starting at the benchmark seed
SUITE_SEEDS = 8

EXPECTED = {
    "sphere-lambda": {
        "level2_homology": {"betti": [1, 0, 1], "torsion": [[], [], []]},
        "lambda_0_1": 2,
        "lambda_1_2": 2,
        "lambda_0_2": 2,
    },
    "sphere-certify": {
        "build_tower": [6, 26, 146],
        "h0_vietoris_like": True,
        "h1_vietoris_like": True,
        "attach_certified": 2,
        "fixed_points_level1": 26,
        "fixed_points_level2": 146,
        "fixed_chains_from1": 146,
    },
    "chain-order": {
        "homology": {"betti": [1] + [0] * (CHAIN_POINTS - 1),
                     "torsion": [[]] * CHAIN_POINTS},
        "classical_lefschetz": {"lambda": 1, "chi_fix": 1,
                                "fixed_points": [f"p{CHAIN_POINTS - 1}"]},
    },
    "desk-mix": {
        "paper_suite": {"exit": 0, "passed": True},
        "compose_ex4_3": {"exit": 0, "lambda": 1},
        "coincide_ex_postA": {"exit": 0, "lambda": 1, "witnesses": ["B"]},
        "coincide_ex2_8_case1": {"exit": 0, "lambda": 0, "inconclusive": True},
        "check_ex2_12_multimap": {"exit": 0, "ok": False,
                                  "failing_chain": ["A", "E"], "betti": [1, 2]},
    },
}


def _mod(name):
    # `finspace.homology` as an attribute is the re-exported function
    return importlib.import_module(f"finspace.{name}")


class Gate:
    """Runs operations and counts every result that is not the exact one."""

    def __init__(self, expected):
        self.expected = expected
        self.attempted = 0
        self.failures = []

    def op(self, key, fn, summarize=lambda r: r, expected_key=None):
        """Run ``fn()``; compare ``summarize(result)`` with the expected value.

        Returns the raw result, or None when the operation raised.
        """
        self.attempted += 1
        want = self.expected[expected_key or key]
        try:
            result = fn()
            got = summarize(result)
        except Exception as exc:  # any failure of the library is a failed op
            self.failures.append(f"{key}: raised {type(exc).__name__}: {exc}")
            return None
        if got != want:
            self.failures.append(f"{key}: got {got!r}, expected {want!r}")
        return result


def _profile(hp):
    return {"betti": list(hp.betti), "torsion": [list(t) for t in hp.torsion]}


def _clear_cache():
    _mod("homology").poset_homology.cache_clear()


# -- sphere-lambda ----------------------------------------------------------

def setup_sphere_lambda(seed):
    X = fs.build_poset(SPHERE_ELEMENTS, SPHERE_RELATIONS)
    t = fs.build_tower(X, TOWER_DEPTH)
    # level maps f_n = h_n, attached without certification
    return {"seq": fs.attach_level_maps(t, list(t.h_maps), certify=False)}


def pass_sphere_lambda(inputs, gate):
    seq = inputs["seq"]
    _clear_cache()  # the cache is then reused within the pass only
    gate.op("level2_homology",
            lambda: fs.poset_homology(seq.tower.levels[2]), _profile)
    for n, m in ((0, 1), (1, 2), (0, 2)):
        gate.op(f"lambda_{n}_{m}", lambda: fs.lambda_nm(seq, n, m))


# -- sphere-certify -----------------------------------------------------------

def setup_sphere_certify(seed):
    return {"X": fs.build_poset(SPHERE_ELEMENTS, SPHERE_RELATIONS)}


def pass_sphere_certify(inputs, gate):
    _clear_cache()
    t = gate.op("build_tower", lambda: fs.build_tower(inputs["X"], TOWER_DEPTH),
                lambda t: [len(L) for L in t.levels])
    for n in range(TOWER_DEPTH):
        gate.op(f"h{n}_vietoris_like",
                lambda: fs.is_vietoris_like_map(t.h_maps[n]), lambda c: c.ok)
    seq = gate.op("attach_certified",
                  lambda: fs.attach_level_maps(t, list(t.h_maps), certify=True),
                  lambda s: len(s.F_maps))
    for n1 in range(1, TOWER_DEPTH + 1):
        gate.op(f"fixed_points_level{n1}",
                lambda: fs.fixed_points_of_level(seq, n1), len)
    gate.op("fixed_chains_from1", lambda: fs.fixed_chain_search(seq, 1), len)


# -- chain-order ----------------------------------------------------------------

def setup_chain_order(seed):
    names = [f"p{i}" for i in range(CHAIN_POINTS)]
    X = fs.build_poset(names, list(zip(names, names[1:])))
    shift = {names[i]: names[min(i + 1, CHAIN_POINTS - 1)]
             for i in range(CHAIN_POINTS)}
    return {"X": X, "f": fs.PosetMap(X, X, shift)}


def pass_chain_order(inputs, gate):
    _clear_cache()
    gate.op("homology", lambda: fs.poset_homology(inputs["X"]), _profile)
    _clear_cache()
    gate.op("classical_lefschetz",
            lambda: fs.classical_lefschetz(inputs["f"]),
            lambda r: {"lambda": r.lambda_, "chi_fix": r.chi_fix,
                       "fixed_points": list(r.witnesses)})


# -- desk-mix -----------------------------------------------------------------------

def setup_desk_mix(seed):
    fx = Path(_mod("cli").__file__).parent / "fixtures"

    def p(name):
        return str(fx / name)

    verbs = [
        ("compose_ex4_3",
         ["compose", "--posets", p("ex4_3_X.txt"), p("ex4_3_X.txt"),
          p("ex4_3_X.txt"), "--multimaps", p("ex4_3_G0.txt"),
          p("ex4_3_G1.txt")],
         lambda r: {"lambda": r["lambda"]}),
        ("coincide_ex_postA",
         ["coincide", "--source", p("ex_postA_X.txt"),
          "--f", p("ex_postA_f.txt"), "--g", p("ex_postA_g.txt")],
         lambda r: {"lambda": r["lambda"], "witnesses": r["witnesses"]}),
        ("coincide_ex2_8_case1",
         ["coincide", "--source", p("circle4.txt"),
          "--multimap", p("ex2_8_F.txt"), "--multimap-g", p("ex2_8_G.txt"),
          "--case", "1"],
         lambda r: {"lambda": r["lambda"], "inconclusive": r["inconclusive"]}),
        ("check_ex2_12_multimap",
         ["check", "--source", p("ex2_12_X.txt"),
          "--multimap", p("ex2_12_F.txt")],
         lambda r: {"ok": r["vietoris_like"]["ok"],
                    "failing_chain": r["vietoris_like"]["failing_chain"],
                    "betti": r["vietoris_like"]["betti"]}),
    ]
    suites = [
        (f"paper_suite_seed{k}", ["--seed", str(k), "paper-suite"],
         lambda r: {"passed": r["passed"]})
        for k in range(seed, seed + SUITE_SEEDS)
    ]
    return {"verbs": suites + verbs}


def _run_cli(argv, summarize):
    """One in-process `finspace --emit json ...` invocation, started cold."""
    _clear_cache()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = _mod("cli").main(["--emit", "json", *argv])
    summary = {"exit": code}
    if code == 0:
        summary.update(summarize(json.loads(out.getvalue())))
    return summary


def pass_desk_mix(inputs, gate):
    for key, argv, summarize in inputs["verbs"]:
        expected_key = "paper_suite" if key.startswith("paper_suite") else key
        gate.op(key, lambda: _run_cli(argv, summarize), expected_key=expected_key)


WORKLOADS = {
    "sphere-lambda": (setup_sphere_lambda, pass_sphere_lambda),
    "sphere-certify": (setup_sphere_certify, pass_sphere_certify),
    "chain-order": (setup_chain_order, pass_chain_order),
    "desk-mix": (setup_desk_mix, pass_desk_mix),
}
