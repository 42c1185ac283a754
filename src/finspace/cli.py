"""Command-line front end.

Verbs map one-to-one onto the library operations; every run produces a
RunReport emitted as JSON or indented text.  Exit codes: 0 success,
1 falsified assertion, 2 input error, 3 budget exhausted.
"""

import argparse
import json
import sys
from pathlib import Path

from .casebook import run_all, run_property_suites
from .dynamics import (
    attach_level_maps,
    build_tower,
    fiber_H,
    fixed_chain_search,
    fixed_points_of_level,
    lambda_nm,
    DEFAULT_SIZE_BUDGET,
)
from .errors import (
    BudgetExceeded,
    FinspaceError,
    InputError,
    SizeBudgetExceeded,
)
from .formats import (
    element_label,
    parse_map_text,
    parse_multimap_text,
    parse_poset_text,
)
from .homology import poset_homology
from .lefschetz import (
    classical_lefschetz,
    corollary_multimap_coincidence,
    theorem_310,
    theorem_A,
    theorem_C,
)
from .maps import (
    classify_continuity,
    is_vietoris_like_map,
    is_vietoris_like_multimap,
)
from .poset import check_continuous

EXIT_OK = 0
EXIT_FALSIFIED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _read_file(path):
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _required(args, dest, verb):
    """The value of the option --dest, which verb needs here."""
    value = getattr(args, dest)
    if value is None:
        raise InputError(f"{verb} needs --{dest.replace('_', '-')}")
    return value


def _load_poset(path):
    return parse_poset_text(_read_file(path))


def _labels(xs):
    return [element_label(x) for x in xs]


def _emit(report, args):
    if args.emit == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        def walk(obj, indent=0):
            pad = "  " * indent
            if isinstance(obj, dict):
                for k in sorted(obj):
                    v = obj[k]
                    if isinstance(v, (dict, list)) and v:
                        print(f"{pad}{k}:")
                        walk(v, indent + 1)
                    else:
                        print(f"{pad}{k}: {v}")
            elif isinstance(obj, list):
                for v in obj:
                    if isinstance(v, (dict, list)):
                        walk(v, indent + 1)
                    else:
                        print(f"{pad}- {v}")
        walk(report)


def cmd_homology(args):
    X = _load_poset(args.poset)
    hp = poset_homology(X)
    report = {
        "command": "homology",
        "poset": args.poset,
        "n_elements": len(X),
        "betti": list(hp.betti),
        "torsion": [list(t) for t in hp.torsion],
        "euler_characteristic": X.euler_characteristic(),
    }
    return report, EXIT_OK


def cmd_check(args):
    src = _load_poset(args.source)
    dst = _load_poset(args.target) if args.target else src
    report = {"command": "check", "source": args.source,
              "target": args.target or args.source}
    if args.map:
        f = parse_map_text(_read_file(args.map), src, dst)
        ok, pair = check_continuous(f)
        report["kind"] = "map"
        report["continuous"] = ok
        if not ok:
            report["violating_pair"] = _labels(pair)
            return report, EXIT_OK
        report["vietoris_like"] = is_vietoris_like_map(f).as_dict()
    else:
        F = parse_multimap_text(_read_file(args.multimap), src, dst)
        report["kind"] = "multimap"
        report["continuity"] = classify_continuity(F).as_dict()
        report["vietoris_like"] = is_vietoris_like_multimap(F).as_dict()
    return report, EXIT_OK


def cmd_lefschetz(args):
    X = _load_poset(args.poset)
    f = parse_map_text(_read_file(args.map), X, X)
    rep = classical_lefschetz(f)
    report = {
        "command": "lefschetz",
        "lambda": rep.lambda_,
        "fixed_points": _labels(rep.witnesses),
        "chi_fix": rep.chi_fix,
        "lambda_equals_chi_fix": rep.lambda_ == rep.chi_fix,
    }
    code = EXIT_OK if rep.lambda_ == rep.chi_fix else EXIT_FALSIFIED
    return report, code


def _theorem_report(rep):
    out = rep.as_dict()
    out["witnesses"] = [w if isinstance(w, str) else element_label(w)
                        for w in rep.witnesses]
    return out


def cmd_coincide(args):
    src = _load_poset(args.source)
    dst = _load_poset(args.target) if args.target else src

    def read(dest):  # the file of --dest, which this variant needs
        return _read_file(_required(args, dest, f"coincide {variant}"))

    if args.g:  # two single-valued maps: coincidence theorem
        variant = "map-map"
        f = parse_map_text(read("f"), src, dst)
        g = parse_map_text(read("g"), src, dst)
        rep = theorem_A(f, g)
    elif args.multimap and args.f:
        variant = f"map-multimap mode {args.mode}"
        f = parse_map_text(read("f"), src, dst)
        F = parse_multimap_text(read("multimap"), src, dst)
        rep = corollary_multimap_coincidence(f, F, mode=args.mode)
    else:
        variant = f"multimap-multimap case {args.case}"
        F = parse_multimap_text(read("multimap"), src, dst)
        G = parse_multimap_text(read("multimap_g"), src, dst)
        rep = theorem_310(F, G, case=args.case)
    report = {"command": "coincide", "variant": variant}
    report.update(_theorem_report(rep))
    code = EXIT_OK if rep.conclusion_verified else EXIT_FALSIFIED
    return report, code


def cmd_compose(args):
    posets = [_load_poset(p) for p in args.posets]
    if len(args.multimaps) != len(posets) - 1:
        raise InputError("need one more poset than multimaps")
    chain = [
        parse_multimap_text(_read_file(m), posets[i], posets[i + 1])
        for i, m in enumerate(args.multimaps)
    ]
    rep = theorem_C(chain)
    report = {"command": "compose", "links": len(chain)}
    report.update(_theorem_report(rep))
    code = EXIT_OK if rep.conclusion_verified else EXIT_FALSIFIED
    return report, code


def _build_tower_from_args(args):
    X0 = _load_poset(args.poset)
    return build_tower(X0, args.depth, size_budget=args.size_budget)


def _attach_from_dir(t, maps_dir):
    seqs = []
    for n in range(t.depth):
        path = Path(maps_dir) / f"f{n}.txt"
        seqs.append(
            parse_map_text(_read_file(path), t.levels[n + 1], t.levels[n])
        )
    return attach_level_maps(t, seqs)


def cmd_tower(args):
    if args.tower_cmd != "build":
        _required(args, "maps", f"tower {args.tower_cmd}")
    t = _build_tower_from_args(args)
    report = {
        "command": f"tower {args.tower_cmd}",
        "depth": t.depth,
        "level_sizes": [len(L) for L in t.levels],
    }
    if args.tower_cmd == "build":
        report["h_vietoris_like"] = [
            is_vietoris_like_map(h).ok for h in t.h_maps
        ]
        report["H_has_minima"] = [
            all(H.target.minimum(H(x)) is not None for x in H.source.elements)
            for H in (fiber_H(t, n, n + 1) for n in range(t.depth))
        ]
        code = EXIT_OK if all(report["h_vietoris_like"]) else EXIT_FALSIFIED
        return report, code
    seq = _attach_from_dir(t, args.maps)
    if args.tower_cmd == "attach":
        report["levels_certified"] = t.depth
        report["fixed_points_per_level"] = {
            str(n1): _labels(fixed_points_of_level(seq, n1))
            for n1 in range(1, t.depth + 1)
        }
        return report, EXIT_OK
    if args.tower_cmd == "lambda":
        report["n"] = args.n
        report["m"] = args.m
        report["lambda"] = lambda_nm(seq, args.n, args.m)
        return report, EXIT_OK
    if args.tower_cmd == "fixed-chains":
        chains = fixed_chain_search(seq, args.from_level)
        report["from_level"] = args.from_level
        report["chains"] = [[element_label(x) for x in c] for c in chains]
        report["count"] = len(chains)
        return report, EXIT_OK
    raise InputError(f"unknown tower subcommand {args.tower_cmd!r}")


def cmd_paper_suite(args):
    cases = run_all()
    suites = run_property_suites(args.seed)
    report = {
        "command": "paper-suite",
        "seed": args.seed,
        "cases": [r.as_dict() for r in cases],
        "property_suites": [r.as_dict() for r in suites],
        "passed": all(r.passed for r in cases + suites),
    }
    code = EXIT_OK if report["passed"] else EXIT_FALSIFIED
    return report, code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="finspace",
        description="Homology, coincidence theorems and subdivision towers "
        "for finite T0 spaces.",
    )
    parser.add_argument("--emit", choices=("json", "text"), default="text")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized suites")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("homology", help="Betti numbers and torsion of a poset")
    p.add_argument("--poset", required=True)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("check", help="continuity and Vietoris-like certificates")
    p.add_argument("--source", required=True)
    p.add_argument("--target")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--map")
    grp.add_argument("--multimap")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("lefschetz", help="Lefschetz number of an endomorphism")
    p.add_argument("--poset", required=True)
    p.add_argument("--map", required=True)
    p.set_defaults(func=cmd_lefschetz)

    p = sub.add_parser("coincide", help="coincidence theorems")
    p.add_argument("--source", required=True)
    p.add_argument("--target")
    p.add_argument("--f", help="single-valued map file")
    p.add_argument("--g", help="second single-valued map file")
    p.add_argument("--multimap", help="multimap file")
    p.add_argument("--multimap-g", dest="multimap_g",
                   help="second multimap file")
    p.add_argument("--mode", type=int, default=1, choices=(1, 2))
    p.add_argument("--case", type=int, default=1, choices=(1, 2, 3))
    p.set_defaults(func=cmd_coincide)

    p = sub.add_parser("compose", help="fixed points of a multimap composition")
    p.add_argument("--posets", nargs="+", required=True)
    p.add_argument("--multimaps", nargs="+", required=True)
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("tower", help="subdivision towers")
    p.add_argument("tower_cmd",
                   choices=("build", "attach", "lambda", "fixed-chains"))
    p.add_argument("--poset", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--size-budget", type=int, default=DEFAULT_SIZE_BUDGET)
    p.add_argument("--maps", help="directory with level maps f0.txt..fN-1.txt")
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--from", dest="from_level", type=int, default=1)
    p.set_defaults(func=cmd_tower)

    p = sub.add_parser(
        "paper-suite",
        help="run all named regression cases and the seeded property suites",
    )
    p.set_defaults(func=cmd_paper_suite)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report, code = args.func(args)
    except (SizeBudgetExceeded, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except FinspaceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
