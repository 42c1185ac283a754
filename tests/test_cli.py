"""CLI verbs, emit modes and exit codes."""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

import finspace
from finspace import cli
from finspace.cli import main
from finspace.dynamics import build_tower
from finspace.formats import parse_poset_text, serialize_map
from finspace.poset import constant_map


def fixture(name):
    return str(resources.files("finspace.fixtures").joinpath(name))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, "--emit", "json", *argv)
    return code, (json.loads(out) if out else None), err


def test_homology_verb(capsys):
    code, rep, _ = run_json(capsys, "homology", "--poset", fixture("circle4.txt"))
    assert code == 0
    assert rep["betti"] == [1, 1]
    assert rep["euler_characteristic"] == 0


def test_check_verb_map(capsys):
    code, rep, _ = run_json(
        capsys,
        "check",
        "--source", fixture("ex2_3_X.txt"),
        "--target", fixture("ex2_3_Y.txt"),
        "--map", fixture("ex2_3_f.txt"),
    )
    assert code == 0
    assert rep["continuous"] is True
    assert rep["vietoris_like"]["ok"] is False
    assert rep["vietoris_like"]["failing_chain"] == ["M", "N"]


def test_check_verb_multimap(capsys):
    code, rep, _ = run_json(
        capsys,
        "check",
        "--source", fixture("ex2_12_X.txt"),
        "--multimap", fixture("ex2_12_F.txt"),
    )
    assert code == 0
    assert rep["continuity"]["usc"] is True
    assert rep["continuity"]["susc"] is False
    assert rep["vietoris_like"]["ok"] is False
    assert rep["vietoris_like"]["failing_chain"] == ["A", "E"]


@pytest.mark.parametrize("seed", [0, 5])
def test_paper_suite_matches_golden_output(capsys, seed):
    """The JSON report, byte for byte, against a committed copy."""
    golden = Path(__file__).parent / "data" / f"paper_suite_seed{seed}.json"
    code, out, _ = run(capsys, "--emit", "json", "--seed", str(seed), "paper-suite")
    assert code == 0
    assert out.encode() == golden.read_bytes()


@pytest.mark.parametrize("verb, options, name", [
    ("lambda", ("--n", "0", "--m", "2"), "tower_ex2_3_X_lambda.json"),
    ("fixed-chains", ("--from", "1"), "tower_ex2_3_X_fixed_chains.json"),
])
def test_tower_verbs_match_golden_output(capsys, tmp_path, verb, options, name):
    """The S^2 model's tower at depth 2 with its own comparison maps as
    level maps (f_n = h_n), byte for byte against a committed report."""
    X = parse_poset_text(Path(fixture("ex2_3_X.txt")).read_text())
    for n, h in enumerate(build_tower(X, 2).h_maps):
        (tmp_path / f"f{n}.txt").write_text(serialize_map(h))
    code, out, _ = run(
        capsys, "--emit", "json", "tower", verb, "--poset", fixture("ex2_3_X.txt"),
        "--depth", "2", "--maps", str(tmp_path), *options,
    )
    assert code == 0
    assert out.encode() == (Path(__file__).parent / "data" / name).read_bytes()


SRC_FIXTURES = "src/finspace/fixtures/"


@pytest.mark.parametrize("argv, name", [
    (("homology", "--poset", "ex2_3_X.txt"), "homology_ex2_3_X.json"),
    (("lefschetz", "--poset", "ex_postA_X.txt", "--map", "ex_postA_f.txt"),
     "lefschetz_ex_postA.json"),
    (("check", "--source", "ex2_12_X.txt", "--multimap", "ex2_12_F.txt"), "check_ex2_12.json"),
    (("check", "--source", "ex2_3_X.txt", "--target", "ex2_3_Y.txt", "--map", "ex2_3_f.txt"),
     "check_map_ex2_3.json"),
    (("homology", "--poset", "rp2.txt"), "homology_rp2.json"),
    (("compose", "--posets", "ex4_3_X.txt", "ex4_3_X.txt", "ex4_3_X.txt",
      "--multimaps", "ex4_3_G0.txt", "ex4_3_G1.txt"), "compose_ex4_3.json"),
    *((("coincide", "--source", "circle4.txt", "--multimap", "ex2_8_F.txt",
        "--multimap-g", "ex2_8_G.txt", "--case", case), f"coincide_ex2_8_case{case}.json")
      for case in "123"),
    (("coincide", "--source", "ex_postA_X.txt", "--f", "ex_postA_f.txt", "--g", "ex_postA_g.txt"),
     "coincide_ex_postA.json"),
])
def test_single_verbs_match_golden_output(capsys, monkeypatch, argv, name):
    """Each report, byte for byte, against the committed copy that CI diffs.
    A report names its input files as given, so they are given as CI
    does, relative to the repository root."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)
    verb, *options = argv
    options = [SRC_FIXTURES + o if o.endswith(".txt") else o for o in options]
    code, out, _ = run(capsys, "--emit", "json", verb, *options)
    assert code == 0
    assert out.encode() == (root / "tests" / "data" / name).read_bytes()


def test_lefschetz_verb(capsys):
    code, rep, _ = run_json(
        capsys,
        "lefschetz",
        "--poset", fixture("ex_postA_X.txt"),
        "--map", fixture("ex_postA_f.txt"),
    )
    assert code == 0
    assert rep["lambda"] == 1 and rep["chi_fix"] == 1
    assert rep["fixed_points"] == ["C"]
    assert rep["lambda_equals_chi_fix"] is True


def test_coincide_verb(capsys):
    code, rep, _ = run_json(
        capsys,
        "coincide",
        "--source", fixture("ex_postA_X.txt"),
        "--f", fixture("ex_postA_f.txt"),
        "--g", fixture("ex_postA_g.txt"),
    )
    assert code == 0
    assert rep["lambda"] == 1 and rep["witnesses"] == ["B"]


@pytest.mark.parametrize("mode, hypothesis", [("1", "f Vietoris-like"), ("2", "q Vietoris-like")])
def test_coincide_verb_map_multimap(capsys, monkeypatch, mode, hypothesis):
    """The swap of A and B against the up-set multimap of the cone
    A < C > B: the cone is acyclic, so lambda = 1, and C is the one
    coincidence.  Byte for byte against the report that CI diffs."""
    root = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(root)
    code, out, _ = run(
        capsys, "--emit", "json", "coincide", "--source", SRC_FIXTURES + "ex4_2_X.txt",
        "--f", "tests/data/ex4_2_swap.txt", "--multimap", "tests/data/ex4_2_upsets.txt",
        "--mode", mode,
    )
    rep = json.loads(out)
    assert code == 0
    assert rep["variant"] == f"map-multimap mode {mode}" and rep["hypotheses"] == [hypothesis]
    assert rep["lambda"] == 1 and rep["witnesses"] == ["C"] and rep["conclusion_verified"]
    assert out.encode() == (root / "tests" / "data" / f"coincide_ex4_2_mode{mode}.json").read_bytes()


def test_coincide_verb_multimap_multimap_case_1(capsys):
    # Theorem 3.10, case 1, on the 4-point circle: lambda is 0, so the
    # theorem concludes nothing, and every point is a coincidence
    code, rep, _ = run_json(
        capsys, "coincide", "--source", fixture("circle4.txt"),
        "--multimap", fixture("ex2_8_F.txt"), "--multimap-g", fixture("ex2_8_G.txt"),
        "--case", "1",
    )
    assert code == 0
    assert rep["variant"] == "multimap-multimap case 1"
    assert rep["lambda"] == 0 and rep["inconclusive"] is True
    assert rep["witnesses"] == ["A", "B", "C", "D"]


def test_check_verb_map_that_is_not_continuous(capsys, tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("A -> C\nB -> B\nC -> A\n")  # A < C goes to C > A
    code, rep, _ = run_json(
        capsys, "check", "--source", fixture("ex4_2_X.txt"), "--map", str(path),
    )
    assert code == 0
    assert rep["kind"] == "map" and rep["continuous"] is False
    assert rep["violating_pair"] == ["A", "C"] and "vietoris_like" not in rep


def test_compose_verb(capsys):
    code, rep, _ = run_json(
        capsys,
        "compose",
        "--posets", fixture("ex4_3_X.txt"), fixture("ex4_3_X.txt"),
        fixture("ex4_3_X.txt"),
        "--multimaps", fixture("ex4_3_G0.txt"), fixture("ex4_3_G1.txt"),
    )
    assert code == 0
    assert rep["lambda"] != 0
    assert rep["witnesses"] == ["A", "B", "C", "D"]


def test_tower_build_verb(capsys):
    code, rep, _ = run_json(
        capsys, "tower", "build",
        "--poset", fixture("ex2_3_Y.txt"), "--depth", "2",
    )
    assert code == 0
    assert rep["level_sizes"] == [2, 3, 5]
    assert rep["h_vietoris_like"] == [True, True]


def test_tower_build_makes_one_H_per_level(capsys, monkeypatch):
    calls = []
    fiber_H = cli.fiber_H

    def counted(t, n, m):
        calls.append((n, m))
        return fiber_H(t, n, m)

    monkeypatch.setattr(cli, "fiber_H", counted)
    code, rep, _ = run_json(
        capsys, "tower", "build",
        "--poset", fixture("ex2_3_Y.txt"), "--depth", "2",
    )
    assert code == 0
    assert rep["H_has_minima"] == [True, True]
    assert calls == [(0, 1), (1, 2)]


def test_tower_attach_and_lambda(capsys, tmp_path):
    X = parse_poset_text(Path(fixture("ex2_3_Y.txt")).read_text())
    t = build_tower(X, 2)
    (tmp_path / "f0.txt").write_text(
        serialize_map(constant_map(t.levels[1], t.levels[0], "M"))
    )
    (tmp_path / "f1.txt").write_text(
        serialize_map(constant_map(t.levels[2], t.levels[1], ("M",)))
    )
    code, rep, _ = run_json(
        capsys, "tower", "attach",
        "--poset", fixture("ex2_3_Y.txt"), "--depth", "2",
        "--maps", str(tmp_path),
    )
    assert code == 0
    assert rep["fixed_points_per_level"]["1"] == ["(M)"]
    code, rep, _ = run_json(
        capsys, "tower", "lambda",
        "--poset", fixture("ex2_3_Y.txt"), "--depth", "2",
        "--maps", str(tmp_path), "--n", "0", "--m", "2",
    )
    assert code == 0 and rep["lambda"] == 1
    code, rep, _ = run_json(
        capsys, "tower", "fixed-chains",
        "--poset", fixture("ex2_3_Y.txt"), "--depth", "2",
        "--maps", str(tmp_path), "--from", "1",
    )
    assert code == 0
    assert rep["chains"] == [["M", "(M)", "((M))"]]


def test_paper_suite_verb(capsys):
    code, rep, _ = run_json(capsys, "--seed", "7", "paper-suite")
    assert code == 0
    assert rep["passed"] is True
    assert rep["seed"] == 7
    assert len(rep["cases"]) == 10
    assert len(rep["property_suites"]) == 5
    assert all(s["passed"] for s in rep["property_suites"])


def test_exit_code_input_error(capsys):
    code, out, err = run(capsys, "homology", "--poset", "/no/such/file.txt")
    assert code == 2 and "error" in err


def test_exit_code_budget(capsys):
    code, out, err = run(
        capsys, "tower", "build",
        "--poset", fixture("circle4.txt"), "--depth", "3",
        "--size-budget", "10",
    )
    assert code == 3


def test_exit_code_chain_budget(capsys, tmp_path):
    # 2**25 - 1 chains: the enumeration stops at its budget instead
    names = [f"p{i}" for i in range(25)]
    text = "elements: " + " ".join(names) + "\n"
    text += "".join(f"rel: {a} < {b}\n" for a, b in zip(names, names[1:]))
    path = tmp_path / "chain25.txt"
    path.write_text(text)
    code, out, err = run(capsys, "homology", "--poset", str(path))
    assert code == 3 and "budget" in err


def test_text_emit_mode(capsys):
    code, out, err = run(capsys, "homology", "--poset", fixture("circle4.txt"))
    assert code == 0
    assert "betti" in out and "euler_characteristic: 0" in out


def test_deterministic_json(capsys):
    args = ("homology", "--poset", fixture("circle4.txt"))
    _, rep1, _ = run_json(capsys, *args)
    _, rep2, _ = run_json(capsys, *args)
    assert rep1 == rep2


@pytest.mark.parametrize("verb", ["attach", "lambda", "fixed-chains"])
def test_tower_without_maps_is_an_input_error(capsys, verb):
    code, out, err = run(
        capsys, "tower", verb, "--poset", fixture("circle4.txt"), "--depth", "1",
    )
    assert code == 2 and out == ""
    assert f"tower {verb} needs --maps" in err


@pytest.mark.parametrize("given, missing", [
    ((), "--multimap"),
    (("--multimap", "ex2_12_F.txt"), "--multimap-g"),
    (("--g", "ex_postA_g.txt"), "--f"),
])
def test_coincide_without_its_files_is_an_input_error(capsys, given, missing):
    options = [fixture(a) if a.endswith(".txt") else a for a in given]
    code, out, err = run(
        capsys, "coincide", "--source", fixture("ex2_12_X.txt"), *options,
    )
    assert code == 2 and out == ""
    assert f"needs {missing}" in err


def test_cli_imports_no_numpy():
    # a fresh interpreter, importing this copy of the package
    src = str(Path(finspace.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    code = ("import sys, finspace.cli; "
            "assert finspace.__file__.startswith(sys.argv[1]), finspace.__file__; "
            "assert 'numpy' not in sys.modules, 'numpy was imported'")
    done = subprocess.run([sys.executable, "-c", code, src], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
