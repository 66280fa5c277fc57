"""Command-line behavior: output lines, JSON determinism, exit codes."""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

from relbgg.cli import build_parser, main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- worked invocations -------------------------------------------------------

def test_bigrade_legendrean_line(capsys):
    code, out, _ = run_cli(capsys, "bigrade", "A4", "--sq", "1,4", "--sp", "1")
    assert code == 0
    assert "(-1,-1): dim 1" in out
    assert "block sizes: 1,3,1" in out


def test_bigrade_path_line(capsys):
    code, out, _ = run_cli(capsys, "bigrade", "A4", "--sq", "1,2", "--sp", "1")
    assert code == 0
    assert "(-1,-1): dim 3" in out


def test_bigrade_rank_one(capsys):
    code, out, _ = run_cli(capsys, "bigrade", "A1", "--sq", "1", "--sp", "1")
    assert code == 0
    for needle in ("(-1,0): dim 1", "(0,0): dim 1", "(1,0): dim 1"):
        assert needle in out


def test_bgg_sequence_lines(capsys):
    code, out, _ = run_cli(
        capsys, "bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0] == "A4[x,x,o,o](-2,1,0,0) --[order 2]-->"
    assert lines[-1] == "A4[x,x,o,o](2,-5,1,0)"


def test_bgg_second_sequence(capsys):
    code, out, _ = run_cli(
        capsys, "bgg", "A4[x,o,o,o](-3,0,1,0)", "--sq", "1,2", "--sp", "1"
    )
    assert code == 0
    assert out.strip().splitlines()[1].startswith("A4[x,x,o,o](-2,-2,2,0)")


def test_bgg_single_bundle(capsys):
    code, out, _ = run_cli(capsys, "bgg", "A1[x](0)", "--sq", "1", "--sp", "1")
    assert code == 0
    assert out.strip() == "A1[x](0)"
    assert "order" not in out


def test_ranks_line(capsys):
    code, out, _ = run_cli(capsys, "ranks", "A4", "--sq", "1,2", "--sp", "1")
    assert code == 0
    assert "dim M = 7, rank T_rho = 3, rank V_-1 = 4" in out


def test_check_torsion_catalog(capsys):
    code, out, _ = run_cli(
        capsys, "check-torsion", "--catalog", "legendrean(3)", "--assume-involutive-F"
    )
    assert code == 0
    assert "part1: PASS part2: PASS" in out


def test_check_torsion_full_catalog_fails_parts(capsys):
    code, out, _ = run_cli(capsys, "check-torsion", "--catalog", "legendrean(3)")
    assert code == 0
    assert "involutivity: FAIL (Λ²F*⊗E)" in out
    assert "part1: FAIL part2: FAIL" in out


def test_check_torsion_custom_support(capsys, tmp_path):
    support = {
        "components": [
            {"in1": [-1, 0], "in2": [-1, -1], "out": [0, -1], "tag": "custom"}
        ]
    }
    path = tmp_path / "support.json"
    path.write_text(json.dumps(support))
    code, out, _ = run_cli(
        capsys,
        "check-torsion", "--type", "A4", "--sq", "1,2", "--sp", "1",
        "--support", str(path),
    )
    assert code == 0
    assert "part1: PASS part2: PASS" in out


def test_audit_reports_zero_violations(capsys):
    code, out, _ = run_cli(capsys, "audit", "A4", "--sq", "1,4", "--sp", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert lines[-1] == "0 violations"


def test_filtration_lines(capsys):
    code, out, _ = run_cli(capsys, "filtration", "A4", "--sq", "1,4", "--sp", "1")
    assert code == 0
    assert "i' range: -1..1" in out
    assert "V_-1: dim 4, steps: (i''=-1: 4) (i''=0: 3)" in out


# -- exit codes ---------------------------------------------------------------

def test_invalid_pair_exits_two(capsys):
    code, _, err = run_cli(capsys, "bigrade", "A4", "--sq", "1", "--sp", "2")
    assert code == 2
    assert "error" in err


def test_malformed_label_exits_two(capsys):
    code, _, err = run_cli(capsys, "bgg", "A4[x,o](1,2)", "--sq", "1,2", "--sp", "1")
    assert code == 2
    assert "error" in err


def test_bad_node_list_exits_two(capsys):
    code, _, err = run_cli(capsys, "bigrade", "A4", "--sq", "1,zebra", "--sp", "1")
    assert code == 2
    assert "malformed node list" in err


def test_unknown_catalog_exits_two(capsys):
    code, _, err = run_cli(capsys, "check-torsion", "--catalog", "nope(3)")
    assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("ranks", "A100000", "--sq", "1", "--sp", "1"),
        ("check-torsion", "--catalog", "legendrean(100000)"),
        ("bgg", "A33[x" + ",o" * 32 + "](0" + ",0" * 32 + ")", "--sq", "1", "--sp", "1"),
    ],
)
def test_rank_above_cap_exits_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert "above the supported maximum 32" in err


def test_huge_hasse_diagram_exits_two_up_front(capsys):
    label = "B18[x" + ",o" * 17 + "](0" + ",0" * 17 + ")"
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bgg", label, "--sq", "1,18", "--sp", "1")
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert err == (
        "error: the relative Hasse diagram has 131072 elements, "
        "above the supported maximum 20000\n"
    )


def test_broken_hasse_walk_exits_three(capsys, monkeypatch):
    import relbgg.bgg as bgg
    from relbgg.roots import _reflect_coords

    def skip_node_3(cols, i, v):  # s_3 acts as the identity
        return v if i == 2 else _reflect_coords(cols, i, v)

    monkeypatch.setattr(bgg, "_reflect_coords", skip_node_3)
    code, out, err = run_cli(capsys, "bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1")
    assert code == 3
    assert out == ""
    assert err == (
        "internal invariant violated: the relative Hasse walk reached 2 points, "
        "not |W_L|/|W_(L&q)| = 4, on A4 sigma_q=[1, 2] sigma_p=[1]\n"
    )


@pytest.mark.parametrize("kind", ["legendrean", "path-geometry"])
def test_catalog_above_cap_names_the_catalog(capsys, kind):
    code, out, err = run_cli(capsys, "check-torsion", "--catalog", f"{kind}(32)")
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1
    assert f"catalog {kind}(32) needs n <= 31" in err
    assert "above the supported maximum 32" in err


def test_catalog_at_cap_runs(capsys):
    code, out, _ = run_cli(capsys, "check-torsion", "--catalog", "legendrean(31)")
    assert code == 0
    assert out.startswith("geometry: legendrean(31)\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("--catalog", "legendrean(3)", "--type", "A4"),
        ("--catalog", "legendrean(3)", "--sq", "1"),
        ("--catalog", "legendrean(3)", "--sp", ""),
        ("--catalog", "legendrean(3)", "--support", "support.json"),
        ("--catalog", "legendrean(31)", "--type", "A4", "--sq", "1", "--sp", "1",
         "--support", "/nonexistent"),
        ("--type", "A4", "--sq", "1,2", "--sp", "1", "--support", "support.json",
         "--assume-involutive-F"),
        ("--type", "A4", "--support", "support.json"),
        ("--type", "A4", "--sq", "1,2", "--support", "support.json"),
    ],
)
def test_conflicting_check_torsion_inputs_exit_two(capsys, tmp_path, monkeypatch, argv):
    (tmp_path / "support.json").write_text('{"components": []}')
    monkeypatch.chdir(tmp_path)
    for flag in ([], ["--json"]):
        code, out, err = run_cli(capsys, "check-torsion", *argv, *flag)
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize(
    "text",
    [
        '{"components": [',
        "[1, 2, 3]",
        '{"components": 5}',
        '{"components": [5]}',
        '{"components": [{"in1": [-1, 0], "in2": [-1, 0]}]}',
        '{"components": [{"in2": [-1, 0], "out": [0, -1]}]}',
        '{"components": [{"in1": [-1], "in2": [-1, 0], "out": [0, -1]}]}',
        '{"components": [{"in1": "ab", "in2": [-1, 0], "out": [0, -1]}]}',
        '{"components": [{"in1": [-1, 0.5], "in2": [-1, 0], "out": [0, -1]}]}',
        '{"components": [{"in1": [-1, 0], "in2": [-1, 0], "out": [0, -1], "tag": 7}]}',
        '{"components": [], "geometry_tag": ["x"]}',
        pytest.param("[" * 100_000 + "]" * 100_000, id="deeply-nested"),
    ],
)
def test_malformed_support_exits_two(capsys, tmp_path, text):
    path = tmp_path / "support.json"
    path.write_text(text)
    code, out, err = run_cli(
        capsys,
        "check-torsion", "--type", "A4", "--sq", "1,2", "--sp", "1",
        "--support", str(path),
    )
    assert code == 2
    assert out == ""
    assert len(err.strip().splitlines()) == 1


# -- JSON reports -------------------------------------------------------------

def test_json_reports_are_deterministic(capsys):
    _, first, _ = run_cli(capsys, "bigrade", "A4", "--sq", "1,4", "--sp", "1", "--json")
    _, second, _ = run_cli(capsys, "bigrade", "A4", "--sq", "1,4", "--sp", "1", "--json")
    assert first == second
    report = json.loads(first)
    assert report["command"] == "bigrade"
    assert report["version"]
    assert report["inputs"]["sigma_q"] == [1, 4]


def test_golden_bigrade(capsys, golden):
    _, out, _ = run_cli(capsys, "bigrade", "A4", "--sq", "1,4", "--sp", "1", "--json")
    golden("bigrade_a4_legendrean.json", out)


def test_golden_bgg(capsys, golden):
    _, out, _ = run_cli(
        capsys, "bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1", "--json"
    )
    golden("bgg_dual_standard.json", out)


def test_golden_ranks(capsys, golden):
    _, out, _ = run_cli(capsys, "ranks", "A4", "--sq", "1,2", "--sp", "1", "--json")
    golden("ranks_path_a4.json", out)


def test_golden_check_torsion(capsys, golden):
    _, out, _ = run_cli(capsys, "check-torsion", "--catalog", "legendrean(3)", "--json")
    golden("check_torsion_legendrean3.json", out)


GOLDEN_REPORTS = [
    ("filtration_a4_legendrean.json", ("filtration", "A4", "--sq", "1,4", "--sp", "1", "--json")),
    ("audit_a4_legendrean.json", ("audit", "A4", "--sq", "1,4", "--sp", "1", "--json")),
    ("bigrade_a4_legendrean.txt", ("bigrade", "A4", "--sq", "1,4", "--sp", "1")),
    ("bigrade_b3.txt", ("bigrade", "B3", "--sq", "1,3", "--sp", "1")),
    ("filtration_a4_legendrean.txt", ("filtration", "A4", "--sq", "1,4", "--sp", "1")),
    ("ranks_path_a4.txt", ("ranks", "A4", "--sq", "1,2", "--sp", "1")),
    ("ranks_a5_two_levels.txt", ("ranks", "A5", "--sq", "1,3,5", "--sp", "1,5")),
    ("bgg_dual_standard.txt", ("bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1")),
    ("check_torsion_legendrean3.txt", ("check-torsion", "--catalog", "legendrean(3)")),
    ("audit_a4_legendrean.txt", ("audit", "A4", "--sq", "1,4", "--sp", "1")),
]
GOLDEN_JSON = [
    ("bigrade_a4_legendrean.json", ("bigrade", "A4", "--sq", "1,4", "--sp", "1", "--json")),
    ("bgg_dual_standard.json", ("bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1", "--json")),
    ("ranks_path_a4.json", ("ranks", "A4", "--sq", "1,2", "--sp", "1", "--json")),
    ("check_torsion_legendrean3.json", ("check-torsion", "--catalog", "legendrean(3)", "--json")),
]


@pytest.mark.parametrize("name, argv", GOLDEN_REPORTS)
def test_golden_reports(capsys, golden, name, argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    golden(name, out)


def test_bgg_json_payload(capsys):
    _, out, _ = run_cli(
        capsys, "bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1", "--json"
    )
    report = json.loads(out)
    entries = report["result"]["entries"]
    assert [e["label"] for e in entries] == [
        "A4[x,x,o,o](-2,1,0,0)",
        "A4[x,x,o,o](0,-3,2,0)",
        "A4[x,x,o,o](1,-4,1,1)",
        "A4[x,x,o,o](2,-5,1,0)",
    ]
    assert [e["order_to_next"] for e in entries] == [2, 1, 1, None]


# -- one parser per process ----------------------------------------------------

def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    for code, argv in [
        (0, ("ranks", "A4", "--sq", "1,2", "--sp", "1")),
        (0, ("bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1", "--json")),
        (0, ("check-torsion", "--catalog", "legendrean(3)")),
        (2, ("bigrade", "A4", "--sq", "1", "--sp", "2")),
        (0, ("ranks", "A4", "--sq", "1,2", "--sp", "1")),
    ]:
        assert run_cli(capsys, *argv)[0] == code, argv
    with pytest.raises(SystemExit):
        main(["filtration", "A4", "--sq", "1,4"])
    # the top-level parser and each of the six subparsers, built once
    assert built.count("relbgg") == 1
    assert len(built) == len(set(built)) == 7


def test_golden_replay_in_one_process_is_byte_identical(capsys, golden):
    runs = GOLDEN_REPORTS + GOLDEN_JSON
    assert sorted(name for name, _ in runs) == sorted(p.name for p in GOLDEN_DIR.iterdir())
    for order, sequence in enumerate((runs, runs[::-1])):
        for name, argv in sequence:
            code, out, err = run_cli(capsys, *argv)
            assert (code, err) == (0, ""), name
            golden(name, out)
        if order == 0:
            with pytest.raises(SystemExit) as exc:
                main(["bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2"])
            assert exc.value.code == 2
            assert "--sp" in capsys.readouterr().err


# -- misc ---------------------------------------------------------------------

def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "relbgg", "ranks", "A4", "--sq", "1,2", "--sp", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "dim M = 7" in proc.stdout


def test_cli_import_pulls_in_no_numpy():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    check = (
        "for m in ('numpy', 'fractions', 'decimal', 'dataclasses', 'inspect'):"
        " assert m not in sys.modules, m"
    )
    proc = subprocess.run(
        [sys.executable, "-c", f"import relbgg.cli, sys\n{check}"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr


def test_listed_runs_complete_quickly(capsys):
    invocations = [
        ("bigrade", "A4", "--sq", "1,4", "--sp", "1"),
        ("bigrade", "A4", "--sq", "1,2", "--sp", "1"),
        ("bgg", "A4[x,o,o,o](-2,1,0,0)", "--sq", "1,2", "--sp", "1"),
        ("bgg", "A4[x,o,o,o](-3,0,1,0)", "--sq", "1,2", "--sp", "1"),
        ("check-torsion", "--catalog", "legendrean(3)", "--assume-involutive-F"),
        ("ranks", "A4", "--sq", "1,2", "--sp", "1"),
        ("audit", "A4", "--sq", "1,4", "--sp", "1"),
    ]
    for argv in invocations:
        start = time.perf_counter()
        code, _, _ = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 1.0, f"{argv} took {elapsed:.2f}s"
