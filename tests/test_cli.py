import json
import subprocess
import sys
from pathlib import Path

import pytest

from coroots.cli import main, run_check_all
from coroots.diagrams import AffineDiagram
from coroots.moduli import record_from_json
from coroots.rootdata import SimpleType
from coroots.tables import render_diagram
from coroots.diagrams import diagram_of
from coroots.rootdata import parse_type

REPO = Path(__file__).resolve().parent.parent


def run_cli(*argv):
    proc = subprocess.run(
        [sys.executable, "-m", "coroots.cli", *argv],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_components_text(capsys):
    assert main(["components", "--group", "E8", "--center", "trivial"]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("sum d_X = 30 = g")
    assert len([l for l in out.splitlines() if l and l[0].isspace() or l[:1].isdigit()]) >= 12


def test_quotient_text(capsys):
    assert main(["quotient", "--group", "E7", "--center", "full"]) == 0
    out = capsys.readouterr().out
    assert "type F4" in out and "2 x catalog" in out


def test_datum_json_round_trip(capsys):
    assert main(["datum", "--group", "BC3", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    d = AffineDiagram.from_json(payload)
    assert d == diagram_of(parse_type("BC3"))


def test_components_json_round_trip(capsys):
    assert main(["components", "--group", "D4", "--center", "full", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    recs = [record_from_json(o) for o in payload["components"]]
    assert [r.order for r in recs] == [1, 2, 4, 4]
    assert payload["dual_coxeter"] == 6


def test_project_and_clock_commands(capsys):
    assert main(["project", "--group", "E6", "--center", "full"]) == 0
    out = capsys.readouterr().out
    assert "type G2" in out and "matches quotient diagram: True" in out
    assert main(["clock", "--group", "A1", "--center", "trivial"]) == 0
    out = capsys.readouterr().out
    assert "parity class odd" in out


def test_rank_zero_command(capsys):
    assert main(["rank-zero", "--k", "2"]) == 0
    out = capsys.readouterr().out
    for name in ("B3", "D4", "G2"):
        assert name in out


def test_exit_codes():
    code, _, err = run_cli("datum", "--group", "Z9")
    assert code == 2 and "usage" in err
    code, _, err = run_cli("derived", "--group", "G2", "--center", "trivial", "--k", "5")
    assert code == 1 and "divides no node value" in err
    code, _, _ = run_cli("datum", "--group", "A0")
    assert code == 1
    code, _, _ = run_cli("nonsense")
    assert code == 2


def test_non_positive_k_is_a_usage_error():
    for k in ("0", "-1"):
        code, out, err = run_cli("derived", "--group", "G2", "--k", k)
        assert code == 2 and out == ""
        assert f"argument --k: must be a positive integer, got {k}" in err
        code, _, err = run_cli("rank-zero", "--k", k)
        assert code == 2 and "argument --k: must be a positive integer" in err


def test_non_positive_max_rank_is_a_usage_error(tmp_path):
    extras = {
        "check-all": (),
        "paper-tables": ("--out", str(tmp_path)),
        "rank-zero": ("--k", "2"),
    }
    for cmd, extra in extras.items():
        for value in ("0", "-3"):
            code, out, err = run_cli(cmd, "--max-rank", value, *extra)
            assert code == 2 and out == "", (cmd, value)
            assert "argument --max-rank: must be a positive integer" in err


def test_non_integer_k_is_a_usage_error():
    code, _, err = run_cli("rank-zero", "--k", "two")
    assert code == 2 and "argument --k: invalid int value: 'two'" in err


def test_internal_invariant_failure_exits_1(capsys, monkeypatch):
    import coroots.moduli

    def broken(st, sub_):
        raise AssertionError("center nodes not closed under addition")

    monkeypatch.setattr(coroots.moduli, "components_for", broken)
    assert main(["components", "--group", "A2", "--center", "full"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: internal invariant failed: center nodes not closed under addition\n"
    )


def test_render_diagram_single_node():
    from fractions import Fraction as Q

    assert render_diagram(AffineDiagram(((2,),), (7,), (Q(2),))) == "*(7)"


def test_render_diagram_examples():
    out = render_diagram(diagram_of(parse_type("A1")))
    assert "<=4=>" in out
    out = render_diagram(diagram_of(parse_type("G2")))
    assert "=3=>" in out


def test_check_all_small_rank_deterministic():
    lines1, lines2 = [], []
    assert run_check_all(5, lines1.append)
    assert run_check_all(5, lines2.append)
    assert lines1 == lines2
    assert lines1[-1] == "all checks passed"


def test_check_all_full_rank_within_budget():
    import time

    t0 = time.time()
    lines: list[str] = []
    assert run_check_all(12, lines.append)
    elapsed = time.time() - t0
    assert elapsed < 60, f"check-all at rank 12 took {elapsed:.1f}s"


@pytest.mark.slow
def test_check_all_past_the_catalog():
    """check-all sweeps every type up to rank 24, past the rank-12 catalog."""
    code, out, _ = run_cli("check-all", "--max-rank", "24")
    assert code == 0
    assert out.splitlines()[-1] == "all checks passed"


def test_check_all_failure_lines_keep_their_reason(monkeypatch, capsys):
    import coroots.checks as checks
    from coroots.coords import DiagramReport

    monkeypatch.setattr(
        checks, "check_samediags", lambda st, sub_, k: DiagramReport(False, "forced mismatch")
    )

    def broken(st, sub_):
        raise AssertionError("forced invariant")

    monkeypatch.setattr(checks, "check_diagram1", broken)
    monkeypatch.setattr(checks, "counts", lambda m: None)
    assert main(["check-all", "--max-rank", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "FAIL samediags: A1/trivial k=1: forced mismatch" in out
    assert "FAIL samediags: G2/trivial k=2: forced mismatch" in out
    assert "FAIL diagram1: A2/trivial: AssertionError: forced invariant" in out
    assert "FAIL numerology: G2" in out  # a plain False result has no detail
    fails = [line for line in out if line.startswith("FAIL ")]
    assert out[-1] == f"{len(fails)} failures"
    assert "samediags: 0 passed" in out and "diagram1: 0 passed" in out


def test_b2_alias_via_cli(capsys):
    assert main(["datum", "--group", "B2"]) == 0
    out = capsys.readouterr().out
    assert "dual Coxeter number: 3" in out


def test_scripts_run(tmp_path):
    scripts = REPO / "scripts"
    proc = subprocess.run(
        [sys.executable, str(scripts / "run_check_all.py"), "--max-rank", "3"],
        capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 0 and "all checks passed" in proc.stdout
    proc = subprocess.run(
        [sys.executable, str(scripts / "make_tables.py"), "--out", str(tmp_path), "--max-rank", "3"],
        capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 0 and (tmp_path / "torus-k.txt").exists()
    proc = subprocess.run(
        [sys.executable, str(scripts / "survey_moduli.py"), "--max-rank", "4"],
        capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 0 and "D4" in proc.stdout
    for bad in ("0", "-2"):
        proc = subprocess.run(
            [sys.executable, str(scripts / "survey_moduli.py"), "--max-rank", bad],
            capture_output=True, text=True, cwd=REPO,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert "argument --max-rank: must be a positive integer" in proc.stderr


def test_cold_queries_skip_dataclasses_and_tables():
    """A cold query imports neither dataclasses nor the reference tables."""
    code = (
        "import sys\n"
        "from coroots.cli import main\n"
        "main(['components', '--group', 'A2', '--center', 'full'])\n"
        "assert 'dataclasses' not in sys.modules, 'dataclasses imported'\n"
        "main(['datum', '--group', 'A1'])\n"
        "assert 'coroots.tables' not in sys.modules, 'coroots.tables imported'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr
    assert "extended coroot diagram of A1" in proc.stdout


def modules_loaded_by(argv):
    """Exit code of main(argv) in a fresh interpreter, and the coroots
    modules and json it left in sys.modules."""
    code = (
        "import sys\n"
        "from coroots.cli import main\n"
        "try:\n"
        f"    rc = main({argv!r})\n"
        "except SystemExit as exc:\n"
        "    rc = exc.code\n"
        "loaded = [m for m in sys.modules if m.startswith('coroots.') or m == 'json']\n"
        "print(rc, *sorted(loaded))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr
    rc, *loaded = proc.stdout.splitlines()[-1].split()
    return int(rc), set(loaded)


@pytest.mark.parametrize(
    "argv, code",
    [(["datum", "--group", "A1"], 0), (["--help"], 0), (["datum", "--group", "X9"], 2)],
    ids=lambda v: " ".join(v) if isinstance(v, list) else str(v),
)
def test_diagram_queries_load_only_the_diagram_layer(argv, code):
    rc, loaded = modules_loaded_by(argv)
    assert rc == code
    beyond = ("center", "projection", "derived", "numerology", "moduli", "tables", "checks")
    assert loaded.isdisjoint({"json", *(f"coroots.{m}" for m in beyond)}), loaded


def test_project_loads_no_moduli_layer():
    rc, loaded = modules_loaded_by(["project", "--group", "D13", "--center", "full",
                                    "--format", "json"])
    assert rc == 0
    assert loaded.isdisjoint({"coroots.derived", "coroots.numerology", "coroots.moduli"})


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        (["components", "--group", "A13", "--center", "full"],
         ("derived", "projection", "coords", "ambient")),
        (["components", "--group", "C14", "--center", "full"], ("derived",)),
        (["derived", "--group", "D13", "--center", "trivial", "--k", "2"], ("projection",)),
    ],
    ids=["components A13 full", "components C14 full", "derived D13 k=2"],
)
def test_rank_cliff_queries_load_only_the_layers_they_run(argv, unloaded):
    """A13's full quotient is one node, so its components need no
    coordinates; C14's need the torus and its annihilator but not the
    derived diagrams; derived diagrams need coordinates but no root systems."""
    rc, loaded = modules_loaded_by(argv)
    assert rc == 0
    assert loaded.isdisjoint({f"coroots.{m}" for m in unloaded}), loaded


def test_check_all_reads_the_catalog_at_call_time():
    """A catalog_types patched after the CLI is imported, as the benchmark's
    catalog shuffle does, is the one check-all visits."""
    code = (
        "import coroots.cli\n"
        "from coroots import moduli\n"
        "from coroots.rootdata import SimpleType\n"
        "moduli.catalog_types = lambda max_rank=12: [SimpleType('A', 1)]\n"
        "lines = []\n"
        "assert coroots.cli.run_check_all(12, lines.append)\n"
        "print(*lines, sep='\\n')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr
    summary = dict(line.split(": ") for line in proc.stdout.splitlines()[:-1])
    # A1 has two center subgroups; the BC types have no center to check
    assert summary["nu-oracle"] == "1 passed"
    assert summary["diagram1"] == summary["components"] == "2 passed"


@pytest.mark.parametrize(
    "argv",
    [
        ["derived", "--group", "D13", "--center", "trivial", "--k", "2"],
        ["project", "--group", "D13", "--center", "full"],
        ["components", "--group", "A13", "--center", "full"],
        ["components", "--group", "C14", "--center", "full"],
        ["check-all", "--max-rank", "6"],
        ["paper-tables", "--max-rank", "6"],
        ["datum", "--group", "BC3"],
    ],
    ids=" ".join,
)
def test_cold_query_builds_no_datum(argv, tmp_path):
    """Every query reads the bond table only: a cold run neither imports
    coroots.ambient nor builds an ambient root datum."""
    if argv[0] == "paper-tables":
        argv = argv + ["--out", str(tmp_path)]
    code = (
        "import sys\n"
        "from coroots import rootdata\n"
        "from coroots.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('ambient loaded', 'coroots.ambient' in sys.modules)\n"
        "print('datum misses', rootdata.datum.cache_info().misses)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2] == "ambient loaded False"
    assert proc.stdout.splitlines()[-1] == "datum misses 0"


def test_check_all_reports_a_failing_center_and_goes_on(monkeypatch, capsys):
    """A center that fails inside the nu-oracle check is reported as that
    check's failure; the other types are still checked and summarized."""
    from coroots import center

    nu = center.nu

    def failing_nu(st, node):
        if st == SimpleType("A", 3) and node == 2:
            raise AssertionError("forced failure")
        return nu(st, node)

    center.center_group.cache_clear()
    monkeypatch.setattr(center, "nu", failing_nu)
    assert main(["check-all", "--max-rank", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2:] == ["FAIL nu-oracle: A3: AssertionError: forced failure", "1 failures"]
    summary = dict(line.split(": ") for line in lines[:-2])
    assert summary["nu-oracle"] == "11 passed"
    assert set(summary) == {
        "assumption", "clock", "components", "diagram1", "nu-oracle", "numerology", "samediags",
    }


def test_run_check_all_script_rejects_max_rank_0():
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "run_check_all.py"), "--max-rank", "0"],
        capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "argument --max-rank: must be a positive integer" in proc.stderr


def test_make_tables_script_rejects_max_rank_0(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "make_tables.py"),
         "--out", str(tmp_path), "--max-rank", "0"],
        capture_output=True, text=True, cwd=REPO,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "argument --max-rank: must be a positive integer" in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_bc_is_rejected_where_a_group_is_needed(capsys):
    for cmd in ("components", "clock"):
        assert main([cmd, "--group", "BC3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: BC3 is not a group" in captured.err
    assert main(["datum", "--group", "BC3"]) == 0
    assert "extended coroot diagram of BC3" in capsys.readouterr().out


def test_paper_tables_diff_clean(tmp_path):
    """Regenerated tables are byte-identical to the checked-in goldens."""
    code, out, _ = run_cli("paper-tables", "--out", str(tmp_path))
    assert code == 0
    for doc in ("coroot-diagrams", "quotient-diagrams", "fixed-subspace", "torus-k"):
        fresh = (tmp_path / f"{doc}.txt").read_text()
        golden = (REPO / "golden" / f"{doc}.txt").read_text()
        assert fresh == golden, f"{doc} table drifted from the golden copy"


def test_paper_tables_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("COROOTS_TABLE_DIR", str(tmp_path / "envdir"))
    assert main(["paper-tables", "--max-rank", "3"]) == 0
    assert (tmp_path / "envdir" / "coroot-diagrams.txt").exists()
