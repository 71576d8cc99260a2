import gc
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from coroots.cli import build_parser, main, run_check_all
from coroots.diagrams import AffineDiagram
from coroots.rootdata import SimpleType
from coroots.tables import render_diagram
from coroots.diagrams import diagram_of
from coroots.rootdata import parse_type
from oracles import record_from_json

REPO = Path(__file__).resolve().parent.parent
NINES = "9" * 5000  # past int()'s 4,300-digit conversion limit


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
    code, out, err = run_cli("derived", "--group", "G2", "--center", "trivial", "--k", "5")
    assert (code, out, err) == (1, "", "error: 5 divides no node value\n")
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


def test_integer_layer_imports_no_rationals():
    """linalg and rootdata compute in ints: importing them loads neither
    fractions nor decimal."""
    code = (
        "import sys\n"
        "import coroots.linalg, coroots.rootdata\n"
        "loaded = [m for m in ('fractions', 'decimal') if m in sys.modules]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO
    )
    assert proc.returncode == 0, proc.stderr


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
    [
        (["datum", "--group", "A1"], 0),
        (["--help"], 0),
        (["datum", "--group", "X9"], 2),
        (["quotient", "--group", "BC3"], 2),  # BC_n is refused before center loads
    ],
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
        if st == SimpleType("A", 3) and node == 1:
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
    """Every command that takes --center takes a group, and BC_n is none."""
    for argv in (["quotient"], ["project"], ["derived", "--k", "1"], ["components"], ["clock"]):
        assert main([*argv, "--group", "BC3", "--center", "full"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error: BC3 is not a group" in captured.err
    assert main(["datum", "--group", "BC3"]) == 0
    assert "extended coroot diagram of BC3" in capsys.readouterr().out


def pinned_help() -> dict:
    """`coroots ... --help` at 80 columns, as pinned in tests/cli_help.txt."""
    text = (REPO / "tests" / "cli_help.txt").read_text()
    parts = re.split(r"^==> coroots (.*)\n", text, flags=re.M)
    return dict(zip(parts[1::2], parts[2::2]))


@pytest.mark.parametrize("argv, text", pinned_help().items(), ids=list(pinned_help()))
def test_help_text_is_pinned(argv, text, monkeypatch, capsys):
    """argparse wraps to the terminal width, so the width is fixed at 80."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 0
    assert capsys.readouterr().out == text


def test_help_pins_every_subcommand():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    assert set(pinned_help()) == {"--help", *(f"{name} --help" for name in subparsers)}


CENTERED = ("quotient", "project", "components", "clock")


@pytest.mark.parametrize(
    "argv",
    [
        # a bad group spec
        *([cmd, "--group", "Z9"] for cmd in ("datum", *CENTERED)),
        ["derived", "--group", "Z9", "--k", "2"],
        # a bad center spec
        *([cmd, "--group", "A5", "--center", "bogus"] for cmd in CENTERED),
        ["derived", "--group", "A5", "--center", "c_SO", "--k", "2"],
        # a non-positive or non-integer --k or --max-rank
        ["derived", "--group", "G2", "--k", "0"],
        ["derived", "--group", "G2", "--k", "two"],
        ["rank-zero", "--k", "-1"],
        ["rank-zero", "--k", "2", "--max-rank", "x"],
        ["paper-tables", "--max-rank", "0"],
        ["check-all", "--max-rank", "two"],
        # --format where it is not taken
        ["paper-tables", "--format", "json"],
        ["check-all", "--format", "json"],
        # a missing required option
        *([cmd] for cmd in ("datum", *CENTERED, "derived", "rank-zero")),
    ],
    ids=" ".join,
)
def test_usage_errors_print_one_error_line(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert len([line for line in err.splitlines() if "error:" in line]) == 1, err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [["quotient", "--group", "Z9"], ["components", "--group", "BC3"],
     ["derived", "--group", "A5", "--center", "bogus", "--k", "2"]],
    ids=" ".join,
)
def test_usage_error_prints_the_commands_usage(argv):
    """A usage error names the failing command's options, as argparse's own
    errors for that command do."""
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    lines = err.splitlines()
    assert lines[0].startswith("usage error: ")
    assert lines[1].startswith(f"usage: coroots {argv[0]} [-h]")
    assert "--group GROUP" in err
    assert len([line for line in lines if "error:" in line]) == 1, err


def test_paper_tables_diff_clean(tmp_path):
    """Regenerated tables are byte-identical to the checked-in goldens."""
    code, out, _ = run_cli("paper-tables", "--out", str(tmp_path))
    assert code == 0
    for doc in ("coroot-diagrams", "quotient-diagrams", "fixed-subspace", "torus-k"):
        fresh = (tmp_path / f"{doc}.txt").read_text()
        golden = (REPO / "golden" / f"{doc}.txt").read_text()
        assert fresh == golden, f"{doc} table drifted from the golden copy"


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["datum", "--group", "A1001"], "A1001 is above the largest supported rank 1000"),
        (["datum", "--group", "SU(1002)"], "A1001 is above the largest supported rank 1000"),
        (["components", "--group", "Spin(2003)"], "B1001 is above the largest supported rank 1000"),
        (["datum", "--group", "A99999999999999999999"],
         "A99999999999999999999 is above the largest supported rank 1000"),
        (["check-all", "--max-rank", "1001"],
         "--max-rank 1001 is above the largest supported rank 1000"),
        (["rank-zero", "--k", "2", "--max-rank", "1001"],
         "--max-rank 1001 is above the largest supported rank 1000"),
        pytest.param(["check-all", "--max-rank", NINES],
                     f"--max-rank {NINES} is above the largest supported rank 1000",
                     id="check-all --max-rank <5000 nines>-"),
        pytest.param(["rank-zero", "--k", "2", "--max-rank", NINES],
                     f"--max-rank {NINES} is above the largest supported rank 1000",
                     id="rank-zero --k 2 --max-rank <5000 nines>-"),
    ],
    ids=lambda x: " ".join(x) if isinstance(x, list) else "",
)
def test_a_rank_above_the_bound_is_a_usage_error(argv, reason):
    """A rank past rootdata.MAX_RANK is refused before anything is built:
    one usage error line, then the usage line, well inside the timeout.
    A --max-rank past int()'s digit limit is such a rank too."""
    proc = subprocess.run(
        [sys.executable, "-m", "coroots.cli", *argv],
        capture_output=True, text=True, cwd=REPO, timeout=5,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert lines[0] == f"usage error: {reason}"
    assert lines[1].startswith(f"usage: coroots {argv[0]} [-h]")


@pytest.mark.parametrize("spelling", ["A{}", "SU({})", "Spin({})", "Sp({})"])
def test_a_rank_of_thousands_of_digits_is_refused_by_the_bound(spelling):
    """A rank past int()'s digit limit gets the rank bound's usage error,
    not the interpreter's message about its conversion setting."""
    spec = spelling.format("9" * 5000)
    proc = subprocess.run(
        [sys.executable, "-m", "coroots.cli", "datum", "--group", spec],
        capture_output=True, text=True, cwd=REPO, timeout=5,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert lines[0] == f"usage error: {spec} is above the largest supported rank 1000"
    assert lines[1].startswith("usage: coroots datum [-h]")
    assert "digits" not in proc.stderr and "int_max_str_digits" not in proc.stderr


def test_a_k_of_thousands_of_digits_keeps_the_invalid_int_message():
    """--k is no rank: argparse's own message for it stays."""
    code, out, err = run_cli("rank-zero", "--k", NINES)
    assert code == 2 and out == ""
    assert f"argument --k: invalid int value: '{NINES}'" in err
    assert "largest supported rank" not in err


def test_the_largest_supported_rank_parses():
    assert parse_type("A1000") == SimpleType("A", 1000)
    assert parse_type("SU(1001)") == SimpleType("A", 1000)
    assert parse_type("Spin(2000)") == SimpleType("D", 1000)
    with pytest.raises(ValueError, match="above the largest supported rank"):
        parse_type("Sp(2002)")


def test_paper_tables_out_naming_a_file_is_an_error(tmp_path):
    target = tmp_path / "not-a-directory"
    target.write_text("")
    code, out, err = run_cli("paper-tables", "--out", str(target), "--max-rank", "1")
    assert code == 1 and out == ""
    assert len([line for line in err.splitlines() if line.startswith("error:")]) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("spec,reason", [
    ("node:abc", "center node 'abc' is not an integer"),
    ("node:99", "node 99 is not a center node of A5"),
    # an integer too long for int(), and so for a node
    pytest.param(f"node:{NINES}", f"node {NINES} is not a center node of A5",
                 id="node:<5000 nines>"),
])
def test_bad_center_node_is_one_usage_error(spec, reason):
    code, out, err = run_cli("quotient", "--group", "A5", "--center", spec)
    assert code == 2 and out == ""
    assert [line for line in err.splitlines() if line.startswith("usage error:")] == [
        f"usage error: {reason}"
    ]
    assert "Traceback" not in err


@pytest.mark.parametrize("center", ["trivial", "full"])
@pytest.mark.parametrize(
    "argv", [["quotient"], ["project"], ["derived", "--k", "1"], ["components"], ["clock"]],
    ids=" ".join,
)
@pytest.mark.parametrize("group", ["A0", "SU(1)"])
def test_the_trivial_type_has_no_center(group, argv, center, capsys):
    assert main([*argv, "--group", group, "--center", center]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines() if line.startswith("usage error:")] == [
        "usage error: the trivial type A0 has no root datum"
    ]


def test_derived_query_derives_once(capsys):
    """cmd_derived and check_samediags share one cached derived diagram."""
    from coroots.derived import derived

    derived.cache_clear()
    assert main(["derived", "--group", "D30", "--center", "trivial", "--k", "2"]) == 0
    assert derived.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["quotient", "--group", "E7", "--center", "full"],
        ["project", "--group", "D13", "--center", "full"],
        ["derived", "--group", "D30", "--center", "trivial", "--k", "2"],
        ["components", "--group", "C14", "--center", "full"],
        ["clock", "--group", "E7", "--center", "full"],
    ],
    ids=" ".join,
)
def test_a_cold_query_builds_one_catalog_diagram(argv):
    """classify matches candidates on their bond tables, so a query in a
    fresh interpreter builds only its own type's catalog diagram."""
    code = (
        "import contextlib, io\n"
        "from coroots import diagrams\n"
        "from coroots.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n"
        "print(diagrams.diagram_of.cache_info().misses)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"]


@pytest.mark.parametrize(
    "argv",
    [["datum", "--group", "A1"], ["datum", "--group", "A160"], ["check-all", "--max-rank", "3"]],
    ids=" ".join,
)
def test_a_closed_pipe_ends_quietly(argv):
    """The reader closes the pipe before the query writes: exit 141, as a
    tool that SIGPIPE ends, so a cut check-all never reads as a pass, and
    nothing on stderr."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "coroots.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=REPO,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (141, b"")


def test_paper_tables_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("COROOTS_TABLE_DIR", str(tmp_path / "envdir"))
    assert main(["paper-tables", "--max-rank", "3"]) == 0
    assert (tmp_path / "envdir" / "coroot-diagrams.txt").exists()


def test_format_json_is_accepted_by_the_commands_the_readme_lists():
    """README names the subcommands with --format; the others exit 2 on it."""
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    with_format = {
        name for name, sub in subparsers.items()
        if any("--format" in a.option_strings for a in sub._actions)
    }
    assert with_format == {
        "datum", "quotient", "project", "derived", "components", "clock", "rank-zero"
    }
    for name in set(subparsers) - with_format:
        with pytest.raises(SystemExit) as exc:
            main([name, "--format", "json"])
        assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv", [["datum", "--group", "A1"], ["check-all", "--max-rank", "2"]], ids=" ".join
)
def test_a_closed_stdout_is_an_error(argv):
    """With fd 1 closed before start, Python sets sys.stdout to None and
    print writes nowhere; a sweep whose output went nowhere is no pass."""
    proc = subprocess.run(
        ["sh", "-c", '"$0" -m coroots.cli "$@" >&-', sys.executable, *argv],
        capture_output=True, cwd=REPO,
    )
    assert (proc.returncode, proc.stderr) == (1, b"error: stdout is closed\n")


def test_in_process_main_leaves_the_collector_alone(capsys):
    assert main(["datum", "--group", "A1"]) == 0
    assert "extended coroot diagram of A1" in capsys.readouterr().out
    assert gc.get_freeze_count() == 0 and gc.isenabled()


def test_the_program_entry_freezes_the_heap_before_exit():
    """run exits with main's code after moving the heap out of the
    collector's reach; an atexit hook sees the frozen objects."""
    code = (
        "import atexit, gc, sys\n"
        "from coroots import cli\n"
        "atexit.register(lambda: print(gc.get_freeze_count() > 0, file=sys.stderr))\n"
        "sys.argv[1:] = ['derived', '--group', 'G2', '--k', '5']\n"
        "cli.run()\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, cwd=REPO)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: 5 divides no node value\nTrue\n"


def test_the_console_script_is_the_main_block_entry():
    """pyproject's `coroots` script and `python -m coroots.cli` run the
    same function."""
    import ast
    import tomllib

    import coroots.cli

    with open(REPO / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["coroots"]
    module, name = target.split(":")
    assert module == "coroots.cli" and callable(getattr(coroots.cli, name))
    tree = ast.parse((REPO / "src" / "coroots" / "cli.py").read_text())
    block = next(
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    )
    assert [ast.unparse(stmt) for stmt in block.body] == [f"{name}()"]


def test_module_run_writes_the_in_process_bytes(capsysbinary):
    proc = subprocess.run(
        [sys.executable, "-m", "coroots.cli", "datum", "--group", "A160"],
        capture_output=True, cwd=REPO,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert main(["datum", "--group", "A160"]) == 0
    assert capsysbinary.readouterr().out == proc.stdout
