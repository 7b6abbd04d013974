import ast
import builtins
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from unitals import analysis, cli, veronese
from unitals.cli import main
from unitals.conic import Conic
from unitals.gf import field


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    return code, json.loads(out)


def test_field_command(capsys):
    code, rep = run_json(capsys, "field", "--q", "3")
    assert code == 0
    assert rep["field"] == {"p": 3, "h": 2, "order": 9, "modulus": [1, 0, 1]}
    assert len(rep["exp"]) == 8 and len(rep["log"]) == 9


def test_field_with_explicit_modulus(capsys):
    code, rep = run_json(capsys, "field", "--p", "3", "--h", "2", "--modulus", "2,2,1")
    assert code == 0
    assert rep["field"]["modulus"] == [2, 2, 1]


def test_build_unital_behs(capsys):
    code, rep = run_json(capsys, "build-unital", "--kind", "behs", "--q", "3")
    assert code == 0
    assert rep["cardinality"] == 28
    assert len(rep["points"]) == 28
    assert rep["points"] == sorted(rep["points"])
    assert len(rep["conics"]) == 3


def test_verify_unital_json_and_csv(capsys):
    code, rep = run_json(capsys, "verify-unital", "--kind", "hermitian", "--q", "3")
    assert code == 0
    assert rep["is_unital"] and rep["profile"] == {"1": 28, "4": 63}
    code, out = run_cli(capsys, "verify-unital", "--kind", "hermitian", "--q", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["size,count", "1,28", "4,63"]


def test_verify_unital_from_points_file(tmp_path, capsys):
    bad = tmp_path / "points.json"
    bad.write_text(json.dumps(list(range(28))))
    code, rep = run_json(capsys, "verify-unital", "--q", "3", "--points", str(bad))
    assert code == 1
    assert not rep["is_unital"] and rep["failures"]


def test_points_file_is_reported_as_kind_points(tmp_path, capsys):
    # a set read from --points was not built, whatever --kind says
    path = tmp_path / "points.json"
    path.write_text(json.dumps(list(range(28))))
    for command in ("build-unital", "enum-conics"):
        code, rep = run_json(capsys, command, "--q", "3", "--kind", "hermitian", "--points", str(path))
        assert code == 0 and rep["kind"] == "points"
    code, rep = run_json(capsys, "build-unital", "--q", "3", "--kind", "hermitian")
    assert code == 0 and rep["kind"] == "hermitian"


def test_enum_conics(capsys):
    code, rep = run_json(capsys, "enum-conics", "--kind", "behs", "--q", "3")
    assert code == 0
    assert rep["count"] == 3
    code, rep = run_json(capsys, "enum-conics", "--kind", "hermitian", "--q", "3", "--method", "exhaustive")
    assert code == 0
    assert rep["count"] == 0


def test_classify_pair(capsys):
    code, rep = run_json(capsys, "classify-pair", "--q", "3", "--case", "3", "--k", "4")
    assert code == 0
    assert rep["ptype"] == "hyperosculating"
    assert rep["common_points"] == [[0, 1, 0]]
    assert rep["rank1_member"] == [0, 0, 1, 0, 0, 0]
    code, rep = run_json(
        capsys, "classify-pair", "--q", "3", "--conic", "0,0,1,2,0,0", "--conic2", "0,0,1,1,0,0"
    )
    assert code == 0
    assert rep["ptype"] == "bitangent_real"


def test_cone_residual_case3(capsys):
    code, rep = run_json(capsys, "cone-residual", "--case", "3", "--q", "3", "--k", "4")
    assert code == 0
    assert rep["ok"]
    assert rep["pairs"][0]["residual"] == []


def test_cone_residual_case1_report(capsys):
    code, rep = run_json(capsys, "cone-residual", "--case", "1", "--q", "3")
    assert code == 0
    assert rep["ok"] and rep["exceptional_lines_miss_surface"]
    for pair in rep["pairs"]:
        assert pair["matches_closed_form"]
        for entry in pair["residual"]:
            assert entry["rank"] == 3


def test_cone_residual_exact_at_order_49(capsys):
    code, rep = run_json(capsys, "cone-residual", "--case", "1", "--q", "7", "--workers", "3")
    assert code == 0
    assert rep["sweep"] == "full" and rep["ok"] and rep["exceptional_lines_miss_surface"]
    assert len(rep["pairs"]) == len(rep["ks"]) > 0
    for pair in rep["pairs"]:
        assert pair["matches_closed_form"] and pair["residual_size"] == 48


def test_cone_residual_case1_fails_at_order_5(capsys):
    # k = -1 is admissible for case 1 exactly when -1 is a square and 2 is
    # not, at orders = 5 mod 8; with beta = -1 the exceptional line then
    # passes through z^2, a point of V.  Square orders are 1 mod 8, so the
    # planes of the paper never admit k = -1.
    code, rep = run_json(capsys, "cone-residual", "--p", "5", "--h", "1", "--case", "1")
    assert code == 1
    assert rep["ks"] == [4] and rep["pairs"][0]["matches_closed_form"]
    assert rep["exceptional_lines_miss_surface"] is False
    F = field(5, 1)
    p1, pb = analysis.case1_exceptional_vpoints(F, 4, 4)
    assert (p1, pb) == ((2, 2, 3, 0, 0, 0), (2, 2, 2, 0, 0, 0))
    assert veronese.line_meets_veronese(F, p1, pb) == [(0, 0, 1, 0, 0, 0)]
    assert not any(veronese.line_meets_veronese(F, *analysis.case1_exceptional_vpoints(F, 4, b)) for b in (2, 3))


def test_check_lemma1(capsys):
    code, rep = run_json(capsys, "check", "--claim", "lemma1", "--q", "5")
    assert code == 0
    assert rep["max_size"] == 3 and rep["bound"] == 3 and rep["ok"]


def test_check_lemma2_csv(capsys):
    code, out = run_cli(capsys, "check", "--claim", "lemma2", "--q", "3", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "witness" and len(lines) == 3


def test_check_theorem3(capsys):
    code, rep = run_json(capsys, "check", "--claim", "theorem3", "--q", "3", "--samples", "20", "--seed", "1")
    assert code == 0
    assert rep["ok"] and rep["conics_checked"] == 23


@pytest.mark.parametrize("q", ["2", "4"])
def test_theorem3_refuses_even_q_for_its_own_reason(capsys, q):
    # the classifier is defined through quadratic characters, so the claim
    # says why it is not stated, not that canonical pencils need factor 2
    reason = "external/internal point classification is stated for odd q"
    assert main(["check", "--claim", "theorem3", "--q", q]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and reason in captured.err and "factor-2" not in captured.err
    code, rep = run_json(capsys, "report-all", "--q", q)
    assert code == 0
    (entry,) = [c for c in rep["claims"] if c["claim"] == "theorem3"]
    assert entry["ok"] is None and reason in entry["skipped"]


def test_check_nucleus(capsys):
    code, rep = run_json(capsys, "check", "--claim", "nucleus")
    assert code == 0
    assert rep["ok"] and rep["ovals_checked"] > 0


@pytest.mark.parametrize("error,code", [(RuntimeError, 3), (ValueError, 1)])
def test_nucleus_faults_are_internal_and_misses_are_violations(capsys, monkeypatch, error, code):
    # a ValueError is the nucleus claim failing; anything else is a fault
    def nucleus(self):
        raise error("raised on purpose")

    monkeypatch.setattr(Conic, "nucleus", nucleus)
    assert main(["check", "--claim", "nucleus"]) == code
    captured = capsys.readouterr()
    if code == 1:
        assert json.loads(captured.out)["ok"] is False
    else:
        assert captured.out == "" and captured.err.endswith("RuntimeError: raised on purpose\n")


def test_check_main_q3(capsys):
    code, rep = run_json(capsys, "check", "--claim", "main", "--q", "3")
    assert code == 0
    assert rep["ok"]
    assert rep["behs"]["matches_construction"]
    assert rep["behs"]["certificate"]["signature"] == "BEHS"
    assert rep["hermitian"]["conics_contained"] == 0


def test_usage_errors(capsys):
    code, _ = run_cli(capsys, "field", "--q", "6")  # not a prime power
    assert code == 2
    code, _ = run_cli(capsys, "classify-pair", "--q", "3")  # no pair given
    assert code == 2
    code, _ = run_cli(capsys, "build-unital", "--q", "3", "--format", "csv")  # no csv table here
    assert code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        "classify-pair --q 3 --conic 1,2,3,4,5,99 --conic2 1,0,0,0,0,0",
        "build-unital --q 3 --t 99",
        "classify-pair --q 3 --case 1 --k 99",
        "cone-residual --q 3 --case 3 --k -3",
        "field --q 12",
        "cone-residual --q 3 --case 1 --k 2",
        "cone-residual --p 2 --h 2 --case 1",
        "field --p 3 --h 2 --modulus 4,0,1",
        "field --p 3 --h 2 --modulus=-2,0,1",
        "field --p 3 --h 2 --modulus 5,0,1",
        "check --claim afkl --q 5 --samples -5",
        "check --claim theorem3 --q 3 --samples -50",
        "report-all --q 3 --samples -1",
        "check --claim afkl --q 3",
        "check --claim lemma1 --q 4",
        "check --claim lemma2 --q 2",
        "check --claim lemma2 --q 4",
        "enum-conics --q 9 --method exhaustive --kind hermitian",
        "build-unital --q 3 --kind hermitian --t 1",
        "verify-unital --q 3 --kind hermitian --t 1",
        "enum-conics --q 3 --points - --t 1",
        "check --claim lemma1 --p 3 --h 3",
        "build-unital --p 3 --h 1",
        "check --claim main --p 2 --h 3",
        "report-all --p 3 --h 3",
    ],
)
def test_bad_input_is_a_usage_error(capsys, argv):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    if argv == "field --q 12":
        assert "12 is not a prime power" in captured.err
    if "modulus" in argv:
        # the coefficient as typed, not its residue mod p
        bad = argv.split("modulus")[1].strip(" =").split(",")[0]
        assert f"modulus coefficient {bad} is not in 0..2" in captured.err
    if argv.endswith("--k 2"):
        assert "admissible: 3, 6" in captured.err
    if "--p 2 --h 2" in argv:
        assert "odd characteristic" in captured.err
    if "--samples" in argv:
        assert "--samples must be at least 0" in captured.err
    if argv == "check --claim afkl --q 3":
        assert "orders >= 17" in captured.err
    if "lemma" in argv and "--q" in argv:
        assert "concern odd q" in captured.err
    if "exhaustive" in argv:
        assert "plane order 81 is above 25" in captured.err
    if "--t 1" in argv:
        # --t is refused before --points reads stdin
        other = "--points" if "--points" in argv else "--kind hermitian"
        assert f"cannot be given with {other}" in captured.err
    if argv.endswith(("--h 1", "--h 3")):
        words = argv.split()
        p, h = (int(words[words.index(flag) + 1]) for flag in ("--p", "--h"))
        assert f"plane order {p**h} is not a square" in captured.err


def test_internal_error_exits_3(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(cli, "cmd_field", broken)
    assert main(["field", "--q", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("Traceback")
    assert captured.err.endswith("RuntimeError: broken on purpose\n")


def test_only_cli_speaks_json():
    # the library returns dataclasses; cli alone turns them into JSON
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        imported = {a.name for n in nodes if isinstance(n, ast.Import) for a in n.names}
        imported |= {n.module for n in nodes if isinstance(n, ast.ImportFrom) and n.level == 0}
        defined = {n.name for n in nodes if isinstance(n, ast.FunctionDef)}
        assert "to_json" not in defined, path.name
        assert path.name == "cli.py" or "json" not in imported, path.name


def test_not_stated_is_the_only_exception_class():
    # every other refusal is a plain ValueError, so report-all, which skips
    # NotStated alone, cannot mistake a library refusal for an unstated claim
    builtin = {name for name, obj in vars(builtins).items() if isinstance(obj, type) and issubclass(obj, BaseException)}
    classes = [
        node
        for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    ]
    bases = {c.name: {getattr(b, "id", getattr(b, "attr", None)) for b in c.bases} for c in classes}
    found = set()
    for _ in classes:  # a subclass of a class found so far is found next round
        found = {name for name, names in bases.items() if names & (builtin | found)}
    assert found == {"NotStated"}


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_back_to_back_calls_share_no_state(capsys):
    code, out = run_cli(capsys, "field", "--q", "3", "--format", "text")
    assert code == 0 and out.startswith("field:")
    code, rep = run_json(capsys, "field", "--q", "3")  # JSON again, the default
    assert code == 0 and rep["field"]["order"] == 9
    code, rep = run_json(capsys, "check", "--claim", "theorem3", "--q", "3", "--samples", "5")
    assert code == 0 and rep["conics_checked"] == 8
    code, rep = run_json(capsys, "check", "--claim", "theorem3", "--q", "3")
    assert code == 0 and rep["conics_checked"] == 103
    assert run_cli(capsys, "field", "--q", "6")[0] == 2
    assert run_cli(capsys, "field", "--q", "3")[0] == 0
    with pytest.raises(SystemExit):
        main(["field", "--q", "3", "--no-such-option"])
    assert run_cli(capsys, "field", "--q", "3")[0] == 0


# -- fuzzing the command line ---------------------------------------------------------

# each option's values as (valid, invalid), where "valid" means in range, not
# necessarily accepted by every command; the field options, --modulus
# included, come as a unit, so that every valid plane has order at most 9
_FIELD_ARGS = (
    [
        ["--q", "3"],
        ["--q", "3", "--modulus", "2,2,1"],
        ["--q", "2"],
        ["--p", "3", "--h", "2"],
        ["--p", "3", "--h", "2", "--modulus", "1,0,1"],
        ["--p", "2", "--h", "2"],
        ["--p", "2", "--h", "1"],
        ["--p", "2", "--h", "3", "--modulus", "1,1,0,1"],
        ["--p", "3", "--h", "1"],
        ["--p", "5", "--h", "1", "--modulus", "1,1"],
        ["--p", "7", "--h", "1"],
    ],
    [
        [],
        ["--q", "-1"],
        ["--q", "0"],
        ["--q", "6"],
        ["--q", "12"],
        ["--p", "4", "--h", "1"],
        ["--p", "-3", "--h", "1"],
        ["--p", "3", "--h", "0"],
        ["--p", "3", "--h", "-2"],
        ["--p", "3"],
        ["--h", "2"],
        ["--q", "3", "--modulus", "1,1,1"],  # reducible
        ["--q", "3", "--modulus", "1,1"],  # wrong degree
        ["--q", "3", "--modulus", "5,0,1"],
        ["--q", "3", "--modulus", "-2,0,1"],
        ["--q", "3", "--modulus", "x"],
        ["--p", "2", "--h", "2", "--modulus", "1,0,1"],
    ],
)
_ELEMENTS = ([str(a) for a in range(9)], ["9", "99", "-1", "-3", "x"])
_CONICS = (
    ["1,0,0,0,0,0", "0,0,1,2,0,0", "0,0,1,1,0,0", "1,1,1,0,0,0", "0,0,0,1,1,1", "2,0,1,0,0,1"],
    ["1,2,3,4,5,99", "1,-1,0,0,0,0", "0,0,0,0,0,0", "1,2", "1,2,3,4,5,6,7", "a,b,c,d,e,f"],
)


def _subcommands():
    """Subcommand name -> its parser."""
    return next(a for a in cli.build_parser()._actions if isinstance(a.choices, dict)).choices


# the claims check runs, as its parser offers them
(_check,) = [a for a in _subcommands()["check"]._actions if a.dest == "claim"]

# --points names a file of the points_files fixture
_VALUES = {
    "--format": (["json", "csv", "text"], ["yaml"]),
    "--seed": (["0", "7", "-1"], ["x"]),
    "--workers": (["1", "3", "0", "-1"], ["x"]),
    "--kind": (["behs", "hermitian"], ["classical"]),
    "--t": _ELEMENTS,
    "--points": (["valid", "plane", "empty"], ["outside", "negative", "bools", "object", "garbage", "missing"]),
    "--method": (["auto", "pencil", "exhaustive"], ["fast"]),
    "--case": (["1", "2", "3"], ["0", "-1", "4"]),
    "--k": _ELEMENTS,
    "--k2": _ELEMENTS,
    "--conic": _CONICS,
    "--conic2": _CONICS,
    "--claim": (_check.choices, ["bogus"]),
    "--samples": (["0", "3", "20"], ["-5"]),
}


def _command_options():
    """Subcommand name -> [(option string, required)] for its options besides
    the field options, read off the parser."""
    skip = {"-h", "--help", "--q", "--p", "--h", "--modulus"}
    return {
        name: [(a.option_strings[0], a.required) for a in sp._actions if a.option_strings[0] not in skip]
        for name, sp in _subcommands().items()
    }


_COMMANDS = _command_options()


@st.composite
def _argvs(draw):
    def pick(values):
        valid, invalid = values
        return draw(st.sampled_from(invalid if draw(st.integers(0, 7)) == 0 else valid))

    command = draw(st.sampled_from(sorted(_COMMANDS) + ["no-such-command"]))
    argv = [command] + pick(_FIELD_ARGS)
    # a required option is left out now and then, any other one half the time
    names = [name for name, required in _COMMANDS.get(command, []) if draw(st.integers(0, 7 if required else 1))]
    if draw(st.integers(0, 7)) == 0:  # now and then an option of another command
        names.append(draw(st.sampled_from(sorted(_VALUES))))
    for name in names:
        argv += [name, pick(_VALUES[name])]
    return argv


@pytest.fixture(scope="module")
def points_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("points")
    contents = {
        "valid": "[0, 1, 2, 5]",
        "plane": json.dumps(list(range(91))),
        "empty": "[]",
        "outside": "[0, 91]",
        "negative": "[-1, 2]",
        "bools": "[true, 1]",
        "object": '{"points": [0]}',
        "garbage": "[0, 1",
    }
    for name, text in contents.items():
        (root / f"{name}.json").write_text(text)
    return {name: str(root / f"{name}.json") for name in [*contents, "missing"]}


@settings(max_examples=600, deadline=timedelta(seconds=5), database=None)
@given(argv=_argvs())
def test_fuzzed_argv_exits_with_a_documented_status(points_files, argv):
    # any command line ends in 0, 1 or 2, never in an internal error
    argv = [points_files[a] if argv[i - 1] == "--points" else a for i, a in enumerate(argv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_points_outside_the_plane_are_a_usage_error(tmp_path, capsys):
    path = tmp_path / "points.json"
    path.write_text(json.dumps([0, 5, 91]))
    code = main(["verify-unital", "--q", "3", "--points", str(path)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --points")


def test_report_all_text_and_exit(capsys):
    code, out = run_cli(capsys, "report-all", "--q", "3", "--seed", "7", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("PASS") and "unital" in line for line in lines)
    assert any(line.startswith("SKIP") and "afkl" in line for line in lines)


# `report-all --q q --seed 7`, each skip reason byte for byte
_EVEN_Q_DIGESTS = {
    "2": "64ca3c86478b58048a16ee9a72e32ae7d02c687531d0a9a889e8a7aefab3efde",
    "4": "004b80da33fd014ddc8e99da70e860c4718124a2e73f2612d3e4b32416a035ce",
    "8": "2a264db46f9644c6d667e96328fad2429b969eb9d8cee7b3605e23ca22a850a8",
}


@pytest.mark.parametrize("q", ["2", "4", "8"])
def test_report_all_even_q(capsys, q):
    # the conic claims run in every characteristic; the odd-q claims are skipped
    code, out = run_cli(capsys, "report-all", "--q", q, "--seed", "7")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == _EVEN_Q_DIGESTS[q]
    rep = json.loads(out)
    status = {(c["claim"], c.get("case")): c["ok"] for c in rep["claims"]}
    assert [k for k, ok in status.items() if ok] == [("unital", None), ("main", None), ("nucleus", None)]
    assert rep["summary"] == {"total": 10, "verified": 3, "violated": 0, "skipped": 7}


def test_refusal_inside_a_claim_is_not_a_skip(capsys, monkeypatch):
    # a library refusal that fires inside a claim ends the run with status 2;
    # only NotStated marks a claim skipped
    def run_main_claim(F):
        return Conic(F, (1, 0, 0, 0, 0, 1)).matrix()

    monkeypatch.setattr(cli, "run_main_claim", run_main_claim)
    assert main(["report-all", "--q", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: matrix form needs odd characteristic\n"


def test_check_and_report_all_run_the_same_claims(capsys):
    # every claim check offers is report-all's entry of that name, byte for
    # byte, and the one report-all skips is a usage error for check
    code, out = run_cli(capsys, "report-all", "--q", "3", "--seed", "7")
    assert code == 0
    entries = {c["claim"]: c for c in json.loads(out)["claims"] if "case" not in c}
    assert sorted(entries) == sorted(_check.choices)
    for claim, entry in entries.items():
        code, out = run_cli(capsys, "check", "--claim", claim, "--q", "3", "--seed", "7")
        if entry["ok"] is None:
            assert code == 2 and out == ""
        else:
            assert code == 0 and out == json.dumps(entry, indent=2) + "\n"
    assert [c for c, e in entries.items() if e["ok"] is None] == ["afkl"]


def test_line_table_past_the_limit_is_a_usage_error():
    # PG(2,1369) would need a 10.3 GB line table: check --claim main --q 37
    # exits 2 before allocating it.  The child's address space is capped,
    # so a table that went ahead would fail there instead of on the host
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))\n"
        "from unitals.cli import main\n"
        "sys.exit(main(['check', '--claim', 'main', '--q', '37']))\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 2 and out.stdout == ""
    assert out.stderr.startswith("error: the line table of PG(2,1369) would take 10277909880 bytes")
    assert out.stderr.count("\n") == 1


def test_oversized_field_is_refused_before_it_is_factored():
    # each order is refused by the 2^16 table budget before any factoring:
    # trial division of either --q takes a minute or more, testing the large
    # prime p about 5e8 divisions, and 2^h is a 125 GB integer.  The child's
    # address space is capped as above
    argvs = [
        "field --q 1000000007",
        "field --q 999999999989",
        "field --p 1000000000000000003 --h 1",
        "field --p 2 --h 1000000000000",
    ]
    code = (
        "import resource, sys\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from unitals.cli import main\n"
        f"print([main(argv.split()) for argv in {argvs!r}])\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=10)
    assert out.stdout == "[2, 2, 2, 2]\n"
    errors = out.stderr.splitlines()
    assert len(errors) == 4 and all(e.startswith("error: order ") for e in errors)
    assert all(e.endswith(" exceeds the 2^16 table budget") for e in errors)


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("report-all --q 3 --seed 7", "3bf20752f653b5917a4f3b7b6e1b1414a03654d57bfbc192157c580c3bda9789"),
        ("check --claim main --q 5", "18fceeb05e1c825703957997c52f5d006b024135298551a6255743af8e4d60cf"),
    ],
)
def test_claims_never_run_the_exhaustive_sweep(capsys, monkeypatch, argv, digest):
    # the sweep is the tests' oracle for the pencil search; the claims run
    # the certificate alone, and their bytes do not depend on the sweep
    def sweep(S):
        raise AssertionError("a claim ran the exhaustive conic sweep")

    monkeypatch.setattr(analysis, "_conics_contained_exhaustive", sweep)
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_report_all_deterministic(capsys):
    code1, out1 = run_cli(capsys, "report-all", "--q", "3", "--seed", "7")
    code2, out2 = run_cli(capsys, "report-all", "--q", "3", "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2


def test_report_all_stdout_is_byte_identical(capsys):
    # the reference hash of `report-all --q 3 --seed 7`; a change to it must
    # be deliberate and recorded with the new hash
    assert main(["report-all", "--q", "3", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3bf20752f653b5917a4f3b7b6e1b1414a03654d57bfbc192157c580c3bda9789"
    )


def test_report_all_q5_stdout_is_byte_identical(capsys):
    # the reference hash of `report-all --q 5 --seed 7`, which runs every
    # claim, AFKL at order 25 included
    assert main(["report-all", "--q", "5", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7d5139e425d86c7b4e64126292655000c23755708d5b0bdd9a7e1d889c34c3f3"
    )


@pytest.mark.parametrize(
    "case, digest",
    [
        (1, "30ce15b903d0a7f233ee05a9b101473ffcbfcbd3e39c7fb8eb4fdd9faba8a2f8"),
        (2, "4a9a0f9901fa3dd379bbcd661f1008d6d864a50abfc61eae28cf2dd3a8fd3c57"),
        (3, "e5913d19b7a05bbbeb286050c7e8c6650ecb15d0c9e0db9fbe512ea5fc504fe3"),
    ],
)
def test_cone_residual_q5_stdout_is_byte_identical(capsys, case, digest):
    # report-all runs the cone claim without the residual point lists; the
    # command itself prints them, so its stdout is pinned separately
    assert main(["cone-residual", "--q", "5", "--case", str(case)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["cone-residual", "--q", "3", "--case", "1"],
        ["classify-pair", "--q", "5", "--case", "1", "--k", "7", "--k2", "11"],
    ],
    ids=["cone-residual", "classify-pair"],
)
def test_cone_residual_does_not_import_numpy_ma(argv):
    # np.unique and np.union1d import numpy.ma on first use (numpy 2.x), a
    # few ms and about 1 MB per process; the cone path sorts and compares
    # neighbours instead, and classify_pair intersects its two conics'
    # point indices as unique arrays, which calls no np.unique
    code = (
        "import sys, numpy\n"
        "eager = 'numpy.ma' in sys.modules\n"
        "from unitals.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print('eager' if eager else 'numpy.ma' in sys.modules)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    last = out.stdout.split()[-1]
    if last == "eager":
        pytest.skip("this numpy imports numpy.ma with numpy itself")
    assert last == "False"


def test_cone_residual_q9_stdout_is_byte_identical(capsys):
    # case 1 at plane order 81: its cones have 538,084 points, about 33
    # times as many as at q = 5
    assert main(["cone-residual", "--q", "9", "--case", "1"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "a5d99d2b80b716843954283a134d8e4c24c2ec873d677b19e931bd2b485cd9af"
    )


@pytest.mark.parametrize(
    "case, digest",
    [
        (1, "5e3a5eb3cc68bac742f4025dd9e862fe36378f1e533701ed779a8ac6381ac8e2"),
        (2, "0969f027cf65232c75a809d4b9cfd16805e51c0fbc4ec075b5d189b3393208a6"),
        (3, "133d75e4ef392d3c507f5ca0270fef599409452d33913a2b65952769e978999b"),
    ],
)
def test_cone_residual_q11_stdout_is_byte_identical(capsys, case, digest):
    # plane order 121, whose cones have 1,786,324 points each: the digests
    # come from intersecting the two directly built cones
    assert main(["cone-residual", "--q", "11", "--case", str(case)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("classify-pair --q 5 --case 1 --k 7 --k2 11", "500e70b8ee08a292a33b339a1ee5318e480603bac0b23172275b1ee8912bec20"),
        ("verify-unital --q 3", "9b7e2e1267c1cb9622aa7d2c00b51ae479e8c52a0b2ba9e4c5b5b9fd5a1070d8"),
        ("verify-unital --q 3 --format csv", "52844ac4bbf06ca2ea71d8919116db9f42215f15b91168c32574f26fca23fc41"),
        ("verify-unital --q 3 --format text", "70cf07f4a7381119f538211fe12fbc3289247775267472f01849dcbfa71ad845"),
        ("check --claim lemma1 --q 7", "6f620479731af6d5f00dcd322d51efcc6848684b870dbba5ed224f97cb5c17b0"),
        ("check --claim lemma2 --q 5", "f6ce69efe1f7a130fb1e43d6b1381ddfa9fed6c349f044405062c377ebef8fad"),
        ("check --claim lemma2 --q 5 --format csv", "2d03ffcf07b3118dfe2ca796d08f0e1653625ed0ca4d33267aa01f242e64578a"),
        ("check --claim main --q 2", "c2a5d87478928fe0ba0f752ba872a3374d97b6f3ca8bcca89f0956f2fd66e16f"),
        ("check --claim main --q 4", "093f37d4deb19ac2b7d50cf30bfb94efea7f39da76af8cf7519e3b17270a691f"),
        ("check --claim main --q 8", "f18db4da812120a307f131934baf8fd1a75ee2dee415d409fb1ed67a3ee7bcf6"),
        ("check --claim main --q 7 --format text", "141edac50d31ebaf6750fe05ba7a6cb9524c3cd2153d52317bce9af78271f147"),
        ("check --claim main --q 9", "a9fbb00757b32e23bbfe1086abe525a391c3e87cf282f5291125ca828a428db4"),
        ("check --claim main --q 11", "014a6a7b7a111fa82f827440c396bf0430f3243d6f8f8ea766e4ff3ce79fee43"),
        ("check --claim main --q 13", "2aaa7d1707bf5d576788aedc285b3b7c0668d6339be517f8555c0cf681d9d1bf"),
        ("check --claim main --q 17", "0eb34d9832bfb4cc1d664e53fcb3c219a887812a4ae50d3eecf1cf20dc06d357"),
        ("enum-conics --q 3", "e4bdbeb1972e454ed93a02c88f8dc76f198bb09594785b2a2aae41f3fb77f51d"),
        ("build-unital --q 5 --t 13", "5334b9c050f8cff0729981c9f276fed3ed10d5cb74c29b6b786104507e6ce06a"),
    ],
)
def test_report_shapes_are_byte_identical(capsys, argv, digest):
    # every report shape outside report-all and cone-residual: the pencil
    # report, the unital profile in all three formats, the difference-set
    # tables, the main claim at even q (Hermitian only) and at odd q (over
    # both unitals, the pencil search splits the rows of one point between
    # two row chunks twice at q = 7, 17 times at q = 9, 63 at q = 11 and
    # 259 at q = 13; at q = 17 the plane order is 289, above 256, so the
    # search's flat-table indices are uint32), the conic list and the
    # constructed unital
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["--q", "5", "--samples", "2000", "--seed", "7"], "76a5f052c3ba9ca99a1f19248da17dde899746f5a6da91aa68f41df0c0bea98d"),
        (["--q", "7", "--samples", "300", "--seed", "3"], "d430b765acd9f8da4e2e073aa33f1fde2f34e263bfa268935ace686b9d67b88d"),
        (["--q", "11", "--samples", "300", "--seed", "3"], "1d7ae57401a7a35712acb4bb751f297942d64767752bb2494e6f5198695f15a2"),
    ],
)
def test_check_afkl_stdout_is_byte_identical(capsys, argv, digest):
    # the AFKL report, sampled pairs included, is pinned byte for byte; at
    # q = 11 (plane order 121) its 361 conics give 129,960 ordered pairs,
    # 21,720 of them hypothesis pairs
    assert main(["check", "--claim", "afkl", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
