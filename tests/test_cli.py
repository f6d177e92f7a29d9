"""End-to-end coverage of the operad-lab command line."""

import json
import shutil
import subprocess
import sys

import pytest

from operad_lab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compose_golden(capsys):
    code, out, _ = run(capsys, "compose", "--left", "4312", "--at", "1", "--right", "231")
    assert code == 0
    assert out == "564312\n"
    code, out, _ = run(capsys, "compose", "--left", "4312", "--at", "2", "--right", "231")
    assert (code, out) == (0, "645312\n")


def test_compose_json(capsys):
    code, out, _ = run(capsys, "compose", "--json", "--left", "12", "--at", "2", "--right", "21")
    assert code == 0
    data = json.loads(out)
    assert data["arity"] == 3
    assert data["terms"] == [{"basis": [1, 3, 2], "coeff": "1"}]


def test_face_and_degen(capsys):
    assert run(capsys, "face", "--element", "4312", "--at", "1")[1] == "312\n"
    assert run(capsys, "degen", "--element", "21", "--at", "1")[1] == "231\n"
    assert run(capsys, "degen", "--element", "21", "--at", "2")[1] == "312\n"


def test_boundary_and_coboundary(capsys):
    code, out, _ = run(capsys, "boundary", "--element", "312")
    assert (code, out) == (0, "-1*12\n")
    code, out, _ = run(capsys, "coboundary", "--element", "1")
    assert (code, out) == (0, "12\n")
    code, out, _ = run(capsys, "boundary", "--element", "4312")
    assert (code, out) == (0, "0\n")


def test_shift_operad_flag(capsys):
    code, out, _ = run(
        capsys, "boundary", "--operad", "shift", "--element", "(1,3,4)"
    )
    assert (code, out) == (0, "-1*2,3\n")
    code, out, _ = run(capsys, "face", "--operad", "shift", "--element", "2,5,7", "--at", "1")
    assert (code, out) == (0, "4,6\n")


def test_brace_and_products(capsys):
    code, out, _ = run(capsys, "brace", "--element", "12", "--with", "1", "--with", "1")
    assert (code, out) == (0, "12\n")
    code, out, _ = run(capsys, "odot", "--left", "12", "--right", "21")
    assert (code, out) == (0, "1243\n")
    code, out, _ = run(capsys, "dot", "--left", "12", "--right", "21")
    assert (code, out) == (0, "1243\n")
    # arity 1 x arity 1 flips the sign of the plain composition
    code, out, _ = run(capsys, "dot", "--left", "1", "--right", "1")
    assert (code, out) == (0, "-1*12\n")


def test_coproduct_output(capsys):
    code, out, _ = run(capsys, "coproduct", "--element", "21")
    assert code == 0
    assert out.splitlines() == ["() | 21", "1 | 1", "21 | ()"]
    code, out, _ = run(capsys, "coproduct", "--json", "--element", "21")
    data = json.loads(out)
    assert [len(entry["left"]["terms"]) for entry in data] == [1, 1, 1]


def test_endo_multimap_input(capsys):
    identity = json.dumps({"arity": 1, "coeffs": ["1", "0", "0", "1"]})
    code, out, _ = run(
        capsys, "face", "--operad", "endo:dual", "--field", "gfp:3",
        "--element", identity, "--at", "1",
    )
    assert (code, out) == (0, "()\n")


def test_element_from_file(tmp_path, capsys):
    payload = {
        "operad": "assoc",
        "arity": 3,
        "terms": [{"basis": [3, 1, 2], "coeff": "1"}],
    }
    path = tmp_path / "x.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    code, out, _ = run(capsys, "boundary", "--element", f"@{path}")
    assert (code, out) == (0, "-1*12\n")


def test_cohomology_human_and_json(capsys):
    args = ("cohomology", "--operad", "endo:dual", "--field", "gfp:3",
            "--lo", "0", "--hi", "3")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert out.splitlines() == [
        "degree 0: dim 2 (rank of outgoing map 0)",
        "degree 1: dim 1 (rank of outgoing map 3)",
        "degree 2: dim 1 (rank of outgoing map 4)",
        "degree 3: dim 1 (rank of outgoing map 11)",
    ]
    code, out, _ = run(capsys, *args, "--json")
    data = json.loads(out)
    assert data["dims"] == [2, 1, 1, 1]
    assert data["warnings"] == []


def test_domain_errors_exit_one(capsys):
    code, _, err = run(capsys, "face", "--element", "21", "--at", "5")
    assert code == 1
    assert err.startswith("error:")
    assert run(capsys, "boundary", "--element", "122")[0] == 1
    assert run(capsys, "boundary", "--operad", "mystery", "--element", "1")[0] == 1
    assert run(capsys, "boundary", "--element", "@/no/such/file.json")[0] == 1


LONG_INT = "1" + "0" * 5000  # past the 4300 digits Python converts to or from text
NINES = '{"arity":2,"terms":[{"basis":[1,2],"coeff":"%s"}]}' % ("9" * 3000)


@pytest.mark.parametrize("argv", [
    ("face", "--element", "12a", "--at", "1"),
    ("face", "--element", "[1,2]", "--at", "1"),
    ("face", "--operad", "shift", "--element", "1,x", "--at", "1"),
    ("face", "--operad", "endo:dual", "--element", "E[a->0]", "--at", "1"),
    ("face", "--operad", "endo:dual", "--element", "E[7->0]", "--at", "1"),
    ("boundary", "--element", '{"arity":1,"terms":[{"basis":[1]}]}'),
    ("boundary", "--element", '{"arity":"x","terms":[]}'),
    ("boundary", "--element", '{"arity":1,"terms":[{"basis":5,"coeff":"1"}]}'),
    ("boundary", "--operad", "endo:dual", "--element", '{"coeffs":[1]}'),
    ("boundary", "--operad", "endo:dual", "--element", '{"arity":"x","coeffs":[1]}'),
    ("boundary", "--operad", "endo:dual", "--element", '{"arity":1,"coeffs":7}'),
    ("boundary", "--operad", "endo:dual", "--element", "@{tmp}/five.json"),
    ("face", "--operad", "endo:dual", "--element", '{"arity":true,"coeffs":[1,0,0,1]}',
     "--at", "1"),
    ("boundary", "--element", '{"arity":2.9,"terms":[{"basis":[2,1],"coeff":"1"}]}'),
    ("boundary", "--element", '{"arity":2,"terms":[{"basis":[1.7,2],"coeff":"1"}]}'),
    ("boundary", "--element", '{"arity":2,"terms":[{"basis":[true,2],"coeff":"1"}]}'),
    ("boundary", "--element", '{"arity":2,"terms":[{"basis":[2,1],"coeff":true}]}'),
    *(("face", "--operad", f"endo:@{{tmp}}/{name}.json", "--element", "E[0->0]", "--at", "1")
      for name in ("no_dim", "no_mul", "list", "unit_int")),
    # JSON that is not UTF-8, or nested deeper than the parser recurses
    ("boundary", "--element", "@{tmp}/not_utf8.json"),
    ("cohomology", "--operad", "endo:@{tmp}/not_utf8.json", "--lo", "0", "--hi", "1"),
    ("boundary", "--element", '{"terms":' + "[" * 1000 + "]" * 1000 + "}"),
    ("face", "--operad", "endo:@{tmp}/deep.json", "--element", "E[0->0]", "--at", "1"),
    # numbers too long for text: a huge or negative multimap arity, a JSON
    # integer past the limit, exponents past it, a 6000-digit product
    ("boundary", "--operad", "endo:dual", "--element", '{"arity":100000,"coeffs":[1]}'),
    ("boundary", "--operad", "endo:dual", "--element", '{"arity":-2,"coeffs":[1]}'),
    ("boundary", "--operad", "endo:dual", "--element", '{"arity":%s,"coeffs":[1]}' % LONG_INT),
    *(("boundary", "--element", '{"arity":2,"terms":[{"basis":[1,2],"coeff":%s}]}' % coeff)
      for coeff in (LONG_INT, '"1e5000"', '"1e-5000"', '"1e99999999"')),
    ("compose", "--left", NINES, "--at", "1", "--right", NINES),
    ("compose", "--left", NINES, "--at", "1", "--right", NINES, "--json"),
])
def test_malformed_input_exits_one_without_traceback(argv, tmp_path):
    (tmp_path / "five.json").write_text("5\n")
    # algebra JSON: missing "dim", missing "mul", not an object, unit not a list
    (tmp_path / "no_dim.json").write_text('{"unit": [1], "mul": [[[1]]]}')
    (tmp_path / "no_mul.json").write_text('{"dim": 1, "unit": [1]}')
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "unit_int.json").write_text('{"dim": 1, "unit": 5, "mul": [[[1]]]}')
    (tmp_path / "not_utf8.json").write_bytes(b'\xff\xfe{"terms":[]}')
    (tmp_path / "deep.json").write_text("[" * 5000 + "]" * 5000)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    done = subprocess.run([sys.executable, "-m", "operad_lab.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ")
    assert len(done.stderr.splitlines()) == 1
    assert "Traceback" not in done.stderr


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["face", "--element", "21"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--operad", "assoc", "--differential", "boundary",
              "--lo", "0", "--hi", "2", "--column-cap", "-1"])
    assert exc.value.code == 64
    assert "--column-cap: must be at least 0, got -1" in capsys.readouterr().err
    capsys.readouterr()


def test_column_cap_error_names_the_flag(capsys):
    args = ("cohomology", "--operad", "assoc", "--differential", "boundary", "--lo", "0")
    code, out, err = run(capsys, *args, "--hi", "3", "--column-cap", "0")
    assert (code, out) == (1, "")
    assert err == ("error: 1 column at degree 0 exceeds the cap 0; pass allow_large=True"
                   " (--allow-large on the command line) to override\n")
    code, _, err = run(capsys, *args, "--hi", "3", "--column-cap", "2")
    assert code == 1
    assert err.startswith("error: 6 columns at degree 3 exceed the cap 2;")
    code, out, _ = run(capsys, *args, "--hi", "3", "--column-cap", "0", "--allow-large")
    assert code == 0 and out.startswith("degree 0: dim 0")


@pytest.mark.parametrize("argv,message", [
    (("--operad", "assoc", "--differential", "boundary", "--lo", "1700", "--hi", "1700"),
     "more than 10^4754 columns at degree 1700 exceed the cap 20000;"),
    (("--operad", "endo:m2", "--lo", "8000", "--hi", "8000"),
     "more than 10^4816 columns at degree 8000 exceed the cap 20000;"),
    (("--operad", "shift", "--max-entry", "100000", "--differential", "boundary",
      "--lo", "50000", "--hi", "50000"),
     "more than 10^30097 columns at degree 50000 exceed the cap 20000;"),
], ids=("assoc", "endo-m2", "shift"))
def test_cap_refuses_a_count_too_long_to_print(argv, message):
    # these counts have more digits than Python converts an int to text
    done = subprocess.run([sys.executable, "-m", "operad_lab.cli", "cohomology", *argv],
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith(f"error: {message}")
    assert len(done.stderr.splitlines()) == 1
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("operad,kind,message", [
    ("assoc", "boundary", "40320 columns at degree 8 exceed the cap 20000;"),
    ("endo:m2", "hochschild", "65536 rows at degree 7 exceed the cap 20000;"),
    # shift bases are empty above max-entry 8: the cap bounds the empty degrees
    ("shift", "boundary", "20001 empty degrees up to degree 20010 exceed the cap 20000;"),
])
def test_huge_degree_window_stops_at_the_first_oversized_degree(capsys, operad, kind, message):
    # the window is walked lazily: no list of 10^11 degrees is ever built
    code, out, err = run(capsys, "cohomology", "--operad", operad, "--differential", kind,
                         "--lo", "0", "--hi", "99999999999")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


def test_verify_exit_codes(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "simplicial",
                       "--operad", "assoc", "--trials", "10")
    assert code == 0
    assert out.strip().endswith("(seed 0, total failures 0)")
    code, out, _ = run(capsys, "verify", "--suite", "brace", "--trials", "40")
    assert code == 2
    assert "fail" in out
    assert "boundary_brace_literal" in out


def test_verify_usage_errors_exit_64(capsys):
    for trials in ("0", "-3"):
        code, out, err = run(capsys, "verify", "--json", "--trials", trials)
        assert (code, out) == (64, "")
        assert "trials must be at least 1" in err
    code, out, err = run(capsys, "verify", "--operad", "nope", "--trials", "1")
    assert (code, out) == (64, "")
    assert "'nope'" in err
    assert "assoc, shift, endo:dual, endo:k, endo:dual@gfp:3, endo:m2@gfp:5" in err


def test_shift_coboundary_truncation_exits_one(capsys):
    # (8,) maps to (1,9), which the basis truncated at max-entry 8 lacks
    code, out, err = run(capsys, "cohomology", "--operad", "shift",
                         "--differential", "coboundary", "--lo", "1", "--hi", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: the coboundary of (8,) has the term (1, 9)")
    assert "max-entry 8" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "chain",
                       "--operad", "assoc", "--trials", "10", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["status"] == "ok"
    assert {row["suite"] for row in report["checks"]} == {"chain"}


def test_console_script_subprocess():
    exe = shutil.which("operad-lab")
    cmd = [exe] if exe else [sys.executable, "-m", "operad_lab.cli"]
    done = subprocess.run(
        cmd + ["compose", "--left", "4312", "--at", "1", "--right", "231"],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0
    assert done.stdout == "564312\n"
