"""End-to-end coverage of the operad-lab command line."""

import json
import resource
import shutil
import subprocess
import sys

import pytest

from operad_lab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_degen_of_an_algebra_element_is_refused(capsys):
    # the dense arity-0 map [1, 0] is the algebra element keyed (0,), not
    # the point, so degen refuses it as compose does; the point itself
    # still maps to the unit
    code, out, err = run(capsys, "degen", "--operad", "endo:dual",
                         "--element", '{"arity":0,"coeffs":[1,0]}', "--at", "1")
    assert (code, out) == (1, "")
    assert err == "error: degree-0 key (0,) carries no operadic slot data\n"
    code, out, _ = run(capsys, "degen", "--operad", "endo:dual", "--element", "()", "--at", "1")
    assert (code, out) == (0, "E[0->0] + E[1->1]\n")


@pytest.mark.parametrize("command,point,zero", [
    ("boundary", "0\n", "0\n"),
    ("coboundary", "0\n", "0\n"),
    ("coproduct", "() | ()\n", "0 | ()\n"),
])
def test_boundary_coboundary_coproduct_refuse_an_algebra_element(capsys, command, point, zero):
    # A[1] = e12 of M_2 is a degree-0 Hochschild cochain, not a point; it is
    # not central, so its Hochschild coboundary is not zero, and a silent 0
    # from the operadic operators would be wrong
    algebra_element = '{"arity":0,"coeffs":[0,1,0,0]}'
    code, out, err = run(capsys, command, "--operad", "endo:m2", "--element", algebra_element)
    assert (code, out) == (1, "")
    assert err == "error: degree-0 key (1,) carries no operadic slot data\n"
    # the point and the zero element of arity 0 keep their images
    for element, expected in (("()", point), ('{"arity":0,"coeffs":[0,0,0,0]}', zero)):
        code, out, _ = run(capsys, command, "--operad", "endo:m2", "--element", element)
        assert (code, out) == (0, expected)


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
    # algebras the FinAlgebra checks refuse, a negative arity, a short arity-0 map
    *(("face", "--operad", f"endo:@{{tmp}}/{name}.json", "--element", "E[0->0]", "--at", "1")
      for name in ("dim_0", "mul_shape", "zero_unit", "unit_axiom")),
    ("boundary", "--element", '{"arity":-1,"terms":[]}'),
    ("boundary", "--operad", "endo:dual", "--element", '{"arity":0,"coeffs":[1]}'),
])
def test_malformed_input_exits_one_without_traceback(argv, tmp_path):
    (tmp_path / "five.json").write_text("5\n")
    # algebra JSON: missing "dim", missing "mul", not an object, unit not a list
    (tmp_path / "no_dim.json").write_text('{"unit": [1], "mul": [[[1]]]}')
    (tmp_path / "no_mul.json").write_text('{"dim": 1, "unit": [1]}')
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "unit_int.json").write_text('{"dim": 1, "unit": 5, "mul": [[[1]]]}')
    # dimension 0, a mul of the wrong shape, a zero unit, a unit that fails the unit axiom
    (tmp_path / "dim_0.json").write_text('{"dim": 0, "unit": [], "mul": []}')
    (tmp_path / "mul_shape.json").write_text(
        '{"dim": 2, "unit": [1, 0], "mul": [[[1, 0]], [[0, 1]]]}')
    (tmp_path / "zero_unit.json").write_text('{"dim": 1, "unit": [0], "mul": [[[1]]]}')
    (tmp_path / "unit_axiom.json").write_text('{"dim": 1, "unit": [1], "mul": [[[2]]]}')
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


@pytest.mark.parametrize("argv", [
    ("boundary",), ("coboundary",), ("brace", "--with", "1", "--with", "1"),
], ids=("boundary", "coboundary", "brace"))
def test_zero_element_of_a_huge_arity_prints_zero_at_once(argv):
    # the differentials walk the terms, not the 10^8 slots, and the brace
    # of a zero tries none of its C(10^8, 2) slot choices; a walk over the
    # slots would fill memory, so the command gets 1 GiB of address space
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    command, *rest = argv
    done = subprocess.run([sys.executable, "-m", "operad_lab.cli", command,
                           "--element", '{"arity":100000000,"terms":[]}', *rest],
                          capture_output=True, text=True, timeout=20, preexec_fn=limit_memory)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")


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
