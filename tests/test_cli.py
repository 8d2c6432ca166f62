import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mublines import abelian
from mublines.cli import main
from mublines.framecore import lineset_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_mubs_builtin_d4(capsys, tmp_path):
    out = tmp_path / "mubs4.json"
    code, _, err = run(capsys, "--out", str(out), "mubs", "--rds", "builtin:4")
    assert code == 0
    assert "verify_mubs = True" in err
    data = json.loads(out.read_text())
    assert data["dim"] == 4
    assert len(data["bases"]) == 4


def test_mubs_rejects_bad_rds_file(capsys, tmp_path):
    # {1, x^2} in Z_4 has a quotient inside the forbidden subgroup
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "group": [4],
        "forbidden": [[2]],
        "elements": [[0], [2]],
    }))
    code, _, err = run(capsys, "mubs", "--rds", f"file:{bad}")
    assert code == 2
    assert "forbidden" in err or "invalid" in err.lower()


def test_construct_c1_good_scaling(capsys):
    code, out, _ = run(
        capsys, "construct", "c1", "--d", "4",
        "--perm", "1,3,4,2", "--v", "sqrt(2+sqrt(5))",
    )
    assert code == 0
    assert "equiangular" in out and "NOT" not in out


def test_construct_c1_bad_permutation(capsys):
    code, out, _ = run(
        capsys, "construct", "c1", "--d", "4",
        "--perm", "1,2,3,4", "--v", "sqrt(2+sqrt(5))",
    )
    assert code == 1
    assert "NOT equiangular" in out


def test_construct_c1_missing_args(capsys):
    code, _, err = run(capsys, "construct", "c1", "--d", "4")
    assert code == 2
    assert "requires" in err


def test_construct_c3ext_exact(capsys, tmp_path):
    out = tmp_path / "lines64.json"
    code, text, _ = run(capsys, "--out", str(out), "construct", "c3ext")
    assert code == 0
    data = json.loads(out.read_text())
    assert data["field"] == "gaussian-int"
    assert len(data["vectors"]) == 64


def test_construct_c2_and_hoggar(capsys):
    assert run(capsys, "construct", "c2", "--a", "0.37")[0] == 0
    assert run(capsys, "construct", "hoggar")[0] == 0


def test_construct_wh(capsys):
    code, out, _ = run(capsys, "construct", "wh")
    assert code == 0
    assert "16 vectors: equiangular" in out


def test_verify_roundtrip(capsys, tmp_path):
    out = tmp_path / "c3ext.json"
    run(capsys, "--out", str(out), "construct", "c3ext")
    code, text, _ = run(capsys, "verify", str(out))
    assert code == 0
    report = json.loads(text.strip().splitlines()[-1])
    assert report["equiangular"] is True
    assert report["size"] == 64


def test_verify_rejects_truncated_json(capsys, tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text('{"field": "complex-f64", "dim": 4, "vectors": [[[1,')
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "malformed" in err


def test_verify_random_set_not_equiangular(capsys, tmp_path):
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(6, 4)) + 1j * rng.normal(size=(6, 4))
    from mublines.framecore import CVector, LineSet

    lines = LineSet(4, tuple(CVector.make(r) for r in rows))
    path = tmp_path / "random.json"
    path.write_text(json.dumps(lineset_to_json(lines)))
    code, text, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert json.loads(text.strip().splitlines()[-1])["equiangular"] is False


def test_search_c1_d4_hits(capsys):
    code, out, err = run(capsys, "search", "c1", "--d", "4")
    assert code == 0
    hits = [json.loads(line) for line in out.strip().splitlines()]
    assert len(hits) == 32
    assert "32 equiangular hits over 8 permutations" in err
    perms = {tuple(h["perm"]) for h in hits}
    assert len(perms) == 8


def test_bounds_d4(capsys):
    code, out, _ = run(capsys, "bounds", "--d", "4")
    assert code == 0
    data = json.loads(out)
    assert data["max_lines"] == 16
    assert data["mub_bound"] == 5
    assert data["special_bound_f"] == 64.0
    assert abs(data["block_pair_angle"] - 1 / 3) < 1e-12


def test_wh_subcommand_with_fiducial_file(capsys, tmp_path):
    fid = tmp_path / "e1.json"
    fid.write_text(json.dumps({"vector": [[1, 0], [0, 0], [0, 0], [0, 0]]}))
    code, out, _ = run(capsys, "wh", "--fiducial", f"file:{fid}")
    assert code == 1  # basis-vector orbit is not equiangular
    assert "NOT equiangular" in out


def test_output_is_deterministic(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "--out", str(a), "construct", "c2", "--a", "1")
    run(capsys, "--out", str(b), "construct", "c2", "--a", "1")
    assert a.read_bytes() == b.read_bytes()


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_construct_nan_parameter_exits_2(capsys):
    code, out, err = run(capsys, "construct", "c2", "--a", "nan")
    assert code == 2 and out == ""
    assert "non-finite" in err
    code, _, err = run(capsys, "construct", "c3", "--perm", "1,2,3,4",
                       "--a", "nan", "--b", "1")
    assert code == 2
    assert "non-finite" in err


@pytest.mark.parametrize("argv", [
    ("c3", "--a", "inf", "--b", "0"), ("c3", "--a", "inf", "--b", "0", "--variant", "i-twist"),
    ("c1", "--v", "1e308*10")])
def test_a_non_finite_constant_exits_2_with_one_line_and_no_warning(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run(capsys, "construct", argv[0], "--d", "4", "--perm", "1,3,4,2", *argv[1:])
    assert got == (2, "", "error: line set has a non-finite entry\n")


def test_verify_reports_exact_norms_whose_squares_pass_float64(capsys, tmp_path):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"dim": 2, "field": "gaussian-int",
                                "vectors": [[[10**200, 0], [0, 0]], [[0, 0], [10**200, 0]]]}))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["equiangular"] and report["exact"] and report["norms"] == [1e200, 1e200]


def test_exact_constructs_past_float64_report_or_exit_2(capsys):
    # c1: squared norms near 1e400, norms near 1e200, reported; c3: norms
    # near 2e308, beyond float64 themselves
    code, out, err = run(capsys, "construct", "c1", "--d", "4", "--perm", "1,3,4,2",
                         "--v", "1e200")
    assert (code, err) == (1, "")
    assert out.splitlines()[-1].startswith("16 vectors: NOT equiangular; angle clusters: ")
    got = run(capsys, "construct", "c3", "--d", "4", "--perm", "1,3,4,2",
              "--a", "1e308", "--b", "1e308")
    assert got == (2, "", "error: line set has a norm beyond float64\n")


@pytest.mark.parametrize("dim, code", [(2.0, 0), (2.7, 2), ("2", 2), (True, 2)])
def test_verify_reads_dim_as_an_integer(capsys, tmp_path, dim, code):
    path = tmp_path / "lines.json"
    path.write_text(json.dumps({"dim": dim, "field": "gaussian-int",
                                "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
    got, out, err = run(capsys, "verify", str(path))
    assert got == code
    if code == 2:
        assert (out, err) == ("", "error: malformed or invalid line set: "
                                  "non-integer entry in line-set dim\n")


@pytest.mark.parametrize("roots", ["0", "-3"])
def test_search_c1_with_no_phase_roots_exits_2(capsys, roots):
    got = run(capsys, "search", "c1", "--d", "4", "--phase-roots", roots)
    assert got == (2, "", "error: phase_roots must be at least 1\n")


def test_verify_rejects_non_integer_gaussian_entry(capsys, tmp_path):
    path = tmp_path / "c3ext.json"
    run(capsys, "--out", str(path), "construct", "c3ext")
    data = json.loads(path.read_text())
    data["vectors"][7][1][0] = 1.7
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert "non-integer" in err


def test_seed_option_is_gone():
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "1", "bounds", "--d", "4"])
    assert exc.value.code == 2


def test_mubs_verifies_once_at_the_default_tolerance(capsys, monkeypatch):
    from mublines import constructions, framecore

    calls = []
    real = framecore.verify_mubs

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(framecore, "verify_mubs", counting)
    monkeypatch.setattr(constructions, "verify_mubs", counting)
    code, _, err = run(capsys, "mubs", "--rds", "builtin:3")
    assert code == 0 and "verify_mubs = True" in err
    assert len(calls) == 1  # mubs_from_rds's own check


def test_mubs_tighter_tolerance_still_checks(capsys):
    code, out, err = run(capsys, "--tol", "1e-300", "mubs", "--rds", "builtin:3")
    assert code == 1
    assert json.loads(out)["verified"] is False
    assert "verify_mubs = False" in err


@pytest.mark.parametrize("field, bad", [pytest.param("complex-f64", 10**400, id="f64-10^400"),
                                        ("gaussian-int", True)])
def test_verify_malformed_number_exits_2(capsys, tmp_path, field, bad):
    path = tmp_path / "c3ext.json"
    run(capsys, "--out", str(path), "construct", "c3ext")
    data = json.loads(path.read_text())
    data["field"] = field
    data["vectors"][7][1][0] = bad
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert "malformed" in err


def test_fiducial_beyond_float64_exits_2(capsys, tmp_path):
    fid = tmp_path / "huge.json"
    fid.write_text(json.dumps({"vector": [[10**400, 0], [0, 0], [0, 0], [0, 0]]}))
    code, out, err = run(capsys, "wh", "--fiducial", f"file:{fid}")
    assert code == 2 and out == ""
    assert "malformed" in err


@pytest.mark.parametrize("key, index, bad", [
    pytest.param("orders", 1, 4.9, id="order-4.9"),
    pytest.param("elements", 1, [1.7, 0], id="element-1.7"),
    pytest.param("elements", 2, [0, True], id="element-true"),
    pytest.param("elements", 1, ["1", 0], id="element-string"),
])
def test_mubs_rds_file_non_integer_exits_2(capsys, tmp_path, key, index, bad):
    data = abelian.rds_to_json(abelian.builtin_rds(4))
    data[key][index] = bad
    path = tmp_path / "rds.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "mubs", "--rds", f"file:{path}")
    assert code == 2 and out == ""
    assert "non-integer entry" in err


def test_fiducial_boolean_entry_exits_2(capsys, tmp_path):
    fid = tmp_path / "bool.json"
    fid.write_text(json.dumps({"vector": [[True, 0], [0, 0], [0, 0], [0, 0]]}))
    code, out, err = run(capsys, "wh", "--fiducial", f"file:{fid}")
    assert code == 2 and out == ""
    assert "malformed" in err


def test_fiducial_file_reads_the_builtin_vector_exactly(capsys, tmp_path):
    from mublines.weylheisenberg import fiducial_d4

    fid = tmp_path / "d4.json"
    fid.write_text(json.dumps({"vector": [[e.re, e.im] for e in fiducial_d4().vector.entries]}))
    code, out, _ = run(capsys, "--format", "json", "wh", "--fiducial", f"file:{fid}")
    builtin_code, builtin_out, _ = run(capsys, "--format", "json", "wh")
    assert code == builtin_code == 0
    assert out.replace('"user"', '"builtin-d4"') == builtin_out


@pytest.mark.parametrize("kind, perm", [("c1", "1,2,3"), ("c1", "1,1,2,3"), ("c3", "1,2,3,5")])
def test_construct_not_a_permutation_exits_2(capsys, kind, perm):
    code, out, err = run(capsys, "construct", kind, "--d", "4", "--perm", perm, "--v", "1")
    assert code == 2 and out == ""
    assert "perm must be a permutation of 1..4" in err


def test_bounds_below_1_exits_2(capsys):
    code, out, err = run(capsys, "bounds", "--d", "0")
    assert code == 2 and out == ""
    assert "d must be >= 1" in err


@pytest.mark.parametrize("argv", [
    ("mubs", "--rds", "builtin:31"),
    ("construct", "hoggar"),
    ("construct", "c2", "--a", "0.7"),
    ("wh",),
])
def test_out_file_is_the_stdlib_encoding(capsys, tmp_path, argv):
    # the float tables take the encoder's once-per-value path; the bytes are
    # still json.dumps(..., sort_keys=True)
    out = tmp_path / "out.json"
    code, _, _ = run(capsys, "--out", str(out), *argv)
    assert code == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    code, stdout, _ = run(capsys, *argv)
    assert code == 0
    assert stdout.splitlines()[0] + "\n" == text


#: main(argv) in a fresh interpreter; the names in sys.modules at exit go to
#: the file named by the first argument
_FRESH = """
import json, sys
import mublines.cli
try:
    code = mublines.cli.main(sys.argv[2:])
finally:
    with open(sys.argv[1], "w") as fh:
        json.dump(sorted(sys.modules), fh)
sys.exit(code)
"""


def fresh_process(tmp_path, *argv):
    """(finished process, modules loaded) of one CLI command in a new
    process."""
    src = Path(__file__).resolve().parents[1] / "src"
    modules = tmp_path / "modules.json"
    proc = subprocess.run([sys.executable, "-c", _FRESH, str(modules), *argv],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True)
    return proc, set(json.loads(modules.read_text()))


def fresh_run(tmp_path, *argv):
    """(exit code, modules loaded) of one CLI command in a new process."""
    proc, modules = fresh_process(tmp_path, *argv)
    return proc.returncode, modules


@pytest.mark.parametrize("argv, code", [
    (("bounds", "--d", "4"), 0),
    (("bounds", "--d", "0"), 2),
    (("mubs", "--rds", "builtin:6"), 2),
    (("verify", "missing.json"), 2),
])
def test_commands_that_need_no_numpy_exit_without_loading_it(tmp_path, argv, code):
    got, modules = fresh_run(tmp_path, *argv)
    assert got == code
    assert "numpy" not in modules


@pytest.mark.parametrize("argv, message", [
    (("construct", "c1", "--d", "4", "--perm", "1,2,3", "--v", "1"),
     "perm must be a permutation of 1..4"),
    (("construct", "c3", "--rds", "builtin:5", "--perm", "1,2,3,4"),
     "perm must be a permutation of 1..5"),
    (("construct", "c1", "--d", "4", "--perm", "1,3,4,2"), "construct c1 requires --perm and --v"),
    (("construct", "c3", "--d", "3"), "construct c3 requires --perm"),
])
def test_a_bad_construct_permutation_exits_without_numpy(tmp_path, argv, message):
    proc, modules = fresh_process(tmp_path, *argv)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert "numpy" not in modules


@pytest.mark.parametrize("argv", [
    ("search", "c1", "--d", "5", "--rds", "builtin:4"),
    ("construct", "c1", "--d", "5", "--rds", "builtin:4", "--perm", "1,3,4,2", "--v", "1"),
    ("construct", "c3", "--d", "3", "--rds", "builtin:4", "--perm", "1,3,4,2"),
])
def test_a_d_that_conflicts_with_the_rds_exits_without_numpy(tmp_path, argv):
    proc, modules = fresh_process(tmp_path, *argv)
    assert proc.returncode == 2
    assert proc.stderr == "error: --d {} conflicts with --rds builtin:4, an RDS of d = 4\n".format(
        argv[argv.index("--d") + 1])
    assert proc.stdout == ""
    assert "numpy" not in modules


@pytest.mark.parametrize("command, options", [
    (("search", "c1"), ("--rds", "builtin:4")),
    (("construct", "c1"), ("--rds", "builtin:4", "--perm", "1,3,4,2", "--v", "sqrt(2+sqrt(5))")),
])
def test_a_d_that_agrees_with_the_rds_changes_nothing(tmp_path, command, options):
    proc, _ = fresh_process(tmp_path, *command, "--d", "4", *options)
    assert proc.returncode == 0
    assert proc.stdout == fresh_process(tmp_path, *command, *options)[0].stdout


def test_verify_loads_no_construction_module(tmp_path):
    from mublines.constructions import construction3_d4_extension

    (tmp_path / "lines64.json").write_text(json.dumps(lineset_to_json(construction3_d4_extension())))
    code, modules = fresh_run(tmp_path, "verify", "lines64.json")
    assert code == 0
    assert "mublines.framecore" in modules
    assert not {"mublines.abelian", "mublines.constructions"} & modules


#: a block pair that is NOT equiangular at the default tol
_C3_NO = ("construct", "c3", "--d", "4", "--perm", "1,2,3,4", "--a", "0.3", "--b", "0.1")


@pytest.mark.parametrize("tol", ["inf", "-inf", "nan", "-1e-9"])
@pytest.mark.parametrize("command", ["verify", "construct", "mubs", "search"])
def test_tol_must_be_finite_and_non_negative(capsys, tmp_path, command, tol):
    # an infinite tol once called _C3_NO equiangular, and a NaN one failed
    # a correct family of MUBs
    path = tmp_path / "c3.json"
    assert run(capsys, "--out", str(path), *_C3_NO)[0] == 1
    argv = {"verify": ("verify", str(path)), "construct": _C3_NO,
            "mubs": ("mubs", "--rds", "builtin:3"), "search": ("search", "c1", "--d", "3")}
    with pytest.raises(SystemExit) as exc:
        main([f"--tol={tol}", *argv[command]])
    assert exc.value.code == 2
    assert "error: argument --tol: must be a finite number >= 0, got " in capsys.readouterr().err


@pytest.mark.parametrize("given", [("--a", "0"), ("--b", "5")])
def test_construct_c3_takes_both_a_and_b_or_neither(tmp_path, given):
    proc, modules = fresh_process(tmp_path, "construct", "c3", "--d", "4", "--perm", "1,3,4,2",
                                  *given)
    assert proc.returncode == 2
    assert (proc.stdout, proc.stderr) == ("", "error: construct c3 takes both --a and --b, "
                                              "or neither\n")
    assert "numpy" not in modules


@pytest.mark.parametrize("v, message", [
    pytest.param("True", "unsupported syntax in constant 'True'", id="true"),
    pytest.param("1" + "0" * 400, "a number beyond float64 in constant", id="10^400"),
])
def test_construct_c1_constant_is_a_float64_number(capsys, v, message):
    code, out, err = run(capsys, "construct", "c1", "--d", "4", "--perm", "1,3,4,2", "--v", v)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_verify_refuses_an_unknown_field(capsys, tmp_path):
    path = tmp_path / "lines.json"
    path.write_text(json.dumps({"dim": 2, "field": "gaussian_int",
                                "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
    assert run(capsys, "verify", str(path)) == (
        2, "", "error: malformed or invalid line set: line-set field must be gaussian-int or "
               "complex-f64, got 'gaussian_int'\n")
