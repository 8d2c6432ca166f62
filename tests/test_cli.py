import errno
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from mublines import abelian, constructions
from mublines.cli import main
from mublines.exprs import ExpressionError, parse_constant
from mublines.framecore import lineset_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report_of(out: str) -> dict:
    """The GramReport a `construct` or `wh` run without --out prints, the
    second of its two JSON lines, after the line set."""
    _, report = out.splitlines()
    return json.loads(report)


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
    assert report_of(out)["equiangular"] is True


def test_construct_c1_bad_permutation(capsys):
    code, out, _ = run(
        capsys, "construct", "c1", "--d", "4",
        "--perm", "1,2,3,4", "--v", "sqrt(2+sqrt(5))",
    )
    assert code == 1
    assert report_of(out)["equiangular"] is False


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


def test_out_may_be_a_device(capsys):
    # only a regular file is cut to what was written
    assert run(capsys, "--out", os.devnull, "construct", "c3ext")[0] == 0


def test_construct_c2_and_hoggar(capsys):
    assert run(capsys, "construct", "c2", "--a", "0.37")[0] == 0
    assert run(capsys, "construct", "hoggar")[0] == 0


def test_wh_builds_the_orbit_and_construct_wh_is_refused(capsys):
    code, out, _ = run(capsys, "wh")
    assert code == 0
    report = report_of(out)
    assert report["size"] == 16 and report["equiangular"] is True
    with pytest.raises(SystemExit) as exc:  # wh is the one way to the orbit
        main(["construct", "wh"])
    assert exc.value.code == 2
    assert "invalid choice: 'wh'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:  # and the one command that reads --fiducial
        main(["construct", "c1", "--d", "4", "--perm", "1,3,4,2", "--v", "1", "--fiducial", "x"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fiducial x" in capsys.readouterr().err


def test_verify_roundtrip(capsys, tmp_path):
    out = tmp_path / "c3ext.json"
    run(capsys, "--out", str(out), "construct", "c3ext")
    code, text, _ = run(capsys, "verify", str(out))
    assert code == 0
    report = json.loads(text.strip().splitlines()[-1])
    assert report["equiangular"] is True
    assert report["size"] == 64


#: the constructions of the paper and their kin, each at a point that
#: verifies and, for c1, at one that does not
VERDICT_ARGVS = [
    ("construct", "c1", "--d", "4", "--perm", "1,3,4,2", "--v", "sqrt(2+sqrt(5))"),
    ("construct", "c1", "--d", "4", "--perm", "1,2,3,4", "--v", "sqrt(2+sqrt(5))"),
    ("construct", "c2", "--a", "0"),
    ("construct", "c2", "--a", "0.37"),
    ("construct", "c3", "--d", "4", "--perm", "1,3,4,2", "--a", "2", "--b", "1"),
    ("construct", "c3", "--d", "4", "--perm", "1,3,4,2", "--variant", "i-twist"),
    ("construct", "c3", "--d", "5", "--perm", "1,3,5,2,4"),
    ("construct", "c3ext"),
    ("construct", "hoggar"),
    ("wh",),
]


@pytest.mark.parametrize("argv", VERDICT_ARGVS, ids=" ".join)
def test_construct_prints_the_report_verify_prints_of_its_set(capsys, tmp_path, argv):
    path = tmp_path / "lines.json"
    code, out, err = run(capsys, "--out", str(path), *argv)
    assert run(capsys, "verify", str(path)) == (code, out, err)
    assert code == (1 if "1,2,3,4" in argv else 0)
    code_plain, plain, _ = run(capsys, *argv)
    lines = plain.splitlines(keepends=True)
    assert code_plain == code and len(lines) == 2
    assert lines[0] == path.read_text() and lines[1] == out
    assert all(json.loads(line) for line in lines)


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
    assert report_of(out)["equiangular"] is False


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


def test_verify_reads_parts_on_either_side_of_the_int64_storage_bound(capsys, tmp_path):
    # 2^31 - 1 is held in int64, 2^31 moves the set to Python ints
    path = tmp_path / "bound.json"
    path.write_text(json.dumps({"dim": 2, "field": "gaussian-int",
                                "vectors": [[[2**31 - 1, 2**31], [0, 0]],
                                            [[0, 0], [2**31, 2**31 - 1]]]}))
    code, out, err = run(capsys, "verify", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["equiangular"] and report["exact"] and report["angle_clusters"] == [[0.0, 1]]
    assert report["norms"][0] == report["norms"][1] == pytest.approx(2**31.5)


def test_exact_out_file_is_the_stdlib_encoding_of_json_integers(capsys, tmp_path):
    out = tmp_path / "lines64.json"
    code, _, _ = run(capsys, "--out", str(out), "construct", "c3ext")
    assert code == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"
    parts = [x for row in json.loads(text)["vectors"] for pair in row for x in pair]
    assert len(parts) == 64 * 8 * 2 and {type(x) for x in parts} == {int}


def test_exact_constructs_past_float64_report_or_exit_2(capsys):
    # c1: squared norms near 1e400, norms near 1e200, reported; c3: norms
    # near 2e308, beyond float64 themselves
    code, out, err = run(capsys, "construct", "c1", "--d", "4", "--perm", "1,3,4,2",
                         "--v", "1e200")
    assert (code, err) == (1, "")
    report = report_of(out)
    assert report["size"] == 16 and report["equiangular"] is False and report["angle_clusters"]
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


@pytest.mark.parametrize("rds, tol", [
    pytest.param("builtin:3", None, id="builtin3-default"),
    pytest.param("builtin:5", None, id="None"),
    pytest.param("builtin:5", "1e-300", id="1e-300"),
    pytest.param("builtin:5", "1e-3", id="1e-3"),
])
def test_mubs_gives_the_verdict_of_one_verify_mubs_at_its_tol(capsys, monkeypatch, rds, tol):
    from mublines import constructions, framecore

    calls = []
    real = framecore.verify_mubs

    def counting(bases, tol=framecore.DEFAULT_TOL):
        calls.append(tol)
        return real(bases, tol)

    monkeypatch.setattr(framecore, "verify_mubs", counting)
    monkeypatch.setattr(constructions, "verify_mubs", counting)
    code, out, err = run(capsys, *(["--tol", tol] if tol else []), "mubs", "--rds", rds)
    assert code == 0 and json.loads(out)["verified"] is True
    assert "verify_mubs = True" in err
    assert calls == [framecore.DEFAULT_TOL if tol is None else float(tol)]


def test_mubs_exits_1_on_a_family_that_fails_its_check(capsys, monkeypatch):
    from mublines import constructions, framecore

    for module in (framecore, constructions):
        monkeypatch.setattr(module, "verify_mubs", lambda bases, tol=framecore.DEFAULT_TOL: False)
    code, out, err = run(capsys, "mubs", "--rds", "builtin:3")
    assert code == 1 and json.loads(out)["verified"] is False
    assert err == "3 MUBs in C^3: verify_mubs = False\n"


def test_mubs_of_the_d1_rds_exits_2(capsys, tmp_path):
    path = tmp_path / "d1.json"
    path.write_text(json.dumps({"orders": [1], "forbidden": [], "elements": [[0]]}))
    got = run(capsys, "mubs", "--rds", f"file:{path}")
    assert got == (2, "", "error: need a (d,d,d,1)-RDS, got (1, 1, 1, 0)\n")


def test_mubs_tighter_tolerance_still_checks(capsys):
    # builtin:3 is certified exactly, from its phases, so the tolerance plays
    # no part, as for the Gaussian builtin:4; a float copy still fails it
    from mublines import constructions, framecore

    code, out, err = run(capsys, "--tol", "1e-300", "mubs", "--rds", "builtin:3")
    assert code == 0
    assert json.loads(out)["verified"] is True
    assert "verify_mubs = True" in err
    bases = constructions.mubs_from_rds(abelian.builtin_rds(3)).bases
    floats = [framecore.LineSet.from_parts(b.parts) for b in bases]
    assert framecore.verify_mubs(floats)
    assert not framecore.verify_mubs(floats, 1e-300)


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
    code, out, _ = run(capsys, "wh", "--fiducial", f"file:{fid}")
    builtin_code, builtin_out, _ = run(capsys, "wh")
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


@pytest.mark.parametrize("d", [10**77, 10**155, 10**400], ids=["1e77", "1e155", "1e400"])
def test_bounds_beyond_float64_exit_2(capsys, d):
    # special_bound_f(d) is inf from 10^77 (once printed as Infinity, which is
    # not JSON) and overflows in float arithmetic from 10^155
    code, out, err = run(capsys, "bounds", "--d", str(d))
    assert (code, out, err) == (2, "", "error: --d is too large: its bounds exceed float64\n")


@pytest.mark.parametrize("d, line", [
    (4, '{"block_pair_angle": 0.3333333333333333, "d": 4, "max_angle": 0.4472135954999579, '
        '"max_lines": 16, "mub_bound": 5, "special_bound_f": 64.0}'),
    (64, '{"block_pair_angle": 0.1111111111111111, "d": 64, "max_angle": 0.12403473458920847, '
         '"max_lines": 4096, "mub_bound": 65, "special_bound_f": 12096.703296703297}'),
])
def test_bounds_prints_its_one_line(capsys, d, line):
    assert run(capsys, "bounds", "--d", str(d)) == (0, line + "\n", "")


def test_search_c1_over_budget_exits_2_until_the_budget_is_raised(capsys):
    code, out, err = run(capsys, "search", "c1", "--d", "4", "--budget", "10")
    assert (code, out) == (2, "")
    assert err == "error: search space 96 exceeds budget 10; raise the budget to proceed\n"
    assert (run(capsys, "search", "c1", "--d", "4", "--budget", str(10**18))
            == run(capsys, "search", "c1", "--d", "4"))
    with pytest.raises(SystemExit) as exc:  # --budget is the one limit
        main(["search", "c1", "--d", "4", "--force"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --force" in capsys.readouterr().err


def test_search_c1_d13_exceeds_the_default_budget(capsys):
    code, out, err = run(capsys, "search", "c1", "--d", "13")
    assert (code, out) == (2, "")
    assert err == ("error: search space 24908083200 exceeds budget 200000; raise the budget "
                   "to proceed\n")


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


#: the table of a two-line set in C^2, as JSON text
_E12 = "[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]"
#: line-set and fiducial files that each break one rule of the document
MALFORMED = {
    "nonint.json": '{"dim": 2, "field": "gaussian-int", "vectors": [[[1, 0], [0, 0]], '
                   '[[0, 0], [1.5, 0]]]}',
    "nan.json": '{"dim": 2, "vectors": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}',
    "inf.json": '{"dim": 2, "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, -Infinity]]]}',
    "field.json": '{"dim": 2, "field": "gaussian_int", "vectors": %s}' % _E12,
    "row.json": '{"dim": 2, "vectors": [[[1, 0], [0, 0]], [[0, 0]]]}',
    "string.json": '{"dim": 2, "vectors": [[[1, 0], ["0", 0]], [[0, 0], [1, 0]]]}',
    "dim.json": '{"dim": 2.7, "vectors": %s}' % _E12,
    "provenance.json": '{"dim": 2, "vectors": %s, "provenance": "x"}' % _E12,
    "negative-dim.json": '{"dim": -1, "vectors": []}',
    "list.json": "[1, 2]",
    "no-dim.json": '{"vectors": %s}' % _E12,
    "fiducial.json": '{"vector": [[true, 0], [0, 0], [0, 0], [0, 0]]}',
}


@pytest.mark.parametrize("argv, code", [
    (("bounds", "--d", "4"), 0),
    (("bounds", "--d", "0"), 2),
    (("mubs", "--rds", "builtin:6"), 2),
    (("verify", "missing.json"), 2),
    *((("verify", name), 2) for name in MALFORMED if name != "fiducial.json"),
    (("wh", "--fiducial", "file:fiducial.json"), 2),
])
def test_commands_that_need_no_numpy_exit_without_loading_it(tmp_path, argv, code):
    for name, text in MALFORMED.items():
        (tmp_path / name).write_text(text)
    proc, modules = fresh_process(tmp_path, *argv)
    assert proc.returncode == code
    if code == 2:
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    # nor dataclasses and its inspect, which only numpy would load otherwise
    assert not {"numpy", "fractions", "dataclasses", "inspect"} & modules


@pytest.mark.parametrize("doc, message", [
    ({"dim": -1, "vectors": []}, "line-set dim must be >= 0, got -1"),
    ({"dim": -2, "field": "gaussian-int", "vectors": [[[1, 0]]]},
     "line-set dim must be >= 0, got -2"),
    ([1, 2], "line-set document must be a JSON object"),
    ("lines", "line-set document must be a JSON object"),
    ({"vectors": []}, "line-set document must have dim and vectors"),
    ({"dim": 2}, "line-set document must have dim and vectors"),
])
def test_verify_names_the_document_rule_a_file_breaks(capsys, tmp_path, doc, message):
    path = tmp_path / "lines.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, "verify", str(path)) == (
        2, "", f"error: malformed or invalid line set: {message}\n")


@pytest.mark.parametrize("what, doc, message", [
    ("RDS", [1, 2], "RDS document must be a JSON object"),
    ("RDS", {"orders": [4, 4]}, "RDS document must have orders, forbidden and elements"),
    ("RDS", {"orders": 4, "forbidden": [], "elements": []},
     "RDS orders must be a list, and forbidden and elements lists of exponent lists"),
    ("RDS", {"orders": [4, 4], "forbidden": [2, 0], "elements": [[0, 0]]},
     "RDS orders must be a list, and forbidden and elements lists of exponent lists"),
    ("fiducial", [1, 2], "fiducial document must be a JSON object"),
    ("fiducial", {"vectors": [[1, 0]]}, "fiducial document must have vector"),
    ("fiducial", {"vector": 5}, "fiducial vector must be a list of [re, im] pairs"),
])
def test_rds_and_fiducial_files_name_the_rule_they_break(tmp_path, what, doc, message):
    (tmp_path / "doc.json").write_text(json.dumps(doc))
    argv = ("mubs", "--rds", "file:doc.json") if what == "RDS" else (
        "wh", "--fiducial", "file:doc.json")
    proc, modules = fresh_process(tmp_path, *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: malformed or invalid {what}: {message}\n"
    assert "numpy" not in modules


@pytest.mark.parametrize("argv, message", [
    (("construct", "c1", "--d", "4", "--perm", "1,2,3", "--v", "1"),
     "perm must be a permutation of 1..4"),
    (("construct", "c3", "--rds", "builtin:5", "--perm", "1,2,3,4"),
     "perm must be a permutation of 1..5"),
    (("construct", "c1", "--d", "4", "--perm", "1,3,4,2"), "construct c1 requires --perm and --v"),
    (("construct", "c3", "--d", "3"), "construct c3 requires --perm"),
    (("construct", "c1", "--d", "4", "--perm", "1,3,4,2", "--v", "True"),
     "unsupported syntax in constant 'True'"),
    (("wh", "--fiducial", "nope"), "fiducial must be builtin:d4 or file:<path>, got 'nope'"),
])
def test_a_bad_construct_permutation_exits_without_numpy(tmp_path, argv, message):
    proc, modules = fresh_process(tmp_path, *argv)
    assert proc.returncode == 2
    assert proc.stderr == f"error: {message}\n"
    assert "numpy" not in modules


@pytest.mark.parametrize("argv, unread", [
    (("construct", "c2", "--b", "5", "--perm", "9,9"), "c2 does not read --b, --perm"),
    (("construct", "hoggar", "--perm", "1,2"), "hoggar does not read --perm"),
    (("construct", "c3ext", "--v", "7", "--a", "3"), "c3ext does not read --a, --v"),
    (("construct", "c2", "--d", "4", "--rds", "builtin:4"), "c2 does not read --d, --rds"),
    (("construct", "c1", "--d", "4", "--perm", "1,3,4,2", "--v", "1", "--variant", "default"),
     "c1 does not read --variant"),
])
def test_an_option_the_kind_does_not_read_exits_2_without_numpy(tmp_path, argv, unread):
    proc, modules = fresh_process(tmp_path, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: construct {unread}\n")
    assert "numpy" not in modules


@pytest.mark.parametrize("argv, unread", [
    (("--out", "o.json", "verify", "lines.json"), "verify does not read --out"),
    (("--out", "o.json", "search", "c1"), "search does not read --out"),
    (("--out", "o.json", "bounds", "--d", "4"), "bounds does not read --out"),
    (("--tol", "1e-3", "bounds", "--d", "4"), "bounds does not read --tol"),
    (("--tol", "0", "--out", "o.json", "bounds", "--d", "4"), "bounds does not read --out, --tol"),
])
def test_a_global_option_the_command_does_not_read_exits_2_without_numpy(tmp_path, argv, unread):
    proc, modules = fresh_process(tmp_path, *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: {unread}\n")
    assert "numpy" not in modules
    assert not (tmp_path / "o.json").exists()


@pytest.mark.parametrize("argv, word", [
    (("--format", "json", "mubs", "--rds", "builtin:3"), "json"),
    (("--format", "summary", "verify", "lines.json"), "summary"),
    (("--format", "json", "search", "c1"), "json"),
    (("--format", "json", "bounds", "--d", "4"), "json"),
    (("--format", "json", "construct", "c3ext"), "json"),
])
def test_format_is_no_option_and_exits_2_through_argparse_without_numpy(tmp_path, argv, word):
    # --format is unknown, so argparse reads its value as the command
    proc, modules = fresh_process(tmp_path, *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: mublines ")
    assert f"error: argument command: invalid choice: '{word}'" in proc.stderr
    assert "numpy" not in modules


def test_construct_c3_variant_default_is_the_default(capsys):
    argv = ("construct", "c3", "--d", "4", "--perm", "1,3,4,2", "--a", "2", "--b", "1")
    assert run(capsys, *argv, "--variant", "default") == run(capsys, *argv)


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
    from mublines.constructions import construction2_family, construction3_d4_extension

    (tmp_path / "lines64.json").write_text(json.dumps(lineset_to_json(construction3_d4_extension())))
    code, modules = fresh_run(tmp_path, "verify", "lines64.json")
    assert code == 0
    assert "mublines.framecore" in modules
    assert not {"mublines.abelian", "mublines.constructions"} & modules
    # the exact clustering sorts its rationals by integer cross-multiplication
    assert not {"fractions", "decimal", "dataclasses"} & modules
    (tmp_path / "float.json").write_text(json.dumps(lineset_to_json(construction2_family(0.0))))
    code, modules = fresh_run(tmp_path, "verify", "float.json")
    assert code == 0
    assert "mublines.framecore" in modules and "fractions" not in modules


@pytest.mark.parametrize("tol", [(), ("--tol", "1e-300")])
def test_mubs_of_an_odd_prime_is_exact_and_loads_no_numpy_ma(tmp_path, tol):
    # the exact certificate takes no np.unique or np.isin, which load
    # numpy.ma (~8 ms), and ignores the tolerance
    proc, modules = fresh_process(tmp_path, *tol, "mubs", "--rds", "builtin:7")
    assert proc.returncode == 0 and json.loads(proc.stdout)["verified"] is True
    assert "mublines.framecore" in modules and "numpy.ma" not in modules


def test_mubs_out_holds_one_basis_of_lists_at_a_time(capsys, tmp_path):
    # all 47 bases as lists of floats at once peaked at ~15 MiB; one at a
    # time, ~7 MiB (tracemalloc, numpy's arrays included)
    out = tmp_path / "m47.json"
    tracemalloc.start()
    try:
        code, _, err = run(capsys, "--out", str(out), "mubs", "--rds", "builtin:47")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err) == (0, "47 MUBs in C^47: verify_mubs = True\n")
    assert peak < 10 * 2**20
    family = constructions.mubs_from_rds(abelian.builtin_rds(47))
    payload = {"dim": 47, "rds": abelian.rds_to_json(family.source_rds),
               "bases": [lineset_to_json(b) for b in family.bases], "verified": True}
    assert out.read_text() == json.dumps(payload, sort_keys=True) + "\n"


#: the thread variables of os.environ when numpy is first imported by
#: main(argv), printed as JSON after main's own output
_THREADS_AT_NUMPY = """
import json, os, sys
import mublines.cli
seen = []
class Spy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append({var: os.environ.get(var) for var in mublines.cli._THREAD_VARS})
sys.meta_path.insert(0, Spy())
code = mublines.cli.main(sys.argv[1:])
print(json.dumps(seen))
sys.exit(code)
"""


@pytest.mark.parametrize("given", [{}, {"OMP_NUM_THREADS": "3"}])
def test_a_process_runs_one_blas_thread_unless_told_otherwise(tmp_path, given):
    # the default threads made a small float Gram tens of times slower
    from mublines.cli import _THREAD_VARS

    assert {"OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"} <= set(_THREAD_VARS)
    env = {name: value for name, value in os.environ.items() if name not in _THREAD_VARS}
    env.update(given, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", _THREADS_AT_NUMPY, "construct", "c3ext"],
                          cwd=tmp_path, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    (seen,) = json.loads(proc.stdout.splitlines()[-1])
    want = given or dict.fromkeys(_THREAD_VARS, "1")
    assert seen == {name: want.get(name) for name in _THREAD_VARS}


def test_construct_c3ext_loads_neither_fractions_nor_decimal(tmp_path):
    proc, modules = fresh_process(tmp_path, "construct", "c3ext")
    assert proc.returncode == 0
    assert not {"fractions", "decimal", "dataclasses"} & modules


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


@pytest.mark.parametrize("text, value", [
    ("sqrt(2+sqrt(5))", 2.0581710272714924 + 0j),  # the README's --v
    ("(sqrt(6)-sqrt(2))/2", 0.5176380902050414 + 0j),
    ("2+i", 2 + 1j), ("1+2", 3 + 0j), ("1-i", 1 - 1j), ("3*i", 3j), ("1/4", 0.25 + 0j),
    ("i/2", 0.5j), ("2*(1+i)/(1-i)", 2j), ("+i", 1j), ("-(1+i)", -1 - 1j),
    ("-0", complex(-0.0, -0.0)),
])
def test_parse_constant_values(text, value):
    # repr tells -0.0 from 0.0, so the value is pinned to its bits
    assert repr(parse_constant(text)) == repr(value)


@pytest.mark.parametrize("text, message", [
    ("1/0", "division by zero in '1/0'"),
    ("i/(1-1)", "division by zero in 'i/(1-1)'"),
    ("2**3", "unsupported syntax in constant '2**3'"),
    ("~1", "unsupported syntax in constant '~1'"),
    ("x", "unsupported syntax in constant 'x'"),
    ("True", "unsupported syntax in constant 'True'"),
    ("sqrt(1, 2)", "unsupported syntax in constant 'sqrt(1, 2)'"),
    ("1+", "cannot parse constant '1+'"),
    # the operands are read before the operator: their error comes first
    ("2**(1/0)", "division by zero in '2**(1/0)'"),
    ("~(1/0)", "division by zero in '~(1/0)'"),
    ("1%(2*x)", "unsupported syntax in constant '1%(2*x)'"),
])
def test_parse_constant_errors(text, message):
    with pytest.raises(ExpressionError) as exc:
        parse_constant(text)
    assert str(exc.value) == message


def test_verify_refuses_an_unknown_field(capsys, tmp_path):
    path = tmp_path / "lines.json"
    path.write_text(json.dumps({"dim": 2, "field": "gaussian_int",
                                "vectors": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]}))
    assert run(capsys, "verify", str(path)) == (
        2, "", "error: malformed or invalid line set: line-set field must be gaussian-int or "
               "complex-f64, got 'gaussian_int'\n")


#: the options each command line reads, transcribed from README's CLI table
README_READS = {
    "bounds": {"d"},
    "mubs": {"tol", "out", "rds"},
    "search": {"tol", "d", "rds"},
    "verify": {"tol"},
    "construct c1": {"tol", "out", "d", "rds", "perm", "v"},
    "construct c2": {"tol", "out", "a"},
    "construct c3": {"tol", "out", "d", "rds", "perm", "a", "b", "variant"},
    "construct c3ext": {"tol", "out"},
    "construct hoggar": {"tol", "out"},
    "wh": {"tol", "out", "fiducial"},
}
#: each row's command line with its required options, and the options its
#: subcommand takes besides the global --tol and --out
ROW_ARGV = {
    "bounds": (("bounds", "--d", "4"), {"d"}),
    "mubs": (("mubs", "--rds", "builtin:4"), {"rds"}),
    "search": (("search", "c1"), {"d", "rds"}),
    "verify": (("verify", "lines.json"), set()),
    "wh": (("wh",), {"fiducial"}),
    **{f"construct {kind}": (("construct", kind, *required),
                             {"d", "rds", "perm", "v", "a", "b", "variant"})
       for kind, required in [("c1", ("--perm", "1,3,4,2", "--v", "1")), ("c2", ()),
                              ("c3", ("--perm", "1,3,4,2")), ("c3ext", ()), ("hoggar", ())]},
}
OPTION_VALUES = {"tol": "1e-3", "out": "o.json", "d": "4",
                 "rds": "builtin:4", "perm": "1,2", "v": "1", "a": "1", "b": "1",
                 "variant": "default", "fiducial": "builtin:d4"}

#: main(argv) for each argv list of the first argument, in one interpreter;
#: prints each (exit code, stdout, stderr) and whether numpy loaded
_FRESH_MANY = """
import contextlib, io, json, sys
import mublines.cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = mublines.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps([results, "numpy" in sys.modules]))
"""


def test_every_option_a_row_does_not_read_exits_2_without_numpy(tmp_path):
    cases = []
    for row, (argv, own) in ROW_ARGV.items():
        for name in sorted(({"tol", "out"} | own) - README_READS[row]):
            option = (f"--{name}", OPTION_VALUES[name])
            cases.append((row, name, [*option, *argv] if name in ("tol", "out")
                          else [*argv, *option]))
    assert len(cases) == 28
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _FRESH_MANY, json.dumps([c[2] for c in cases])],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True)
    results, numpy_loaded = json.loads(proc.stdout)
    for (row, name, argv), result in zip(cases, results):
        assert result == [2, "", f"error: {row} does not read --{name}\n"], argv
    assert not numpy_loaded
    assert not (tmp_path / "o.json").exists()


def run_fresh_many(tmp_path, argvs, timeout=None):
    """(exit code, stdout, stderr) of main(argv) for each argv of argvs, in
    one new process; an exception a command lets out fails the run."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", _FRESH_MANY, json.dumps(argvs)],
                          cwd=tmp_path, env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, check=True, timeout=timeout)
    return json.loads(proc.stdout)[0]


@pytest.mark.parametrize("argv", [("mubs", "--rds", "builtin:3"), ("construct", "c3ext"),
                                  ("construct", "c2"), ("wh",)])
def test_an_out_path_that_cannot_be_written_exits_2(capsys, tmp_path, argv):
    # an OSError traceback would exit 1, which reads as a failed verification
    out = tmp_path / "missing" / "x.json"
    code, stdout, err = run(capsys, "--out", str(out), *argv)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


def test_a_file_nested_too_deep_exits_2(tmp_path):
    # json raises RecursionError here, which is not a ValueError
    (tmp_path / "deep.json").write_text("[" * 5000 + "]" * 5000)
    argvs = [["verify", "deep.json"], ["mubs", "--rds", "file:deep.json"],
             ["construct", "c1", "--rds", "file:deep.json", "--perm", "1,2", "--v", "1"],
             ["wh", "--fiducial", "file:deep.json"]]
    for argv, (code, stdout, err) in zip(argvs, run_fresh_many(tmp_path, argvs)):
        what = {"verify": "line set", "wh": "fiducial"}.get(argv[0], "RDS")
        assert (code, stdout) == (2, ""), argv
        assert err.startswith(f"error: malformed or invalid {what}: ") and err.count("\n") == 1


def test_an_rds_whose_group_is_not_of_order_d_squared_exits_2_at_once(tmp_path):
    # rds_verify would enumerate the forbidden subgroup, here all 10^12
    # elements, growing without bound
    (tmp_path / "huge.json").write_text(
        '{"orders": [1000000000000], "forbidden": [[1]], "elements": [[0], [1]]}')
    argvs = [["mubs", "--rds", "file:huge.json"],
             ["construct", "c1", "--rds", "file:huge.json", "--perm", "1,2", "--v", "1"],
             ["construct", "c3", "--rds", "file:huge.json", "--perm", "1,2"],
             ["search", "c1", "--rds", "file:huge.json"]]
    message = "error: need a group of order d^2 = 4 for d = 2 elements, got order 1000000000000\n"
    assert run_fresh_many(tmp_path, argvs, timeout=5) == [[2, "", message]] * len(argvs)


#: the `mublines` process: console_entry, as the console script runs it
_ENTRY = [sys.executable, "-m", "mublines.cli"]


def run_process(cwd, command, **kwargs):
    """The finished process of command in cwd with this checkout's src on
    PYTHONPATH and stdout block-buffered, as by default (PYTHONUNBUFFERED
    would write each piece at once, so no flush could be missed); stdout and
    stderr are captured as text unless kwargs say otherwise."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
    kwargs = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, **kwargs}
    return subprocess.run(command, cwd=cwd, env=dict(env, PYTHONPATH=str(src)),
                          timeout=60, **kwargs)


#: commands run both by the process entry and by main(), in this order, in
#: one directory a side: f.json is written and then verified
_ENTRY_ARGVS = [
    ["mubs", "--rds", "builtin:5"],
    ["construct", "c1", "--d", "4", "--perm", "1,3,4,2", "--v", "sqrt(2+sqrt(5))"],
    ["--out", "f.json", "construct", "c3ext"],
    ["verify", "f.json"],
    ["search", "c1", "--d", "4"],
    ["wh"],
    ["construct", "c2", "--a", "0.5"],
    ["bounds", "--d", "17"],
    ["mubs", "--rds", "builtin:8"],
    ["verify", "missing.json"],
    ["construct", "c1", "--d", "4", "--perm", "1,2,3", "--v", "1"],
    ["--help"],
    ["nope"],
]


def test_the_process_entry_gives_what_main_gives(tmp_path):
    in_process, entry = tmp_path / "main", tmp_path / "entry"
    in_process.mkdir()
    entry.mkdir()
    expected = run_fresh_many(in_process, _ENTRY_ARGVS)
    assert [code for code, _, _ in expected] == [0, 0, 0, 0, 0, 0, 0, 0, 2, 2, 2, 0, 2]
    for argv, want in zip(_ENTRY_ARGVS, expected):
        proc = run_process(entry, [*_ENTRY, *argv])
        assert [proc.returncode, proc.stdout, proc.stderr] == want, argv
    assert (entry / "f.json").read_bytes() == (in_process / "f.json").read_bytes()


def test_a_piped_stdout_is_the_out_file_byte_for_byte(capsys, tmp_path):
    # the process ends by os._exit: a flush missed before it would cut stdout
    assert run(capsys, "--out", str(tmp_path / "m31.json"), "mubs", "--rds", "builtin:31")[0] == 0
    proc = run_process(tmp_path, [*_ENTRY, "mubs", "--rds", "builtin:31"], text=False)
    assert proc.returncode == 0
    assert proc.stdout == (tmp_path / "m31.json").read_bytes()


_AT_EXIT = """
import atexit, sys
import mublines.cli
atexit.register(print, "atexit ran")
mublines.cli.console_entry()
"""


def test_the_process_entry_skips_the_interpreter_teardown(capsys, tmp_path):
    expected = run(capsys, "bounds", "--d", "17")
    proc = run_process(tmp_path, [sys.executable, "-c", _AT_EXIT, "bounds", "--d", "17"])
    assert (proc.returncode, proc.stdout, proc.stderr) == expected


_RAISING = """
import mublines.cli
def cmd_bounds(args):
    raise RuntimeError("not an input error")
mublines.cli.cmd_bounds = cmd_bounds
mublines.cli.console_entry()
"""


def test_any_other_exception_still_unwinds_with_its_traceback(tmp_path):
    proc = run_process(tmp_path, [sys.executable, "-c", _RAISING, "bounds", "--d", "4"])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("Traceback ")
    assert proc.stderr.endswith("\nRuntimeError: not an input error\n")


#: a shell command line that runs the rest of its arguments with fd 1 closed
_FD1_CLOSED = ["sh", "-c", '"$0" "$@" >&-']


@pytest.mark.parametrize("argv", [("bounds", "--d", "4"), ("mubs", "--rds", "builtin:31")])
@pytest.mark.parametrize("target, error", [("closed pipe", errno.EPIPE),
                                           ("/dev/full", errno.ENOSPC),
                                           ("closed fd 1", errno.EBADF)])
def test_a_failed_write_to_stdout_exits_2_with_one_error_line(tmp_path, argv, target, error):
    # an OSError traceback would exit 1, read as a failed verification, and
    # a closed fd 1 would lose the output with exit 0; the 1.2 MB of mubs
    # fail during the command, bounds at the final flush
    command = [*_ENTRY, *argv]
    if target == "closed pipe":
        read, write = os.pipe()
        os.close(read)
        try:
            proc = run_process(tmp_path, command, stdout=write)
        finally:
            os.close(write)
    elif target == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            proc = run_process(tmp_path, command, stdout=full)
    else:
        proc = run_process(tmp_path, [*_FD1_CLOSED, *command], stdout=None)
    assert (proc.returncode, proc.stderr) == (
        2, f"error: cannot write stdout: {os.strerror(error)}\n")


def test_a_failed_write_to_stdout_with_stderr_closed_too_exits_2(tmp_path):
    # print(file=None) writes to stdout: the error line must not go there
    proc = run_process(tmp_path, ["sh", "-c", '"$0" "$@" >&- 2>&-', *_ENTRY, "bounds", "--d", "4"],
                       stdout=None, stderr=None)
    assert proc.returncode == 2


@pytest.mark.parametrize("argv", [("verify", "missing.json"), ("mubs", "--rds", "builtin:3"),
                                  ("bounds", "--d", "4")])
@pytest.mark.parametrize("target", ["closed fd 2", "read-only fd 2", "/dev/full"])
def test_a_failing_stderr_keeps_stdout_and_the_exit_code(tmp_path, argv, target):
    # a diagnostic that cannot be written is dropped.  With fd 2 closed at
    # start print(file=None) would write it to stdout, and on a read-only fd
    # 2 (as a launcher script can leave it) or a full device its OSError
    # would exit 1, read as a failed verification
    command = [*_ENTRY, *argv]
    want = run_process(tmp_path, command)
    if target == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        with open("/dev/full", "w") as full:
            proc = run_process(tmp_path, command, stderr=full)
    else:
        redirect = "2>&-" if target == "closed fd 2" else "2</dev/null"
        proc = run_process(tmp_path, ["sh", "-c", f'"$0" "$@" {redirect}', *command],
                           stderr=None)
    assert (proc.returncode, proc.stdout) == (want.returncode, want.stdout)


def test_out_with_fd_1_closed_writes_nothing_to_stdout_and_exits_0(capsys, tmp_path):
    assert run(capsys, "--out", str(tmp_path / "main.json"), "mubs", "--rds", "builtin:3")[0] == 0
    proc = run_process(tmp_path, [*_FD1_CLOSED, *_ENTRY, "--out", "f.json", "mubs", "--rds",
                                  "builtin:3"], stdout=None)
    assert (proc.returncode, proc.stderr) == (0, "3 MUBs in C^3: verify_mubs = True\n")
    assert (tmp_path / "f.json").read_bytes() == (tmp_path / "main.json").read_bytes()
