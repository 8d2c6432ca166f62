"""Command-line front end.

Exit codes: 0 success / equiangular, 1 well-formed but failed verification,
2 usage or input error, or a failed write to stdout (a closed pipe, a full
device, a closed descriptor); a failed write to stderr changes neither the
exit code nor stdout.  A `mublines` process runs `console_entry`,
which ends the process by os._exit once stdout and stderr are flushed,
skipping the interpreter's teardown; `main` returns its code, in-process.
Every command's stdout is JSON lines: `construct` and `wh` print the line
set (unless --out is given) and then the report `verify` prints.

`main` checks the options of every command in one place, `_check_options`,
before the command runs; each command then imports the library modules it
runs.  Every input file is read as strict JSON (RFC 8259: no NaN or
Infinity), and a line-set or fiducial document is checked by the numpy-free
scalars._line_set_entries before framecore builds it.  So `bounds`, every
option error and every malformed line-set or fiducial file exit before numpy
loads (for a builtin RDS), and `verify` loads framecore alone.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import sys

from .scalars import (
    _C1_BUDGET,
    DEFAULT_TOL,
    _check_tol,
    _columns,
    _gauss_if_integral,
    _line_set_entries,
    max_angle,
    mub_bound,
    special_bound_f,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    """A usage or input error; exits with EXIT_USAGE."""


def _refuse_constant(name: str):
    """json's parse_constant: NaN, Infinity and -Infinity are not JSON."""
    raise ValueError(f"{name} is not a JSON number")


def _load(path: str, what: str, parse):
    """parse() of the strict JSON document at path; CliError if it cannot be
    read or parsed (a JSONDecodeError, or a RecursionError if nested too deep)."""
    try:
        with open(path) as fh:
            return parse(json.load(fh, parse_constant=_refuse_constant))
    except OSError as exc:
        raise CliError(f"cannot read {what}: {exc}")
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise CliError(f"malformed or invalid {what}: {exc}")


def _emit(data, out_path: str | None) -> None:  # a dict or a LineSet
    from . import framecore

    if out_path:
        try:
            framecore.dump_json(data, out_path)
        except OSError as exc:
            raise CliError(f"cannot write {out_path}: {exc.strerror or exc}")
    else:
        sys.stdout.writelines(framecore._encode(data))
        sys.stdout.write("\n")


def _verdict(args, lines, emit: bool) -> int:
    """The framecore.GramReport of lines at --tol, taken first, so that a
    Gram error exits 2 before anything is written; then the line set (if
    emit) and the report as one JSON line.  0 if equiangular, 1 if not."""
    from . import framecore

    report = framecore.gram_analyze(lines, args.tol)
    if emit:
        _emit(lines, args.out)
    print(json.dumps(report.to_json(), sort_keys=True))
    return EXIT_OK if report.equiangular else EXIT_FAILED


def cmd_mubs(args) -> int:
    from . import abelian, constructions, framecore

    family = constructions._godsil_roy(args.rds)
    ok = framecore.verify_mubs(list(family.bases), args.tol)
    payload = {
        "dim": family.dim,
        "rds": abelian.rds_to_json(args.rds),
        "bases": list(family.bases),  # LineSets, each encoded in its turn
        "verified": ok,
    }
    _emit(payload, args.out)
    print(f"{family.dim} MUBs in C^{family.dim}: verify_mubs = {ok}",
          file=sys.stderr)
    return EXIT_OK if ok else EXIT_FAILED


#: the options that each command, each kind of `construct` and `wh` read;
#: any other one given exits 2, as it would change nothing
_READS = {
    "bounds": {"d"},
    "mubs": {"tol", "out", "rds"},
    "search": {"tol", "d", "rds"},
    "verify": {"tol"},
    "c1": {"tol", "out", "d", "rds", "perm", "v"},
    "c2": {"tol", "out", "a"},
    "c3": {"tol", "out", "d", "rds", "perm", "a", "b", "variant"},
    "c3ext": {"tol", "out"},
    "hoggar": {"tol", "out"},
    "wh": {"tol", "out", "fiducial"},
}

#: the options a row cannot run without
_REQUIRES = {"c1": ("perm", "v"), "c3": ("perm",)}

#: the value of an option its row reads when it is not given; c3's --a and
#: --b stay unset, for the first point of construction3_solve
_DEFAULTS = {"tol": DEFAULT_TOL, "variant": "default", "fiducial": "builtin:d4",
             ("c2", "a"): 0.0}


def _check_options(args) -> None:
    """Check args against its row of _READS, before numpy loads, then fill in
    its defaults. In order: --rds (builtin:<--d>, or d = 4, if not given) is
    resolved into args.rds and --d checked against it, then come the required
    options, c3's --a/--b pair, the permutation (into args.perm), the
    options the row does not read, the constant --v (into args.v, a Scalar)
    and the form of --fiducial; the first to fail raises."""
    kind = getattr(args, "kind", None)
    row = kind or args.command
    what = f"construct {kind}" if args.command == "construct" else row
    reads = _READS[row]
    if "rds" in reads:
        from . import abelian

        d = getattr(args, "d", None)
        ref = args.rds or f"builtin:{4 if d is None else d}"
        if ref.startswith("builtin:"):
            try:
                n = int(ref.split(":", 1)[1])
            except ValueError:
                raise CliError(f"bad builtin RDS reference {ref!r}")
            args.rds = abelian.builtin_rds(n)
        elif ref.startswith("file:"):
            args.rds = _load(ref.split(":", 1)[1], "RDS", abelian.rds_from_json)
        else:
            raise CliError(f"RDS reference must be builtin:<d> or file:<path>, got {ref!r}")
        if d is not None and d != len(args.rds.elements):
            raise CliError(f"--d {d} conflicts with --rds {ref}, "
                           f"an RDS of d = {len(args.rds.elements)}")
    required = _REQUIRES.get(row, ())
    if any(getattr(args, name) is None for name in required):
        raise CliError(f"{what} requires " + " and ".join(f"--{name}" for name in required))
    if row == "c3" and (args.a is None) != (args.b is None):
        raise CliError("construct c3 takes both --a and --b, or neither")
    if "perm" in reads:
        # its length d is the number of RDS elements, d for a (d, d, d, 1)-RDS
        try:
            perm = tuple(int(p) for p in args.perm.split(","))
        except ValueError:
            raise CliError(f"bad permutation {args.perm!r}")
        _columns(perm, len(args.rds.elements))
        args.perm = perm
    unread = sorted(name for name in set().union(*_READS.values()) - reads
                    if getattr(args, name, None) is not None)
    if unread:
        raise CliError(f"{what} does not read " + ", ".join(f"--{name}" for name in unread))
    for name in reads:
        if getattr(args, name) is None:
            setattr(args, name, _DEFAULTS.get((row, name), _DEFAULTS.get(name)))
    if "v" in reads:
        from .exprs import parse_constant

        args.v = _gauss_if_integral(parse_constant(args.v))
    ref = getattr(args, "fiducial", None)
    if "fiducial" in reads and ref != "builtin:d4" and not ref.startswith("file:"):
        raise CliError(f"fiducial must be builtin:d4 or file:<path>, got {ref!r}")


def _build_lines(args):
    """The LineSet of `construct <kind>`, or of `wh` (its kind)."""
    kind = args.kind
    if kind == "wh":
        fiducial = _resolve_fiducial(args.fiducial)
        from . import weylheisenberg

        return weylheisenberg.wh_orbit(fiducial)
    from . import constructions

    if kind == "c1":
        family = constructions.mubs_from_rds(args.rds)
        return constructions.l_block(family, constructions.ScalingSpec(args.perm, args.v))
    if kind == "c2":
        return constructions.construction2_family(args.a)
    if kind == "c3":
        family = constructions.mubs_from_rds(args.rds)
        if args.a is None:
            a, b = constructions.construction3_solve(family.dim)[0]
        else:
            a, b = args.a, args.b
        spec = constructions.BlockPairSpec(args.perm, a, b, args.variant)
        return constructions.construction3_pair(family, spec)
    if kind == "c3ext":
        return constructions.construction3_d4_extension()
    return constructions.hoggar_tensor_orbit()


def cmd_construct(args) -> int:
    return _verdict(args, _build_lines(args), emit=True)


def _lineset_from_json(data: dict):
    """framecore.lineset_from_json, with framecore (and numpy) imported only
    once _line_set_entries has passed the document."""
    checked = _line_set_entries(data)
    from . import framecore

    return framecore._lineset_of(data, *checked)


def cmd_verify(args) -> int:
    return _verdict(args, _load(args.input, "line set", _lineset_from_json), emit=False)


def cmd_search(args) -> int:
    from . import constructions

    family = constructions.mubs_from_rds(args.rds)
    try:
        hits = constructions.c1_search(family, args.phase_roots, args.budget, args.tol)
    except constructions.BudgetExceeded as exc:
        raise CliError(str(exc))
    for spec, report in hits:
        print(json.dumps({
            "perm": list(spec.perm),
            "v": [spec.v.re, spec.v.im],
            "common_angle": report.common_angle,
        }, sort_keys=True))
    perms = sorted({spec.perm for spec, _ in hits})
    print(f"{len(hits)} equiangular hits over {len(perms)} permutations",
          file=sys.stderr)
    return EXIT_OK


def cmd_bounds(args) -> int:
    d = args.d
    try:  # float(d), and (2 sqrt(d) + d)^2 within it, overflow from d ~ 1.3e154
        bound = special_bound_f(d)
    except OverflowError:
        bound = math.inf
    if not math.isfinite(bound):  # from d ~ 1e77; every other float is finite below that
        raise CliError("--d is too large: its bounds exceed float64")
    payload = {
        "d": d,
        "max_lines": d * d,
        "special_bound_f": bound,
        "block_pair_angle": 1.0 / (1.0 + math.sqrt(d)),
    }
    if d >= 2:
        payload["mub_bound"] = mub_bound(d)
        payload["max_angle"] = max_angle(d)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _resolve_fiducial(ref: str):
    """The weylheisenberg.Fiducial of a reference, builtin:d4 or file:<path>
    as _check_options has checked; weylheisenberg (and numpy) loads once a
    file has been read."""
    if ref == "builtin:d4":
        from . import weylheisenberg

        return weylheisenberg.fiducial_d4()
    vector = _load(ref.split(":", 1)[1], "fiducial",
                   lambda data: _lineset_from_json(_fiducial_lines(data)).vectors[0])
    from . import weylheisenberg

    return weylheisenberg.Fiducial(vector, "user")


def _fiducial_lines(data) -> dict:
    """The line-set document of a fiducial document {"vector": [[re, im],
    ...]}, a one-vector complex-f64 set whose entries _line_set_entries
    checks; ValueError if data is not a JSON object with a vector list."""
    if not isinstance(data, dict):
        raise ValueError("fiducial document must be a JSON object")
    if "vector" not in data:
        raise ValueError("fiducial document must have vector")
    if not isinstance(data["vector"], list):
        raise ValueError("fiducial vector must be a list of [re, im] pairs")
    return {"dim": len(data["vector"]), "vectors": [data["vector"]]}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mublines",
        description="Construct and verify complex equiangular lines and MUBs",
    )
    # every option the table names defaults to None: _check_options tells an
    # option given from one not given, then fills in _DEFAULTS
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--out", default=None, help="write JSON output here")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mubs", help="build MUBs from a relative difference set")
    p.add_argument("--rds", required=True)
    p.set_defaults(func=cmd_mubs)

    p = sub.add_parser("construct", help="run one of the line constructions")
    p.add_argument("kind", choices=["c1", "c2", "c3", "c3ext", "hoggar"])
    p.add_argument("--d", type=int, default=None, help="4 unless --rds gives d")
    p.add_argument("--rds", default=None)
    p.add_argument("--perm", default=None, help="e.g. 1,3,4,2")
    p.add_argument("--v", default=None, help='e.g. "sqrt(2+sqrt(5))"')
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--variant", choices=["default", "i-twist"], default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="analyze a line-set JSON file")
    p.add_argument("input")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("search", help="exhaustive Construction-1 search")
    p.add_argument("what", choices=["c1"])
    p.add_argument("--d", type=int, default=None, help="4 unless --rds gives d")
    p.add_argument("--rds", default=None)
    p.add_argument("--phase-roots", type=int, default=4)
    p.add_argument("--budget", type=int, default=_C1_BUDGET)
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bounds", help="print the line and MUB bounds for d")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("wh", help="Weyl-Heisenberg orbit of a fiducial")
    p.add_argument("--fiducial", default=None)
    p.set_defaults(func=cmd_construct, kind="wh")

    return parser


#: the thread counts of BLAS and its kin.  A process started with none of
#: them set runs one thread: on two cores shared with a busy process, the
#: default threads made small float Grams up to ~80x slower
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def main(argv=None) -> int:
    if not any(name in os.environ for name in _THREAD_VARS):  # before numpy loads
        os.environ.update(dict.fromkeys(_THREAD_VARS, "1"))
    parser = build_parser()
    args = parser.parse_args(argv)
    try:  # the tol the command reads, refused as argparse words a bad option
        _check_tol(DEFAULT_TOL if args.tol is None else args.tol)
    except ValueError as exc:
        parser.error(f"argument --{exc}")
    try:
        _check_options(args)
        return args.func(args)
    except (CliError, ValueError) as exc:
        # RdsError, InvalidRds, ZeroVectorError, ExpressionError and the Gram's
        # non-finite check are all ValueErrors: bad input, not a "no"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


class _StdoutError(Exception):
    """A write to stdout failed; its message is the OSError's strerror."""


class _Stream:
    """sys.stdout or sys.stderr in a `mublines` process.  With its fd closed
    at start, stream is None and every write fails with EBADF.  On stdout
    an OSError of a write or flush becomes _StdoutError, so console_entry
    tells it from any other OSError (and argparse's help, which swallows an
    OSError, does not).  On stderr (drop) it is dropped, so a diagnostic
    that cannot be written changes neither stdout nor the exit code: fd 2
    closed (print(file=None) would write to stdout), left read-only by a
    launcher script, or a full device."""

    def __init__(self, stream, drop: bool = False):
        self._stream, self._drop = stream, drop

    def __getattr__(self, name):
        return getattr(self._stream, name)

    def _call(self, name, *args):
        try:
            if self._stream is None:
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            return getattr(self._stream, name)(*args)
        except OSError as exc:
            if not self._drop:
                raise _StdoutError(exc.strerror or exc) from None

    def write(self, text):
        return self._call("write", text)

    def writelines(self, lines):
        return self._call("writelines", lines)

    def flush(self):
        if self._stream is not None:
            self._call("flush")


def console_entry():
    """The `mublines` process: main(), then flush stdout and stderr and end
    the process with os._exit, as the interpreter's teardown of numpy and
    every other module changes nothing the process wrote.  A failed write to
    stdout exits 2 with one error line and is not retried; argparse's
    SystemExit takes the same exit; any other exception unwinds as usual."""
    sys.stdout, sys.stderr = _Stream(sys.stdout), _Stream(sys.stderr, drop=True)
    try:
        try:
            code = main()
        except SystemExit as exc:  # --help and usage errors
            code = exc.code
        sys.stdout.flush()
    except _StdoutError as exc:
        code = EXIT_USAGE
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    console_entry()
