"""Command-line front end.

Exit codes: 0 success / equiangular, 1 well-formed but failed verification,
2 usage or input error.

Each command imports the library modules it runs, and only once its input
has been read and checked: `bounds`, a missing file, an unsupported RDS, a
`--d` that differs from the d of `--rds`, a `construct` permutation that
does not fit d and an option that its command (or `construct` kind) does
not read exit before numpy loads (for a builtin RDS), and `verify` loads
framecore alone.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .scalars import (
    _C1_BUDGET,
    DEFAULT_TOL,
    _columns,
    _gauss_if_integral,
    max_angle,
    mub_bound,
    special_bound_f,
)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


class CliError(Exception):
    """A usage or input error; exits with EXIT_USAGE."""


def _load(path: str, what: str, parse):
    """parse() of the JSON document at path; CliError if it cannot be read
    or parsed."""
    try:
        with open(path) as fh:
            return parse(json.load(fh))
    except OSError as exc:
        raise CliError(f"cannot read {what}: {exc}")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # JSONDecodeError too
        raise CliError(f"malformed or invalid {what}: {exc}")


def _resolve_rds(ref: str):
    """The RelativeDifferenceSet of a reference; abelian loads no numpy."""
    from . import abelian

    if ref.startswith("builtin:"):
        try:
            d = int(ref.split(":", 1)[1])
        except ValueError:
            raise CliError(f"bad builtin RDS reference {ref!r}")
        return abelian.builtin_rds(d)
    if ref.startswith("file:"):
        return _load(ref.split(":", 1)[1], "RDS", abelian.rds_from_json)
    raise CliError(f"RDS reference must be builtin:<d> or file:<path>, got {ref!r}")


def _parse_perm(text: str) -> tuple[int, ...]:
    """The integers of "1,3,4,2"; scalars._columns checks that they are a
    permutation."""
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise CliError(f"bad permutation {text!r}")


def _emit(data: dict, out_path: str | None) -> None:
    from . import framecore

    if out_path:
        framecore.dump_json(data, out_path)
    else:
        sys.stdout.writelines(framecore._encode(data))
        sys.stdout.write("\n")


def _report_summary(report, fmt: str) -> None:
    """Print a framecore.GramReport as JSON or as one summary line."""
    if fmt == "json":
        print(json.dumps(report.to_json(), sort_keys=True))
    else:
        verdict = "equiangular" if report.equiangular else "NOT equiangular"
        clusters = ", ".join(
            f"{mag:.12g} x{mult}" for mag, mult in report.angle_clusters
        )
        print(f"{report.size} vectors: {verdict}; angle clusters: {clusters}")


def cmd_mubs(args) -> int:
    rds = _resolve_rds(args.rds)
    from . import abelian, constructions, framecore

    family = constructions.mubs_from_rds(rds)
    # mubs_from_rds has passed verify_mubs at DEFAULT_TOL, and every float
    # check is value <= tol, so only a tighter tol can still fail
    ok = args.tol >= DEFAULT_TOL or framecore.verify_mubs(list(family.bases), args.tol)
    payload = {
        "dim": family.dim,
        "rds": abelian.rds_to_json(rds),
        "bases": [framecore.lineset_to_json(b) for b in family.bases],
        "verified": ok,
    }
    _emit(payload, args.out)
    print(f"{family.dim} MUBs in C^{family.dim}: verify_mubs = {ok}",
          file=sys.stderr)
    return EXIT_OK if ok else EXIT_FAILED


def _rds(args):
    """The RelativeDifferenceSet of --rds, or of builtin:<--d> (d = 4 when
    neither is given); CliError if --d and --rds name different d."""
    rds = _resolve_rds(args.rds or f"builtin:{4 if args.d is None else args.d}")
    if args.d is not None and args.d != len(rds.elements):
        raise CliError(f"--d {args.d} conflicts with --rds {args.rds}, "
                       f"an RDS of d = {len(rds.elements)}")
    return rds


def _family(rds):
    """The MubFamily of an RDS; the first use of numpy."""
    from . import constructions

    return constructions.mubs_from_rds(rds)


#: the options that each command, and each kind of `construct` (and `wh`),
#: reads; any other one given exits 2, as it would change nothing
_READS = {
    "bounds": {"d"},
    "mubs": {"tol", "out", "rds"},
    "search": {"tol", "d", "rds"},
    "verify": {"tol"},
    "c1": {"tol", "out", "format", "d", "rds", "perm", "v"},
    "c2": {"tol", "out", "format", "a"},
    "c3": {"tol", "out", "format", "d", "rds", "perm", "a", "b", "variant"},
    "c3ext": {"tol", "out", "format"},
    "hoggar": {"tol", "out", "format"},
    "wh": {"tol", "out", "format", "fiducial"},
}


def _refuse_unread(args, row: str, what: str) -> None:
    """CliError naming every option of the table given to args but not read
    by the row."""
    unread = sorted(name for name in set().union(*_READS.values()) - _READS[row]
                    if getattr(args, name, None) is not None)
    if unread:
        raise CliError(f"{what} does not read " + ", ".join(f"--{name}" for name in unread))


def _build_lines(args):
    """The LineSet of `construct <kind>`, or of `wh`."""
    kind = args.kind
    if kind in ("c1", "c3"):
        # the permutation is checked before numpy loads: its length d is the
        # number of RDS elements, d for a (d, d, d, 1)-RDS
        rds = _rds(args)
        if args.perm is None or (kind == "c1" and args.v is None):
            raise CliError("construct c1 requires --perm and --v" if kind == "c1"
                           else "construct c3 requires --perm")
        if kind == "c3" and (args.a is None) != (args.b is None):
            raise CliError("construct c3 takes both --a and --b, or neither")
        perm = _parse_perm(args.perm)
        _columns(perm, len(rds.elements))
    _refuse_unread(args, kind, f"construct {kind}")  # after a bad permutation is named
    if kind == "wh":
        from . import weylheisenberg

        return weylheisenberg.wh_orbit(_resolve_fiducial(args.fiducial))
    if kind in ("c1", "c3"):
        family = _family(rds)
    from . import constructions

    if kind == "c1":
        from .exprs import parse_constant

        spec = constructions.ScalingSpec(perm, _gauss_if_integral(parse_constant(args.v)))
        return constructions.l_block(family, spec)
    if kind == "c2":
        return constructions.construction2_family(args.a if args.a is not None else 0.0)
    if kind == "c3":
        if args.a is None:
            a, b = constructions.construction3_solve(family.dim)[0]
        else:
            a, b = args.a, args.b
        spec = constructions.BlockPairSpec(perm, a, b, args.variant or "default")
        return constructions.construction3_pair(family, spec)
    if kind == "c3ext":
        return constructions.construction3_d4_extension()
    if kind == "hoggar":
        return constructions.hoggar_tensor_orbit()
    raise CliError(f"unknown construction kind {kind!r}")


def cmd_construct(args) -> int:
    lines = _build_lines(args)
    from . import framecore

    report = framecore.gram_analyze(lines, args.tol)
    _emit(framecore.lineset_to_json(lines), args.out)
    _report_summary(report, args.format)
    return EXIT_OK if report.equiangular else EXIT_FAILED


def _lineset_from_json(data: dict):
    """framecore.lineset_from_json, with framecore imported once the document
    has been read."""
    from . import framecore

    return framecore.lineset_from_json(data)


def cmd_verify(args) -> int:
    lines = _load(args.input, "line set", _lineset_from_json)
    from . import framecore

    report = framecore.gram_analyze(lines, args.tol)
    print(json.dumps(report.to_json(), sort_keys=True))
    return EXIT_OK if report.equiangular else EXIT_FAILED


def cmd_search(args) -> int:
    family = _family(_rds(args))
    from . import constructions

    budget = math.inf if args.force else args.budget
    try:
        hits = constructions.c1_search(family, args.phase_roots, budget, args.tol)
    except constructions.BudgetExceeded as exc:
        raise CliError(f"{exc} (pass --force to override)")
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
    payload = {
        "d": d,
        "max_lines": d * d,
        "special_bound_f": special_bound_f(d),
        "block_pair_angle": 1.0 / (1.0 + math.sqrt(d)),
    }
    if d >= 2:
        payload["mub_bound"] = mub_bound(d)
        payload["max_angle"] = max_angle(d)
    print(json.dumps(payload, sort_keys=True))
    return EXIT_OK


def _resolve_fiducial(ref: str | None):
    """The weylheisenberg.Fiducial of a reference."""
    from . import weylheisenberg

    ref = ref or "builtin:d4"
    if ref == "builtin:d4":
        return weylheisenberg.fiducial_d4()
    if ref.startswith("file:"):
        # {"vector": [[re, im], ...]} is a one-vector complex-f64 line set
        return _load(ref.split(":", 1)[1], "fiducial", lambda data: weylheisenberg.Fiducial(
            _lineset_from_json({"dim": len(data["vector"]),
                                         "vectors": [data["vector"]]}).vectors[0], "user"))
    raise CliError(f"fiducial must be builtin:d4 or file:<path>, got {ref!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mublines",
        description="Construct and verify complex equiangular lines and MUBs",
    )
    # --tol and --format default to None, read as DEFAULT_TOL and "summary"
    parser.add_argument("--tol", type=float, default=None)
    parser.add_argument("--out", default=None, help="write JSON output here")
    parser.add_argument("--format", choices=["json", "summary"], default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mubs", help="build MUBs from a relative difference set")
    p.add_argument("--rds", required=True)
    p.set_defaults(func=cmd_mubs)

    p = sub.add_parser("construct", help="run one of the line constructions")
    p.add_argument("kind", choices=["c1", "c2", "c3", "c3ext", "hoggar", "wh"])
    p.add_argument("--d", type=int, default=None, help="4 unless --rds gives d")
    p.add_argument("--rds", default=None)
    p.add_argument("--perm", default=None, help="e.g. 1,3,4,2")
    p.add_argument("--v", default=None, help='e.g. "sqrt(2+sqrt(5))"')
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--variant", choices=["default", "i-twist"], default=None)
    p.add_argument("--fiducial", default=None)
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
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("bounds", help="print the line and MUB bounds for d")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("wh", help="Weyl-Heisenberg orbit of a fiducial")
    p.add_argument("--fiducial", default="builtin:d4")
    p.set_defaults(func=cmd_construct, kind="wh")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # an infinite tol would call every set equiangular, a NaN one fail every check
    if args.tol is not None and not 0 <= args.tol < math.inf:
        parser.error(f"argument --tol: must be a finite number >= 0, got {args.tol}")
    try:
        if args.func is not cmd_construct:  # construct checks after its permutation
            _refuse_unread(args, args.command, args.command)
        args.tol = DEFAULT_TOL if args.tol is None else args.tol
        args.format = args.format or "summary"
        return args.func(args)
    except (CliError, ValueError) as exc:
        # RdsError, InvalidRds, ZeroVectorError, ExpressionError and the Gram's
        # non-finite check are all ValueErrors: bad input, not a "no"
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
