"""The four workloads: census, search, certify and cli.

Each workload has `setup()` (library warm-up, counted in setup_s),
`prepare()` (the benchmark's own inputs, not counted) and `round(rng)`, a
generator of Jobs.  A round always holds the same mix of job kinds; the
seed decides the order, the equivalences applied, the perturbed entries and
the parameters drawn.  Every job calls mublines through module attributes
(`self.fw.gram_analyze`, never a bound name), so the traced run's wrappers
and the self-tests' stubs see every call.
"""

from __future__ import annotations

import io
import itertools
import json
import math
import os
import resource
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import harness
import oracle
from harness import Job, Outcome, verdict

#: a process the cli workload starts is killed after this long
CLI_TIMEOUT_S = 60.0


@dataclass
class Context:
    root: Path
    tmp: Path
    recorder: object = None  # tracing.Recorder in the traced run

    def load_json(self, path):
        """json.load of a file, traced as part of the JSON layer."""
        rec = self.recorder
        if rec is not None and rec.active:
            return rec.span("bench.json_load", _load_json, (path,), {})
        return _load_json(path)


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def entries(lines) -> np.ndarray:
    """The (n, d) complex array of a line set, read from its scalars."""
    return np.array([[complex(e.re, e.im) for e in v.entries] for v in lines.vectors],
                    dtype=complex).reshape(len(lines.vectors), lines.dim)


def basis_arrays(family) -> np.ndarray:
    return np.stack([entries(b) for b in family.bases])


def int_parts(arr: np.ndarray):
    return oracle.gaussian_parts(np.stack([arr.real, arr.imag], axis=-1))


def truth_of(lines) -> Fraction | float | None:
    """Oracle angle (squared, exact) of a line set, or None if it is not
    equiangular."""
    arr = entries(lines)
    if lines.exact:
        return oracle.exact_equiangular(*int_parts(arr))
    return oracle.float_equiangular(arr)


def angle_matches(report, truth) -> bool:
    """The program's common angle equals the oracle's."""
    if truth is None:
        return True
    if isinstance(truth, Fraction):
        return abs(report.common_angle - math.sqrt(truth)) < 1e-12
    return abs(report.common_angle - truth) < 1e-9


class Workload:
    name = ""
    #: seconds one pass over one round takes on the reference machine (2
    #: cores, Python 3.11, numpy 2.4); --seconds S runs
    #: ceil(S / (ROUND_S * PASSES)) rounds, so the number of jobs in a run
    #: does not depend on how fast mublines is
    ROUND_S = 1.0
    #: each round is run this many times over; a job's latency is its
    #: fastest pass (see harness.run_rounds)
    PASSES = 3

    def __init__(self, ctx: Context):
        import mublines
        from mublines import abelian, cli, constructions, framecore, scalars, weylheisenberg

        self.ctx = ctx
        self.pkg = mublines
        self.ab, self.cons, self.fw = abelian, constructions, framecore
        self.wh, self.sc, self.cli = weylheisenberg, scalars, cli

    def setup(self) -> None:
        pass

    def prepare(self, fixtures) -> None:
        pass

    def peak_rss_kb(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def scale(self) -> float:
        """The host speed factor paired with each timed call."""
        return harness.host_scale()

    def round(self, rng):
        raise NotImplementedError

    # -- helpers shared by the workloads ------------------------------------

    def units(self, rng, n: int) -> tuple:
        return tuple(rng.choice(self.sc.GAUSSIAN_UNITS) for _ in range(n))

    def equivalence(self, rng, n: int, d: int):
        """Seeded vector and coordinate phases, all Gaussian units, so exact
        sets stay exact and every angle is unchanged."""
        fw = self.fw
        return fw.Compose((fw.VectorPhases(self.units(rng, n)),
                           fw.CoordPhases(self.units(rng, d))))

    def with_vector(self, lines, index: int, vector):
        vectors = list(lines.vectors)
        vectors[index] = vector
        return self.fw.LineSet(lines.dim, tuple(vectors))

    def with_entry(self, lines, index: int, col: int, change):
        """The line set with entry `col` of vector `index` replaced by
        change(entry)."""
        parts = list(lines.vectors[index].entries)
        parts[col] = change(parts[col])
        return self.with_vector(lines, index, self.fw.CVector(tuple(parts)))

    def to_float(self, lines):
        fw = self.fw
        return fw.LineSet(lines.dim, tuple(fw.CVector.make(v.to_array())
                                           for v in lines.vectors))

    def json_round_trip(self, lines, path):
        fw = self.fw
        fw.dump_json(fw.lineset_to_json(lines), path)
        return fw.lineset_from_json(self.ctx.load_json(path))


# --- census -----------------------------------------------------------------


class Census(Workload):
    """One job per d: RDS -> MUBs -> verify -> union Gram -> JSON ->
    lines_equal -> a "no" twin, as one pipeline."""

    name = "census"
    ROUND_S = 4.0
    DIMS = (2, 3, 4, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    #: lines_equal holds an n x n x d x d tensor (~180 MB at d = 13)
    LINES_EQUAL_MAX_D = 13
    #: one zero-vector instance per round from each band; the bands keep
    #: these cheap jobs below every pipeline job except d = 2, so the median
    #: lands on the same pipeline job whatever the seed
    ZERO_BANDS = ((2, 3), (4, 5), (7, 11, 13))

    def setup(self) -> None:
        for d in (2, 3):
            out = self._pipeline(d, self.ctx.tmp / "census-warmup.json", None, [])
            self.fw.lines_equal(out[1], out[1])

    def prepare(self, fixtures) -> None:
        # reference families for the benchmark's own inputs (copies, twins)
        self.reference = {d: self.cons.mubs_from_rds(self.ab.builtin_rds(d))
                          for d in self.DIMS}

    def union(self, family):
        return self.fw.LineSet(family.dim, tuple(v for b in family.bases for v in b.vectors))

    def _pipeline(self, d: int, path, copy, twin):
        fw = self.fw
        family = self.cons.mubs_from_rds(self.ab.builtin_rds(d))
        ok = fw.verify_mubs(list(family.bases))
        union = self.union(family)
        report = fw.gram_analyze(self.to_float(union) if union.exact else union)
        back = self.json_round_trip(union, path)
        same = fw.lines_equal(union, copy) if copy is not None else None
        twin_ok = fw.verify_mubs(twin) if twin else None
        return family, union, ok, report, back, same, twin_ok

    @staticmethod
    def _judge(d: int, copy, twin_truth: bool, out) -> Outcome:
        family, union, ok, report, back, same, twin_ok = out
        said = [ok, twin_ok]
        truth = [oracle.is_mub_family(basis_arrays(family)), twin_truth]
        if copy is not None:
            said.append(same)
            truth.append(oracle.same_lines(entries(union), entries(copy)))
        classes = sorted(oracle.mub_union_classes(d).items())
        got = report.angle_clusters
        clusters_ok = (not report.equiangular and len(got) == len(classes) and all(
            abs(a - b) < 1e-9 and m == n for (a, m), (b, n) in zip(got, classes)))
        trip_ok = (back.dim == d and back.exact == union.exact
                   and np.array_equal(entries(back), entries(union)))
        said = [bool(s) for s in said]
        return Outcome(said == truth and clusters_ok and trip_ok,
                       any(s and not t for s, t in zip(said, truth)))

    def _perturbed(self, rng, family, zero: bool):
        """The family with one vector zeroed, or one entry doubled."""
        d = family.dim
        b, i = rng.randrange(d), rng.randrange(d)
        basis = family.bases[b]
        if zero:
            basis = self.with_vector(basis, i, self.fw.CVector.make([0] * d))
        else:
            two = self.sc.Scalar.gauss(2)
            basis = self.with_entry(basis, i, rng.randrange(d), lambda e: e * two)
        bases = list(family.bases)
        bases[b] = basis
        return bases

    def _copy(self, rng, union):
        """Seeded Gaussian-unit phases and vector order: the same lines."""
        fw = self.fw
        phased = fw.apply_equivalence(union, fw.VectorPhases(self.units(rng, len(union))))
        order = rng.sample(range(len(union)), len(union))
        return fw.LineSet(union.dim, tuple(phased.vectors[i] for i in order))

    def round(self, rng):
        zero_ds = {rng.choice(band) for band in self.ZERO_BANDS}
        for d in rng.sample(self.DIMS, len(self.DIMS)):
            ref = self.reference[d]
            copy = self._copy(rng, self.union(ref)) if d <= self.LINES_EQUAL_MAX_D else None
            twin = self._perturbed(rng, ref, False)
            twin_truth = oracle.is_mub_family([entries(b) for b in twin])
            path = self.ctx.tmp / f"census-{d}.json"
            yield Job("census.pipeline",
                      lambda d=d, path=path, copy=copy, twin=twin:
                          self._pipeline(d, path, copy, twin),
                      lambda out, d=d, copy=copy, t=twin_truth: self._judge(d, copy, t, out),
                      True)
            if d in zero_ds:
                bases = self._perturbed(rng, ref, True)
                truth = oracle.is_mub_family([entries(b) for b in bases])
                yield Job("census.zero_vector", lambda bases=bases: self.fw.verify_mubs(bases),
                          lambda said, t=truth: verdict(bool(said), t), truth, "zero-vector")


# --- search -----------------------------------------------------------------


class Search(Workload):
    """Construction-1 scaling search and the Theorem 4.6 predicate."""

    name = "search"
    ROUND_S = 0.9
    DIMS = (2, 3, 4, 5)
    PHASE_ROOTS = (4, 8)
    T46_COPIES = 4

    def setup(self) -> None:
        self.families = {d: self.cons.mubs_from_rds(self.ab.builtin_rds(d))
                         for d in {*self.DIMS, 4}}

    def _copy(self, rng, family):
        """A Gaussian-unit equivalent family: hit counts are unchanged."""
        d = family.dim
        coord = self.fw.CoordPhases(self.units(rng, d))
        bases = tuple(
            self.fw.apply_equivalence(
                b, self.fw.Compose((self.fw.VectorPhases(self.units(rng, d)), coord)))
            for b in family.bases)
        return self.cons.MubFamily(d, bases, family.source_rds)

    @staticmethod
    def _judge_hits(expected, hits) -> Outcome:
        pending = list(expected)
        wrong = 0
        for spec, report in hits:
            v = complex(spec.v.re, spec.v.im)
            match = next((k for k, (perm, w) in enumerate(pending)
                          if perm == tuple(spec.perm) and abs(v - w) < 1e-9
                          and report.equiangular), None)
            if match is None:
                wrong += 1
            else:
                pending.pop(match)
        return Outcome(not wrong and not pending, wrong > 0)

    def round(self, rng):
        cases = [(d, pr) for d in self.DIMS for pr in self.PHASE_ROOTS]
        rng.shuffle(cases)
        for d, pr in cases:
            fam = self._copy(rng, self.families[d])
            expected = oracle.c1_hits(basis_arrays(fam), pr)
            yield Job(f"search.c1_d{d}_r{pr}",
                      lambda fam=fam, pr=pr: self.cons.c1_search(fam, pr),
                      lambda hits, e=expected: self._judge_hits(e, hits), bool(expected))
        # one job asks Theorem 4.6 about all 24 permutations of each of
        # T46_COPIES copies.  Per-permutation jobs would put the median on the
        # edge between fast "no" answers (early exit) and slower "yes" ones;
        # four copies keep this job's cost clear of the c1_search jobs, so the
        # median lands inside one class of job (c1_search at d = 4, r = 4)
        perms = list(itertools.permutations(range(1, 5)))
        cases = []
        for _ in range(self.T46_COPIES):
            fam4 = self._copy(rng, self.families[4])
            order = rng.sample(perms, len(perms))
            re, im = int_parts(basis_arrays(fam4))
            cases.append((fam4, order, {p for p in order if oracle.theorem46(re, im, p)}))

        def t46():
            return [{p for p in order if self.cons.theorem46_predicate(fam, p)}
                    for fam, order, _ in cases]

        def judge(said):
            wrong = any(got - truth for got, (_, _, truth) in zip(said, cases))
            return Outcome(said == [truth for *_, truth in cases], wrong)

        yield Job("search.theorem46", t46, judge, True)


# --- certify ----------------------------------------------------------------


class Certify(Workload):
    """Exact and float equiangularity certificates of fixed small sets."""

    name = "certify"
    #: 8 rounds at --seconds 20; a round's pass takes ~0.55 s at reference
    #: speed and ~0.8 s when the host runs slow
    ROUND_S = 0.85
    EXACT_SETS = ("c3ext", "lines64", "c3pair")
    FLOAT_SETS = ("c2", "hoggar", "wh4")
    #: known common angle of every set, for the "yes" inputs
    ANGLE = {"c3ext": 1 / 3, "lines64": 1 / 3, "c3pair": 1 / 3,
             "c2": 1 / 3, "hoggar": 1 / 3, "wh4": 1 / math.sqrt(5)}

    def setup(self) -> None:
        self.fam4 = self.cons.mubs_from_rds(self.ab.builtin_rds(4))
        self.fw.gram_analyze(self.cons.construction3_pair(
            self.fam4, self.cons.BlockPairSpec((1, 2, 3, 4), 2, 1)))

    def prepare(self, fixtures) -> None:
        self.lines64 = fixtures.lines64_d8()

    def _build(self, name: str, arg):
        cons = self.cons
        if name == "c3ext":
            return cons.construction3_d4_extension()
        if name == "lines64":
            return self.lines64
        if name == "c3pair":
            return cons.construction3_pair(self.fam4, cons.BlockPairSpec(arg, 2, 1))
        if name == "c2":
            return cons.construction2_family(arg)
        if name == "hoggar":
            return cons.hoggar_tensor_orbit()
        return self.wh.wh_orbit(self.wh.fiducial_d4())

    def _shape(self, name: str) -> tuple[int, int]:
        return {"c3pair": (16, 8), "wh4": (16, 4)}.get(name, (64, 8))

    def _certify(self, lines, path):
        if path is not None:
            lines = self.json_round_trip(lines, path)
        return lines, self.fw.gram_analyze(lines)

    def _judge(self, name: str, out, expect_yes: bool) -> Outcome:
        lines, report = out
        truth = truth_of(lines)
        ok = angle_matches(report, truth) if report.equiangular else True
        if expect_yes:  # the certified set must be the published one
            target = self.ANGLE[name]
            ok = ok and truth is not None and abs(
                (math.sqrt(truth) if isinstance(truth, Fraction) else truth) - target) < 1e-9
        return verdict(report.equiangular, truth is not None, ok)

    def _yes_job(self, rng, name, arg, as_float, path) -> Job:
        equiv = self.equivalence(rng, *self._shape(name))
        arith = "exact" if name in self.EXACT_SETS and not as_float else "float"

        def call():
            lines = self.fw.apply_equivalence(self._build(name, arg), equiv)
            return self._certify(self.to_float(lines) if as_float else lines, path)

        return Job(f"certify.{name}.{arith}", call,
                   lambda out: self._judge(name, out, True), True)

    def _input(self, rng, name, arg, as_float):
        lines = self.fw.apply_equivalence(self._build(name, arg),
                                          self.equivalence(rng, *self._shape(name)))
        return self.to_float(lines) if as_float else lines

    def _no_job(self, rng, name, arg, as_float, path) -> Job:
        lines = self._input(rng, name, arg, as_float)
        step = self.sc.Scalar.gauss(1) if lines.exact else self.sc.Scalar.from_complex(0.5)
        twin = self.with_entry(lines, rng.randrange(len(lines)), rng.randrange(lines.dim),
                               lambda e: e + step)
        truth = truth_of(twin) is not None
        arith = "exact" if lines.exact else "float"
        return Job(f"certify.no.{name}.{arith}", lambda: self._certify(twin, path),
                   lambda out: self._judge(name, out, False), truth)

    def _nan_job(self, rng, name, arg) -> Job:
        lines = self._input(rng, name, arg, True)
        nan = self.sc.Scalar.from_complex(complex(math.nan, 0.0))
        bad = self.with_entry(lines, rng.randrange(len(lines)), rng.randrange(lines.dim),
                              lambda e: nan)
        return Job("certify.nan", lambda: self.fw.gram_analyze(bad),
                   lambda report: verdict(report.equiangular, False), False, "nan-entry")

    def _non_integer_job(self, rng, name, arg, path) -> Job:
        """A gaussian-int file whose entry reads k + 0.7: the file describes
        a set that is not the certified one, so the answer must be "no"."""
        data = self.fw.lineset_to_json(self._input(rng, name, arg, False))
        i, col = rng.randrange(len(data["vectors"])), rng.randrange(data["dim"])
        data["vectors"][i][col][0] += 0.7
        with open(path, "w") as fh:
            json.dump(data, fh)
        truth = oracle.gaussian_parts(data["vectors"]) is not None

        def call():
            return self.fw.gram_analyze(self.fw.lineset_from_json(self.ctx.load_json(path)))

        return Job("certify.non_integer", call,
                   lambda report: verdict(report.equiangular, truth), truth,
                   "non-integer-gaussian")

    def round(self, rng):
        perms = list(itertools.permutations(range(1, 5)))
        pi_a, pi_b = rng.sample(perms, 2)
        a = rng.uniform(-3.0, 3.0)
        arg = {"c3ext": None, "lines64": None, "c2": a, "hoggar": None, "wh4": None}
        exact = (("c3ext", None), ("lines64", None), ("c3pair", pi_a))
        floats = [(name, arg[name], True) for name in self.FLOAT_SETS]
        # (kind, set, parameter, as complex-f64): every exact set in both
        # arithmetics, twice for the block pair, and a "no" twin of each
        yes = [(n, x, f) for n, x in exact + (("c3pair", pi_b),) for f in (False, True)]
        no = [(n, x, f) for n, x in exact for f in (False, True)]
        specs = [("yes", *s) for s in yes + floats] + [("no", *s) for s in no + floats]
        via_json = [True] * (len(specs) // 2) + [False] * (len(specs) - len(specs) // 2)
        rng.shuffle(via_json)
        jobs = [(kind, name, x, f, j) for (kind, name, x, f), j in zip(specs, via_json)]
        nan_set = rng.choice(self.FLOAT_SETS)
        jobs += [("nan", nan_set, arg[nan_set], True, False),
                 ("non_integer", rng.choice(("c3ext", "lines64")), None, False, True),
                 ("non_integer", "c3pair", pi_b, False, True)]
        rng.shuffle(jobs)
        for n, (kind, name, x, as_float, json_io) in enumerate(jobs):
            path = self.ctx.tmp / f"certify-{n}.json" if json_io else None
            if kind == "yes":
                yield self._yes_job(rng, name, x, as_float, path)
            elif kind == "no":
                yield self._no_job(rng, name, x, as_float, path)
            elif kind == "nan":
                yield self._nan_job(rng, name, x)
            else:
                yield self._non_integer_job(rng, name, x, path)


# --- cli --------------------------------------------------------------------


class Cli(Workload):
    """Fresh `python -m mublines.cli` processes, one at a time; the traced
    run calls `mublines.cli.main` in-process with the same argv lists."""

    name = "cli"
    ROUND_S = 4.2
    V_GOLDEN = "sqrt(2+sqrt(5))"

    def setup(self) -> None:
        self._in_process(["bounds", "--d", "4"])

    def prepare(self, fixtures) -> None:
        self.lines64 = fixtures.lines64_d8()
        self.fam4 = self.cons.mubs_from_rds(self.ab.builtin_rds(4))
        arrays = basis_arrays(self.fam4)
        self.golden_perms = {p for p, _ in oracle.c1_hits(arrays, 1)}
        self.search_hits = oracle.c1_hits(arrays, 4)
        self.env = dict(os.environ, PYTHONPATH=str(self.ctx.root / "src"))
        self.peak_kb = 0

    # -- running one command --------------------------------------------------

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(list(argv))
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue()

    def _spawn(self, argv):
        out_path = self.ctx.tmp / "cli-stdout.txt"
        with open(out_path, "wb") as out:
            proc = subprocess.Popen([sys.executable, "-m", "mublines.cli", *argv],
                                    stdout=out, stderr=subprocess.DEVNULL,
                                    env=self.env, cwd=self.ctx.root)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        return proc.returncode, out_path.read_text()

    def run(self, argv):
        if self.ctx.recorder is not None:
            return self._in_process(argv)
        return self._spawn(argv)

    def peak_rss_kb(self) -> int:
        """The largest CLI process, or this process when traced."""
        return super().peak_rss_kb() if self.ctx.recorder is not None else self.peak_kb

    def scale(self) -> float:
        """A process start is paired with a process-start probe."""
        return super().scale() if self.ctx.recorder is not None else harness.spawn_scale()

    # -- checking what a command printed ---------------------------------------

    @staticmethod
    def _first_json(text: str):
        return json.JSONDecoder().raw_decode(text.lstrip())[0]

    @staticmethod
    def _lines_truth(data):
        values = data["vectors"]
        if data.get("field") == "gaussian-int":
            parts = oracle.gaussian_parts(values)
            return None if parts is None else oracle.exact_equiangular(*parts)
        arr = np.asarray(values, dtype=float)
        return oracle.float_equiangular(arr[..., 0] + 1j * arr[..., 1])

    def _check_lines(self, target):
        def check(text):
            truth = self._lines_truth(self._first_json(text))
            if isinstance(truth, Fraction):
                truth = math.sqrt(truth)
            return truth is not None and abs(truth - target) < 1e-9
        return check

    def _check_mubs(self, text):
        data = self._first_json(text)
        bases = [np.asarray(b["vectors"], dtype=float) for b in data["bases"]]
        return data["verified"] is True and oracle.is_mub_family(
            [b[..., 0] + 1j * b[..., 1] for b in bases])

    def _check_search(self, text):
        hits = [json.loads(line) for line in text.splitlines() if line.strip()]
        got = sorted((tuple(h["perm"]), round(h["v"][0], 9), round(h["v"][1], 9))
                     for h in hits)
        want = sorted((p, round(v.real, 9), round(v.imag, 9)) for p, v in self.search_hits)
        return got == want

    @staticmethod
    def _check_bounds(d):
        def check(text):
            data = json.loads(text)
            return (data["max_lines"] == d * d and data["mub_bound"] == d + 1
                    and abs(data["max_angle"] - 1 / math.sqrt(d + 1)) < 1e-12
                    and abs(data["block_pair_angle"] - 1 / (1 + math.sqrt(d))) < 1e-12
                    and abs(data["special_bound_f"] - oracle.special_bound_f(d))
                    < 1e-9 * oracle.special_bound_f(d))
        return check

    def _check_verify(self, truth):
        def check(text):
            report = json.loads(text)
            return report["equiangular"] and abs(report["common_angle"] - truth) < 1e-9
        return check

    def _check_file(self, path, target):
        def check(_text):
            return self._check_lines(target)(path.read_text())
        return check

    def _job(self, kind, argv, expect, check=None, adversarial=None) -> Job:
        def judge(out):
            code, text = out
            ok = code in expect and (code != 0 or check is None or check(text))
            return verdict(code == 0, 0 in expect, ok)
        return Job(f"cli.{kind}", lambda: self.run(argv), judge, 0 in expect, adversarial)

    # -- inputs ------------------------------------------------------------------

    def _write(self, name: str, data) -> Path:
        path = self.ctx.tmp / name
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def _files(self, rng):
        fw = self.fw
        exact = fw.apply_equivalence(self.lines64, self.equivalence(rng, 64, 8))
        yes = fw.lineset_to_json(exact)
        wh = fw.lineset_to_json(self.wh.wh_orbit(self.wh.fiducial_d4()))
        i, col = rng.randrange(16), rng.randrange(4)
        no = json.loads(json.dumps(wh))
        no["vectors"][i][col][0] *= 1.5
        nan = json.loads(json.dumps(wh))
        nan["vectors"][i][col][0] = math.nan
        nonint = json.loads(json.dumps(yes))
        nonint["vectors"][rng.randrange(64)][rng.randrange(8)][0] += 0.7
        return {"yes": (self._write("cli-yes.json", yes), self._lines_truth(yes)),
                "no": self._write("cli-no.json", no),
                "nan": self._write("cli-nan.json", nan),
                "nonint": self._write("cli-nonint.json", nonint)}

    def round(self, rng):
        files = self._files(rng)
        yes_path, yes_truth = files["yes"]
        perm = rng.choice(list(itertools.permutations(range(1, 5))))
        d_mubs = rng.choice((2, 3, 4, 5, 7))
        d_bounds = rng.randrange(2, 65)
        a = f"{rng.uniform(-3.0, 3.0):.6f}"
        out64 = self.ctx.tmp / "cli-c3ext.json"
        jobs = [
            self._job("mubs", ["mubs", "--rds", f"builtin:{d_mubs}"], {0}, self._check_mubs),
            self._job("c1", ["construct", "c1", "--d", "4", "--perm",
                             ",".join(map(str, perm)), "--v", self.V_GOLDEN],
                      {0} if perm in self.golden_perms else {1},
                      self._check_lines(1 / math.sqrt(5))),
            self._job("c3ext", ["--out", str(out64), "construct", "c3ext"], {0},
                      self._check_file(out64, 1 / 3)),
            self._job("verify", ["verify", str(yes_path)], {0} if yes_truth else {1},
                      self._check_verify(math.sqrt(yes_truth) if yes_truth else None)),
            self._job("search", ["search", "c1", "--d", "4"], {0}, self._check_search),
            self._job("wh", ["wh"], {0}, self._check_lines(1 / math.sqrt(5))),
            self._job("c2", ["construct", "c2", "--a", a], {0}, self._check_lines(1 / 3)),
            self._job("bounds", ["bounds", "--d", str(d_bounds)], {0},
                      self._check_bounds(d_bounds)),
            self._job("verify_no", ["verify", str(files["no"])], {1}),
            self._job("bad_rds", ["mubs", "--rds", f"builtin:{rng.choice((6, 8, 9, 10, 12))}"], {2}),
            self._job("missing", ["verify", str(self.ctx.tmp / "missing.json")], {2}),
            self._job("bad_perm", ["construct", "c1", "--d", "4", "--perm", "1,2,3",
                                   "--v", "1"], {2}),
            self._job("bounds_0", ["bounds", "--d", "0"], {2}),
            self._job("nonint", ["verify", str(files["nonint"])], {1, 2},
                      adversarial="non-integer-gaussian"),
            self._job("nan", ["verify", str(files["nan"])], {1, 2}, adversarial="nan-entry"),
        ]
        rng.shuffle(jobs)
        for job in jobs:
            yield job


WORKLOADS = {w.name: w for w in (Census, Search, Certify, Cli)}
