"""Benchmark of mublines: verdict latency, throughput, set-up time and memory
on four workloads, every verdict checked against the plain-numpy oracle.

    python3 bench/run.py --workload census --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

Run it from the root of a mublines checkout; it imports the package from
`src/` and the published tables from `tests/fixtures.py`.  With --trace 0 it
prints the end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer
metrics; the last line of stdout is one JSON object.  `--workload all` runs
each workload, untraced then traced, in its own process and also prints the
tracing overhead.  Files go to `.bench_out/`.
"""

from __future__ import annotations

import os

# single-threaded BLAS, which is within nproc on any machine: set before
# numpy is imported, here and in every process started from here
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"
NAMES = ("census", "search", "certify", "cli")

#: set-up is repeated in this many fresh processes besides the run itself
SETUP_PROBES = 5
#: fresh `mublines bounds --d 4` processes timed for cli.process_floor_s
FLOOR_PROBES = 3
CHILD_TIMEOUT_S = 60


def parse_args(argv=None):
    spec = json.loads(SPEC.read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="work per run: the whole rounds that fill this many "
                        "seconds at the workload's ROUND_S")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true",
                   help="internal: time one set-up and print it as JSON")
    return p.parse_args(argv), spec


def child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)


def setup_once(name: str, ctx_args: tuple):
    """Import mublines and warm the workload up.

    Returns (workload, setup seconds, import seconds), both at reference
    host speed; the benchmark's own modules are imported between the two
    timed parts."""
    from harness import host_scale

    scale = host_scale()
    t0 = time.perf_counter()
    import mublines  # noqa: F401
    import mublines.cli  # noqa: F401
    t1 = time.perf_counter()
    from workloads import WORKLOADS, Context

    workload = WORKLOADS[name](Context(*ctx_args))
    t2 = time.perf_counter()
    workload.setup()
    took = (t1 - t0) + (time.perf_counter() - t2)
    return workload, took * scale, (t1 - t0) * scale


def probe_setups(name: str) -> list[tuple[float, float]]:
    """(setup_s, import_s) from fresh processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = child(["--workload", name, "--probe"], CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        data = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((data["setup_s"], data["import_s"]))
    return samples


def process_floor() -> float:
    """Median wall time of a fresh `mublines bounds --d 4` process, at
    reference host speed."""
    from harness import spawn_scale

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(FLOOR_PROBES):
        scale = spawn_scale()
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-m", "mublines.cli", "bounds", "--d", "4"],
                       cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
        times.append((time.perf_counter() - t0) * scale)
    return statistics.median(times)


def machine() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "platform": platform.platform()}


def git_sha() -> str:
    """HEAD of the checkout, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def load_fixtures():
    sys.path.insert(0, str(ROOT / "tests"))
    import fixtures

    return fixtures


def run_oracle_selfcheck(fixtures) -> dict:
    import numpy as np

    import oracle
    from mublines import weylheisenberg

    x = np.array([complex(e.re, e.im) for e in weylheisenberg.fiducial_d4().vector.entries])
    eight = oracle.pinned_eight_perms(ROOT / "tests" / "test_constructions.py")
    return oracle.selfcheck(fixtures, eight, x)


def end_to_end(tally, setup_s: float, peak_mb: float) -> dict:
    from harness import round_throughputs, tail

    value, pct, n = tail(tally.latencies)
    rounds = round_throughputs(tally)
    return {
        "verdicts_per_s": (statistics.median(rounds), "verdicts/s",
                           f"median of {len(rounds)} rounds"),
        "verdict_p50_s": (statistics.median(tally.latencies), "s"),
        "verdict_tail_s": (value, "s", f"p{pct:.2f} of n={n}"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "failed_frac": (tally.failed / tally.attempted, "ratio"),
        "false_yes": (tally.false_yes, "count"),
    }


def round_in(workload, rng, directory: Path) -> list:
    """The next round's jobs, with the files they write in a directory of
    their own: all rounds are made before the first job runs."""
    directory.mkdir()
    workload.ctx.tmp = directory
    return list(workload.round(rng))


def pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU: the host
    probe then measures the CPU the timed work runs on, also for the CLI
    processes, whose CPU would otherwise be the other one of two."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_one(args, spec, tmp: Path) -> int:
    ctx_args = (ROOT, tmp)
    workload, setup_s, import_s = setup_once(args.workload, ctx_args)
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
        return 0

    import harness
    import tracing

    fixtures = load_fixtures()
    try:
        checked = run_oracle_selfcheck(fixtures)
    except AssertionError as exc:
        print(f"error: the oracle does not reproduce the fixtures: {exc}", file=sys.stderr)
        return 3
    probes = probe_setups(args.workload)
    setups = [setup_s] + [s for s, _ in probes]
    imports = [import_s] + [i for _, i in probes]
    workload.prepare(fixtures)

    recorder = tracing.Recorder() if args.trace else None
    workload.ctx.recorder = recorder
    undo = tracing.install(recorder, workload.pkg) if args.trace else []
    rng = random.Random(f"{args.workload}:{args.seed}")
    try:
        rounds = max(1, math.ceil(args.seconds / (workload.ROUND_S * workload.PASSES)))
        t0 = time.perf_counter()
        made = itertools.count()
        tally = harness.run_rounds(lambda: round_in(workload, rng, tmp / f"round-{next(made)}"),
                                   rounds, workload.PASSES, recorder, workload.scale)
        timed_s = time.perf_counter() - t0
    finally:
        tracing.uninstall(undo)

    e2e = end_to_end(tally, statistics.median(setups), workload.peak_rss_kb() / 1024)

    print(f"# mublines bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# oracle reproduced the fixtures before timing: {json.dumps(checked)}")
    print(f"# {rounds} rounds x {workload.PASSES} passes took {timed_s:.1f} s")
    print(f"# setup samples (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"# host scale factor (reference speed / speed now): median "
          f"{statistics.median(tally.scales):.3f} of {len(tally.scales)} timed calls, "
          f"quartiles {', '.join(f'{q:.3f}' for q in statistics.quantiles(tally.scales, n=4))}")
    for name, (value, unit, *note) in e2e.items():
        print(f"{args.workload:8} {name:24} {value:14.6g} {unit:12} {' '.join(note)}")
    for kind, (n, failed, wrong) in sorted(tally.by_kind.items()):
        if failed:
            print(f"# {kind}: {failed} of {n} disagreed with the oracle, {wrong} wrong yes")
    for item in sorted(set(tally.unexpected)):
        print(f"# unexpected failure: {item}", file=sys.stderr)

    if args.trace:
        metrics = tracing.layer_metrics(recorder)
        metrics["cli.import_s"] = statistics.median(imports)
        metrics["cli.process_floor_s"] = process_floor()
        metrics["trace.verdicts_per_s"] = e2e["verdicts_per_s"][0]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in units:
            print(f"{args.workload:8} {name:44} {metrics[name]:14.6g} {units[name]}")
        stem = OUT / f"{args.workload}-seed{args.seed}"
        recorder.write(f"{stem}-spans.jsonl")
        rows = tracing.stage_rows(recorder, machine(), git_sha(),
                                  {"workload": args.workload, "seed": args.seed})
        Path(f"{stem}-stages.json").write_text(json.dumps(rows, indent=1) + "\n")
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()}
    else:
        out = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": out}))
    return 0


def run_all(args) -> int:
    """Each workload untraced and traced, each in a process of its own."""
    results = {}
    correct, attempted, failed = True, 0, 0
    for name in NAMES:
        for trace in (0, 1):
            proc = child(["--workload", name, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(trace)], 600)
            sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            final = json.loads(lines[-1])
            results[name, trace] = final
            if trace == 0:
                correct &= final["correct"]
                attempted += final["attempted"]
                failed += final["failed"]
    metrics = {}
    for name in NAMES:
        plain = results[name, 0]["metrics"]
        traced = results[name, 1]["metrics"]
        overhead = traced["trace.verdicts_per_s"]["value"] - plain["verdicts_per_s"]["value"]
        print(f"{name:8} tracing overhead {overhead:+.6g} verdicts/s "
              f"(traced minus untraced verdicts_per_s)")
        metrics.update({f"{name}.{k}": v for k, v in plain.items()})
        metrics[f"{name}.trace_overhead_verdicts_per_s"] = {"value": overhead,
                                                             "unit": "verdicts/s"}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args, spec = parse_args(argv)
    if not (ROOT / "src" / "mublines" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "fixtures.py").is_file():
        print("error: not a mublines checkout: src/mublines and tests/fixtures.py "
              "are needed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        return run_all(args)
    pin_to_one_cpu()
    OUT.mkdir(exist_ok=True)
    tmp = OUT / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        return run_one(args, spec, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
