"""Self-tests of the benchmark itself (not collected by the package's suite):

    python3 -m pytest -q bench/selftest.py
"""

from __future__ import annotations

import random
import time
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src"), str(ROOT / "tests")]

import fixtures  # noqa: E402
import harness  # noqa: E402
import mublines  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mublines import constructions, framecore, weylheisenberg  # noqa: E402

# --- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize("n", [11, 12, 57, 100, 1000])
def test_tail_has_exactly_ten_samples_beyond(n):
    samples = random.Random(n).sample(range(10 * n), n)
    value, pct, count = harness.tail(samples)
    assert count == n
    assert sum(s > value for s in samples) == 10
    assert pct == pytest.approx(100 * (n - 10) / n)


def test_tail_percentiles_at_round_sizes():
    assert harness.tail(list(range(100)))[:2] == (89, 90.0)
    assert harness.tail(list(range(1000)))[:2] == (989, 99.0)


def test_tail_with_too_few_samples_is_the_maximum():
    assert harness.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


# --- self time ----------------------------------------------------------------


def test_self_times_of_nested_spans():
    spans = [
        ("job", 0.0, 10.0, -1, 0, 0.5),   # 0.5 s in aggregated children
        ("a", 1.0, 3.0, 0, 0, 0.0),
        ("a.inner", 1.5, 2.5, 1, 0, 0.0),
        ("b", 4.0, 6.0, 0, 0, 0.0),
        ("other-job", 20.0, 21.0, -1, 1, 0.0),
    ]
    assert tracing.self_times(spans) == pytest.approx([5.5, 1.0, 1.0, 2.0, 1.0])


def test_recorder_sees_calls_through_every_module_attribute():
    rec = tracing.Recorder()
    undo = tracing.install(rec, mublines)
    try:
        rec.active = True
        lines = constructions.construction3_d4_extension()
        family = constructions.mubs_from_rds(mublines.builtin_rds(2))
        constructions.c1_search(family, 1)
        rec.active = False
    finally:
        tracing.uninstall(undo)
    assert constructions.mubs_from_rds.__name__ == "mubs_from_rds"
    assert not hasattr(constructions.mubs_from_rds, "__wrapped__")

    names = [s[0] for s in rec.spans]
    parent_of = {i: rec.spans[s[3]][0] for i, s in enumerate(rec.spans) if s[3] >= 0}
    ext = names.index("constructions.construction3_d4_extension")
    # nested calls made through constructions' own imported names
    assert parent_of[names.index("constructions.mubs_from_rds")] == names[ext]
    assert any(parent_of.get(i) == "constructions.mubs_from_rds"
               for i, n in enumerate(names) if n == "framecore.verify_mubs")
    assert any(parent_of.get(i) == "constructions.c1_search"
               for i, n in enumerate(names) if n == "framecore.gram_float")
    assert rec.hot["abelian.char_eval"][0] > 0
    metrics = tracing.layer_metrics(rec)
    assert metrics["constructions.c1_search.candidates"] == 2 * 2
    assert metrics["constructions.c1_search.hit_ratio"] == pytest.approx(1.0)
    assert metrics["scalars.entries"] == len(lines) * lines.dim + 2 * 2 * 2
    own = tracing.self_times(rec.spans)
    assert all(t >= -1e-6 for t in own)


# --- oracle -------------------------------------------------------------------


def test_oracle_reproduces_the_fixtures():
    x = np.array([complex(e.re, e.im) for e in weylheisenberg.fiducial_d4().vector.entries])
    eight = oracle.pinned_eight_perms(ROOT / "tests" / "test_constructions.py")
    checked = oracle.selfcheck(fixtures, eight, x)
    assert checked["c1_hits_d4"] == 32 and checked["eight_perms"] == 8


def test_oracle_says_no_to_the_adversarial_kinds():
    mub4 = np.array(fixtures.MUB4_TABLE, dtype=complex)
    zeroed = mub4.copy()
    zeroed[1, 2] = 0
    assert not oracle.is_mub_family(zeroed)
    re, im = oracle.lines64_parts(fixtures)
    nan = (re + 1j * im).astype(complex)
    nan[5, 3] = np.nan
    assert oracle.float_equiangular(nan) is None
    values = np.stack([re, im], axis=-1).astype(float)
    values[7, 1, 0] += 0.7
    assert oracle.gaussian_parts(values) is None
    re2 = re.copy()
    re2[0, 0] += 1
    assert oracle.exact_equiangular(re2, im) is None


# --- scoring ------------------------------------------------------------------


def _one_round(workload, seed=7):
    rng = random.Random(seed)
    return harness.run_rounds(lambda: workload.round(rng), 1)


@pytest.fixture
def ctx(tmp_path):
    return workloads.Context(ROOT, tmp_path)


def test_stub_that_always_says_yes_is_counted(ctx, monkeypatch):
    search = workloads.Search(ctx)
    search.DIMS = (2, 3)
    search.setup()
    monkeypatch.setattr(constructions, "theorem46_predicate", lambda fam, perm: True)
    tally = _one_round(search)
    # with the stub, the one Theorem 4.6 job accepts permutations the oracle rejects
    assert tally.attempted == 4 + 1
    assert tally.false_yes == 1 and tally.failed == 1
    assert not tally.correct


def test_stub_mub_verifier_is_counted(ctx, monkeypatch):
    census = workloads.Census(ctx)
    census.DIMS = (2, 3, 5)
    census.ZERO_BANDS = ((2, 3), (5,))
    monkeypatch.setattr(framecore, "verify_mubs", lambda bases, tol=1e-9: True)
    census.prepare(fixtures)
    tally = _one_round(census)
    # each pipeline job's "no" twin, and each zero-vector job, is a wrong yes
    assert tally.by_kind == {"census.pipeline": [3, 3, 3], "census.zero_vector": [2, 2, 2]}
    assert tally.false_yes == tally.failed == 5


def test_unstubbed_rounds_agree_outside_the_adversarial_share(ctx):
    search = workloads.Search(ctx)
    search.DIMS = (2, 3, 4)
    census = workloads.Census(ctx)
    census.DIMS = (2, 3, 4, 5, 7)
    census.ZERO_BANDS = ((2,), (4,))
    for workload, jobs in ((search, 2 * 3 + 1), (workloads.Certify(ctx), 23), (census, 5 + 2)):
        workload.setup()
        workload.prepare(fixtures)
        tally = _one_round(workload)
        assert tally.correct, tally.unexpected
        assert tally.attempted == jobs


def test_a_raising_job_is_a_failure_and_a_rejection_is_a_no():
    def boom():
        raise RuntimeError("crash")

    def reject():
        raise ValueError("bad input")

    jobs = [harness.Job("crash", boom, None, True),
            harness.Job("reject-no", reject, None, False),
            harness.Job("reject-yes", reject, None, True)]
    tally = harness.run_rounds(lambda: jobs, 1)
    assert tally.attempted == 3
    assert tally.failed == 2 and tally.false_yes == 0
    assert not tally.correct


def test_passes_sweep_the_whole_run_and_keep_the_fastest():
    calls = []

    def job(name, slow_first):
        def call():
            if slow_first and name not in calls:
                time.sleep(0.05)
            calls.append(name)
            return True
        return harness.Job(name, call, lambda said: harness.verdict(said, True), True)

    rounds = iter([[job("a", True)], [job("b", False), job("c", False)]])
    tally = harness.run_rounds(lambda: next(rounds), 2, passes=3)
    # every pass runs every job of every round before the next pass starts
    assert calls == ["a", "b", "c"] * 3
    # every pass is a verdict; each job has one latency, its fastest pass
    assert tally.attempted == 9 and tally.failed == 0
    assert len(tally.latencies) == 3 and tally.latencies[0] < 0.05
    assert tally.round_starts == [0, 1]
    assert len(harness.round_throughputs(tally)) == 2


def test_latencies_are_taken_to_reference_host_speed(monkeypatch):
    monkeypatch.setattr(harness, "host_scale", lambda: 2.0)
    job = harness.Job("sleep", lambda: time.sleep(0.01) or True,
                      lambda said: harness.verdict(said, True), True)
    tally = harness.run_rounds(lambda: [job], 1, passes=2)
    assert tally.scales == [2.0, 2.0]
    assert tally.latencies[0] >= 0.02


@pytest.mark.parametrize("scale, probe, ref", [
    (harness.host_scale, harness.host_probe, harness.PROBE_REF_S),
    (harness.spawn_scale, harness.spawn_probe, harness.SPAWN_REF_S),
])
def test_scale_compares_with_the_reference_probe(scale, probe, ref):
    factor = scale()
    assert factor > 0
    assert ref / factor >= min(probe() for _ in range(3)) * 0.2
