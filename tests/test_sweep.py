"""Sweep harness: determinism, undefined handling, emission, probes."""

import argparse
import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from supportsize import (
    DegenerateDegreeError,
    DiscreteDistribution,
    EstimatorConfig,
    ParameterError,
    ProbeResult,
    SweepRow,
    SweepSpec,
    make_uniform,
    probe_sample_complexity,
    run_sweep,
    wilson_interval,
)
from supportsize import sweep, synth
from supportsize.cli import _write_records
from supportsize.sweep import CSV_COLUMNS


def emit(rows, path, fmt):
    """Write sweep rows the way ``simulate --output PATH --format FMT`` does."""
    _write_records([dataclasses.asdict(r) for r in rows],
                   argparse.Namespace(format=fmt, output=str(path)))


def parse_csv_rows(path):
    def cell(value, kind):
        return kind(value) if value else None

    with open(path, newline="") as fh:
        return [
            SweepRow(rec["estimator"], int(rec["n"]), cell(rec["mean_estimate"], float),
                     cell(rec["rmse"], float), cell(rec["std_dev"], float),
                     int(rec["trials"]), int(rec["undefined_count"]))
            for rec in csv.DictReader(fh)
        ]


def test_spec_validation():
    fam = make_uniform(10)
    with pytest.raises(ParameterError):
        SweepSpec(family=fam, n_grid=[])
    with pytest.raises(ParameterError):
        SweepSpec(family=fam, n_grid=[10, 10])
    with pytest.raises(ParameterError):
        SweepSpec(family=fam, n_grid=[10, 5])
    with pytest.raises(ParameterError, match=r"^trials must be >= 1, got 0$"):
        SweepSpec(family=fam, n_grid=[10], trials=0)
    with pytest.raises(ParameterError):
        SweepSpec(family=fam, n_grid=[10], sampling="other")
    with pytest.raises(ParameterError, match=r"unknown estimator 'nope'; choose from \["):
        SweepSpec(family=fam, n_grid=[10], estimators=("plugin", "nope"))
    # each estimator's arguments pass the gate estimate runs, with the spec's config
    with pytest.raises(DegenerateDegreeError):
        SweepSpec(family=make_uniform(6), n_grid=[10], estimators=("plugin", "wy"))
    with pytest.raises(ParameterError, match="degree must be in"):
        SweepSpec(family=fam, n_grid=[10], estimators=("wy",), cfg=EstimatorConfig(override_L=101))
    with pytest.raises(ParameterError):
        SweepSpec(family=fam, n_grid=[10], estimators=())
    # a repeated token would run twice per trial and double its cell's values
    with pytest.raises(ParameterError, match=r"estimator 'wy' repeats in \('wy', 'plugin', 'wy'\)"):
        SweepSpec(family=fam, n_grid=[10], estimators=("wy", "plugin", "wy"))
    with pytest.raises(ParameterError, match="seed must be a non-negative integer, got -1"):
        SweepSpec(family=fam, n_grid=[10], seed=-1)
    # each n of the grid meets the sampler's size rules before any trial
    with pytest.raises(ParameterError, match="n must be >= 0, got -1"):
        SweepSpec(family=fam, n_grid=[-1, 10])
    with pytest.raises(ParameterError, match="Poissonized sample needs"):
        SweepSpec(family=fam, n_grid=[10, 10**19], sampling="poissonized")
    # seeds of any size are accepted
    spec = SweepSpec(family=fam, n_grid=[10], trials=1, estimators=("plugin",), seed=10**38)
    assert run_sweep(spec)[0].trials == 1


def test_run_sweep_bit_reproducible():
    spec = SweepSpec(family=make_uniform(200), n_grid=[100, 300], trials=8,
                     estimators=("wy", "plugin", "gt"), seed=42)
    rows1 = run_sweep(spec)
    rows2 = run_sweep(spec)
    assert rows1 == rows2


def test_run_sweep_reads_the_config_of_its_spec():
    spec = SweepSpec(family=make_uniform(200), n_grid=[100], trials=4, estimators=("wy", "et"))
    rows = run_sweep(spec)
    assert run_sweep(dataclasses.replace(spec, cfg=EstimatorConfig())) == rows
    changed = run_sweep(dataclasses.replace(spec, cfg=EstimatorConfig(c0=0.9, t=0.5, J=3)))
    assert [r.mean_estimate != c.mean_estimate for r, c in zip(rows, changed)] == [True, True]


def test_each_trial_calls_trial_rng_once(monkeypatch):
    # the benchmark counts a run's trials by its calls of the module-global trial_rng
    calls, real = [], sweep.trial_rng
    monkeypatch.setattr(sweep, "trial_rng", lambda *path: calls.append(path) or real(*path))
    run_sweep(SweepSpec(family=make_uniform(50), n_grid=[10, 40], trials=3,
                        estimators=("wy", "plugin", "gt"), seed=4))
    assert calls == [(4, ni, t) for ni in range(2) for t in range(3)]
    calls.clear()
    res = probe_sample_complexity(make_uniform(50), "plugin", 0.3, trials=5, seed=2)
    starts = [path for path in calls if path[-1] == 0]  # (seed, salt, n, 0) opens an evaluation
    assert [n for _, _, n, _ in starts] == [n for n, _ in res.evaluations]
    assert len(calls) == sum(5 * (4 if salt else 1) for _, salt, _, _ in starts)
    assert any(salt for _, salt, _, _ in starts)  # the 4x verification is counted too


def test_run_sweep_point_mass_plug_in():
    fam = DiscreteDistribution(masses=np.array([1.0]))
    spec = SweepSpec(family=fam, n_grid=[1, 5], trials=3, estimators=("plugin",), seed=0)
    for row in run_sweep(spec):
        assert row.mean_estimate == 1.0
        assert row.rmse == 0.0


def test_run_sweep_poissonized_plug_in_mean():
    k, n = 1000, 10000
    spec = SweepSpec(family=make_uniform(k), n_grid=[n], trials=50,
                     estimators=("plugin",), seed=7, sampling="poissonized")
    (row,) = run_sweep(spec)
    expected = k * (1 - math.exp(-n / k))
    se = row.std_dev / math.sqrt(row.trials)
    assert abs(row.mean_estimate - expected) <= 3 * max(se, 1e-9)


def test_run_sweep_undefined_trials_isolated():
    # two samples from a huge uniform alphabet almost never collide, so the
    # coverage estimate is zero and Good-Turing is undefined on those trials
    spec = SweepSpec(family=make_uniform(10**4), n_grid=[2], trials=10,
                     estimators=("gt", "plugin"), seed=3)
    rows = {r.estimator: r for r in run_sweep(spec)}
    assert rows["plugin"].undefined_count == 0
    assert rows["gt"].undefined_count >= 8
    if rows["gt"].undefined_count == 10:
        assert rows["gt"].rmse is None
    assert rows["plugin"].rmse is not None


def test_run_sweep_row_order_and_fields():
    spec = SweepSpec(family=make_uniform(50), n_grid=[20, 40], trials=4,
                     estimators=("plugin", "wy"), seed=1)
    rows = run_sweep(spec)
    assert [(r.estimator, r.n) for r in rows] == [
        ("plugin", 20), ("plugin", 40), ("wy", 20), ("wy", 40)
    ]


def test_emit_parse_csv_round_trip(tmp_path):
    rows = [
        SweepRow("wy", 100, 12.5, 1.25, 0.5, 10, 0),
        SweepRow("gt", 100, None, None, None, 10, 10),
    ]
    path = tmp_path / "rows.csv"
    emit(rows, path, "csv")
    lines = path.read_text().splitlines()
    assert lines[0].split(",") == CSV_COLUMNS
    assert lines[2] == "gt,100,,,,10,10"
    assert parse_csv_rows(path) == rows


def test_emit_csv_full_precision(tmp_path):
    value = 1.0 / 3.0 + 1e-13
    rows = [SweepRow("wy", 1, value, 0.0, 0.0, 1, 0)]
    path = tmp_path / "prec.csv"
    emit(rows, path, "csv")
    assert parse_csv_rows(path)[0].mean_estimate == value


def test_emit_json_lines(tmp_path):
    rows = [SweepRow("wy", 100, 12.5, 1.25, 0.5, 10, 0)]
    path = tmp_path / "rows.jsonl"
    emit(rows, path, "json")
    rec = json.loads(path.read_text().splitlines()[0])
    assert rec["estimator"] == "wy" and rec["n"] == 100


def test_wilson_interval_sanity():
    low, high = wilson_interval(5, 50)
    assert 0.0 <= low <= 0.1 <= high <= 1.0
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_probe_trivial_epsilon():
    res = probe_sample_complexity(make_uniform(100), "plugin", 0.5, seed=0)
    assert res.n_star == 0
    # the arguments are checked before the trivial answer, sampling among them
    with pytest.raises(ParameterError, match="sampling"):
        probe_sample_complexity(make_uniform(10), "wy", 0.6, sampling="bogus")
    with pytest.raises(ParameterError, match="seed must be a non-negative integer"):
        probe_sample_complexity(make_uniform(10), "wy", 0.6, seed=-1)
    with pytest.raises(ParameterError, match=r"unknown estimator 'nope'; choose from \["):
        probe_sample_complexity(make_uniform(10), "nope", 0.6)
    # so are the estimator's own arguments: wy has no degree at k = 6
    with pytest.raises(DegenerateDegreeError):
        probe_sample_complexity(make_uniform(6), "wy", 0.6)
    with pytest.raises(ParameterError, match="ceiling must be >= 1"):
        probe_sample_complexity(make_uniform(10), "wy", 0.6, ceiling=0)
    with pytest.raises(ParameterError, match=r"^trials must be >= 1, got 0$"):
        probe_sample_complexity(make_uniform(10), "wy", 0.6, trials=0)


def test_probe_epsilon_below_resolution():
    with pytest.raises(ParameterError):
        probe_sample_complexity(make_uniform(100), "plugin", 1e-4, seed=0)


def test_probe_finds_reasonable_threshold():
    k = 200
    res = probe_sample_complexity(make_uniform(k), "plugin", 0.2, trials=30, seed=5)
    assert not res.ceiling_reached
    # plug-in needs about k*ln(1/eps) samples here
    assert 0.2 * k <= res.n_star <= 5 * k * math.log(1 / 0.2)
    assert res.failure_freq <= 0.1
    assert res.wilson_low <= res.failure_freq <= res.wilson_high
    again = probe_sample_complexity(make_uniform(k), "plugin", 0.2, trials=30, seed=5)
    assert again.n_star == res.n_star


def test_probe_ceiling_report():
    res = probe_sample_complexity(make_uniform(100), "plugin", 0.01,
                                  trials=10, seed=1, ceiling=20)
    assert res.ceiling_reached
    assert res.n_star is None


@pytest.mark.parametrize("estimator", ["cl1", "cl2"])
def test_probe_chao_lee_finds_threshold(estimator):
    # the search starts at n = 1, where Chao-Lee is undefined: a failure, not an error
    res = probe_sample_complexity(make_uniform(100), estimator, 0.2, trials=10, seed=0)
    assert not res.ceiling_reached
    assert res.evaluations[0] == (1, 1.0)
    assert 1 < res.n_star <= res.ceiling
    assert res.failure_freq <= 0.1


def test_run_sweep_counts_too_small_samples_as_undefined():
    spec = SweepSpec(family=make_uniform(100), n_grid=[1, 5], trials=3,
                     estimators=("cl1", "plugin"), seed=0)
    rows = {(r.estimator, r.n): r for r in run_sweep(spec)}
    assert rows["cl1", 1] == SweepRow("cl1", 1, None, None, None, 3, 3)
    assert rows["cl1", 5].undefined_count < 3
    assert rows["plugin", 1].mean_estimate == 1.0


# Full results, evaluation by evaluation, of the three ways a probe ends:
# every hop failing its verification, a verification that fails twice and
# then passes, and the ceiling.  Any change to the search order shows here.
def test_probe_every_hop_fails_verification():
    res = probe_sample_complexity(make_uniform(100), "plugin", 0.05, delta=0.0, trials=5, seed=0)
    assert res == ProbeResult("plugin", 0.05, 0.0, 100.0, None, None, None, None, 5, 4605, True, [
        (1, 1.0), (2, 1.0), (4, 1.0), (8, 1.0), (16, 1.0), (32, 1.0), (64, 1.0), (128, 1.0),
        (256, 0.8), (512, 0.0), (384, 0.0), (320, 0.0), (288, 0.6), (304, 0.4), (312, 0.4),
        (316, 0.2), (318, 0.8), (319, 0.2), (320, 0.35), (336, 0.2), (672, 0.0), (504, 0.0),
        (420, 0.0), (378, 0.0), (357, 0.2), (367, 0.0), (362, 0.2), (364, 0.2), (365, 0.0),
        (365, 0.1), (383, 0.0), (374, 0.0), (369, 0.0), (367, 0.0), (366, 0.2), (367, 0.05),
        (385, 0.0), (376, 0.0), (371, 0.0), (369, 0.0), (368, 0.2), (369, 0.2), (387, 0.0),
        (378, 0.0), (373, 0.0), (371, 0.0), (370, 0.2), (371, 0.05), (389, 0.0), (380, 0.0),
        (375, 0.0), (373, 0.0), (372, 0.2), (373, 0.05), (391, 0.0)])


def test_probe_verification_fails_twice_then_passes():
    res = probe_sample_complexity(make_uniform(100), "wy", 0.1, trials=10, seed=1)
    assert res == ProbeResult(
        "wy", 0.1, 0.1, 100.0, 220, 0.075, 0.025835556771858226, 0.19864530159097524,
        10, 4605, False, [
            (1, 1.0), (2, 1.0), (4, 1.0), (8, 1.0), (16, 1.0), (32, 1.0), (64, 0.7),
            (128, 0.4), (256, 0.0), (192, 0.2), (224, 0.0), (208, 0.3), (216, 0.1), (212, 0.2),
            (214, 0.1), (213, 0.0), (213, 0.15), (223, 0.1), (218, 0.0), (215, 0.0), (214, 0.1),
            (214, 0.2), (224, 0.0), (219, 0.2), (221, 0.0), (220, 0.0), (220, 0.075)])


def test_probe_past_the_iid_cap_ends_with_its_error(monkeypatch):
    # plugin needs all 100 symbols at eps = 0.01, so the doubling passes n = 64
    monkeypatch.setattr(synth, "MAX_IID_N", 64)
    with pytest.raises(ParameterError, match="iid sample needs n <= 64, got 128"):
        probe_sample_complexity(make_uniform(100), "plugin", 0.01, trials=2, seed=0)


def test_probe_ceiling_ends_the_search():
    res = probe_sample_complexity(make_uniform(100), "wy", 0.1, trials=10, seed=1, ceiling=40)
    assert res == ProbeResult("wy", 0.1, 0.1, 100.0, None, None, None, None, 10, 40, True, [
        (1, 1.0), (2, 1.0), (4, 1.0), (8, 1.0), (16, 1.0), (32, 1.0)])
