"""Tests of the benchmark harness itself: metric names, compare mode, spans, inputs."""

import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_names_match_the_runner(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert spec["command"][1].startswith(spec["paths"][0] + "/")


def test_layer_metrics_cover_every_per_layer_name():
    layers = run.layer_metrics([], {})
    assert set(layers) | {"trace.overhead_s"} == set(run.PER_LAYER)


def test_verdicts():
    base = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]
    assert compare.verdict(base, [v * 0.8 for v in base], "lower", 0.1) == "improved"
    assert compare.verdict(base, [v * 1.2 for v in base], "lower", 0.1) == "worse"
    assert compare.verdict(base, [v * 1.05 for v in base], "lower", 0.1) == "unchanged"
    # fewer than ten pairs never claim a gain
    assert compare.verdict(base[:5], [v * 0.8 for v in base[:5]], "lower", 0.1) == "unchanged"
    # a higher-is-better metric reads the other way round
    assert compare.verdict(base, [v * 1.2 for v in base], "higher", 0.1) == "improved"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    assert compare.verdict(noisy, noisy[::-1], "lower", 0.1) == "unresolved"
    # a wide spread is resolved when every new run beats every base run
    assert compare.verdict(noisy, [v / 4 for v in noisy], "lower", 0.1) != "unresolved"


def test_compare_reads_run_output(tmp_path, spec, capsys):
    def write(path, scale):
        lines = []
        for seed in range(10):
            metrics = {m["name"]: {"value": (1.0 + seed / 100) * scale, "unit": m["unit"]}
                       for m in spec["end_to_end"]}
            rec = {"workload": "lab", "seed": seed, "trace": 0, "metrics": metrics}
            lines += [json.dumps({"record": rec}), json.dumps({"correct": True})]
        path.write_text("\n".join(lines) + "\nnoise\n")

    write(tmp_path / "a.jsonl", 1.0)
    write(tmp_path / "b.jsonl", 2.0)
    assert compare.main(tmp_path / "a.jsonl", tmp_path / "b.jsonl", BENCH.parent / "BENCHMARK.json") == 0
    rows = json.loads(capsys.readouterr().out.splitlines()[-1])["comparison"]
    got = {r["metric"]: r["verdict"] for r in rows}
    assert got == {"wall_s": "worse", "setup_s": "worse", "peak_rss_mb": "worse",
                   "items_per_s": "improved"}


def test_recorder_self_time_and_missing_names(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "_clock", lambda: float(next(ticks)))
    rec = spans.Recorder()
    inner = rec.wrap("inner", lambda x: x + 1, note=lambda a, k, r: {"samples": r})
    outer = rec.wrap("outer", lambda x: inner(x) * inner(x))
    assert outer(2) == 9
    # outer spans ticks 0..5, its two children 1..2 and 3..4
    assert spans.self_times(rec.spans) == {"outer": 3.0, "inner": 2.0}
    assert [s[5] for s in rec.spans] == [None, {"samples": 3}, {"samples": 3}]
    rec.patch("json", "no_such_function", "x")
    assert rec.missing == ["json.no_such_function"]


def test_corpus_folds_back_to_its_ids(tmp_path):
    from supportsize import build_histogram, tokenize

    corpus = run.make_corpus(7, tmp_path / "c.txt", tokens=6000, vocab=300)
    with open(tmp_path / "c.txt", "rb") as fh:
        hist = build_histogram(tokenize(fh))
    expected = Counter(run._word(int(i)) for i in corpus["ids"])
    assert dict(hist.counts) == dict(expected)
    again = run.make_corpus(7, tmp_path / "d.txt", tokens=6000, vocab=300)
    assert np.array_equal(corpus["ids"], again["ids"])
    assert (tmp_path / "c.txt").read_bytes() == (tmp_path / "d.txt").read_bytes()
    assert 0.05 < corpus["punctuated_share"] < 0.25
