"""Benchmark of the supportsize CLI and library, one fresh process per operation.

Run from the root of a checkout:

    python3 bench/run.py --workload text-corpus --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --compare base.jsonl new.jsonl

A run generates its inputs from ``--seed`` (outside any timed region), then
starts one child process at a time (closed loop, one caller) until
``--seconds`` have passed.  Each child is a fresh interpreter pinned to one
core that times ``import supportsize.cli`` (``setup_s``) and then runs the
workload once; the parent records its wall time and peak RSS with
``os.wait4`` and checks its output.  Every end-to-end metric is the median
over the run's operations: ``wall_s`` (process start to exit), ``setup_s``
(the import), ``peak_rss_mb`` and ``items_per_s``, the operation's items per
second of work time (``wall_s - setup_s``).  Items are tokens on
text-corpus, trials on sweep-mixture and probe-uniform, and cases on lab.
An operation fails when its process exits nonzero or its output check fails;
``ops_failed_frac`` is in the record.

With ``--trace 1`` the run alternates untraced and traced children on the
same inputs; traced children wrap the package's functions from outside
(``spans.py``) and the run reports per-layer self times and counts, plus the
tracing overhead (traced minus untraced work time).

The second-to-last line of standard output is the full record of the run
(per-operation samples, quartiles, input statistics, machine); the last line
is the summary ``{"correct", "attempted", "failed", "metrics"}``.  Collect
the output of several runs in a file and pass two such files to
``--compare`` to classify each (workload, metric) as improved, unchanged,
worse or unresolved against the bounds in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import select
import shutil
import signal
import statistics
import sys
import time
from importlib import metadata
from pathlib import Path

import compare
import lab
from spans import self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".bench_work"

# (unit, better) of each metric; bounds live in BENCHMARK.json only
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "items_per_s": ("1/s", "higher"),
}
THEORY_FNS = ("best_inv_approx", "primal_value", "construct_prior_pair", "tv_exact",
              "lecam_certificate")
PER_LAYER = {
    "cli.main.self_s": ("s", "lower"),
    "ingest.tokenize.self_s": ("s", "lower"),
    "ingest.tokenize.tokens": ("count", "higher"),
    "ingest.tokenize.bytes": ("bytes", "higher"),
    "ingest.build_histogram.self_s": ("s", "lower"),
    "ingest.build_histogram.distinct": ("count", "higher"),
    "ingest.fingerprint.self_s": ("s", "lower"),
    "ingest.fingerprint.calls": ("count", "lower"),
    "synth.family.self_s": ("s", "lower"),
    "synth.draw_counts.self_s": ("s", "lower"),
    "synth.draw_counts.calls": ("count", "lower"),
    "synth.draw_counts.samples": ("count", "higher"),
    "synth.draw_counts.first_s": ("s", "lower"),
    "chebyshev.g_table.self_s": ("s", "lower"),
    "chebyshev.g_table.calls": ("count", "lower"),
    "chebyshev.g_table.unique_keys": ("count", "lower"),
    "chebyshev.g_table.unique_ratio": ("ratio", "higher"),
    "estimators.wy.self_s": ("s", "lower"),
    "estimators.baselines.self_s": ("s", "lower"),
    "estimators.calls": ("count", "lower"),
    "estimators.undefined": ("count", "lower"),
    "sweep.run_sweep.self_s": ("s", "lower"),
    "sweep.probe.self_s": ("s", "lower"),
    "sweep.trials": ("count", "higher"),
    "sweep.probe.evaluations": ("count", "lower"),
    **{f"theory.{fn}.{kind}": (unit, "lower")
       for fn in THEORY_FNS for kind, unit in (("self_s", "s"), ("calls", "count"))},
    "trace.overhead_s": ("s", "lower"),
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
MIN_OPS = 3           # operations per run, even past --seconds
HARD_STOP_S = 150.0   # no new operation starts after this; a run must end within 180 s

# text-corpus: Zipf(1) vocabulary; a stated share of tokens takes the
# tokenizer's slow path (punctuated) or needs case folding (capitalised)
TEXT_TOKENS = 2_000_000
TEXT_VOCAB = 100_000
TEXT_CAPITALISED = 0.10
TEXT_PUNCTUATED = 0.15
PUNCT_FORMS = ("{},", "{}.", "({})", '"{}"', "{};")
LINE_TOKENS = 12
PARAGRAPH_LINES = 6

# sweep-mixture: the README sweep with fewer trials
SWEEP_ESTIMATORS = ("wy", "plugin", "gt", "cl1", "cl2", "et", "gtoulmin")
SWEEP_K = 100_000
SWEEP_N_POINTS = 10
SWEEP_N_MIN, SWEEP_N_MAX = 10_000, 2_000_000
SWEEP_TRIALS = 10
SWEEP_WY_REL_ERR = 0.02   # band for wy's mean at the largest n (observed ~1e-3)

# probe-uniform: criterion 8's family and largest epsilon
PROBE_K = 10_000
PROBE_EPS = 0.3
PROBE_DELTA = 0.1
PROBE_TRIALS = 50

WORKLOADS = ("text-corpus", "sweep-mixture", "probe-uniform", "lab")


# ---------------------------------------------------------------- inputs

def _word(i: int) -> str:
    """Distinct lowercase word for vocabulary id i (base 26, >= 3 letters)."""
    i += 26 * 26
    letters = []
    while i:
        i, r = divmod(i, 26)
        letters.append(chr(97 + r))
    return "".join(reversed(letters))


def make_corpus(seed: int, path: Path, tokens: int = TEXT_TOKENS, vocab: int = TEXT_VOCAB) -> dict:
    """Write a Zipf text to ``path``; return its ids and statistics.

    Lines hold LINE_TOKENS tokens and paragraphs PARAGRAPH_LINES lines,
    separated by a blank line.  Every decorated token folds back to its
    word under the default tokenizer, so the ids give the exact histogram.
    """
    import numpy as np

    rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
    p = 1.0 / np.arange(1, vocab + 1)
    p /= p.sum()
    ids = rng.choice(vocab, size=tokens, p=p)
    words = np.array([_word(i) for i in range(vocab)], dtype=object)[ids]
    style = rng.random(tokens)
    cap = style < TEXT_CAPITALISED
    punct = (style >= TEXT_CAPITALISED) & (style < TEXT_CAPITALISED + TEXT_PUNCTUATED)
    words[cap] = [w.capitalize() for w in words[cap]]
    forms = rng.integers(0, len(PUNCT_FORMS), size=int(punct.sum()))
    words[punct] = [PUNCT_FORMS[f].format(w) for w, f in zip(words[punct], forms)]
    words = words.tolist()
    lines = [" ".join(words[i:i + LINE_TOKENS]) for i in range(0, tokens, LINE_TOKENS)]
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for j in range(0, len(lines), PARAGRAPH_LINES):
            fh.write("\n".join(lines[j:j + PARAGRAPH_LINES]))
            fh.write("\n\n")
    return {
        "ids": ids,
        "vocabulary": vocab,
        "tokens": tokens,
        "capitalised_share": float(cap.mean()),
        "punctuated_share": float(punct.mean()),
        "bytes": path.stat().st_size,
        "k": float(math.ceil(1.0 / p[-1])),
    }


def reference_estimate(ids, k: float) -> dict:
    """The library's wy estimate on a fingerprint computed here from the ids."""
    import numpy as np

    sys.path.insert(0, str(ROOT / "src"))
    from supportsize import Fingerprint, chebyshev_estimate

    counts = np.bincount(ids)
    mult, num = np.unique(counts[counts > 0], return_counts=True)
    fp = Fingerprint(h=dict(zip(mult.tolist(), num.tolist())), n=int(ids.size))
    return {"value": chebyshev_estimate(fp, k).value, "distinct": int(num.sum())}


def sub_seed(seed: int, i: int) -> int:
    """Seed of the run's i-th operation, so each operation draws fresh inputs."""
    return (seed * 1_000_003 + i) % 2**31


# ---------------------------------------------------------------- checks

def check_text(res: dict, prep: dict) -> str | None:
    rec = json.loads(res["stdout"])
    if rec["n"] != prep["corpus"]["tokens"]:
        return f"n={rec['n']}, generated {prep['corpus']['tokens']} tokens"
    ref = prep["reference"]["value"]
    if abs(rec["value"] - ref) > 1e-9 * abs(ref):
        return f"estimate {rec['value']!r} != reference {ref!r}"
    return None


def check_sweep(res: dict, prep: dict) -> str | None:
    rows = [json.loads(line) for line in res["stdout"].splitlines()]
    cells = {(r["estimator"], r["n"]) for r in rows}
    ns = sorted({r["n"] for r in rows})
    if (len(rows) != len(cells) or len(ns) != SWEEP_N_POINTS
            or cells != {(e, n) for e in SWEEP_ESTIMATORS for n in ns}
            or ns[0] != SWEEP_N_MIN or ns[-1] != SWEEP_N_MAX):
        return f"unexpected row shape: {len(rows)} rows over n={ns}"
    for r in rows:
        if r["trials"] != SWEEP_TRIALS or r["undefined_count"] != 0 or r["mean_estimate"] is None:
            return f"bad row {r}"
        if r["estimator"] == "plugin" and r["mean_estimate"] > SWEEP_K:
            return f"plug-in count above the support size: {r}"
    wy = next(r for r in rows if r["estimator"] == "wy" and r["n"] == SWEEP_N_MAX)
    err = abs(wy["mean_estimate"] - SWEEP_K) / SWEEP_K
    if err > SWEEP_WY_REL_ERR:
        return f"wy relative error {err:.4f} at n={SWEEP_N_MAX} exceeds {SWEEP_WY_REL_ERR}"
    return None


def check_probe(res: dict, prep: dict) -> str | None:
    rec = json.loads(res["stdout"])
    if rec["ceiling_reached"] or rec["n_star"] is None:
        return "probe reached its ceiling"
    if rec["failure_freq"] > PROBE_DELTA:
        return f"failure_freq {rec['failure_freq']} > delta {PROBE_DELTA}"
    return None


def check_lab(res: dict, prep: dict) -> str | None:
    batch = res["lab"]
    # criteria 6 and 7 tolerances
    for c in batch["duality"]:
        if abs(c["remez"] - c["closed_form"]) > 1e-8 * c["closed_form"]:
            return f"Remez {c['remez']!r} vs closed form {c['closed_form']!r}"
        if abs(c["lp"] - 2 * c["remez"]) > 1e-3 * 2 * c["remez"]:
            return f"LP {c['lp']!r} vs 2 x Remez {2 * c['remez']!r}"
    for c in batch["tv"]:
        if abs(c["gap"] - 2 * c["closed_form"]) > 1e-6 * 2 * c["closed_form"]:
            return f"prior gap {c['gap']!r} vs 2 x closed form"
        if c["bound"] - c["upper"] < -1e-12:
            return f"TV upper {c['upper']!r} above bound {c['bound']!r}"
    cert = batch["certificate"]
    if not (cert["valid"] and cert["meets_target"]):
        return f"Le Cam certificate failed: {cert}"
    return None


# ---------------------------------------------------------------- workloads

def prepare(workload: str, seed: int, run_dir: Path) -> dict:
    """Generate the run's inputs and return what the checks need."""
    if workload == "text-corpus":
        path = run_dir / "corpus.txt"
        corpus = make_corpus(seed, path)
        ids = corpus.pop("ids")
        reference = reference_estimate(ids, corpus["k"])
        corpus["distinct"] = reference["distinct"]
        return {"corpus": corpus, "reference": reference, "path": str(path)}
    return {}


def operation(workload: str, prep: dict, seed: int) -> dict:
    """Child spec for one operation (before ``trace`` and ``out`` are added)."""
    if workload == "text-corpus":
        argv = ["estimate", "--input", prep["path"], "--k", repr(prep["corpus"]["k"]),
                "--estimator", "wy"]
    elif workload == "sweep-mixture":
        argv = ["simulate", "--family", f"mixture:k={SWEEP_K}",
                "--n-min", str(SWEEP_N_MIN), "--n-max", str(SWEEP_N_MAX),
                "--n-points", str(SWEEP_N_POINTS), "--estimators", ",".join(SWEEP_ESTIMATORS),
                "--trials", str(SWEEP_TRIALS), "--format", "json"]
    elif workload == "probe-uniform":
        argv = ["probe", "--family", f"uniform:k={PROBE_K}", "--estimator", "wy",
                "--epsilon", str(PROBE_EPS), "--delta", str(PROBE_DELTA),
                "--trials", str(PROBE_TRIALS)]
    else:
        return {"workload": workload, "seed": seed}
    return {"workload": workload, "argv": argv + ["--seed", str(seed)]}


CHECKS = {"text-corpus": check_text, "sweep-mixture": check_sweep,
          "probe-uniform": check_probe, "lab": check_lab}


def items_done(workload: str, res: dict) -> tuple[str, int]:
    """Name and count of the operation's work items, for items_per_s."""
    if workload == "text-corpus":
        return "tokens", json.loads(res["stdout"])["n"]
    if workload == "lab":
        return "cases", lab.CASES
    return "trials", res["counts"].get("sweep.trials", 0)


# ---------------------------------------------------------------- processes

def check(workload: str, res: dict, prep: dict) -> str | None:
    """Why the operation failed, or None: a nonzero exit or a failed output check."""
    if res["exit"] != 0 or res["result"] is None or res["result"]["rc"] != 0:
        return f"exit {res['exit']}, timed out: {res['timed_out']}"
    try:
        return CHECKS[workload](res["result"], prep)
    except (KeyError, ValueError, TypeError, StopIteration) as exc:
        return f"unreadable output: {exc!r}"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def spawn(spec: dict, env: dict, timeout: float) -> dict:
    """Run child.py on ``spec``; return exit status, wall time, peak RSS and its result."""
    argv = [sys.executable, str(BENCH_DIR / "child.py"), json.dumps(spec)]
    # the child's stdout goes to our stderr: our stdout carries only the results
    actions = [(os.POSIX_SPAWN_DUP2, 2, 1)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, argv, env, file_actions=actions)
    reaped = False
    try:
        fd = os.pidfd_open(pid)
        try:
            ready, _, _ = select.select([fd], [], [], timeout)
        finally:
            os.close(fd)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    wall = time.perf_counter() - t0
    out = {"exit": os.waitstatus_to_exitcode(status), "wall_s": wall,
           "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6, "timed_out": not ready}
    try:
        with open(spec["out"], encoding="utf-8") as fh:
            out["result"] = json.load(fh)
        os.unlink(spec["out"])
    except (OSError, ValueError):
        out["result"] = None
    return out


# ---------------------------------------------------------------- trace metrics

def layer_metrics(spans_: list, counts: dict) -> dict:
    """Per-layer values of one traced operation (self times, counts)."""
    st = self_times(spans_)
    calls: dict[str, int] = {}
    sums: dict[str, float] = {}
    keys, families = set(), {}
    undefined = 0
    for name, _p, start, end, _c, info in spans_:
        calls[name] = calls.get(name, 0) + 1
        if not info:
            continue
        if info.get("error") == "UndefinedEstimatorError":
            undefined += 1
        for field in ("tokens", "bytes", "distinct", "samples", "evaluations"):
            if field in info:
                sums[f"{name}.{field}"] = sums.get(f"{name}.{field}", 0) + info[field]
        if "key" in info:
            keys.add(tuple(info["key"]))
        if "family" in info:
            families.setdefault(info["family"], end - start)
    g_calls = calls.get("chebyshev.g_table", 0)
    m = {
        "cli.main.self_s": st.get("cli.main", 0.0),
        "ingest.tokenize.self_s": st.get("ingest.tokenize", 0.0),
        "ingest.tokenize.tokens": sums.get("ingest.tokenize.tokens", 0),
        "ingest.tokenize.bytes": sums.get("ingest.tokenize.bytes", 0),
        "ingest.build_histogram.self_s": st.get("ingest.build_histogram", 0.0),
        "ingest.build_histogram.distinct": sums.get("ingest.build_histogram.distinct", 0),
        "ingest.fingerprint.self_s": st.get("ingest.fingerprint", 0.0),
        "ingest.fingerprint.calls": calls.get("ingest.fingerprint", 0),
        "synth.family.self_s": st.get("synth.family", 0.0),
        "synth.draw_counts.self_s": st.get("synth.draw_counts", 0.0),
        "synth.draw_counts.calls": calls.get("synth.draw_counts", 0),
        "synth.draw_counts.samples": sums.get("synth.draw_counts.samples", 0),
        "synth.draw_counts.first_s": sum(families.values()),
        "chebyshev.g_table.self_s": st.get("chebyshev.g_table", 0.0),
        "chebyshev.g_table.calls": g_calls,
        "chebyshev.g_table.unique_keys": len(keys),
        "chebyshev.g_table.unique_ratio": len(keys) / g_calls if g_calls else 0.0,
        "estimators.wy.self_s": st.get("estimators.wy", 0.0),
        "estimators.baselines.self_s": st.get("estimators.baselines", 0.0),
        "estimators.calls": calls.get("estimators.wy", 0) + calls.get("estimators.baselines", 0),
        "estimators.undefined": undefined,
        "sweep.run_sweep.self_s": st.get("sweep.run_sweep", 0.0),
        "sweep.probe.self_s": st.get("sweep.probe", 0.0),
        "sweep.trials": counts.get("sweep.trials", 0),
        "sweep.probe.evaluations": sums.get("sweep.probe.evaluations", 0),
    }
    for fn in THEORY_FNS:
        m[f"theory.{fn}.self_s"] = st.get(f"theory.{fn}", 0.0)
        m[f"theory.{fn}.calls"] = calls.get(f"theory.{fn}", 0)
    return m


def structure_checks(workload: str, m: dict, prep: dict) -> dict:
    """Counts the traced operation must show if the recorder patched the right names."""
    trials = m["sweep.trials"]
    if workload == "sweep-mixture":
        expect = {"sweep.trials": SWEEP_N_POINTS * SWEEP_TRIALS,
                  "chebyshev.g_table.calls": trials,
                  "estimators.calls": len(SWEEP_ESTIMATORS) * trials}
    elif workload == "probe-uniform":
        expect = {"chebyshev.g_table.calls": trials, "estimators.calls": trials,
                  "ingest.fingerprint.calls": trials, "synth.draw_counts.calls": trials}
    elif workload == "text-corpus":
        expect = {"ingest.tokenize.tokens": prep["corpus"]["tokens"],
                  "ingest.build_histogram.distinct": prep["corpus"]["distinct"],
                  "chebyshev.g_table.calls": 1, "estimators.calls": 1}
    else:
        expect = {"theory.best_inv_approx.calls": lab.DUALITY_CASES + lab.TV_CASES + 1,
                  "theory.primal_value.calls": lab.DUALITY_CASES,
                  "theory.construct_prior_pair.calls": lab.TV_CASES + 1,
                  "theory.tv_exact.calls": lab.TV_CASES,
                  "theory.lecam_certificate.calls": 1}
    return {k: {"expected": v, "got": m[k], "ok": m[k] == v} for k, v in expect.items()}


# ---------------------------------------------------------------- run

def summarize(values: list[float]) -> dict:
    out = {"median": statistics.median(values), "min": min(values), "max": max(values),
           "samples": len(values)}
    if len(values) >= 2:
        out["q1"], _, out["q3"] = statistics.quantiles(values, n=4)
    return out


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "cores": os.cpu_count(), "allowed_cores": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")}


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not (ROOT / "src" / "supportsize" / "cli.py").is_file():
        print(f"error: no supportsize sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    host = machine()
    # one process at a time, on one core: children inherit this affinity
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    host["pinned_core"] = core
    # a terminated run still kills and reaps its child (spawn's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    start = time.perf_counter()
    WORK_DIR.mkdir(exist_ok=True)
    run_dir = WORK_DIR / f"run-{os.getpid()}"
    run_dir.mkdir()
    try:
        # byte-compile up front so the first operation's setup_s matches the rest
        compileall.compile_dir(ROOT / "src" / "supportsize", quiet=1)
        prep = prepare(workload, seed, run_dir)
        ops, errors, pairs, lengths = [], [], [], []
        t_loop = time.perf_counter()
        while True:
            i = len(pairs)
            t_pair = time.perf_counter()
            base = operation(workload, prep, sub_seed(seed, i))
            pair = []
            for traced in ((False, True) if trace else (False,)):
                spec = dict(base, trace=traced, out=str(run_dir / f"op-{i}-{int(traced)}.json"))
                res = spawn(spec, env, timeout=max(10.0, 170.0 - (time.perf_counter() - start)))
                res["traced"] = traced
                res["error"] = check(workload, res, prep)
                if res["error"]:
                    errors.append(res["error"])
                    print(f"operation {i} failed: {res['error']}", file=sys.stderr)
                ops.append(res)
                pair.append(res)
            pairs.append(pair)
            now = time.perf_counter()
            lengths.append(now - t_pair)
            # stop when the next operation would end past --seconds by more
            # than half its length, so a run lasts --seconds on average
            late = now - t_loop + statistics.median(lengths) / 2 > seconds
            if (len(pairs) >= MIN_OPS and late) or now - start >= HARD_STOP_S:
                break
        return report(workload, seed, seconds, trace, prep, ops, pairs, errors, host)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(workload, seed, seconds, trace, prep, ops, pairs, errors, host) -> int:
    good = [r for r in ops if r["error"] is None and not r["traced"]]
    if not good:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    samples = {k: [] for k in END_TO_END}
    item_name = None
    for r in good:
        setup = r["result"]["setup_s"]
        item_name, items = items_done(workload, r["result"])
        samples["wall_s"].append(r["wall_s"])
        samples["setup_s"].append(setup)
        samples["peak_rss_mb"].append(r["peak_rss_mb"])
        samples["items_per_s"].append(items / (r["wall_s"] - setup))
    stats = {k: dict(summarize(v), values=v) for k, v in samples.items()}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "attempted": len(ops), "failed": len(errors),
        "ops_failed_frac": len(errors) / len(ops),
        "errors": errors[:5],
        "items": item_name,
        f"{item_name}_per_s": stats["items_per_s"]["median"],
        "stats": stats,
        "machine": host,
        "loop": "closed, one caller, one process at a time on one core",
    }
    if "corpus" in prep:
        record["corpus"] = prep["corpus"]
    if trace:
        traced = [(u, t) for u, t in pairs
                  if u["error"] is None and t["error"] is None]
        if not traced:
            print("error: no traced operation succeeded", file=sys.stderr)
            return 1
        layers = [layer_metrics(t["result"]["spans"], t["result"]["counts"]) for _, t in traced]
        overhead = [(t["wall_s"] - t["result"]["setup_s"]) - (u["wall_s"] - u["result"]["setup_s"])
                    for u, t in traced]
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_s"] = statistics.median(overhead)
        checks = [structure_checks(workload, m, prep) for m in layers]
        bad = [c for c in checks if not all(v["ok"] for v in c.values())]
        record["structure"] = {"ok": not bad, "operations": len(checks),
                               "example": (bad or checks)[0]}
        if bad:
            print(f"structure checks failed: {bad[0]}", file=sys.stderr)
        record["unpatched"] = traced[0][1]["result"]["missing"]
        record["trace_overhead_s"] = summarize(overhead)
        out_metrics = {k: {"value": metrics[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    else:
        out_metrics = {k: {"value": stats[k]["median"], "unit": END_TO_END[k][0]}
                       for k in END_TO_END}
    record["metrics"] = out_metrics
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": not errors, "attempted": len(ops), "failed": len(errors),
                      "metrics": out_metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two files of collected run output")
    ns = parser.parse_args(argv)
    if ns.compare:
        return compare.main(ns.compare[0], ns.compare[1], ROOT / "BENCHMARK.json")
    if ns.workload is None:
        parser.error("--workload is required unless --compare is given")
    return run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))


if __name__ == "__main__":
    sys.exit(main())
