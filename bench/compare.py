"""Compare two sets of benchmark runs against the bounds in ``BENCHMARK.json``.

Each input file holds the standard output of any number of ``run.py`` runs
(lines without a ``"record"`` key are skipped).  For every (workload,
end-to-end metric) present in both sets the verdict is, in this order:

* ``improved``: at least ten pairs (i-th base run against i-th new run), the
  new run better in at least nine tenths of them, the new median better, and
  the medians apart by more than the base runs' interquartile distance;
* ``unresolved``: either set's interquartile distance, as a share of its
  median, is wider than the bound, unless every new run beats every base run;
* ``worse``: the new median is worse than the base median by more than the
  bound (a share of the base median);
* ``unchanged``: otherwise.

Per-layer metrics of traced runs have no bound; their medians and relative
change are listed so a claimed saving can be located.
"""

from __future__ import annotations

import json
import statistics


def load(path) -> dict:
    """{(workload, trace): [{metric: value}, ...]} in file order."""
    runs: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line.startswith("{"):
                continue
            rec = json.loads(line).get("record")
            if rec is None:
                continue
            values = {k: v["value"] for k, v in rec["metrics"].items()}
            runs.setdefault((rec["workload"], rec["trace"]), []).append(values)
    return runs


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """Classify ``new`` against ``base`` for one metric (see module docstring)."""
    sign = 1.0 if better == "lower" else -1.0

    def beats(x, y):
        return sign * (x - y) < 0

    mb, mn = statistics.median(base), statistics.median(new)
    pairs = list(zip(base, new))
    wins = sum(beats(n, b) for b, n in pairs)
    if (len(pairs) >= 10 and wins >= 0.9 * len(pairs) and beats(mn, mb)
            and abs(mn - mb) > iqr(base)):
        return "improved"
    all_beat = all(beats(n, b) for n in new for b in base)
    wide = max(iqr(base) / abs(mb), iqr(new) / abs(mn)) > bound
    if wide and not all_beat:
        return "unresolved"
    if sign * (mn - mb) > bound * abs(mb):
        return "worse"
    return "unchanged"


def compare(base: dict, new: dict, spec: dict) -> list[dict]:
    rows = []
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        metrics = layers if trace else bounded
        for name, m in metrics.items():
            b = [r[name] for r in base[key] if name in r]
            n = [r[name] for r in new[key] if name in r]
            if not b or not n:
                continue
            mb, mn = statistics.median(b), statistics.median(n)
            rows.append({
                "workload": workload, "metric": name, "unit": m["unit"],
                "base": mb, "new": mn, "change": (mn - mb) / abs(mb) if mb else None,
                "runs": [len(b), len(n)],
                "verdict": verdict(b, n, m["better"], m["bound"]) if "bound" in m else "info",
            })
    return rows


def main(base_path, new_path, spec_path) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    rows = compare(load(base_path), load(new_path), spec)
    for r in rows:
        change = "n/a" if r["change"] is None else f"{r['change']:+.2%}"
        print(f"{r['workload']:<14} {r['metric']:<34} {r['base']:>14.6g} {r['new']:>14.6g} "
              f"{change:>9} {r['unit']:<6} {r['verdict']}")
    print(json.dumps({"comparison": rows}))
    return 0
