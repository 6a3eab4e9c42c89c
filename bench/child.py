"""One benchmark operation: a fresh interpreter that runs one workload once.

Usage (started by run.py, not by hand):

    python3 child.py '<json spec>'

The spec names the workload, the CLI argv or lab seed, whether to trace, and
the path of the JSON result file.  The import of ``supportsize.cli`` is timed
as ``setup_s``; everything imported before it is standard library only.
The CLI's standard output is captured and returned for the output checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time

import spans


def main() -> int:
    spec = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    import supportsize.cli as cli
    setup_s = time.perf_counter() - t0

    result = {"setup_s": setup_s}
    recorder = spans.Recorder()
    # one generator per trial: the probe's output omits its trial count
    recorder.count("supportsize.sweep", "trial_rng", "sweep.trials")
    if spec["trace"]:
        spans.install(recorder)

    if spec["workload"] == "lab":
        import lab
        result["lab"] = lab.run_batch(spec["seed"])
        result["rc"] = 0
    else:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            result["rc"] = cli.main(spec["argv"])
        result["stdout"] = out.getvalue()

    result.update(spans=recorder.spans, counts=recorder.counts, missing=recorder.missing)
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
