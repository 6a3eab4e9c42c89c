"""In-memory span recorder that wraps the package's functions from outside.

Only the standard library is imported here: the child process loads this
module before it times the import of ``supportsize.cli``, and importing
numpy at this point would hide its cost from ``setup_s``.

A span is the list ``[name, parent, start, end, child_s, info]``; ``parent``
is the index of the enclosing span or -1, ``child_s`` the time covered by
direct child spans, and ``info`` an optional dict of counts noted on return.
Spans stay in memory and are written out once the workload has finished.
"""

from __future__ import annotations

import importlib
import time

_clock = time.perf_counter


class Recorder:
    """Collects spans for every wrapped call, nested by call stack."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrapped: dict[int, object] = {}
        self.missing: list[str] = []
        self.counts: dict[str, int] = {}

    def wrap(self, name, fn, note=None, drain=False):
        """Return ``fn`` wrapped in a span called ``name``.

        ``note(args, kwargs, result)`` may return a dict stored with the span.
        ``drain`` consumes a returned iterator inside the span, so the time of
        a generator function lands on its own layer and not on its consumer.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, parent, _clock(), 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if drain:
                    result = list(result)
                if note is not None:
                    rec[5] = note(args, kwargs, result)
                return iter(result) if drain else result
            except Exception as exc:
                rec[5] = {"error": type(exc).__name__}
                raise
            finally:
                stack.pop()
                rec[3] = _clock()
                if parent >= 0:
                    spans[parent][4] += rec[3] - rec[2]

        return traced

    def _lookup(self, module_name: str, attr: str):
        """(module, function), or None after listing a binding that does not exist."""
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module_name}.{attr}")
            return None
        return module, fn

    def patch(self, module_name: str, attr: str, name: str, note=None, drain=False) -> None:
        """Replace ``module.attr`` with a traced wrapper.

        One function bound under several names gets one wrapper, so a call
        is never recorded twice.  A binding that does not exist is listed in
        ``missing`` instead of failing, so the recorder survives refactors.
        """
        found = self._lookup(module_name, attr)
        if found is None:
            return
        module, fn = found
        wrapper = self._wrapped.get(id(fn))
        if wrapper is None:
            wrapper = self.wrap(name, fn, note=note, drain=drain)
            self._wrapped[id(fn)] = wrapper
        setattr(module, attr, wrapper)

    def count(self, module_name: str, attr: str, name: str) -> None:
        """Count calls to ``module.attr`` under ``name``, without a span."""
        found = self._lookup(module_name, attr)
        if found is None:
            return
        module, fn = found
        counts = self.counts
        counts[name] = 0

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(module, attr, counted)


def _note_tokens(args, kwargs, tokens):
    source = args[0] if args else kwargs.get("source")
    if isinstance(source, (bytes, str)):
        nbytes = len(source.encode() if isinstance(source, str) else source)
    else:
        nbytes = source.tell()
    return {"tokens": len(tokens), "bytes": nbytes}


def _note_distinct(args, kwargs, hist):
    return {"distinct": hist.distinct}


def _note_draw(args, kwargs, counts):
    dist, n = args[0], args[1]
    return {"samples": int(n), "family": id(dist)}


def _note_g_key(args, kwargs, table):
    return {"key": [table.L, table.l, table.r, table.n]}


def _note_probe(args, kwargs, result):
    return {"evaluations": len(result.evaluations)}


BASELINES = ("plug_in", "good_turing", "chao_lee", "efron_thisted", "good_toulmin")
THEORY = ("best_inv_approx", "primal_value", "construct_prior_pair", "tv_exact",
          "lecam_certificate")


def install(recorder: Recorder) -> None:
    """Wrap every binding a caller looks up, under the benchmark's layer names.

    Callers bind functions by name at import time, so each caller's own
    binding is patched: the ``cli`` imports, the ``sweep`` globals the
    ``ESTIMATORS`` lambdas read, the ``synth`` globals ``sample_fingerprint``
    reads, ``estimators.g_table``, and the theory functions both in their
    module (for nested calls) and on the package (for the lab's calls).
    """
    p = recorder.patch
    p("supportsize.cli", "main", "cli.main")
    p("supportsize.cli", "parse_family", "synth.family")
    p("supportsize.cli", "tokenize", "ingest.tokenize", note=_note_tokens, drain=True)
    p("supportsize.cli", "build_histogram", "ingest.build_histogram", note=_note_distinct)
    p("supportsize.cli", "fingerprint_of", "ingest.fingerprint")
    p("supportsize.cli", "run_sweep", "sweep.run_sweep")
    p("supportsize.cli", "probe_sample_complexity", "sweep.probe", note=_note_probe)
    p("supportsize.synth", "draw_counts", "synth.draw_counts", note=_note_draw)
    p("supportsize.synth", "fingerprint_from_counts", "ingest.fingerprint")
    p("supportsize.estimators", "g_table", "chebyshev.g_table", note=_note_g_key)
    for module in ("supportsize.cli", "supportsize.sweep"):
        p(module, "chebyshev_estimate", "estimators.wy")
        for fn in BASELINES:
            p(module, fn, "estimators.baselines")
    for fn in THEORY:
        p("supportsize.theory", fn, f"theory.{fn}")
        p("supportsize", fn, f"theory.{fn}")


def self_times(spans: list[list]) -> dict[str, float]:
    """Sum of (duration - time covered by direct children) per span name."""
    out: dict[str, float] = {}
    for name, _parent, start, end, child_s, _info in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child_s
    return out
