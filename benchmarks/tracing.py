"""Spans around the calls into each jsrkit layer, and the per-layer metrics.

The wrappers sit where a module calls a function, because jsrkit modules
import these names directly: ``cli.jsr_estimate`` is wrapped in the
``cli`` namespace, ``bounds.batch_operator_norms`` in ``bounds``, and so on.
A name that a later version no longer has is skipped, and its metrics
read zero.  Every span keeps its name, start, end and parent in memory;
``Tracer.dump`` writes them out when the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
import tracemalloc

MB = 1024.0 * 1024.0

# unit and better direction of every per-layer metric, in report order
LAYER_METRICS = {
    "core.svd_count": ("count", "lower"),
    "core.svd_s": ("s", "lower"),
    "core.eig_count": ("count", "lower"),
    "core.eig_s": ("s", "lower"),
    "core.product_set_s": ("s", "lower"),
    "bounds.sweep_s": ("s", "lower"),
    "bounds.sweep_self_s": ("s", "lower"),
    "bounds.words": ("count", "lower"),
    "bounds.words_per_s": ("1/s", "higher"),
    "bounds.svd_per_word": ("ratio", "lower"),
    "bounds.eig_per_word": ("ratio", "lower"),
    "bounds.peak_traced_mb": ("MB", "lower"),
    "bounds.refine_s": ("s", "lower"),
    "certificates.check_s": ("s", "lower"),
    "certificates.check_self_s": ("s", "lower"),
    "certificates.peak_traced_mb": ("MB", "lower"),
    "ultrametric.jsr_exact_s": ("s", "lower"),
    "ultrametric.jsr_exact_calls": ("count", "lower"),
    "ultrametric.boca_self_s": ("s", "lower"),
    "ultrametric.nilpotency_s": ("s", "lower"),
    "documents.parse_s": ("s", "lower"),
    "documents.emit_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _stack_count(stack, *_args, **_kwargs) -> int:
    return int(stack.shape[0])


def _svd_count(stack, n=None, *_args, **_kwargs) -> int:
    # row- and column-sum norms are exact sums; only these kinds run an SVD
    kind = getattr(getattr(n, "kind", None), "value", "spectral")
    return int(stack.shape[0]) if kind in ("spectral", "ellipsoidal") else 0


def _one(*_args, **_kwargs) -> int:
    return 1


def _words(interval) -> dict:
    return {"words": int(interval.diagnostics.get("words_enumerated", 0))}


class Tracer:
    """An in-memory span recorder for one single-threaded process."""

    def __init__(self):
        # tracemalloc slows pure-Python code several times over, so it runs
        # only inside the spans that report a peak, and only when asked
        self.measure_peaks = False
        self.spans: list[dict] = []
        self._open: list[dict] = []
        self._peaks: list[dict] = []
        self._restore: list[tuple] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str, peak: bool = False, **attrs) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(span)
        self._open.append(span)
        if peak and self.measure_peaks:
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            # an inner reset would hide the outer span's peak so far
            current, top = tracemalloc.get_traced_memory()
            for outer in self._peaks:
                outer["peak_bytes"] = max(outer["peak_bytes"], top - outer["base_bytes"])
            tracemalloc.reset_peak()
            span["base_bytes"], span["peak_bytes"] = current, 0
            self._peaks.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        if self._peaks and self._peaks[-1] is span:
            self._peaks.pop()
            top = tracemalloc.get_traced_memory()[1]
            span["peak_bytes"] = max(span["peak_bytes"], top - span["base_bytes"])
            if not self._peaks:
                tracemalloc.stop()
        popped = self._open.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    # -- wrappers --------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, *, count=None, result=None, peak=False):
        """Replace ``owner.attr`` by a function that records a span per call."""
        fn = vars(owner).get(attr)  # a classmethod stays one when restored
        if fn is None:
            return
        target = getattr(owner, attr)  # bound for classmethods
        tracer = self

        @functools.wraps(target)
        def traced(*args, **kwargs):
            span = tracer.open(name, peak=peak)
            if count is not None:
                span["count"] = count(*args, **kwargs)
            try:
                out = target(*args, **kwargs)
            finally:
                tracer.close(span)
            if result is not None:
                span.update(result(out))
            return out

        self._restore.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def install(self) -> None:
        """Wrap the public functions of every timed jsrkit module."""
        from jsrkit import bounds, certificates, cli, core, documents, ultrametric

        # cli calls the commands' top-level functions under these names
        self.wrap(cli, "jsr_estimate", "bounds.sweep", result=_words, peak=True)
        self.wrap(cli, "conjugation_search", "bounds.refine")
        self.wrap(cli, "barabanov_approx", "bounds.refine")
        for checker in ("check_boca_new", "check_polbd", "check_bg_el"):
            self.wrap(cli, checker, "certificates.check", peak=True)
        self.wrap(cli, "padic_jsr_exact", "ultrametric.jsr_exact")
        self.wrap(cli, "check_ultra_boca", "ultrametric.boca")
        self.wrap(cli, "padic_nilpotency_exact", "ultrametric.nilpotency")
        # check_ultra_boca computes the radius again through its own module
        self.wrap(ultrametric, "padic_jsr_exact", "ultrametric.jsr_exact")
        for mod in (bounds, certificates, core):
            self.wrap(mod, "batch_operator_norms", "core.svd", count=_svd_count)
            self.wrap(mod, "batch_spectral_radii", "core.eig", count=_stack_count)
        self.wrap(certificates, "spectral_radius", "core.eig", count=_one)
        self.wrap(certificates, "product_set", "core.product_set")
        doc, report = documents.InputDocument, documents.RunReport
        for attr in ("parse", "to_matrix_set", "to_padic_set"):
            self.wrap(doc, attr, "documents.parse")
        self.wrap(doc, "digest", "documents.emit")
        self.wrap(report, "emit", "documents.emit")

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(self.spans, f)


# --- metrics ---------------------------------------------------------------------


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def round_metrics(spans: list, padic_reports: int) -> dict:
    """Per-layer metrics of one round from its spans, all but the overhead.

    A span's self time is its duration minus the durations of its direct
    children, which in one thread are disjoint and nested inside it.
    """
    by_id = {s["id"]: s for s in spans}
    child_time: dict = {}
    for s in spans:
        if s["parent"] in by_id:
            child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + _duration(s)

    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(name):
        return sum(_duration(s) for s in named(name))

    def self_time(name):
        return sum(_duration(s) - child_time.get(s["id"], 0.0) for s in named(name))

    def peak(name):
        return max((s.get("peak_bytes", 0) for s in named(name)), default=0) / MB

    sweeps = {s["id"] for s in named("bounds.sweep")}

    def in_sweeps(name):
        return sum(s.get("count", 0) for s in named(name) if s["parent"] in sweeps)

    words = sum(s.get("words", 0) for s in named("bounds.sweep"))
    sweep_s = total("bounds.sweep")
    return {
        "core.svd_count": sum(s.get("count", 0) for s in named("core.svd")),
        "core.svd_s": total("core.svd"),
        "core.eig_count": sum(s.get("count", 0) for s in named("core.eig")),
        "core.eig_s": total("core.eig"),
        "core.product_set_s": total("core.product_set"),
        "bounds.sweep_s": sweep_s,
        "bounds.sweep_self_s": self_time("bounds.sweep"),
        "bounds.words": words,
        "bounds.words_per_s": words / sweep_s if sweep_s > 0 else 0.0,
        "bounds.svd_per_word": in_sweeps("core.svd") / words if words else 0.0,
        "bounds.eig_per_word": in_sweeps("core.eig") / words if words else 0.0,
        "bounds.peak_traced_mb": peak("bounds.sweep"),
        "bounds.refine_s": total("bounds.refine"),
        "certificates.check_s": total("certificates.check"),
        "certificates.check_self_s": self_time("certificates.check"),
        "certificates.peak_traced_mb": peak("certificates.check"),
        "ultrametric.jsr_exact_s": total("ultrametric.jsr_exact"),
        "ultrametric.jsr_exact_calls": (
            len(named("ultrametric.jsr_exact")) / padic_reports if padic_reports else 0.0
        ),
        "ultrametric.boca_self_s": self_time("ultrametric.boca"),
        "ultrametric.nilpotency_s": total("ultrametric.nilpotency"),
        "documents.parse_s": total("documents.parse"),
        "documents.emit_s": total("documents.emit"),
        "cli.self_s": self_time("cli.command"),
    }


PEAK_METRICS = ("bounds.peak_traced_mb", "certificates.peak_traced_mb")


def merge_metrics(rounds: list, memory: dict) -> dict:
    """Medians over the timed rounds, with the peaks of the memory round."""
    out = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    out.update({k: memory[k] for k in PEAK_METRICS})
    return out
