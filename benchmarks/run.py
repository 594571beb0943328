"""jsrkit benchmark: seeded CLI workloads, timed end to end and layer by layer.

Run from the root of a jsrkit checkout:

    python3 benchmarks/run.py --workload estimate_gauss --seed 1 --seconds 36 --trace 0
    python3 benchmarks/run.py --repeat 10 --seed 1 [--workload NAME ...]

One run prints context lines and, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``); with ``--trace 1`` they are the per-layer ones, taken from
a traced workload process next to an untraced one.  ``--repeat N`` runs
every chosen workload with N seeds and prints each metric's median,
quartiles and spread beside its bound from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "benchmarks", "out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("estimate_gauss", "certify_unitary", "padic_exact")
SETUP_SAMPLES = 3  # set-up-only processes per run, besides the workload's own
DEADLINE_S = 170.0  # a run must end within 180 s
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def _revision() -> str:
    """The checkout's git revision, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = os.path.join(ROOT, ".git", name)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(NPROC)  # at most one BLAS thread per core
    return env


def _worker(args: list, deadline: float) -> tuple:
    """Start a worker; returns (set-up seconds, its result, None if set-up only)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, *args],
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        text=True,
    )
    lines: queue.Queue = queue.Queue()

    def pump():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    try:
        first = lines.get(timeout=max(0.0, deadline - time.perf_counter()))
        setup = time.perf_counter() - t0
        if first is None or first.strip() != "READY":
            raise BenchError(f"worker {args} failed during set-up")
        result = None
        while (line := lines.get(timeout=max(0.0, deadline - time.perf_counter()))) is not None:
            result = line
        code = proc.wait(timeout=max(0.0, deadline - time.perf_counter()))
        if code != 0 or (result is None and "--setup-only" not in args):
            raise BenchError(f"worker {args} exited with {code} and no result")
    except (queue.Empty, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"worker {args} ran past the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        reader.join(timeout=5)
        proc.stdout.close()
    return setup, (json.loads(result) if result else None)


def run_once(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """One benchmark run; returns (context, result) as printed."""
    if not os.path.isfile(os.path.join(ROOT, "src", "jsrkit", "cli.py")):
        raise BenchError(f"no jsrkit sources under {ROOT}/src; run from a checkout root")
    os.makedirs(OUT, exist_ok=True)
    deadline = time.perf_counter() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "revision": _revision(),
        "nproc": NPROC,
        "blas_threads": NPROC,
        "python": sys.version.split()[0],
    }
    if not trace:
        setups = [_worker([*base, "--setup-only"], deadline)[0] for _ in range(SETUP_SAMPLES)]
        setup, res = _worker([*base, "--seconds", str(seconds)], deadline)
        setups.append(setup)
        runs = [res]
        metrics = {
            "wall_s": statistics.median(res["rounds"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
        units = END_TO_END
        context.update(wall_rounds=len(res["rounds"]), setup_samples=len(setups))
    else:
        import tracing

        _, plain = _worker([*base, "--seconds", str(seconds / 2)], deadline)
        _, traced = _worker([*base, "--seconds", str(seconds / 2), "--trace"], deadline)
        runs = [plain, traced]
        metrics = tracing.merge_metrics(traced["layers"], traced["memory"])
        metrics["trace.overhead_s"] = statistics.median(traced["rounds"]) - statistics.median(
            plain["rounds"]
        )
        units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
        context.update(untraced_rounds=len(plain["rounds"]), traced_rounds=len(traced["rounds"]))
    errors = [e for r in runs for e in r["errors"]]
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    result = {
        "correct": sum(r["error_count"] for r in runs) == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return context, result


# --- repeat mode -------------------------------------------------------------------


def repeat(workloads: list, first_seed: int, count: int, seconds: float, trace: bool, label: str):
    """Run each workload with ``count`` seeds; print each metric's spread."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    summary = {}
    for w in workloads:
        values: dict = {}
        shares = []
        for seed in range(first_seed, first_seed + count):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
                cwd=ROOT, capture_output=True, text=True, timeout=200,
            )
            if proc.returncode != 0:
                raise BenchError(f"{w} seed {seed} failed:\n{proc.stderr}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            if not res["correct"]:
                raise BenchError(f"{w} seed {seed} reported incorrect output:\n{proc.stderr}")
            shares.append(res["failed"] / res["attempted"])
            for k, v in res["metrics"].items():
                values.setdefault(k, []).append(v["value"])
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        rows = {}
        for k, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            rows[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                       "bound": bounds.get(k), "values": vals}
            b = bounds.get(k)
            beside = f"bound {b:.3f}  spread/bound {spread / b:.2f}" if b else "no bound"
            print(f"  {w:16s} {k:28s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  {beside}", flush=True)
        print(f"  {w:16s} failed share {sorted(set(shares))}", flush=True)
        summary[w] = {"metrics": rows, "failed_share": shares}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"repeat-{label}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"seconds": seconds, "trace": int(trace), "first_seed": first_seed,
                   "count": count, "nproc": NPROC, "blas_threads": NPROC,
                   "revision": _revision(), "workloads": summary}, f, indent=1)
    print(f"wrote {path}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0, help="runs per workload, one seed each")
    ap.add_argument("--label", default="latest", help="name of the repeat summary file")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    try:
        if args.repeat:
            repeat(args.workload or list(WORKLOADS), args.seed, args.repeat, args.seconds,
                   bool(args.trace), args.label)
            return 0
        if not args.workload or len(args.workload) != 1:
            ap.error("give exactly one --workload")
        context, result = run_once(args.workload[0], args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"context": context}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
