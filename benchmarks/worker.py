"""One workload process: set up, then run whole rounds of CLI commands.

Run from the root of a jsrkit checkout:

    python3 benchmarks/worker.py --workload NAME --seed N --seconds S [--trace]
    python3 benchmarks/worker.py --workload NAME --seed N --setup-only

Set-up is the interpreter start, ``import jsrkit`` from ``src/`` and the
writing of the seeded documents.  When it is done the process prints
``READY`` on standard output, which is where ``run.py`` stops the set-up
clock.  It then runs rounds of the workload's commands, each through
``jsrkit.cli.main`` with the arguments a user would type, until the next
round would end after ``--seconds``, checks every report, and prints one
JSON line with the round times, the operation counts and, when traced,
the per-layer metrics of every round.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import checks

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "benchmarks", "out")


def _import_jsrkit():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import jsrkit.cli

    # an installed jsrkit elsewhere must not stand in for the checkout's
    if not os.path.abspath(jsrkit.cli.__file__).startswith(src + os.sep):
        raise ImportError(f"jsrkit was imported from {jsrkit.cli.__file__}, not {src}")
    return jsrkit.cli


def split_reports(text: str) -> list:
    decoder, pos, out = json.JSONDecoder(), 0, []
    text = text.strip()
    while pos < len(text):
        obj, pos = decoder.raw_decode(text, pos)
        out.append(obj)
        while pos < len(text) and text[pos].isspace():
            pos += 1
    return out


def check_command(cmd, reports: list, rng) -> list:
    """Check the reports of one command; returns error messages."""
    if len(reports) != len(cmd.docs):
        return [f"{cmd.argv[0]}: {len(reports)} reports for {len(cmd.docs)} documents"]
    errs = []
    results = {}
    for doc, rep in zip(cmd.docs, reports):
        res = rep["results"]
        results[doc.path] = res
        if cmd.kind == "estimate":
            e = checks.check_estimate(res, doc.members, cmd.depth, bool(cmd.flags), rng)
        elif cmd.kind == "certify":
            e = checks.check_boca_unitary(res, doc.members, cmd.depth, rng)
        else:
            e = checks.check_padic(res, doc.members, doc.prime, rng)
            if doc.base is not None:
                e += checks.check_padic_multiple(results[doc.base], res)
        errs += [f"{os.path.basename(doc.path)}: {m}" for m in e]
    return errs


def check_round(commands: list, outputs: list, rng, tally: dict) -> None:
    """Count the round's operations and check every report of it."""
    for cmd, (code, out, err) in zip(commands, outputs):
        tally["attempted"] += len(cmd.docs)
        if code != 0:
            tally["failed"] += len(cmd.docs)
            print(f"{' '.join(cmd.argv)}: exit {code}\n{err}", file=sys.stderr)
            continue
        try:
            errs = check_command(cmd, split_reports(out), rng)
        except (KeyError, TypeError, ValueError) as exc:
            errs = [f"{cmd.argv[0]}: malformed report: {exc!r}"]
        tally["errors"] += errs


def run_round(cli, commands: list, tracer=None) -> tuple:
    """Run one round; returns (seconds, [(exit code, stdout, stderr)])."""
    outputs = []
    t0 = time.perf_counter()
    for cmd in commands:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.open("cli.command", command=cmd.kind) if tracer else None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(cmd.argv))
        except SystemExit as exc:  # argparse rejects arguments this way
            code = exc.code
        except Exception:  # a crash is a failed operation, not a dead run
            code = None
            err.write(traceback.format_exc())
        finally:
            if span is not None:
                tracer.close(span)
        outputs.append((code, out.getvalue(), err.getvalue()))
    return time.perf_counter() - t0, outputs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cli = _import_jsrkit()
    import numpy as np

    import workloads

    commands = workloads.build(args.workload, args.seed, os.path.join(OUT, f"docs-{args.workload}-{args.seed}"))
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    padic_reports = sum(len(c.docs) for c in commands if c.kind == "padic")
    tally = {"attempted": 0, "failed": 0, "errors": []}

    def one_round():
        first = len(tracer.spans) if tracer else 0
        seconds, outputs = run_round(cli, commands, tracer)
        check_round(commands, outputs, np.random.default_rng([args.seed, 7]), tally)
        layers = tracing.round_metrics(tracer.spans[first:], padic_reports) if tracer else None
        return seconds, layers

    rounds, layers = [], []
    start = time.perf_counter()
    while True:
        seconds, metrics = one_round()
        rounds.append(seconds)
        layers.append(metrics)
        spent = time.perf_counter() - start
        if spent + spent / len(rounds) > args.seconds:
            break
    memory = None
    if tracer:
        # one more round for the tracemalloc peaks; its times are not used
        tracer.measure_peaks = True
        memory = one_round()[1]
        tracer.uninstall()
        tracer.dump(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
    result = {
        "rounds": rounds,
        "round_median_s": statistics.median(rounds),
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "errors": tally["errors"][:20],
        "error_count": len(tally["errors"]),
        "layers": layers if tracer else [],
        "memory": memory,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
