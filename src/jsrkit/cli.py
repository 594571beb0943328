"""Command-line interface: estimate, certify, padic, examples.

estimate, certify and padic take one or more inputs and write one JSON
report per input to standard output, in input order; notes go to standard
error.  The exit code is the worst over all inputs: 0 ok/CONFIRMED, 1 usage
or parse error, 2 INCONCLUSIVE, 3 REFUTED, 4 budget exceeded.  A failing
input ends the batch after the reports before it, and no CSV is written.
--depth must be at least 1.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from fractions import Fraction
from typing import NamedTuple

from . import __version__
from .bounds import JsrConfig, barabanov_approx, conjugation_search, jsr_estimate
from .certificates import Verdict, check_bg_el, check_boca_new, check_polbd
from .core import WORD_CAP, BudgetExceededError, JsrError, NormSpec
from .documents import InputDocument, ParseError, RunReport
from .families import FAMILY_NAMES, build_family
from .ultrametric import PAdicMatrixSet, check_ultra_boca

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INCONCLUSIVE = 2
EXIT_REFUTED = 3
EXIT_BUDGET = 4

_VERDICT_EXIT = {
    Verdict.CONFIRMED: EXIT_OK,
    Verdict.INCONCLUSIVE: EXIT_INCONCLUSIVE,
    Verdict.REFUTED: EXIT_REFUTED,
}

_NORMS = {
    "spectral": NormSpec.spectral,
    "rowsum": NormSpec.max_row_sum,
    "colsum": NormSpec.max_col_sum,
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors by default; the contract
    # reserves 2 for INCONCLUSIVE, so route usage problems to 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _sanitize(obj):
    """Make a result tree JSON-safe: words to lists, Fractions to strings,
    non-finite floats to strings."""
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else str(obj)
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


def _interval_record(iv) -> dict:
    return {
        "lower": iv.lower,
        "upper": iv.upper,
        "width": iv.width,
        "lower_witness": iv.lower_witness,
        "upper_depth": iv.upper_depth,
        "diagnostics": iv.diagnostics,
    }


def _theorem_record(rep) -> dict:
    return {
        "theorem": rep.theorem_id,
        "verdict": rep.verdict.name,
        "lhs": rep.lhs,
        "rhs_at_lower": rep.rhs_at_lower,
        "rhs_at_upper": rep.rhs_at_upper,
        "witnesses": rep.witnesses,
        "budget": rep.budget,
    }


def _magnitude_record(mag):
    if mag.is_bottom:
        return None
    return {
        "numerator": mag.exponent.numerator,
        "denominator": mag.exponent.denominator,
    }


def _complex_rows(array) -> list:
    return [[[float(x.real), float(x.imag)] for x in row] for row in array]


def _load_document(path: str) -> InputDocument:
    try:
        text = sys.stdin.read() if path == "-" else open(path, encoding="utf-8").read()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        return InputDocument.parse(text)
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _note(quiet: bool, message: str):
    if not quiet:
        print(message, file=sys.stderr)


class _Outcome(NamedTuple):
    """One input's results, stderr notes, CSV cells and exit code."""

    results: dict
    notes: list
    row: list
    code: int


def _run(args, command: str, config: dict, columns: list, one) -> int:
    """Run ``one`` on each input in order and report it.

    Each input gets its JSON report on stdout before the next one starts,
    and its notes on stderr.  The exit code is the worst over all inputs.
    An error ends the batch: the reports before it stand, no CSV is written.
    """
    config = _sanitize(config)
    worst = EXIT_OK
    rows = []
    for path in args.inputs:
        t0 = time.perf_counter()
        doc = _load_document(path)
        out = one(doc)
        report = RunReport(
            tool="jsrkit",
            version=__version__,
            command=command,
            input_digest=doc.digest(),
            config=config,
            seed=args.seed,
            results=_sanitize(out.results),
            wall_time_s=time.perf_counter() - t0,
        )
        sys.stdout.write(report.emit())
        sys.stdout.flush()
        for note in out.notes:
            _note(args.quiet, f"{path}: {note}")
        worst = max(worst, out.code)
        rows.append([path, report.input_digest, *out.row, f"{report.wall_time_s:.6f}"])
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f)
            w.writerow(["input", "digest", *columns, "wall_time_s"])
            w.writerows(rows)
    return worst


# --- estimate ------------------------------------------------------------------


def cmd_estimate(args) -> int:
    jsr_config = JsrConfig(depth=args.depth, norm=_NORMS[args.norm](), word_cap=args.cap)

    def one(doc):
        s = doc.to_matrix_set()
        interval = jsr_estimate(s, jsr_config)
        results = {"interval": _interval_record(interval)}
        if args.conjugation:
            conj = conjugation_search(s, norm=jsr_config.norm)
            results["conjugation"] = {
                "value": conj.value,
                "g": _complex_rows(conj.g),
            }
        if args.barabanov:
            if interval.upper > 0:
                pn = barabanov_approx(
                    s,
                    interval.upper,
                    min(args.depth, 4),
                    seed=args.seed,
                    word_cap=args.cap,
                )
                results["barabanov"] = {
                    "rho_hat": pn.rho_hat,
                    "depth": pn.depth,
                    "slack": pn.slack,
                    "sample_size": pn.sample_size,
                }
            else:
                results["barabanov"] = None  # zero set: no norm to scale
        notes = [
            f"interval [{interval.lower:.12g}, {interval.upper:.12g}]"
            f" width {interval.width:.3g}"
        ]
        if interval.diagnostics.get("budget_exhausted"):
            notes.append(
                f"word budget hit before depth {args.depth};"
                " the interval is valid but wider (raise --cap to tighten)"
            )
        row = [s.dim, s.size, interval.lower, interval.upper, interval.width]
        return _Outcome(results, notes, row, EXIT_OK)

    config = {
        "depth": args.depth,
        "norm": args.norm,
        "cap": args.cap,
        "conjugation": args.conjugation,
        "barabanov": args.barabanov,
    }
    return _run(args, "estimate", config, ["dim", "size", "lower", "upper", "width"], one)


# --- certify -------------------------------------------------------------------


def cmd_certify(args) -> int:
    jsr_config = JsrConfig(depth=args.depth, norm=_NORMS[args.norm](), word_cap=args.cap)

    def one(doc):
        s = doc.to_matrix_set()
        interval = jsr_estimate(s, jsr_config)
        results = {"interval": _interval_record(interval)}
        if args.theorem == "polbd":
            rep = check_polbd(s, interval, word_cap=args.cap)
        elif args.theorem == "boca":
            rep = check_boca_new(s, jsr_config.norm, interval, word_cap=args.cap)
        else:  # bgel needs the radius moved onto 1
            if not math.isfinite(interval.upper):  # the cap admitted no level
                raise BudgetExceededError(s.size, args.cap, "upper bound at depth 1")
            if interval.upper <= 0:
                raise ValueError(
                    "the zero set cannot be rescaled to radius one for this check"
                )
            factor = 1.0 / interval.upper
            rep = check_bg_el(
                s.scaled(factor),
                args.eps,
                max(args.depth, 2),
                interval=interval.scaled(factor),
                seed=args.seed,
                word_cap=args.cap,
            )
            results["rescaled_by"] = factor
        results["report"] = _theorem_record(rep)
        row = [args.theorem, rep.verdict.name, rep.lhs, rep.rhs_at_lower, rep.rhs_at_upper]
        return _Outcome(
            results, [f"{args.theorem} {rep.verdict.name}"], row, _VERDICT_EXIT[rep.verdict]
        )

    config = {
        "theorem": args.theorem,
        "depth": args.depth,
        "norm": args.norm,
        "eps": args.eps,
        "cap": args.cap,
    }
    columns = ["theorem", "verdict", "lhs", "rhs_at_lower", "rhs_at_upper"]
    return _run(args, "certify", config, columns, one)


# --- padic ---------------------------------------------------------------------


def cmd_padic(args) -> int:
    def one(doc):
        ps = doc.to_padic_set()
        if args.prime is not None:
            ps = PAdicMatrixSet(ps.stack, args.prime)
        boca = check_ultra_boca(ps, word_cap=args.cap)
        # ||S^d||_0 is BOTTOM exactly when every length-d product vanishes,
        # which is padic_nilpotency_exact's criterion
        nilpotent = boca.lhs.is_bottom
        bottom = boca.rho.is_bottom
        results = {
            "prime": ps.prime,
            "rho_exponent": _magnitude_record(boca.rho),
            "rho_is_zero": bottom,
            "witness": boca.rho_witness,
            "power_inequality": {
                "holds": boca.holds,
                "lhs_exponent": _magnitude_record(boca.lhs),
                "rhs_exponent": _magnitude_record(boca.rhs),
                "extremal_word": boca.extremal_word,
            },
            "nilpotent": nilpotent,
        }
        rho_repr = "0" if bottom else f"{ps.prime}^({-boca.rho.exponent})"
        row = [ps.prime, "bottom" if bottom else str(boca.rho.exponent), nilpotent, boca.holds]
        # a failed power inequality would contradict a proven bound
        code = EXIT_OK if boca.holds else EXIT_REFUTED
        return _Outcome(results, [f"rho = {rho_repr}, nilpotent = {nilpotent}"], row, code)

    config = {"cap": args.cap, "prime_override": args.prime}
    columns = ["prime", "rho_exponent", "nilpotent", "power_holds"]
    return _run(args, "padic", config, columns, one)


# --- examples ------------------------------------------------------------------


def cmd_examples(args) -> int:
    doc = build_family(
        args.family, dim=args.dim, eps=args.eps, count=args.count, seed=args.seed
    )
    text = doc.emit()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        _note(args.quiet, f"wrote {args.family} (dim {doc.dim}) to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --- wiring --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="jsrkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"jsrkit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    cap_help = (
        "word budget: words of every length up to the deepest level, summed;"
        " each step of a bgel trajectory counts as one word"
    )
    common.add_argument("--cap", type=int, default=WORD_CAP, help=cap_help)
    common.add_argument("--seed", type=int, default=0, help="seed echoed in reports")
    common.add_argument("--csv", metavar="PATH", help="write a CSV summary")
    common.add_argument("--quiet", action="store_true", help="silence stderr notes, not reports")

    est = sub.add_parser("estimate", parents=[common], help="sandwich interval for the jsr")
    est.add_argument("inputs", nargs="+", metavar="INPUT", help="document path or -")
    est.add_argument("--depth", type=int, default=8)
    est.add_argument("--norm", choices=sorted(_NORMS), default="spectral")
    est.add_argument("--conjugation", action="store_true", help="also search for a norm-reducing conjugation")
    est.add_argument("--barabanov", action="store_true", help="also report extremal-norm slack")
    est.set_defaults(func=cmd_estimate)

    cert = sub.add_parser("certify", parents=[common], help="run a theorem checker")
    cert.add_argument("inputs", nargs="+", metavar="INPUT")
    cert.add_argument("--theorem", choices=["polbd", "boca", "bgel"], required=True)
    cert.add_argument("--depth", type=int, default=8, help="sweep depth (boca reuses it at >= 2d^2); bgel trajectory budget")
    cert.add_argument("--norm", choices=sorted(_NORMS), default="spectral")
    cert.add_argument("--eps", type=float, default=0.25, help="bgel slack parameter")
    cert.set_defaults(func=cmd_certify)

    pad = sub.add_parser("padic", parents=[common], help="exact rational p-adic radius")
    pad.add_argument("inputs", nargs="+", metavar="INPUT")
    pad.add_argument("--prime", type=int, default=None, help="override the document's prime")
    pad.set_defaults(func=cmd_padic)

    ex = sub.add_parser("examples", parents=[common], help="emit a built-in family document")
    ex.add_argument("family", choices=FAMILY_NAMES)
    ex.add_argument("--dim", type=int, default=2)
    ex.add_argument("--eps", type=float, default=0.5)
    ex.add_argument("--count", type=int, default=8)
    ex.add_argument("--out", metavar="PATH", help="write here instead of stdout")
    ex.set_defaults(func=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"jsrkit: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ParseError as exc:
        print(f"jsrkit: parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (JsrError, ValueError) as exc:
        print(f"jsrkit: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
