"""Seeded documents and the fixed batch of CLI commands of each workload.

Every document is drawn from the run's seed, written in the public JSON
document format, and kept in memory next to its path, so that the checks
can recompute results from the same numbers without going through jsrkit.

Each round of a workload runs the workload's own commands and then the
probe: three small commands, one per command kind, identical in make-up
on every workload.  The probe keeps every layer busy for a few
milliseconds, so that no per-layer time reads exactly zero; it is about
one percent of a round.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

WORKLOADS = ("estimate_gauss", "certify_unitary", "padic_exact")

# (members, dimension, depth) of the Gaussian sets; the shapes of the
# roadmap's estimate measurements
GAUSS_SHAPES = ((2, 2, 18), (4, 4, 9), (2, 8, 14))
# the first and the last shape also run with --conjugation --barabanov
GAUSS_REFINED = (0, 2)
# documents per shape: how many words get an eigensolve depends on the
# input (19 to 139,087 of 524,286 at d = 2), so one document per shape
# would make a round's time swing with the seed
GAUSS_DOCS = 2

UNITARY_DIM = 2
UNITARY_COUNT = 4
CERTIFY_DEPTH = 8  # the CLI default, spelled out

ENTRY_RANGE = (-9, 10)  # integer entries, as in the acceptance p-adic suite
INT_SETS = 6  # acceptance-like pairs, d = 2 and 3 alternating
INT_PRIMES = (2, 3, 5)
PMUL_PAIRS = 3  # d = 3, three members: S and p*S
PMUL_PRIME = 3
FRAC_SETS = 2  # d = 3, two members, entries a/p
FRAC_PRIME = 3
D4_PRIME = 2

PROBE_DEPTH = 6

_STREAMS = {name: i for i, name in enumerate(WORKLOADS)}
_PROBE_STREAM = 99


@dataclass
class Doc:
    path: str
    members: object  # complex (m, d, d) array, or list of d x d Fraction rows
    prime: int | None = None
    base: str | None = None  # path of S for a p*S document


@dataclass
class Command:
    kind: str  # "estimate", "certify" or "padic"
    argv: list
    docs: list
    depth: int | None = None
    flags: tuple = field(default_factory=tuple)


def write_complex(path: str, mats: np.ndarray) -> None:
    obj = {
        "format": 1,
        "dim": int(mats.shape[1]),
        "field": "complex",
        "members": [
            [[[float(x.real), float(x.imag)] for x in row] for row in m] for m in mats
        ],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


def write_rational(path: str, members: list, prime: int) -> None:
    obj = {
        "format": 1,
        "dim": len(members[0]),
        "field": {"kind": "rational_padic", "prime": prime},
        "members": [[[str(x) for x in row] for row in m] for m in members],
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f)


def gaussian_set(rng: np.random.Generator, m: int, d: int) -> np.ndarray:
    return rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))


def integer_set(rng: np.random.Generator, m: int, d: int) -> list:
    lo, hi = ENTRY_RANGE
    return [
        [[Fraction(int(rng.integers(lo, hi))) for _ in range(d)] for _ in range(d)]
        for _ in range(m)
    ]


def _unit_trace_set(rng: np.random.Generator, m: int, d: int, p: int) -> list:
    # a first member whose trace is prime to p has an eigenvalue of
    # magnitude 1, so the exact sweep stops at its first word; without it an
    # integer set may sweep its whole tree (131,070 words at d = 4)
    while True:
        s = integer_set(rng, m, d)
        if sum(s[0][i][i] for i in range(d)) % p:
            return s


def _scaled(members: list, c: Fraction) -> list:
    return [[[c * x for x in row] for row in mat] for mat in members]


def _estimate(docs: list, depth: int, refine: bool) -> Command:
    flags = ("--conjugation", "--barabanov") if refine else ()
    argv = ["estimate", *[d.path for d in docs], "--depth", str(depth), *flags]
    return Command("estimate", argv, docs, depth, flags)


def _certify(docs: list) -> Command:
    argv = ["certify", *[d.path for d in docs], "--theorem", "boca", "--depth", str(CERTIFY_DEPTH)]
    return Command("certify", argv, docs, CERTIFY_DEPTH)


def _padic(docs: list) -> Command:
    return Command("padic", ["padic", *[d.path for d in docs]], docs)


def _gauss_commands(rng, out: str) -> list:
    cmds = []
    for i, (m, d, depth) in enumerate(GAUSS_SHAPES):
        docs = []
        for j in range(GAUSS_DOCS):
            doc = Doc(os.path.join(out, f"gauss_m{m}_d{d}_{j}.json"), gaussian_set(rng, m, d))
            write_complex(doc.path, doc.members)
            docs.append(doc)
        cmds.append(_estimate(docs, depth, i in GAUSS_REFINED))
    return cmds


def _unitary_doc(path: str, count: int, seed: int) -> Doc:
    from jsrkit.families import unitary_mix

    mats = np.array(unitary_mix(UNITARY_DIM, count=count, seed=seed).stack)
    doc = Doc(path, mats)
    write_complex(path, mats)
    return doc


def _certify_commands(seed: int, out: str) -> list:
    doc = _unitary_doc(os.path.join(out, "unitary_mix.json"), UNITARY_COUNT, seed)
    return [_certify([doc])]


def _padic_commands(rng, out: str) -> list:
    def doc(name, members, prime, base=None):
        d = Doc(os.path.join(out, name), members, prime, base)
        write_rational(d.path, members, prime)
        return d

    ints = [
        doc(f"int_{i}.json", integer_set(rng, 2, 2 if i % 2 == 0 else 3),
            INT_PRIMES[i % len(INT_PRIMES)])
        for i in range(INT_SETS)
    ]
    pairs = []
    for i in range(PMUL_PAIRS):
        base = doc(f"base_{i}.json", _unit_trace_set(rng, 3, 3, PMUL_PRIME), PMUL_PRIME)
        pmul = doc(f"pmul_{i}.json", _scaled(base.members, Fraction(PMUL_PRIME)),
                   PMUL_PRIME, base.path)
        pairs += [base, pmul]
    fracs = [
        doc(f"frac_{i}.json", _scaled(integer_set(rng, 2, 3), Fraction(1, FRAC_PRIME)),
            FRAC_PRIME)
        for i in range(FRAC_SETS)
    ]
    d4 = doc("d4.json", _unit_trace_set(rng, 2, 4, D4_PRIME), D4_PRIME)
    return [_padic(ints), _padic(pairs), _padic(fracs), _padic([d4])]


def probe(seed: int, out: str) -> list:
    """The probe's three commands, with their documents written to ``out``."""
    rng = np.random.default_rng([seed, _PROBE_STREAM])
    pair = Doc(os.path.join(out, "probe_gauss.json"), gaussian_set(rng, 2, 2))
    write_complex(pair.path, pair.members)
    unitary = _unitary_doc(os.path.join(out, "probe_unitary.json"), 1, seed)
    exact = Doc(os.path.join(out, "probe_int.json"), integer_set(rng, 2, 2), 2)
    write_rational(exact.path, exact.members, exact.prime)
    return [_estimate([pair], PROBE_DEPTH, True), _certify([unitary]), _padic([exact])]


def build(workload: str, seed: int, out: str) -> list:
    """Write the documents of one workload and return its round of commands."""
    if workload not in _STREAMS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(out, exist_ok=True)
    rng = np.random.default_rng([seed, _STREAMS[workload]])
    if workload == "estimate_gauss":
        cmds = _gauss_commands(rng, out)
    elif workload == "certify_unitary":
        cmds = _certify_commands(seed, out)
    else:
        cmds = _padic_commands(rng, out)
    return cmds + probe(seed, out)
