"""Acceptance suite: one test per shipping criterion, with time budgets.

Each test is self-contained and asserts both the mathematical claim and the
wall-clock budget it is expected to meet on commodity hardware.  The
randomized populations are seeded, so failures reproduce exactly.  Criteria
that re-run the property suite import the parameterized checks from
test_properties rather than duplicating them.
"""

import json
import math
import time

import numpy as np

from jsrkit.bounds import JsrConfig, jsr_estimate, lower_bound, upper_bound
from jsrkit.certificates import (
    Verdict,
    check_boca_new,
    check_polbd,
    residual_certificate,
    siegel_combination,
    spectral_radius,
    trace_bound,
    trajectory_return_search,
)
from jsrkit.cli import _VERDICT_EXIT, main
from jsrkit.core import SPECTRAL, WORD_CAP, MatrixSet, vector_norm
from jsrkit.documents import InputDocument
from jsrkit.families import (
    FAMILY_NAMES,
    elementary,
    eps_identity,
    shift,
    unipotent_pair,
    unitary_mix,
)
from jsrkit.ultrametric import (
    PAdicMatrixSet,
    check_ultra_boca,
    ell_bound,
    padic_jsr_exact,
    padic_nilpotency_exact,
)

from test_properties import (
    check_conjugation_invariance,
    check_conjugation_search_dominates_lower,
    check_monotonicity,
    check_nilpotent_collapse,
    check_power_identity,
    check_pruned_matches_exhaustive,
    check_sandwich,
    check_scaling_equivariance,
)

PHI = (1 + math.sqrt(5)) / 2


def builtin_families():
    """The stock families at d = 2 and 3 (sampled ones kept small)."""
    fams = []
    for d in (2, 3):
        fams.append((f"elementary d={d}", elementary(d)))
        fams.append((f"shift d={d}", shift(d)))
        fams.append((f"unitary-mix d={d}", unitary_mix(d, count=4, seed=0)))
        fams.append((f"eps-identity d={d}", eps_identity(d, count=4, seed=0)))
    fams.append(("unipotent-pair", unipotent_pair()))
    return fams


def gaussian_pairs(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        mats = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        yield MatrixSet.from_arrays(list(mats))


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reports(out):
    decoder = json.JSONDecoder()
    found, pos = [], 0
    while pos < len(out.strip()):
        obj, end = decoder.raw_decode(out, pos)
        found.append(obj)
        pos = end
        while pos < len(out) and out[pos] in " \r\n":
            pos += 1
    return found


# --- 1: cyclic shift sets have radius exactly one --------------------------------


def test_shift_family_radius_detection():
    # products shorter than d are nilpotent, the d-cycle has radius one,
    # and the sandwich closes to width 1e-9 two levels later
    for d in (2, 3, 4):
        t0 = time.perf_counter()
        s = shift(d)
        for k in range(1, d):
            assert lower_bound(s, k).value == 0.0
        assert abs(lower_bound(s, d).value - 1.0) <= 1e-9
        interval = jsr_estimate(s, JsrConfig(depth=d + 2))
        assert interval.upper - interval.lower <= 1e-9
        assert time.perf_counter() - t0 < 1.0


# --- 2: golden-ratio growth of the unipotent pair --------------------------------


def test_unipotent_pair_golden_ratio_bounds():
    t0 = time.perf_counter()
    s = unipotent_pair()
    lb = lower_bound(s, 2)
    assert abs(lb.value - PHI) <= 1e-9
    assert lb.witness == (0, 1)
    ub = upper_bound(s, 12)
    assert 1.6180 <= ub <= 1.90
    assert time.perf_counter() - t0 < 10.0


# --- 3 and 4: theorem checkers confirm across populations ------------------------


def test_spectral_gap_checker_across_populations():
    t0 = time.perf_counter()
    refuted = 0
    for name, s in builtin_families():
        depth = 8 if s.size <= 2 else 4
        interval = jsr_estimate(s, JsrConfig(depth=depth))
        rep = check_polbd(s, interval)
        refuted += rep.verdict is Verdict.REFUTED
        assert rep.verdict is Verdict.CONFIRMED, (name, rep)
    for s in gaussian_pairs(100, seed=2026):
        interval = jsr_estimate(s, JsrConfig(depth=8))
        rep = check_polbd(s, interval)
        refuted += rep.verdict is Verdict.REFUTED
        assert rep.verdict is Verdict.CONFIRMED
        assert rep.budget["depth"] <= 16
    assert refuted == 0
    assert time.perf_counter() - t0 < 120.0


def test_power_norm_checker_across_populations():
    t0 = time.perf_counter()
    refuted = 0
    for name, s in builtin_families():
        depth = 8 if s.size <= 2 else 4
        interval = jsr_estimate(s, JsrConfig(depth=depth))
        # d = 3 sets get a smaller word budget; clamped runs may still confirm
        cap = WORD_CAP if s.dim == 2 else 100_000
        rep = check_boca_new(s, SPECTRAL, interval, word_cap=cap)
        refuted += rep.verdict is Verdict.REFUTED
        assert rep.verdict is Verdict.CONFIRMED, (name, rep)
        if s.dim == 2:
            assert rep.budget["n1"] == 8
    for s in gaussian_pairs(100, seed=2026):
        interval = jsr_estimate(s, JsrConfig(depth=8))
        rep = check_boca_new(s, SPECTRAL, interval)
        refuted += rep.verdict is Verdict.REFUTED
        assert rep.verdict is Verdict.CONFIRMED
        assert rep.budget["n1"] == 8 and not rep.budget["clamped"]
    assert refuted == 0
    assert time.perf_counter() - t0 < 120.0


# --- 5: lemma oracles at scale ----------------------------------------------------


def test_lemma_oracles_at_scale():
    rng = np.random.default_rng(501)

    # residual certificates never exceed the true spectral radius
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a /= np.linalg.svd(a, compute_uv=False)[0] * (1 + 1e-12)
        vals, vecs = np.linalg.eig(a)
        k = int(rng.integers(d))
        x = vecs[:, k] / np.linalg.norm(vecs[:, k])
        lam = vals[k] * (1 + 1e-4 * rng.standard_normal())
        cert = residual_certificate(a, x, lam)
        assert cert.bound <= spectral_radius(a) * (1 + 1e-9)

    # the power-trace bound really is an upper bound
    for _ in range(1000):
        d = int(rng.integers(2, 5))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        assert trace_bound(a) >= spectral_radius(a) * (1 - 1e-9)

    # small integer combinations re-verify whenever the counting
    # hypothesis holds (real data, so the grid argument is sound)
    for _ in range(500):
        xs = [float(x) for x in rng.uniform(-1.0, 1.0, size=6)]
        c = siegel_combination(xs, 2, 0.3)
        assert any(ci != 0 for ci in c)
        assert max(abs(ci) for ci in c) <= 2
        assert abs(sum(ci * xi for ci, xi in zip(c, xs))) <= 0.3
    for _ in range(500):
        xs = [rng.uniform(-1.0, 1.0, size=2) for _ in range(7)]
        xs = [x / max(1.0, float(np.linalg.norm(x))) for x in xs]
        c = siegel_combination(xs, 3, 0.5)
        res = sum(ci * xi for ci, xi in zip(c, xs))
        assert any(ci != 0 for ci in c)
        assert max(abs(ci) for ci in c) <= 3
        assert vector_norm(res, SPECTRAL) <= 0.5


# --- 6: trajectory-return certificates --------------------------------------------


def test_trajectory_certificates():
    theta = 2 * math.pi / 5
    rot = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    )
    s = MatrixSet.from_arrays([rot])
    word, cert, diag = trajectory_return_search(s, SPECTRAL, 40, x0=[1.0, 0.0])
    assert len(word) == 5
    assert cert.residual <= 1e-9
    assert cert.bound >= 1 - 1e-6
    assert diag["found_return"]

    rescaled = unipotent_pair(1 / PHI)
    word, cert, _ = trajectory_return_search(rescaled, SPECTRAL, 64, seed=0)
    assert 1 <= len(word) <= 64
    assert cert.bound >= 0.8


# --- 7: exact arithmetic suite ----------------------------------------------------


def test_exact_padic_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(701)
    primes = (2, 3, 5)
    for i in range(50):
        d = 2 if i % 2 == 0 else 3
        p = primes[i % 3]
        rows = [
            [[int(rng.integers(-9, 10)) for _ in range(d)] for _ in range(d)]
            for _ in range(2)
        ]
        s = PAdicMatrixSet(rows, p)
        got = padic_jsr_exact(s)
        # doubling the sweep depth must not change the exact value
        again = padic_jsr_exact(s, ell=2 * ell_bound(d))
        assert got.rho == again.rho
        assert padic_nilpotency_exact(s) == got.rho.is_bottom
        assert check_ultra_boca(s).holds
    assert time.perf_counter() - t0 < 300.0


# --- 8: randomized property suite -------------------------------------------------


def test_randomized_property_suite():
    check_sandwich(500)
    check_monotonicity(500)
    check_scaling_equivariance(500)
    check_conjugation_invariance(500)
    check_power_identity(500)
    check_nilpotent_collapse(500)
    check_conjugation_search_dominates_lower(500)
    check_pruned_matches_exhaustive(50)


# --- 9: CLI round trips, exit codes, determinism -----------------------------------


def test_cli_round_trip_exit_codes_determinism(capsys, tmp_path):
    # every generated document survives a parse/emit round trip byte for byte
    for name in FAMILY_NAMES:
        code, out, _ = run_cli(capsys, "examples", name, "--dim", "2", "--seed", "3")
        assert code == 0
        assert InputDocument.parse(out).emit() == out

    doc = InputDocument(unipotent_pair())
    path = tmp_path / "pair.json"
    path.write_text(doc.emit())

    code, out, _ = run_cli(capsys, "estimate", str(path), "--depth", "6")
    assert code == 0

    code, out, _ = run_cli(
        capsys, "certify", str(path), "--theorem", "polbd", "--depth", "8"
    )
    assert code == 0
    assert reports(out)[0]["results"]["report"]["verdict"] == "CONFIRMED"

    # a trajectory budget of 2 is too short for the rescaled pair
    code, _, _ = run_cli(
        capsys, "certify", str(path), "--theorem", "bgel", "--depth", "2"
    )
    assert code == 2

    bad = tmp_path / "bad.json"
    bad.write_text("not json\n")
    code, _, err = run_cli(capsys, "estimate", str(bad))
    assert code == 1 and "bad.json" in err

    ps = PAdicMatrixSet([[[2, 1], [0, 2]], [[1, 0], [1, 1]]], 2)
    ppath = tmp_path / "padic.json"
    ppath.write_text(InputDocument(ps).emit())
    code, _, err = run_cli(capsys, "padic", str(ppath), "--cap", "3")
    assert code == 4 and "budget" in err

    # REFUTED maps to 3; the verdict table is the single source of truth
    assert _VERDICT_EXIT[Verdict.CONFIRMED] == 0
    assert _VERDICT_EXIT[Verdict.INCONCLUSIVE] == 2
    assert _VERDICT_EXIT[Verdict.REFUTED] == 3

    # identical seeds give identical reports up to wall time
    runs = []
    for _ in range(2):
        code, out, _ = run_cli(
            capsys,
            "estimate",
            str(path),
            "--depth",
            "6",
            "--seed",
            "7",
            "--conjugation",
            "--barabanov",
        )
        assert code == 0
        rep = reports(out)[0]
        rep.pop("wall_time_s")
        runs.append(rep)
    assert runs[0] == runs[1]

    # sampled families depend on the seed, deterministically
    _, out_a, _ = run_cli(capsys, "examples", "unitary-mix", "--seed", "3")
    _, out_b, _ = run_cli(capsys, "examples", "unitary-mix", "--seed", "3")
    _, out_c, _ = run_cli(capsys, "examples", "unitary-mix", "--seed", "4")
    assert out_a == out_b
    assert out_a != out_c
