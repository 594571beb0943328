import dataclasses
import math

import numpy as np
import pytest

from jsrkit import bounds, certificates, core
from jsrkit.bounds import JsrConfig, JsrInterval, jsr_estimate, lower_bound
from jsrkit.certificates import (
    CombinationNotFoundError,
    HypothesisUnmetError,
    Verdict,
    check_bg_el,
    check_boca_new,
    check_polbd,
    convex_hull_bound_check,
    near_idempotent_search,
    residual_certificate,
    siegel_combination,
    trace_bound,
    trajectory_return_search,
)
from jsrkit.core import (
    SPECTRAL,
    WORD_CAP,
    BudgetExceededError,
    MatrixSet,
    NormSpec,
    count_words,
    eval_word,
    spectral_radius,
    vector_norm,
)
from jsrkit.families import FAMILY_NAMES, build_family, unitary_mix

PHI = (1 + math.sqrt(5)) / 2
GOLDEN_ANGLE = math.pi * (3 - math.sqrt(5))


def elem(i, j, d):
    m = np.zeros((d, d), dtype=complex)
    m[i, j] = 1
    return m


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def unipotent_pair(scale=1.0):
    a = np.array([[1, 1], [0, 1]]) * scale
    b = np.array([[1, 0], [1, 1]]) * scale
    return MatrixSet.from_arrays([a, b])


# --- residual certificates ---------------------------------------------------


def test_residual_certificate_exact_eigenpair():
    cert = residual_certificate(np.diag([1.0, 0.0]), [1, 0], 1.0)
    assert not cert.a.flags.writeable
    assert cert.residual == 0.0
    assert cert.eps == 0.0
    assert cert.bound == 1.0


def test_residual_certificate_clamps_to_zero():
    # residual 0.1 at d=2 gives eps = sqrt(0.1) > 1/4: vacuous but valid
    cert = residual_certificate(np.diag([0.9, 0.1]), [1, 0], 1.0)
    assert cert.residual == pytest.approx(0.1, rel=1e-12)
    assert cert.eps == pytest.approx(math.sqrt(0.1), rel=1e-12)
    assert cert.bound == 0.0


def test_residual_certificate_zero_lambda():
    cert = residual_certificate(elem(0, 1, 2), [0, 1], 0.0)
    assert cert.bound == 0.0


def test_residual_certificate_rejections_name_the_clause():
    with pytest.raises(ValueError, match="norm bound"):
        residual_certificate(2 * np.eye(2), [1, 0], 1.0)
    with pytest.raises(ValueError, match="unit vector"):
        residual_certificate(np.eye(2), [1, 1], 1.0)
    with pytest.raises(ValueError, match="unit vector"):
        residual_certificate(np.eye(2), [np.nan, 0], 1.0)
    with pytest.raises(ValueError, match="lambda"):
        residual_certificate(np.eye(2), [1, 0], 3.0)
    with pytest.raises(ValueError, match="lambda"):
        residual_certificate(np.eye(2), [1, 0], complex(np.nan, 0))


def test_residual_certificate_oracle_random_eigenpairs():
    # the certified bound never exceeds the true spectral radius
    rng = np.random.default_rng(7)
    for _ in range(300):
        d = int(rng.integers(2, 5))
        a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a /= np.linalg.svd(a, compute_uv=False)[0] * (1 + 1e-12)
        vals, vecs = np.linalg.eig(a)
        k = int(rng.integers(d))
        x = vecs[:, k]
        x = x / np.linalg.norm(x)
        lam = vals[k] * (1 + 1e-4 * rng.standard_normal())
        cert = residual_certificate(a, x, lam)
        assert cert.bound <= spectral_radius(a) * (1 + 1e-9)


# --- integer combinations ----------------------------------------------------


def test_siegel_duplicate_vectors_collide():
    v = np.array([0.3, 0.4])
    c = siegel_combination([v, v], 1, 1e-9, enforce_hypothesis=False)
    assert sorted(c) == [-1, 1]


def test_siegel_close_pair():
    eps = 0.1
    xs = [np.array([0.9, 0.0]), np.array([0.9, 0.05])]
    c = siegel_combination(xs, 1, eps, enforce_hypothesis=False)
    assert any(ci != 0 for ci in c)
    assert max(abs(ci) for ci in c) <= 1
    assert vector_norm(c[0] * xs[0] + c[1] * xs[1], SPECTRAL) <= eps


def test_siegel_scalar_instance_reverifies():
    xs = [1.0, 0.5, 1.0 / 3.0]
    c = siegel_combination(xs, 2, 1.0 / 3.0, enforce_hypothesis=False)
    assert any(ci != 0 for ci in c)
    assert max(abs(ci) for ci in c) <= 2
    assert abs(sum(ci * xi for ci, xi in zip(c, xs))) <= 1.0 / 3.0
    # brute-force oracle: the instance does admit exact solutions
    exact = [
        (a, b, e)
        for a in range(-2, 3)
        for b in range(-2, 3)
        for e in range(-2, 3)
        if (a, b, e) != (0, 0, 0) and abs(a + b / 2 + e / 3) <= 1.0 / 3.0
    ]
    assert tuple(c) in exact


def test_siegel_hypothesis_gate():
    with pytest.raises(HypothesisUnmetError):
        siegel_combination([1.0, 0.5, 1.0 / 3.0], 2, 1.0 / 3.0)


def test_siegel_hypothesis_satisfied_succeeds():
    # (1+3)^8 = 65536 > (1 + 2*8*3/0.25)^1 = 193, so a combination must exist
    xs = [np.array([0.9 * math.cos(float(k))]) for k in range(8)]
    eps = 0.25
    c = siegel_combination(xs, 3, eps)
    assert any(ci != 0 for ci in c)
    assert max(abs(ci) for ci in c) <= 3
    assert abs(sum(ci * xi[0] for ci, xi in zip(c, xs))) <= eps


def test_siegel_complex_data_can_have_no_solution():
    # the real-grid count passes, but over C the pigeonhole needs the
    # squared cell count: the closest nonzero combination of (1, i) has
    # modulus 1 > 0.9
    t, eps = 3, 0.9
    assert (1 + t) ** 2 > (1 + 2 * 2 * t / eps) ** 1
    with pytest.raises(CombinationNotFoundError):
        siegel_combination([np.array([1.0 + 0j]), np.array([1j])], t, eps)


def test_siegel_budget():
    with pytest.raises(BudgetExceededError):
        siegel_combination([np.array([0.5])] * 20, 3, 0.5)


def test_siegel_budget_counts_neighbour_cells():
    # two sums, but the neighbour scan would list 3^14 > WORD_CAP cells
    with pytest.raises(BudgetExceededError, match="4782969"):
        siegel_combination([np.full(7, 0.1)], 1, 0.5, enforce_hypothesis=False)


@pytest.mark.parametrize("eps", [0.0, -0.5, math.nan])
def test_siegel_rejects_non_positive_eps(eps):
    xs = [np.array([0.9 * math.cos(float(k))]) for k in range(8)]
    with pytest.raises(ValueError, match="eps must be positive"):
        siegel_combination(xs, 2, eps)


def test_siegel_rejects_oversized_vectors():
    with pytest.raises(ValueError, match="vector bound"):
        siegel_combination([np.array([2.0, 0.0])], 1, 0.5, enforce_hypothesis=False)


@pytest.mark.parametrize("bad", [[math.nan, 0.0], [0.5, complex(0.0, math.nan)]])
def test_siegel_rejects_nan_vectors(bad):
    xs = [np.array([0.5, 0.0]), np.array(bad)]
    with pytest.raises(ValueError, match="vector bound"):
        siegel_combination(xs, 1, 0.5, enforce_hypothesis=False)


# --- trace and convex hull ----------------------------------------------------


def test_trace_bound_examples():
    assert trace_bound(elem(0, 1, 2)) == 0.0
    assert trace_bound(np.eye(2)) == pytest.approx(4.0)
    assert trace_bound(np.diag([1.0, -1.0])) == pytest.approx(2 * math.sqrt(2))


def test_trace_bound_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        d = int(rng.integers(2, 5))
        a = rng.uniform(-1, 1, (d, d)) + 1j * rng.uniform(-1, 1, (d, d))
        assert trace_bound(a) >= spectral_radius(a) * (1 - 1e-9)


def test_hull_check_zero_set():
    s = MatrixSet.from_arrays([np.zeros((2, 2))])
    r = convex_hull_bound_check(s, 1, samples=20)
    assert r.ok
    assert r.max_radius == 0.0
    assert r.max_ratio == 0.0


def test_hull_check_swap_pair():
    s = MatrixSet.from_arrays([elem(0, 1, 2), elem(1, 0, 2)])
    r = convex_hull_bound_check(s, 1, samples=100, seed=3)
    assert r.ok
    assert r.eps == pytest.approx(1.0)
    assert r.bound == pytest.approx(4.0)
    # antidiagonal combinations have eigenvalues +-sqrt(ab), modulus <= 1/...
    assert r.max_radius <= 1.0 + 1e-12


def test_hull_check_half_identity():
    s = MatrixSet.from_arrays([np.eye(2) / 2])
    r = convex_hull_bound_check(s, 1, samples=20)
    assert r.ok
    assert r.max_radius == pytest.approx(0.5)


def test_hull_check_rejects_expanding_set():
    s = MatrixSet.from_arrays([2 * np.eye(2)])
    with pytest.raises(ValueError, match="hypothesis"):
        convex_hull_bound_check(s, 1)


@pytest.mark.parametrize("samples", [-1, -3])
def test_hull_check_rejects_negative_samples(samples):
    s = MatrixSet.from_arrays([np.eye(2) / 2])
    with pytest.raises(ValueError, match="samples must be >= 0"):
        convex_hull_bound_check(s, 1, samples=samples)


# --- trajectory returns -------------------------------------------------------


def test_trajectory_periodic_rotation():
    s = MatrixSet.from_arrays([rotation(2 * math.pi / 5)])
    word, cert, diag = trajectory_return_search(s, SPECTRAL, 40, x0=[1.0, 0.0])
    assert len(word) == 5
    assert cert.residual <= 1e-9
    assert cert.bound >= 1 - 1e-6
    assert diag["found_return"]


def test_trajectory_basis_cycle_d3():
    s = MatrixSet.from_arrays([elem(0, 1, 3), elem(1, 2, 3), elem(2, 0, 3)])
    word, cert, _ = trajectory_return_search(s, SPECTRAL, 30, x0=[1.0, 0, 0])
    assert len(word) == 3
    assert cert.bound >= 1 - 1e-9
    assert spectral_radius(eval_word(s, word)) == pytest.approx(1.0)


def test_trajectory_working_norm_steers_greedy_choice():
    # from e1, member 0 keeps e1 (both norms 1) and member 1 maps it to
    # (0.8, 0.8): Euclidean norm 1.13 but sup norm 0.8
    s = MatrixSet.from_arrays([[[1, 0], [0, 0]], [[0.8, 0.8], [0.8, 0.8]]])
    euclid, _, _ = trajectory_return_search(s, SPECTRAL, 6, x0=[1.0, 0.0])
    sup, _, _ = trajectory_return_search(s, NormSpec.max_row_sum(), 6, x0=[1.0, 0.0])
    assert euclid == (1,)
    assert sup == (0,)


def test_trajectory_rescaled_unipotent_pair():
    s = unipotent_pair(1 / PHI)
    word, cert, _ = trajectory_return_search(s, SPECTRAL, 64, seed=0)
    assert cert.bound >= 0.8
    assert 1 <= len(word) <= 64


def test_trajectory_certificate_is_self_verifying():
    s = unipotent_pair(1 / PHI)
    _, cert, _ = trajectory_return_search(s, SPECTRAL, 64, seed=2)
    again = residual_certificate(cert.a, cert.x, cert.lam, cert.norm)
    assert again.residual == pytest.approx(cert.residual, rel=1e-9, abs=1e-15)
    assert again.bound == pytest.approx(cert.bound, rel=1e-9)


def test_trajectory_no_close_return_is_flagged():
    s = MatrixSet.from_arrays([rotation(GOLDEN_ANGLE)])
    word, cert, diag = trajectory_return_search(s, SPECTRAL, 2, x0=[1.0, 0.0])
    assert not diag["found_return"]
    assert cert.bound == 0.0


def test_trajectory_dies_on_zero_set():
    s = MatrixSet.from_arrays([np.zeros((2, 2))])
    with pytest.raises(ValueError, match="annihilated"):
        trajectory_return_search(s, SPECTRAL, 10, seed=0)


def test_trajectory_checks_the_length_of_x0():
    s = MatrixSet.from_arrays([np.eye(2)])
    with pytest.raises(ValueError, match="x0 length 3"):
        trajectory_return_search(s, SPECTRAL, 10, x0=[1.0, 0.0, 0.0])


def test_trajectory_requires_two_steps():
    s = MatrixSet.from_arrays([np.eye(2)])
    with pytest.raises(ValueError):
        trajectory_return_search(s, SPECTRAL, 1)


@pytest.mark.parametrize(
    "x0", [[math.nan, 1.0], [math.inf, 1.0], [1.0, complex(0.0, math.nan)]]
)
def test_trajectory_rejects_non_finite_start(x0):
    s = MatrixSet.from_arrays([np.eye(2)])
    with pytest.raises(ValueError, match="x0 must be finite"):
        trajectory_return_search(s, SPECTRAL, 10, x0=x0)


# --- near idempotents ---------------------------------------------------------


def test_near_idempotent_member():
    s = MatrixSet.from_arrays([elem(0, 0, 2)])
    assert near_idempotent_search(s, 4, 1e-9) == ((0,), 0.0)


def test_near_idempotent_in_pair():
    s = MatrixSet.from_arrays([elem(0, 0, 2), elem(0, 1, 2)])
    word, defect = near_idempotent_search(s, 3, 1e-9)
    assert word == (0,)
    assert defect == 0.0


def test_near_idempotent_nan_tol_has_none():
    # the best defect is 0.0, and no defect is <= NaN
    s = MatrixSet.from_arrays([elem(0, 0, 2), elem(0, 1, 2)])
    assert near_idempotent_search(s, 3, math.nan) is None


def test_near_idempotent_rotation_has_none():
    s = MatrixSet.from_arrays([rotation(GOLDEN_ANGLE)])
    assert near_idempotent_search(s, 50, 1e-3) is None


# --- theorem checkers ---------------------------------------------------------


def test_check_polbd_identity():
    s = MatrixSet.from_arrays([np.eye(2)])
    rep = check_polbd(s, jsr_estimate(s, JsrConfig(depth=4)))
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.lhs == pytest.approx(1.0)
    assert not rep.budget["clamped"]


def test_check_polbd_swap_pair():
    s = MatrixSet.from_arrays([elem(0, 1, 2), elem(1, 0, 2)])
    rep = check_polbd(s, jsr_estimate(s, JsrConfig(depth=8)))
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.budget["depth"] == 16
    assert rep.lhs == pytest.approx(1.0)
    # the witness word reproduces the reported peak
    w = rep.witnesses["word"]
    assert spectral_radius(eval_word(s, w)) ** (1 / len(w)) == pytest.approx(rep.lhs)


def test_check_polbd_clamped_never_refutes():
    members = [elem(0, 1, 2), elem(1, 0, 2), [[1, 1], [0, 1]]]
    for m in (1, 2, 3):
        s = MatrixSet.from_arrays(members[:m])
        interval = jsr_estimate(s, JsrConfig(depth=8))
        caps = {m - 1} | {
            count_words(m, k) + delta for k in range(1, 6) for delta in (-1, 0, 1)
        }
        for cap in sorted(caps):
            if cap < m:
                with pytest.raises(BudgetExceededError):
                    check_polbd(s, interval, word_cap=cap)
                continue
            rep = check_polbd(s, interval, word_cap=cap)
            depth_full = rep.budget["depth_full"]
            depth = max(
                k for k in range(1, depth_full + 1) if count_words(m, k) <= cap
            )
            assert rep.budget["depth"] == depth
            assert rep.budget["clamped"] == (depth < depth_full)
            low = lower_bound(s, depth)
            assert rep.lhs == low.value
            assert rep.witnesses["word"] == low.witness
            if rep.budget["clamped"]:
                assert rep.verdict is not Verdict.REFUTED


def test_check_polbd_inconclusive_on_loose_interval():
    s = MatrixSet.from_arrays([np.eye(2)])
    loose = JsrInterval(0.0, 1e9, (0,), 1)
    rep = check_polbd(s, loose)
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_check_boca_identity():
    s = MatrixSet.from_arrays([np.eye(2)])
    rep = check_boca_new(s, SPECTRAL, jsr_estimate(s, JsrConfig(depth=4)))
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.budget["n1"] == 8
    assert rep.lhs == pytest.approx(1.0)


def test_check_boca_nilpotent_singleton():
    s = MatrixSet.from_arrays([elem(0, 1, 2)])
    rep = check_boca_new(s, SPECTRAL, jsr_estimate(s, JsrConfig(depth=4)))
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.lhs == 0.0


def test_check_boca_unipotent_pair_reports_ratio():
    s = unipotent_pair()
    rep = check_boca_new(s, SPECTRAL, jsr_estimate(s, JsrConfig(depth=8)))
    assert rep.verdict is Verdict.CONFIRMED
    assert 0 < rep.witnesses["ratio"] < 1
    assert len(rep.witnesses["word"]) == 8


def test_check_boca_refutes_only_unclamped():
    # a deliberately wrong enclosure [0, 0] flips the inequality; the full
    # run refutes it, the clamped run must abstain
    s = MatrixSet.from_arrays([np.eye(2), np.eye(2) / 2])
    wrong = JsrInterval(0.0, 0.0, (0,), 1)
    assert check_boca_new(s, SPECTRAL, wrong).verdict is Verdict.REFUTED
    rep = check_boca_new(s, SPECTRAL, wrong, word_cap=8)
    assert rep.budget["clamped"]
    assert rep.verdict is Verdict.INCONCLUSIVE


def test_check_boca_saturates_an_overflowing_rhs():
    # ||S||^(n1 - 1) = 1e315 is past the float range: the rhs reads inf
    s = MatrixSet.from_arrays([1e45 * elem(0, 1, 2), np.eye(2)])
    rep = check_boca_new(s, SPECTRAL, jsr_estimate(s, JsrConfig(depth=8)))
    assert rep.lhs == pytest.approx(1e45)
    assert rep.rhs_at_lower == rep.rhs_at_upper == math.inf
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.witnesses["ratio"] == 0.0
    # a zero lower end gives a zero rhs_at_lower, never inf * 0 = nan
    loose = JsrInterval(0.0, 2.0, (0,), 1)
    rep = check_boca_new(s, SPECTRAL, loose)
    assert (rep.rhs_at_lower, rep.rhs_at_upper) == (0.0, math.inf)
    assert rep.verdict is Verdict.INCONCLUSIVE
    assert rep.witnesses["ratio"] == math.inf
    nil = MatrixSet.from_arrays([1e45 * elem(0, 1, 2)])
    rep = check_boca_new(nil, SPECTRAL, jsr_estimate(nil, JsrConfig(depth=1)))
    assert (rep.lhs, rep.rhs_at_lower, rep.rhs_at_upper) == (0.0, 0.0, math.inf)
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.witnesses["ratio"] == 0.0


def boca_sets():
    rng = np.random.default_rng(43)
    sets = [
        build_family(name, dim=d, count=2).matrices
        for name in FAMILY_NAMES
        for d in ((2,) if name == "unipotent-pair" else (2, 3))
    ]
    for m in (1, 2, 3):
        for d in (1, 2, 3):
            mats = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
            sets.append(MatrixSet.from_arrays(list(mats)))
    return sets


def boca_cases(m, d, limit=1000):
    """(cap, depth) pairs around the word-cap boundaries of n1 = 2d^2.

    Caps sit at count_words(m, k) + {-1, 0, 1} (the budget rule), at
    m^k + {-1, 0, 1} (one level's words) and at 1; depths from n1 - 2 to
    n1 + 1 for the n1 each cap leaves, so that the two shallower ones
    rebuild.  Pairs that clamp n1 and cut the sweep the same way are run
    once.
    """
    n1_full, caps = 2 * d * d, {1}
    for k in range(1, n1_full + 2):
        if m**k > limit:
            break
        caps |= {count_words(m, k) + e for e in (-1, 0, 1)}
        caps |= {m**k + e for e in (-1, 0, 1)}
    seen = set()
    for cap in sorted(caps - {0}):
        n1 = max(k for k in range(n1_full + 1) if count_words(m, k) <= cap)
        for depth in range(max(1, n1 - 2), n1 + 2):
            reach = max(k for k in range(depth + 1) if count_words(m, k) <= cap)
            if (n1, depth, reach) not in seen:
                seen.add((n1, depth, reach))
                yield cap, depth


def test_check_boca_reuse_matches_rebuild():
    # reading ||S^n1|| from the sweep gives the report a rebuild of level n1
    # gives, bit for bit, whatever the norm, depth and word cap
    rng = np.random.default_rng(47)
    reused = rebuilt = 0
    for s in boca_sets():
        g = np.eye(s.dim) + 0.4 * rng.standard_normal((s.dim, s.dim))
        for n in (
            SPECTRAL,
            NormSpec.max_row_sum(),
            NormSpec.max_col_sum(),
            NormSpec.ellipsoidal(g),
        ):
            for cap, depth in boca_cases(s.size, s.dim):
                iv = jsr_estimate(s, JsrConfig(depth, n, cap))
                bare = dataclasses.replace(iv, levels=())
                try:
                    got = check_boca_new(s, n, iv, word_cap=cap)
                except BudgetExceededError:
                    with pytest.raises(BudgetExceededError):
                        check_boca_new(s, n, bare, word_cap=cap)
                    continue
                assert repr(got) == repr(check_boca_new(s, n, bare, word_cap=cap))
                if len(iv.levels) >= got.budget["n1"]:
                    reused += 1
                else:
                    rebuilt += 1
    assert reused > 500 and rebuilt > 500


def test_check_boca_reads_the_sweep_instead_of_rebuilding(monkeypatch):
    calls = []
    sweep = certificates.jsr_estimate

    def spy(s, config):
        calls.append((config.depth, config.word_cap))
        return sweep(s, config)

    monkeypatch.setattr(certificates, "jsr_estimate", spy)

    def calls_for(n, iv, cap=WORD_CAP):
        calls.clear()
        check_boca_new(s, n, iv, word_cap=cap)
        return calls

    rebuild = [(8, WORD_CAP)]  # one sweep to n1 under the same budget
    s = unipotent_pair()  # n1 = 8
    ell = NormSpec.ellipsoidal([[2.0, 1.0], [0.0, 1.0]])
    swept = jsr_estimate(s, JsrConfig(depth=8))
    assert calls_for(SPECTRAL, swept) == []
    assert calls_for(NormSpec.spectral(), swept) == []  # same kind, another object
    assert calls_for(SPECTRAL, jsr_estimate(s, JsrConfig(depth=9))) == []
    assert calls_for(ell, jsr_estimate(s, JsrConfig(8, ell))) == []
    # a different kind or factor object, a shallower or budget-cut sweep, a
    # scaled or a hand-built interval, levels without a norm: level 8 is rebuilt
    assert calls_for(NormSpec.max_row_sum(), swept) == rebuild
    other = NormSpec.ellipsoidal(ell.g)  # an equal factor, another object
    assert calls_for(other, jsr_estimate(s, JsrConfig(8, ell))) == rebuild
    assert calls_for(SPECTRAL, jsr_estimate(s, JsrConfig(depth=7))) == rebuild
    # 2^8 words hold levels 1 to 7 (254 words) but not 8: n1 clamps to 7,
    # which the budget-cut sweep completed
    cut = jsr_estimate(s, JsrConfig(depth=8, word_cap=2**8))
    assert cut.diagnostics["budget_exhausted"] and len(cut.levels) == 7
    assert calls_for(SPECTRAL, cut, cap=2**8) == []
    rep = check_boca_new(s, SPECTRAL, cut, word_cap=2**8)
    assert rep.budget == {"n1": 7, "n1_full": 8, "clamped": True}
    assert calls_for(SPECTRAL, jsr_estimate(s, JsrConfig(depth=6)), cap=2**8) == [(7, 2**8)]
    assert calls_for(SPECTRAL, swept.scaled(1.0)) == rebuild
    assert calls_for(SPECTRAL, JsrInterval(swept.lower, swept.upper, (0,), 1)) == rebuild
    assert calls_for(SPECTRAL, dataclasses.replace(swept, norm=None)) == rebuild


def test_check_boca_builds_no_more_words_than_its_cap(monkeypatch):
    # rows past level 1 come from core._children: at most the m^k words of
    # each level 2 to n1, plus the m children of one parent that the last
    # level's floor builds again, so at most count_words(m, n1) in all
    built = []
    children = core._children

    def spy(stack, parents):
        out = children(stack, parents)
        built.append(out.shape[0])
        return out

    monkeypatch.setattr(core, "_children", spy)
    monkeypatch.setattr(bounds, "_children", spy)
    cases = [(build_family("unitary-mix", count=4, seed=1).matrices, 5**8)]
    for s in boca_sets():
        for k in range(1, 2 * s.dim**2 + 1):
            if count_words(s.size, k) > 2000:
                break
            cases += [(s, count_words(s.size, k) + e) for e in (-1, 0, 1)]
    for s, cap in cases:
        built.clear()
        try:
            rep = check_boca_new(s, SPECTRAL, JsrInterval(0.0, 2.0, (0,), 1), word_cap=cap)
        except BudgetExceededError:
            assert cap < s.size
            continue
        assert sum(built) <= count_words(s.size, rep.budget["n1"]) <= cap


def test_check_bg_el_scalar_one():
    s = MatrixSet.from_arrays([np.array([[1.0]])])
    rep = check_bg_el(s, 0.5, 10, interval=jsr_estimate(s, JsrConfig(depth=4)))
    assert rep.verdict is Verdict.CONFIRMED
    assert len(rep.witnesses["word"]) == 1
    assert rep.budget["required_length_honored"]
    assert rep.budget["maxlen"] == 24  # ceil(12 / 0.5), overriding the caller


def test_check_bg_el_rotation():
    s = MatrixSet.from_arrays([rotation(GOLDEN_ANGLE)])
    rep = check_bg_el(s, 0.25, 60, interval=jsr_estimate(s, JsrConfig(depth=4)))
    assert rep.verdict is Verdict.CONFIRMED
    assert not rep.budget["required_length_honored"]


def test_check_bg_el_unitary_with_contraction():
    u = rotation(1.0)
    s = MatrixSet.from_arrays([u, np.diag([0.5, 1 / 3]) @ u])
    rep = check_bg_el(s, 0.25, 40, interval=jsr_estimate(s, JsrConfig(depth=6)))
    assert rep.verdict is Verdict.CONFIRMED
    assert rep.lhs >= rep.rhs_at_lower


def test_check_bg_el_scans_long_trajectories_all_pairs(monkeypatch):
    # d = 1 honors the full length 12/eps = 6,000, and the one segment of
    # 6,001 points goes through the all-pairs scan
    calls = []
    closest = certificates._closest_pairs

    def spy(points, k_best):
        calls.append(len(points))
        return closest(points, k_best)

    monkeypatch.setattr(certificates, "_closest_pairs", spy)
    s = MatrixSet.from_arrays([np.array([[np.exp(1j * GOLDEN_ANGLE)]]), np.array([[0.5]])])
    rep = check_bg_el(s, 0.002, 10, interval=jsr_estimate(s, JsrConfig(depth=4)))
    assert rep.budget["maxlen"] == 6000
    assert calls == [6001]
    assert rep.verdict is Verdict.CONFIRMED


def test_trajectory_finds_the_closest_return_on_a_long_segment():
    res = trajectory_return_search(unitary_mix(2, 4, 1), SPECTRAL, 6000, seed=0)
    assert res.diagnostics["segments"][0] > 4096
    assert res.certificate.bound > 0.93


def test_check_bg_el_clamps_the_trajectory_to_the_word_cap():
    # a trajectory is one word whose prefixes are the words it visits
    s = MatrixSet.from_arrays([np.array([[0.6 + 0.8j]]), np.array([[0.5]])])
    interval = jsr_estimate(s, JsrConfig(depth=4))
    rep = check_bg_el(s, 1e-4, 10, interval=interval, word_cap=100)
    assert rep.budget["maxlen"] == 100
    assert not rep.budget["required_length_honored"]
    assert rep.verdict is Verdict.CONFIRMED
    for cap in (1199, 1200):  # 12 / eps = 1,200 steps fit a cap of 1,200
        rep = check_bg_el(s, 0.01, 10, interval=interval, word_cap=cap)
        assert rep.budget["maxlen"] == cap
        assert rep.budget["required_length_honored"] is (cap == 1200)
    with pytest.raises(BudgetExceededError):
        check_bg_el(s, 1e-4, 10, interval=interval, word_cap=1)


def test_check_bg_el_requires_unit_enclosure():
    s = MatrixSet.from_arrays([np.eye(2) / 2])
    # the enclosure is required: a sweep of its own would ignore word_cap
    with pytest.raises(TypeError, match="interval"):
        check_bg_el(s.scaled(2.0), 0.5, 10, word_cap=3)
    with pytest.raises(ValueError, match="rescale"):
        check_bg_el(s, 0.5, 10, interval=jsr_estimate(s, JsrConfig(depth=4)))


def test_check_bg_el_confirms_only_at_the_upper_end():
    # the seeded Gaussian pair at depth 1: rho(w) = 0.628 clears
    # (1 - eps) lower^|w| = 0.471 but not (1 - eps) upper^|w| = 0.75, and
    # the radius may sit anywhere in the enclosure
    rng = np.random.default_rng(0)
    mats = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    s = MatrixSet.from_arrays(list(mats))
    interval = jsr_estimate(s, JsrConfig(depth=1))
    factor = 1.0 / interval.upper
    rep = check_bg_el(s.scaled(factor), 0.25, 2, interval=interval.scaled(factor))
    assert rep.lhs == pytest.approx(0.6282, abs=1e-4)
    assert rep.rhs_at_lower < rep.lhs < rep.rhs_at_upper
    assert rep.verdict is Verdict.INCONCLUSIVE


def seeded_sets(count):
    """``count`` seeded sets with m and d in 1..3: complex Gaussian, rounded
    to halves, and strictly upper triangular (nilpotent) in turn."""
    out = []
    for i in range(count):
        rng = np.random.default_rng(i)
        m, d, kind = 1 + i % 3, 1 + (i // 3) % 3, (i // 9) % 3
        z = rng.standard_normal((m, d, d)) + 1j * rng.standard_normal((m, d, d))
        z = (z, np.round(2 * z.real) / 2, np.triu(z, 1))[kind]
        out.append(MatrixSet.from_arrays(list(z)))
    return out


def theorem_reports(s, depth, cap):
    """polbd, boca and bgel (rescaled as ``jsrkit certify`` does) on the
    swept enclosure, a wrong [0, 0] and a loose [0, 1e9] one."""
    interval = jsr_estimate(s, JsrConfig(depth, SPECTRAL, cap))
    for e in (interval, JsrInterval(0.0, 0.0, (0,), 1), JsrInterval(0.0, 1e9, (0,), 1)):
        yield check_polbd(s, e, word_cap=cap)
        yield check_boca_new(s, SPECTRAL, e, word_cap=cap)
        f = 1.0 / e.upper if e.upper else 0.0
        try:
            yield check_bg_el(
                s.scaled(f), 0.25, max(depth, 2), interval=e.scaled(f), word_cap=cap
            )
        except ValueError as err:  # a zero set, or every trajectory dies
            assert "rescale" in str(err) or "annihilated" in str(err)


def test_every_verdict_agrees_with_its_numbers():
    # CONFIRMED exactly when the inequality holds at its strong end, REFUTED
    # exactly when an unclamped run fails at its weak end by more than
    # TOL_REL, INCONCLUSIVE otherwise; bgel never refutes
    at_most = {"POLBD": False, "BOCA_NEW": True, "BG_EL": False}
    sets = [build_family(name, dim=d).matrices for name in FAMILY_NAMES for d in (2, 3)]
    reports = [
        rep
        for s in sets + seeded_sets(150)
        for depth, cap in ((1, 50), (2, 5000), (4, 200), (4, 20_000))
        for rep in theorem_reports(s, depth, cap)
    ]
    s = unipotent_pair(1 / PHI)
    interval = jsr_estimate(s, JsrConfig(depth=8))
    reports += [check_bg_el(s, 0.3, 48, interval=interval, seed=seed) for seed in range(3)]
    seen = dict.fromkeys(Verdict, 0)
    for rep in reports:
        lhs, lo, up = rep.lhs, rep.rhs_at_lower, rep.rhs_at_upper
        if at_most[rep.theorem_id]:
            holds, fails = lhs <= lo, lhs > up * (1 + core.TOL_REL)
        else:
            holds, fails = lhs >= up, lhs < lo * (1 - core.TOL_REL)
        refutable = rep.theorem_id != "BG_EL" and not rep.budget["clamped"]
        if holds:
            expected = Verdict.CONFIRMED
        elif refutable and fails:
            expected = Verdict.REFUTED
        else:
            expected = Verdict.INCONCLUSIVE
        assert rep.verdict is expected, rep
        seen[expected] += 1
    assert min(seen.values()) > 0, seen
