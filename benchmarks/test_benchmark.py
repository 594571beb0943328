"""Tests of the benchmark itself: every output check must reject a wrong
report, traced counts must repeat, and a tree without jsrkit must fail.

Run from the repository root:  python3 -m pytest benchmarks -q
"""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from jsrkit import cli  # noqa: E402

COUNTS = ("core.svd_count", "core.eig_count", "bounds.words", "ultrametric.jsr_exact_calls")


def _report(argv: list) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())["results"]


@pytest.fixture(scope="module")
def probe(tmp_path_factory):
    """The probe's commands on seed 5 with their real reports."""
    cmds = workloads.probe(5, str(tmp_path_factory.mktemp("probe")))
    return {c.kind: (c, _report(c.argv)) for c in cmds}


def _rng():
    return np.random.default_rng(0)


def _nudged(results: dict, path: tuple, change) -> dict:
    wrong = json.loads(json.dumps(results))
    node = wrong
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = change(node[path[-1]])
    return wrong


def test_real_reports_pass(probe):
    est, res = probe["estimate"]
    doc = est.docs[0]
    assert checks.check_estimate(res, doc.members, est.depth, True, _rng()) == []
    cert, res = probe["certify"]
    assert checks.check_boca_unitary(res, cert.docs[0].members, cert.depth, _rng()) == []
    pad, res = probe["padic"]
    assert checks.check_padic(res, pad.docs[0].members, pad.docs[0].prime, _rng()) == []


def test_lower_nudged_up_is_rejected(probe):
    est, res = probe["estimate"]
    wrong = _nudged(res, ("interval", "lower"), lambda x: x + 1e-6)
    assert checks.check_estimate(wrong, est.docs[0].members, est.depth, True, _rng())


def test_conjugation_value_off_is_rejected(probe):
    est, res = probe["estimate"]
    wrong = _nudged(res, ("conjugation", "value"), lambda x: x * (1 - 1e-6))
    assert checks.check_estimate(wrong, est.docs[0].members, est.depth, True, _rng())


def _is_rotation(a: list, b: list) -> bool:
    return any(a[i:] + a[:i] == b for i in range(len(a)))


def test_witness_with_two_letters_swapped_is_rejected(tmp_path):
    # find a seeded pair whose witness has a swap that is not a rotation
    # (rotations share the spectral radius, so they are no wrong report)
    for seed in range(100):
        mats = workloads.gaussian_set(np.random.default_rng(seed), 2, 2)
        path = str(tmp_path / f"pair{seed}.json")
        workloads.write_complex(path, mats)
        res = _report(["estimate", path, "--depth", "8"])
        word = res["interval"]["lower_witness"]
        for i in range(len(word)):
            for j in range(i + 1, len(word)):
                swapped = list(word)
                swapped[i], swapped[j] = word[j], word[i]
                if swapped != word and not _is_rotation(word, swapped):
                    assert checks.check_estimate(res, mats, 8, False, _rng()) == []
                    wrong = _nudged(res, ("interval", "lower_witness"), lambda _: swapped)
                    assert checks.check_estimate(wrong, mats, 8, False, _rng())
                    return
    pytest.fail("no seeded pair with a swappable witness")


def test_flipped_verdict_is_rejected(probe):
    cert, res = probe["certify"]
    for verdict in ("INCONCLUSIVE", "REFUTED"):
        wrong = _nudged(res, ("report", "verdict"), lambda _: verdict)
        assert checks.check_boca_unitary(wrong, cert.docs[0].members, cert.depth, _rng())


def test_certify_lhs_off_is_rejected(probe):
    cert, res = probe["certify"]
    wrong = _nudged(res, ("report", "lhs"), lambda x: x + 1e-6)
    assert checks.check_boca_unitary(wrong, cert.docs[0].members, cert.depth, _rng())


@pytest.mark.parametrize("delta", (1, -1))
def test_exponent_off_by_one_is_rejected(probe, delta):
    pad, res = probe["padic"]
    doc = pad.docs[0]
    if res["rho_exponent"] is None:
        pytest.skip("probe set is nilpotent")
    wrong = _nudged(res, ("rho_exponent", "numerator"),
                    lambda n: n + delta * res["rho_exponent"]["denominator"])
    assert checks.check_padic(wrong, doc.members, doc.prime, _rng())


def test_power_inequality_flipped_is_rejected(probe):
    pad, res = probe["padic"]
    wrong = _nudged(res, ("power_inequality", "holds"), lambda _: False)
    assert checks.check_padic(wrong, pad.docs[0].members, pad.docs[0].prime, _rng())


def test_nilpotent_flag_flipped_is_rejected(probe):
    pad, res = probe["padic"]
    wrong = _nudged(res, ("nilpotent",), lambda x: not x)
    assert checks.check_padic(wrong, pad.docs[0].members, pad.docs[0].prime, _rng())


def test_p_multiple_exponent(probe):
    _, res = probe["padic"]
    e = res["rho_exponent"]
    shifted = {"numerator": e["numerator"] + e["denominator"], "denominator": e["denominator"]}
    assert checks.check_padic_multiple(res, {"rho_exponent": shifted}) == []
    assert checks.check_padic_multiple(res, {"rho_exponent": e})
    twice = {"numerator": e["numerator"] + 2 * e["denominator"], "denominator": e["denominator"]}
    assert checks.check_padic_multiple(res, {"rho_exponent": twice})


def test_exact_helpers():
    a = [[Fraction(2), Fraction(1)], [Fraction(0), Fraction(4)]]
    assert checks.char_poly(a) == [8, -6, 1]  # (t - 2)(t - 4)
    assert checks.lambda_exponent(a, 2) == 1  # roots 2 and 4: largest |.|_2 is 2^-1
    nil = [[Fraction(0), Fraction(3)], [Fraction(0), Fraction(0)]]
    assert checks.lambda_exponent(nil, 3) is None
    assert [checks.ell_bound(d) for d in (1, 2, 3, 4, 5, 12, 16)] == [1, 4, 9, 16, 25, 131, 188]


def test_same_seed_same_documents(tmp_path):
    a = workloads.build("padic_exact", 3, str(tmp_path / "a"))
    b = workloads.build("padic_exact", 3, str(tmp_path / "b"))
    c = workloads.build("padic_exact", 4, str(tmp_path / "c"))

    def texts(cmds):
        return [open(d.path).read() for cmd in cmds for d in cmd.docs]

    assert texts(a) == texts(b)
    assert texts(a) != texts(c)


def _traced_counts(seed: int) -> list:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload", "padic_exact",
         "--seed", str(seed), "--seconds", "0", "--trace"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    ).stdout.splitlines()
    res = json.loads(out[-1])
    assert res["error_count"] == 0 and res["failed"] == 0
    return [{k: r[k] for k in COUNTS} for r in res["layers"] + [res["memory"]]]


def test_two_traced_runs_give_identical_counts():
    first, second = _traced_counts(2), _traced_counts(2)
    assert first == second
    assert all(r == first[0] for r in first)  # timed rounds and the memory round
    assert first[0]["ultrametric.jsr_exact_calls"] == 2


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "padic_exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
