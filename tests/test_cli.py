"""End-to-end CLI behavior: families, exit codes, reports, determinism.

Commands run in-process through cli.main so that stdout/stderr are captured
by pytest; the exit-status contract is 0 ok/CONFIRMED, 1 usage/parse,
2 INCONCLUSIVE, 3 REFUTED, 4 budget exceeded.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from jsrkit.cli import EXIT_REFUTED, _VERDICT_EXIT, main
from jsrkit.certificates import Verdict
from jsrkit.core import MatrixSet
from jsrkit.documents import InputDocument
from jsrkit.families import (
    FAMILY_NAMES,
    build_family,
    elementary,
    eps_identity,
    haar_unitary,
    shift,
    unitary_mix,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reports(out: str) -> list:
    """Split a stream of concatenated JSON report objects."""
    decoder = json.JSONDecoder()
    found, pos = [], 0
    while pos < len(out.strip()):
        obj, end = decoder.raw_decode(out, pos)
        found.append(obj)
        pos = end
        while pos < len(out) and out[pos] in " \r\n":
            pos += 1
    return found


def write_doc(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(doc.emit())
    return str(path)


def rotation_doc(angle):
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]], dtype=np.complex128)
    return InputDocument(MatrixSet.from_arrays([rot]))


# --- families -------------------------------------------------------------------


def test_shift_family_structure():
    s = shift(3)
    assert s.size == 3
    total = s.stack.sum(axis=0)
    assert np.array_equal(
        total, np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    )


def test_elementary_family_counts():
    assert elementary(2).size == 4
    assert elementary(3).size == 9


def test_haar_samples_are_unitary():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        u = haar_unitary(d, rng)
        assert np.allclose(u @ u.conj().T, np.eye(d), atol=1e-12)


def test_unitary_mix_contents():
    s = unitary_mix(2, count=3, seed=1)
    assert s.size == 4
    t = s.stack[-1]
    assert np.allclose(t, np.diag([0.5, 1.0 / 3.0]))


def test_eps_identity_contents():
    s = eps_identity(2, eps=0.5, count=8, seed=0)
    assert s.size == 9
    assert np.array_equal(s.stack[0], np.eye(2))
    for m in s.stack[1:]:
        assert np.allclose(np.linalg.svd(m, compute_uv=False), 0.5)


def test_family_parameter_validation():
    with pytest.raises(ValueError):
        eps_identity(2, eps=1.5)
    with pytest.raises(ValueError):
        shift(1)
    with pytest.raises(ValueError):
        build_family("moebius")


# --- examples subcommand ----------------------------------------------------------


def test_examples_round_trip_all_families(capsys):
    for family in FAMILY_NAMES:
        code, out, _ = run(capsys, "examples", family, "--dim", "3", "--quiet")
        if family == "unipotent-pair":
            code, out, _ = run(capsys, "examples", family, "--quiet")
        assert code == 0
        assert InputDocument.parse(out).emit() == out  # byte identity


def test_examples_match_library_builders(capsys):
    _, out, _ = run(capsys, "examples", "shift", "--dim", "4", "--quiet")
    doc = InputDocument.parse(out)
    lib = InputDocument(shift(4), labels=doc.labels, meta=doc.meta)
    assert lib.emit() == out
    for family in FAMILY_NAMES:
        _, out, _ = run(capsys, "examples", family, "--quiet")
        assert build_family(family).emit() == out


def test_examples_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "fam.json"
    code, out, _ = run(capsys, "examples", "elementary", "--quiet", "--out", str(target))
    assert code == 0 and out == ""
    assert InputDocument.parse(target.read_text()).dim == 2


def test_examples_rejects_unknown_family():
    with pytest.raises(SystemExit) as exc:
        main(["examples", "moebius"])
    assert exc.value.code == 1


# --- estimate ---------------------------------------------------------------------


def test_estimate_shift_is_tight(tmp_path, capsys):
    spec = build_family("shift", dim=3)
    path = write_doc(tmp_path, "s.json", InputDocument(spec.matrices))
    code, out, err = run(capsys, "estimate", path, "--depth", "6")
    assert code == 0
    rep = reports(out)[0]
    iv = rep["results"]["interval"]
    assert iv["lower"] == pytest.approx(1.0, abs=1e-9)
    assert iv["upper"] == pytest.approx(1.0, abs=1e-9)
    assert iv["width"] <= 1e-9
    assert "interval" in err  # diagnostics on stderr


def test_estimate_zero_matrix(tmp_path, capsys):
    doc = InputDocument(
        MatrixSet.from_arrays([np.zeros((2, 2), dtype=complex)])
    )
    path = write_doc(tmp_path, "z.json", doc)
    code, out, _ = run(capsys, "estimate", path, "--quiet")
    iv = reports(out)[0]["results"]["interval"]
    assert code == 0
    assert iv["lower"] == 0.0 and iv["upper"] == 0.0


def test_estimate_unipotent_pair(tmp_path, capsys):
    spec = build_family("unipotent-pair")
    path = write_doc(tmp_path, "u.json", InputDocument(spec.matrices))
    code, out, _ = run(capsys, "estimate", path, "--depth", "12", "--quiet")
    iv = reports(out)[0]["results"]["interval"]
    assert code == 0
    assert iv["lower"] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-9)
    assert 1.6180 <= iv["upper"] <= 1.90


def test_estimate_optional_sections(tmp_path, capsys):
    spec = build_family("unipotent-pair")
    path = write_doc(tmp_path, "u.json", InputDocument(spec.matrices))
    code, out, _ = run(
        capsys, "estimate", path, "--depth", "6", "--conjugation", "--barabanov", "--quiet"
    )
    res = reports(out)[0]["results"]
    assert code == 0
    assert res["conjugation"]["value"] <= 2.0 + 1e-9  # never worse than identity
    # rho_hat is the upper bound, above the true radius, so one-step growth
    # of the adapted norm may sit strictly below it: slack can be negative
    assert -1.0 < res["barabanov"]["slack"] < 1.0


def test_estimate_multiple_inputs_and_csv(tmp_path, capsys):
    paths = []
    for d in (2, 3):
        spec = build_family("shift", dim=d)
        paths.append(
            write_doc(tmp_path, f"s{d}.json", InputDocument(spec.matrices))
        )
    csv_path = tmp_path / "summary.csv"
    code, out, _ = run(
        capsys, "estimate", *paths, "--depth", "5", "--quiet", "--csv", str(csv_path)
    )
    assert code == 0
    assert len(reports(out)) == 2
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("input,digest,dim,size")
    assert len(lines) == 3


# --- certify ----------------------------------------------------------------------


def test_certify_identity_polbd(tmp_path, capsys):
    doc = InputDocument(
        MatrixSet.from_arrays([np.eye(2, dtype=complex)])
    )
    path = write_doc(tmp_path, "i.json", doc)
    code, out, _ = run(capsys, "certify", path, "--theorem", "polbd", "--quiet")
    assert code == 0
    assert reports(out)[0]["results"]["report"]["verdict"] == "CONFIRMED"


def test_certify_elementary_boca(tmp_path, capsys):
    spec = build_family("elementary", dim=2)
    path = write_doc(tmp_path, "e.json", InputDocument(spec.matrices))
    code, out, _ = run(capsys, "certify", path, "--theorem", "boca", "--quiet")
    assert code == 0
    assert reports(out)[0]["results"]["report"]["verdict"] == "CONFIRMED"


def test_certify_rotation_bgel_emits_witness(tmp_path, capsys):
    path = write_doc(tmp_path, "r.json", rotation_doc(2 * math.pi / 5))
    code, out, _ = run(
        capsys, "certify", path, "--theorem", "bgel", "--eps", "0.25", "--depth", "16", "--quiet"
    )
    assert code == 0
    rep = reports(out)[0]["results"]["report"]
    assert rep["verdict"] == "CONFIRMED"
    assert len(rep["witnesses"]["word"]) == 5


def test_certify_bgel_honours_the_cap(tmp_path, capsys):
    # d = 1 asks for 12 / eps = 120,000 trajectory steps; the cap clamps them
    doc = InputDocument(MatrixSet.from_arrays([np.array([[0.6 + 0.8j]]), np.array([[0.5]])]))
    path = write_doc(tmp_path, "c.json", doc)
    code, out, _ = run(
        capsys, "certify", path, "--theorem", "bgel", "--eps", "1e-4", "--cap", "100", "--quiet"
    )
    assert code == 0
    budget = reports(out)[0]["results"]["report"]["budget"]
    assert budget["maxlen"] <= 100 and not budget["required_length_honored"]


def test_certify_inconclusive_exit_code(tmp_path, capsys):
    spec = build_family("unipotent-pair")
    path = write_doc(tmp_path, "u.json", InputDocument(spec.matrices))
    code, out, _ = run(
        capsys, "certify", path, "--theorem", "bgel", "--depth", "2", "--quiet"
    )
    assert code == 2
    assert reports(out)[0]["results"]["report"]["verdict"] == "INCONCLUSIVE"


def test_certify_bgel_confirms_only_at_the_upper_end(tmp_path, capsys):
    # the Jordan block's enclosure [1, 4.236] at depth 1, rescaled to
    # [0.236, 1]: rho(w) = 0.236 clears (1 - eps) lower^|w| but not
    # (1 - eps) upper^|w|, so the radius may still exceed what w shows
    path = tmp_path / "J.json"
    path.write_text(
        '{"format": 1, "dim": 2, "field": "complex", '
        '"members": [[[[1, 0], [4, 0]], [[0, 0], [1, 0]]]]}'
    )
    code, out, _ = run(capsys, "certify", str(path), "--theorem", "bgel", "--depth", "1")
    assert code == 2
    rep = reports(out)[0]["results"]["report"]
    assert rep["verdict"] == "INCONCLUSIVE"
    assert rep["lhs"] == pytest.approx(math.sqrt(5) - 2)
    assert rep["rhs_at_lower"] == pytest.approx(0.75 * (math.sqrt(5) - 2))
    assert rep["rhs_at_upper"] == pytest.approx(0.75)


def test_certify_bgel_without_a_level_is_a_budget_error(tmp_path, capsys):
    spec = build_family("unipotent-pair")
    path = write_doc(tmp_path, "u.json", InputDocument(spec.matrices))
    for theorem in ("polbd", "boca", "bgel"):
        code, out, err = run(capsys, "certify", path, "--theorem", theorem, "--cap", "1")
        assert code == 4, theorem
        assert out == "" and "budget exceeded" in err


def test_certify_boca_reports_an_overflowing_rhs(tmp_path, capsys):
    # ||S||^(n1 - 1) = (1e45)^7 is past the float range
    big = np.array([[0, 1e45], [0, 0]], dtype=complex)
    doc = InputDocument(MatrixSet.from_arrays([big, np.eye(2)]))
    path = write_doc(tmp_path, "big.json", doc)
    code, out, err = run(capsys, "certify", path, "--theorem", "boca")
    assert code == 0
    assert "Traceback" not in err and "boca CONFIRMED" in err
    rep = reports(out)[0]["results"]["report"]
    assert (rep["rhs_at_lower"], rep["rhs_at_upper"]) == ("inf", "inf")
    assert rep["witnesses"]["ratio"] == 0.0


def test_certify_exit_code_is_the_worst_over_inputs(tmp_path, capsys):
    ident = write_doc(
        tmp_path, "i.json",
        InputDocument(MatrixSet.from_arrays([np.eye(2, dtype=complex)])),
    )
    spec = build_family("unipotent-pair")
    pair = write_doc(tmp_path, "u.json", InputDocument(spec.matrices))
    for paths in ([ident, pair], [pair, ident]):
        code, out, _ = run(
            capsys, "certify", *paths, "--theorem", "bgel", "--depth", "2", "--quiet"
        )
        assert code == 2
        assert len(reports(out)) == 2


def test_certify_csv_has_one_row_per_input_in_order(tmp_path, capsys):
    paths = [
        write_doc(tmp_path, f"{name}.json",
                  InputDocument(build_family(name).matrices))
        for name in ("unipotent-pair", "elementary")
    ]
    csv_path = tmp_path / "c.csv"
    code, out, _ = run(
        capsys, "certify", *paths, "--theorem", "boca", "--quiet", "--csv", str(csv_path)
    )
    assert code == 0
    reps = reports(out)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == (
        "input,digest,theorem,verdict,lhs,rhs_at_lower,rhs_at_upper,wall_time_s"
    )
    assert len(lines) == 3
    for line, path, rep in zip(lines[1:], paths, reps):
        cells = line.split(",")
        assert cells[:4] == [path, rep["input_digest"], "boca", "CONFIRMED"]
        assert float(cells[4]) == rep["results"]["report"]["lhs"]


def test_verdict_exit_mapping_is_total():
    assert _VERDICT_EXIT[Verdict.CONFIRMED] == 0
    assert _VERDICT_EXIT[Verdict.INCONCLUSIVE] == 2
    assert _VERDICT_EXIT[Verdict.REFUTED] == EXIT_REFUTED == 3


def test_certify_requires_theorem():
    with pytest.raises(SystemExit) as exc:
        main(["certify", "whatever.json"])
    assert exc.value.code == 1


# --- padic ------------------------------------------------------------------------


def padic_doc(members, prime):
    return json.dumps(
        {
            "format": 1,
            "dim": len(members[0]),
            "field": {"kind": "rational_padic", "prime": prime},
            "members": members,
        }
    )


def test_padic_scalar_five(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(padic_doc([[["5"]]], 5))
    code, out, _ = run(capsys, "padic", str(path), "--quiet")
    res = reports(out)[0]["results"]
    assert code == 0
    assert res["rho_exponent"] == {"numerator": 1, "denominator": 1}
    assert res["witness"] == [0]
    assert res["power_inequality"]["holds"] is True


def test_padic_antidiagonal_half_exponent(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(padic_doc([[["0", "1"], ["2", "0"]]], 2))
    code, out, _ = run(capsys, "padic", str(path), "--quiet")
    res = reports(out)[0]["results"]
    assert code == 0
    assert res["rho_exponent"] == {"numerator": 1, "denominator": 2}


def test_padic_nilpotent_triple(tmp_path, capsys):
    members = [
        [["0", "1", "0"], ["0", "0", "0"], ["0", "0", "0"]],
        [["0", "0", "1"], ["0", "0", "0"], ["0", "0", "0"]],
        [["0", "0", "0"], ["0", "0", "7"], ["0", "0", "0"]],
    ]
    path = tmp_path / "n.json"
    path.write_text(padic_doc(members, 7))
    code, out, _ = run(capsys, "padic", str(path), "--quiet")
    res = reports(out)[0]["results"]
    assert code == 0
    assert res["rho_is_zero"] is True
    assert res["rho_exponent"] is None
    assert res["nilpotent"] is True


def test_padic_prime_override(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(padic_doc([[["6", "0"], ["0", "1"]]], 2))
    _, out2, _ = run(capsys, "padic", str(path), "--quiet")
    _, out3, _ = run(capsys, "padic", str(path), "--prime", "5", "--quiet")
    assert reports(out2)[0]["results"]["prime"] == 2
    assert reports(out3)[0]["results"]["prime"] == 5
    # rho = |6|_p: one factor of 2, none of 5
    assert reports(out2)[0]["results"]["rho_exponent"] == {"numerator": 0, "denominator": 1}
    assert reports(out3)[0]["results"]["rho_exponent"] == {"numerator": 0, "denominator": 1}


def test_padic_computes_the_radius_once(tmp_path, capsys, monkeypatch):
    from jsrkit import cli, ultrametric

    calls = []
    exact = ultrametric.padic_jsr_exact

    def counted(*args, **kwargs):
        calls.append(args)
        return exact(*args, **kwargs)

    # count calls made through either module's name for the function
    monkeypatch.setattr(ultrametric, "padic_jsr_exact", counted)
    monkeypatch.setattr(cli, "padic_jsr_exact", counted, raising=False)
    path = tmp_path / "p.json"
    path.write_text(padic_doc([[["2", "1"], ["0", "2"]], [["1", "0"], ["1", "1"]]], 2))
    code, out, _ = run(capsys, "padic", str(path), "--quiet")
    assert code == 0
    assert len(calls) == 1
    res = reports(out)[0]["results"]
    assert res["rho_exponent"] == {"numerator": 0, "denominator": 1}


def test_padic_budget_exit(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(padic_doc([[["1", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]], 2))
    code, _, err = run(capsys, "padic", str(path), "--cap", "3", "--quiet")
    assert code == 4
    assert "budget" in err


def test_padic_csv_has_one_row_per_input_in_order(tmp_path, capsys):
    paths = []
    for name, members in (("five", [[["5"]]]), ("nil", [[["0", "1"], ["0", "0"]]])):
        path = tmp_path / f"{name}.json"
        path.write_text(padic_doc(members, 5))
        paths.append(str(path))
    csv_path = tmp_path / "p.csv"
    code, out, _ = run(capsys, "padic", *paths, "--quiet", "--csv", str(csv_path))
    assert code == 0
    reps = reports(out)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "input,digest,prime,rho_exponent,nilpotent,power_holds,wall_time_s"
    assert [line.split(",")[:6] for line in lines[1:]] == [
        [paths[0], reps[0]["input_digest"], "5", "1", "False", "True"],
        [paths[1], reps[1]["input_digest"], "5", "bottom", "True", "True"],
    ]


# --- error paths and determinism ---------------------------------------------------


def test_parse_error_exit(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"format": 1')
    code, _, err = run(capsys, "estimate", str(path))
    assert code == 1
    assert "parse error" in err


def test_integer_beyond_float_range_exit(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(
        '{"format": 1, "dim": 1, "field": "complex", "members": [[[[%d, 0]]]]}' % 10**400
    )
    code, out, err = run(capsys, "estimate", str(path))
    assert code == 1
    assert out == ""
    assert "members[0][0][0]: entries must be finite" in err


def test_missing_file_exit(capsys):
    code, _, err = run(capsys, "estimate", "/nonexistent/input.json")
    assert code == 1
    assert "input.json" in err


def test_failing_input_ends_the_batch_without_csv(tmp_path, capsys):
    spec = build_family("shift", dim=2)
    good = write_doc(tmp_path, "s.json", InputDocument(spec.matrices))
    bad = tmp_path / "bad.json"
    bad.write_text('{"format": 1')
    csv_path = tmp_path / "summary.csv"
    code, out, err = run(
        capsys, "estimate", good, str(bad), "--depth", "3", "--quiet", "--csv", str(csv_path)
    )
    assert code == 1
    assert "parse error" in err
    assert len(reports(out)) == 1
    assert not csv_path.exists()


@pytest.mark.parametrize("command", ["estimate", "certify"])
@pytest.mark.parametrize("depth", ["0", "-2"])
def test_depth_below_one_is_a_usage_error(tmp_path, capsys, command, depth):
    spec = build_family("unipotent-pair")
    path = write_doc(tmp_path, "u.json", InputDocument(spec.matrices))
    extra = ["--theorem", "polbd"] if command == "certify" else []
    code, out, err = run(capsys, command, path, *extra, "--depth", depth)
    assert code == 1
    assert out == ""
    assert "depth must be >= 1" in err


def test_wrong_field_for_command_exit(tmp_path, capsys):
    path = tmp_path / "c.json"
    spec = build_family("shift", dim=2)
    path.write_text(InputDocument(spec.matrices).emit())
    code, _, err = run(capsys, "padic", str(path), "--quiet")
    assert code == 1
    assert "rational_padic" in err


def test_reports_are_deterministic(tmp_path, capsys):
    spec = build_family("unitary-mix", dim=2, count=4, seed=3)
    path = write_doc(tmp_path, "m.json", spec)
    outs = []
    for _ in range(2):
        code, out, _ = run(
            capsys, "estimate", path, "--depth", "4", "--seed", "3",
            "--conjugation", "--barabanov", "--quiet",
        )
        assert code == 0
        rep = reports(out)[0]
        rep.pop("wall_time_s")
        outs.append(rep)
    assert outs[0] == outs[1]


def test_quiet_suppresses_diagnostics(tmp_path, capsys):
    spec = build_family("shift", dim=2)
    path = write_doc(tmp_path, "s.json", InputDocument(spec.matrices))
    _, _, err_loud = run(capsys, "estimate", path, "--depth", "4")
    _, _, err_quiet = run(capsys, "estimate", path, "--depth", "4", "--quiet")
    assert err_loud != ""
    assert err_quiet == ""


# --- import path ------------------------------------------------------------------

IMPORT_PATH_SCRIPT = """
import contextlib, io, json, sys
from jsrkit.cli import main
from jsrkit.core import MatrixSet
from jsrkit.families import FAMILY_NAMES

tmp = sys.argv[1]

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(list(argv))

codes = [run("examples", family, "--out", f"{tmp}/{family}.json") for family in FAMILY_NAMES]
doc = f"{tmp}/shift.json"
codes.append(run("estimate", doc, "--depth", "4", "--conjugation", "--barabanov"))
codes += [run("certify", doc, "--depth", "4", "--theorem", t) for t in ("boca", "polbd", "bgel")]
with open(f"{tmp}/p.json", "w") as f:
    f.write('{"format": 1, "dim": 1, "field": {"kind": "rational_padic", "prime": 5},'
            ' "members": [[["25"]]]}')
codes.append(run("padic", f"{tmp}/p.json"))

from jsrkit.bounds import nilpotency_test

swap_pair, single_elementary = [[[0, 1], [0, 0]], [[0, 0], [1, 0]]], [[[0, 1], [0, 0]]]
nil = [tuple(nilpotency_test(MatrixSet.from_arrays(s))) for s in (swap_pair, single_elementary)]
print(json.dumps([codes, nil, "scipy" in sys.modules]))
"""


def test_cli_commands_never_import_scipy(tmp_path):
    # a fresh interpreter, so that modules this process has loaded do not count;
    # nothing in jsrkit uses scipy, not even nilpotency_test
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PATH_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, check=True,
    )
    codes, nil, scipy_loaded = json.loads(proc.stdout)
    assert codes == [0] * (len(FAMILY_NAMES) + 5)
    assert nil == [[False, 4], [True, 1]]
    assert not scipy_loaded
