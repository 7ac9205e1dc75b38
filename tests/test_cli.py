import csv
import io
import json
import warnings
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources

import jsonschema
import numpy as np

import pytest

from xxxchain import cli, hilbert, solver, suite, verify
from xxxchain.cli import main
from xxxchain.errors import InputRangeError
from xxxchain.su2 import Spin


def run_cli(*argv, env=None, monkeypatch=None):
    out, err = io.StringIO(), io.StringIO()
    if env and monkeypatch:
        for key, value in env.items():
            monkeypatch.setenv(key, value)
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def schema_for(command):
    text = resources.files("xxxchain").joinpath("schemas.json").read_text()
    return json.loads(text)[command]


def validate(command, payload):
    jsonschema.validate(payload, schema_for(command))


def test_beta_json_spin_half():
    code, out, _ = run_cli("beta", "--spin", "1/2")
    assert code == 0
    payload = json.loads(out)
    validate("beta", payload)
    assert len(payload["entries"]) == 6
    lookup = {(e["m1"], e["m2"], e["n"]): e["value"] for e in payload["entries"]}
    assert lookup[(0, 1, 1)] == 1.0


def test_beta_csv_header():
    code, out, _ = run_cli("beta", "--spin", "1", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["m1", "m2", "n", "value"]
    assert len(rows) - 1 == 19  # full window count for two_s = 2


def test_invalid_spin_exits_2():
    code, out, err = run_cli("beta", "--spin", "2/3")
    assert code == 2
    assert not out
    assert "2/3" in err


def test_local_h_json():
    code, out, _ = run_cli("local-h", "--spin", "1/2")
    payload = json.loads(out)
    validate("local-h", payload)
    matrix = np.array(payload["matrix"])
    perm = np.zeros((4, 4))
    perm[0, 0] = perm[3, 3] = perm[1, 2] = perm[2, 1] = 1.0
    assert np.array_equal(matrix, perm - np.eye(4))


def test_chain_h_json_and_cap():
    code, out, _ = run_cli("chain-h", "--spin", "1/2", "-L", "2")
    payload = json.loads(out)
    validate("chain-h", payload)
    vals = np.linalg.eigvalsh(np.array(payload["matrix"]))
    assert np.allclose(vals, [-4, 0, 0, 0], atol=1e-12)
    code, _, err = run_cli("chain-h", "--spin", "1/2", "-L", "8", "--cap", "64")
    assert code == 3 and "cap" in err


def test_bethe_cap_env(monkeypatch):
    code, _, err = run_cli("chain-h", "--spin", "1/2", "-L", "8",
                           env={"BETHE_CAP": "64"}, monkeypatch=monkeypatch)
    assert code == 3


def test_ed_full_and_sector():
    code, out, _ = run_cli("ed", "--spin", "1/2", "-L", "2")
    payload = json.loads(out)
    validate("ed", payload)
    assert np.allclose(payload["eigenvalues"], [-4.0, 0.0, 0.0, 0.0], atol=1e-12)

    code, out, _ = run_cli("ed", "--spin", "1/2", "-L", "2", "--sector", "1")
    payload = json.loads(out)
    assert np.allclose(payload["eigenvalues"], [-4.0, 0.0], atol=1e-12)

    code, out, _ = run_cli("ed", "--spin", "1", "-L", "2", "--sector", "0")
    payload = json.loads(out)
    assert payload["eigenvalues"] == [0.0]


def test_solve_m1_energies():
    code, out, _ = run_cli("solve", "--spin", "1/2", "-L", "4", "-m", "1")
    payload = json.loads(out)
    validate("solve", payload)
    energies = sorted(c["energy"][0] for c in payload["certificates"])
    assert np.allclose(energies, [-4.0, -2.0, -2.0], atol=1e-10)


def test_solve_residuals_below_threshold():
    code, out, _ = run_cli("solve", "--spin", "1", "-L", "4", "-m", "2")
    payload = json.loads(out)
    validate("solve", payload)
    assert payload["certificates"]
    for cert in payload["certificates"]:
        assert cert["eigen_residual"] < 1e-8
        assert cert["hw_residual"] < 1e-8


def test_solve_strings_strategy_yields_conjugate_pairs():
    code, out, _ = run_cli("solve", "--spin", "1", "-L", "4", "-m", "2",
                           "--strategy", "strings")
    assert code == 0
    payload = json.loads(out)
    strings = [c for c in payload["certificates"]
               if max(abs(z[1]) for z in c["lambda"]) > 0.1]
    assert strings
    for cert in strings:
        lams = [complex(re, im) for re, im in cert["lambda"]]
        for z in lams:  # conjugate-symmetric root set
            assert min(abs(z.conjugate() - w) for w in lams) < 1e-8


def test_rerun_outputs_bit_identical():
    for argv in (
        ("solve", "--spin", "1", "-L", "4", "-m", "2", "--seed", "5"),
        ("ed", "--spin", "1", "-L", "3"),
        ("verify", "--only", "sigma", "--seed", "1"),
        ("aba-compare", "--spin", "1/2", "-L", "5", "--count", "4", "--seed", "3"),
        ("beta", "--spin", "3/2"),
    ):
        _, out1, _ = run_cli(*argv)
        _, out2, _ = run_cli(*argv)
        assert out1 == out2, argv


def test_state_from_lambda():
    code, out, _ = run_cli("state", "--spin", "1/2", "-L", "4",
                           "--lambda", "0.2886751345948129,-0.2886751345948129")
    payload = json.loads(out)
    validate("state", payload)
    assert payload["m"] == 2
    assert payload["residual"] < 1e-8
    assert abs(payload["energy"][0] + 6.0) < 1e-8


def test_state_list_with_a_leading_minus_takes_the_equals_form():
    chain = ("state", "--spin", "1/2", "-L", "4")
    _, out, _ = run_cli(*chain, "--lambda", "0.28867513459,-0.28867513459")
    code, flipped, _ = run_cli(*chain, "--lambda=-0.28867513459,0.28867513459")
    assert code == 0
    assert json.loads(flipped)["energy"] == json.loads(out)["energy"]
    # a separate value that starts with '-' reads as a flag
    code, _, err = run_cli(*chain, "--lambda", "-0.28867513459,0.28867513459")
    assert code == 2 and "expected one argument" in err


def test_state_from_momenta_matches_lambda_route():
    _, out_k, _ = run_cli("state", "--spin", "1", "-L", "3", "--k", "2.0943951023931953")
    payload = json.loads(out_k)
    validate("state", payload)
    # E = -(1/2s)(2 - 2 cos(2 pi/3)) = -3/2 at two_s = 2
    assert abs(payload["energy"][0] + 1.5) < 1e-9


def test_state_requires_exactly_one_input():
    code, _, err = run_cli("state", "--spin", "1/2", "-L", "4")
    assert code == 2
    code, _, err = run_cli("state", "--spin", "1/2", "-L", "4",
                           "--lambda", "0.1", "--k", "0.3")
    assert code == 2


def test_state_pole_rapidity_is_usage_error():
    code, out, err = run_cli("state", "--spin", "1/2", "-L", "4", "--lambda", "0.5j,-0.5j")
    assert code == 2
    assert not out and "error" in err


def test_short_chain_is_usage_error():
    code, _, err = run_cli("ed", "--spin", "1/2", "-L", "1")
    assert code == 2
    assert "length" in err
    # aba-compare builds no Hamiltonian, so it checks the length itself
    for length in ("1", "0"):
        code, out, err = run_cli("aba-compare", "--spin", "1/2", "-L", length, "--count", "2")
        assert code == 2 and not out and f"chain length must be >= 2, got {length}" in err


def test_state_with_too_many_roots_is_usage_error():
    code, out, err = run_cli("state", "--spin", "1/2", "-L", "2", "--lambda", "0.1,0.2,0.3")
    assert code == 2
    assert not out and "sector m=3 outside 0..2" in err


def test_state_with_unrepresentable_amplitudes_is_usage_error():
    # nearly coinciding momenta far off the real axis: the amplitude factors
    # (about |u| / |u_j - u_k|) and the plane waves together give amplitudes
    # whose squares, in the norm, pass the float range
    k = "0.3-17.7j,0.30000002-17.7j,0.30000003-17.7j,0.30000005-17.7j"
    code, out, err = run_cli("state", "--spin", "1/2", "-L", "4", "--k", k)
    assert code == 2 and not out and "||a||" in err


def test_state_checks_cap_before_building(monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "build_bethe_state", lambda *a, **kw: calls.append((a, kw)))
    code, out, err = run_cli("state", "--spin", "1/2", "-L", "4", "--cap", "8",
                             "--lambda", "0.1,0.2")
    assert code == 3 and not out and "exceeds cap 8" in err
    assert calls == []


def test_state_with_no_roots_is_the_vacuum():
    for flag in ("--lambda", "--k"):
        code, out, _ = run_cli("state", "--spin", "1/2", "-L", "4", flag, "")
        assert code == 0
        assert json.loads(out)["energy"] == [0.0, 0.0]


def test_solve_at_length_24_raises_no_runtime_warning():
    # full Newton steps overshoot to where (lambda +- i/2)^24 overflows; the
    # line search turns those points down without a RuntimeWarning
    code, out, err = run_cli("solve", "--spin", "1/2", "-L", "24", "-m", "2",
                             "--cap", "99999999999999")
    assert code == 0 and not err
    validate("solve", json.loads(out))


def test_solve_overfilled_sector_is_usage_error():
    code, out, err = run_cli("solve", "--spin", "1/2", "-L", "4", "-m", "9")
    assert code == 2
    assert not out and "sector m=9 outside 0..4" in err
    code, _, ed_err = run_cli("ed", "--spin", "1/2", "-L", "4", "-m", "9")
    assert code == 2 and ed_err == err


# every way into one sector of the (1/2, L=4) chain, whose sectors are 0..4
SECTOR_ENTRY_POINTS = {
    "sector_basis": lambda m: hilbert.sector_basis(Spin(1), 4, m),
    "sector_eigh": lambda m: verify.sector_eigh(Spin(1), 4, m),
    "exact_diagonalize": lambda m: verify.exact_diagonalize(Spin(1), 4, m=m),
    "solve_sector": lambda m: solver.solve_sector(Spin(1), 4, m),
    "reconcile_spectrum": lambda m: verify.reconcile_spectrum(Spin(1), 4, m),
}
# -m is parsed as an integer, so the commands take only the integer cases
SECTOR_CASES = [(entry, m) for entry in SECTOR_ENTRY_POINTS for m in (-1, 5, 1.5, 1.0)] + \
    [(command, m) for command in ("solve", "ed") for m in (-1, 5)]


@pytest.mark.parametrize("entry, m", SECTOR_CASES)
def test_every_entry_point_rejects_a_sector_outside_the_chain(entry, m):
    hilbert.sector_basis(Spin(1), 4, 1)  # m = 1.0 must not read this cached basis
    if entry in SECTOR_ENTRY_POINTS:
        with pytest.raises(InputRangeError, match="sector m"):
            SECTOR_ENTRY_POINTS[entry](m)
    else:
        code, out, err = run_cli(entry, "--spin", "1/2", "-L", "4", "-m", str(m))
        assert code == 2 and not out and f"sector m={m} outside 0..4" in err


def test_unindexable_chain_is_usage_error(monkeypatch):
    # a huge cap lets the (1/2, L=63) chain past the cap check; its 2^63 states
    # overflow 64-bit indices, which every command reports before any Newton run
    def unexpected(*args):
        raise AssertionError("Newton ran on an unindexable chain")

    monkeypatch.setattr(solver, "newton_batch", unexpected)
    chain, cap = ("--spin", "1/2", "-L", "63"), ("--cap", "99999999999999999999999")
    for command, *rest in (("solve", "-m", "1"), ("solve", "-m", "31"), ("ed", "-m", "1"),
                           ("state", "--lambda", "0.3")):
        code, out, err = run_cli(command, *chain, *cap, *rest)
        assert code == 2 and not out and "2^63 overflows 64-bit state indices" in err
    # the default cap is checked first, as in ed, state and chain-h
    code, out, err = run_cli("solve", *chain, "-m", "1")
    assert code == 3 and not out and "exceeds cap" in err


def test_bad_seed_and_cap_are_usage_errors(monkeypatch):
    code, out, _ = run_cli("solve", "--spin", "1/2", "-L", "4", "-m", "1", "--seed", "-1")
    assert code == 2 and not out
    code, out, err = run_cli("chain-h", "--spin", "1/2", "-L", "2",
                             env={"BETHE_CAP": "lots"}, monkeypatch=monkeypatch)
    assert code == 2 and not out and "BETHE_CAP" in err


def test_cap_below_one_is_usage_error(monkeypatch):
    for cap in ("0", "-5"):
        code, out, err = run_cli("chain-h", "--spin", "1/2", "-L", "4", "--cap", cap)
        assert code == 2 and not out and "cap must be at least 1" in err, cap
    code, out, err = run_cli("chain-h", "--spin", "1/2", "-L", "4",
                             env={"BETHE_CAP": "-1"}, monkeypatch=monkeypatch)
    assert code == 2 and not out and "cap must be at least 1" in err


def test_unknown_strategy_is_usage_error():
    code, out, err = run_cli("solve", "--spin", "1", "-L", "4", "-m", "2",
                             "--strategy", "two-string")
    assert code == 2 and not out and "--strategy" in err


def test_internal_value_error_is_not_a_usage_error(monkeypatch):
    def broken(args, parser):
        raise ValueError("internal bug")

    monkeypatch.setattr(cli, "cmd_beta", broken)
    with pytest.raises(ValueError, match="internal bug"):
        main(["beta", "--spin", "1/2"])


def test_negative_sector_is_usage_error():
    code, out, err = run_cli("solve", "--spin", "1/2", "-L", "4", "-m", "-1")
    assert code == 2
    assert not out and "sector m=-1" in err


def test_nan_newton_tolerance_is_usage_error():
    code, out, err = run_cli("solve", "--spin", "1/2", "-L", "4", "-m", "2",
                             "--tol-newton", "nan")
    assert code == 2
    assert not out and "tol_newton must be finite" in err


def test_aba_compare_without_rapidities_is_usage_error():
    code, out, err = run_cli("aba-compare", "--spin", "1/2", "-L", "4", "--count", "0")
    assert code == 2
    assert not out and "at least one rapidity" in err


def test_flags_a_command_does_not_read_are_usage_errors():
    for argv in (
        ("beta", "--spin", "1/2", "-m", "3"),
        ("beta", "--spin", "1/2", "--tol-newton", "5"),
        ("local-h", "--spin", "1/2", "--cap", "1"),
        ("local-h", "--spin", "1/2", "-L", "4"),
        ("chain-h", "--spin", "1/2", "-L", "2", "--seed", "4"),
        ("ed", "--spin", "1/2", "-L", "2", "--tol-match", "1e-3"),
        ("solve", "--spin", "1/2", "-L", "4", "-m", "1", "--tol-match", "1e-3"),
        ("state", "--spin", "1/2", "-L", "4", "--k", "0.3", "-m", "1"),
        ("aba-compare", "--spin", "1/2", "-L", "4", "--count", "2", "--cap", "10"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 2 and not out and "unrecognized arguments" in err, argv


def test_nonfinite_roots_and_momenta_are_usage_errors():
    nonfinite = "must be finite"
    overflow = "are not representable"
    descendant = "descendant direction"
    cases = (("state", "--lambda", "nan", nonfinite), ("state", "--lambda", "0.1,inf", nonfinite),
             ("state", "--k", "inf", nonfinite), ("state", "--k", "0.3,nan", nonfinite),
             ("aba-compare", "--lambda", "0.2,nan", nonfinite),
             # finite, but the state's arithmetic would overflow to NaN or Infinity
             ("state", "--lambda", "1e308+1e308j", descendant), ("state", "--k", "0-700j", overflow),
             ("state", "--k", "0-800j", overflow),
             ("aba-compare", "--lambda", "1e308+1e308j", descendant))
    # rejected before any arithmetic, so no NumPy RuntimeWarning is raised
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for command, flag, value, message in cases:
            code, out, err = run_cli(command, "--spin", "1/2", "-L", "3", flag, value)
            assert code == 2, (command, flag, value)
            assert not out and message in err, (command, flag, value, err)


def test_json_output_rejects_nan(monkeypatch):
    monkeypatch.setattr(cli.verify, "overlap", lambda u, v: float("nan"))
    with pytest.raises(ValueError):
        run_cli("aba-compare", "--spin", "1/2", "-L", "3", "--count", "1")


def test_local_hamiltonian_above_dense_threshold_is_resource_error():
    # (2s+1)^2 = 4356 > 4096: refused before the beta table or local_h is built
    code, out, err = run_cli("ed", "--spin", "65/2", "-L", "2", "-m", "0")
    assert code == 3 and not out and "exceeds dense threshold" in err


def test_verify_passes_and_filters():
    code, out, _ = run_cli("verify")
    payload = json.loads(out)
    validate("verify", payload)
    assert code == 0 and payload["passed"]

    code, out, _ = run_cli("verify", "--only", "sigma")
    payload = json.loads(out)
    names = [c["name"] for c in payload["checks"]]
    assert names and all("sigma" in n for n in names)

    code, _, err = run_cli("verify", "--only", "no-such-check")
    assert code == 2


def test_verify_extended_chain_grid():
    code, out, _ = run_cli("verify", "--spin", "3/2", "-L", "3", "--only", "L=3")
    payload = json.loads(out)
    assert code == 0 and payload["passed"]
    names = [c["name"] for c in payload["checks"]]
    assert any("vacuum-annihilated[s=3/2,L=3]" == n for n in names)
    code, _, _ = run_cli("verify", "--spin", "3/2")
    assert code == 2  # -L required alongside --spin


def test_verify_short_chain_is_usage_error():
    # rejected before the suite runs, not reported as a failed check
    code, out, err = run_cli("verify", "--spin", "1/2", "-L", "1")
    assert code == 2 and not out and "chain length" in err


def test_verify_chain_above_cap_is_resource_error():
    code, out, err = run_cli("verify", "--spin", "1/2", "-L", "30")
    assert code == 3 and not out and "exceeds cap" in err


def test_verify_honours_bethe_cap(monkeypatch):
    # as ed does on the same chain; a raised cap does not lift the suite's own
    # bound, DEFAULT_CAP = 2^20
    for length, cap, expected in (("8", "100", "exceeds cap 100"),
                                  ("21", str(1 << 22), "exceeds cap 1048576")):
        code, out, err = run_cli("verify", "--spin", "1/2", "-L", length,
                                 env={"BETHE_CAP": cap}, monkeypatch=monkeypatch)
        assert code == 3 and not out and expected in err


def test_verify_names_each_grid_chain_once():
    code, out, _ = run_cli("verify")
    names = [c["name"] for c in json.loads(out)["checks"]]
    assert code == 0 and len(names) == len(set(names))
    for spin, length in suite.CHAIN_GRID:
        tag = f"[s={spin},L={length}]"
        assert [n for n in names if n.endswith(tag)] == [
            f"{check}{tag}" for check in ("vacuum-annihilated", "su2-global-commutators",
                                          "chain-su2-commutators", "sector-apply-matches-full")]
    # (3/2, 3) is already on the grid, so asking for it adds nothing
    code, out, _ = run_cli("verify", "--spin", "3/2", "-L", "3")
    assert code == 0 and [c["name"] for c in json.loads(out)["checks"]] == names


def test_verify_inject_fault(monkeypatch):
    def synthetic_bad_invariant(seed=0):
        return ("synthetic-bad-invariant", False, "max violation 1.000e+00 (tol 1e-13)")

    monkeypatch.setattr(suite, "ALL_CHECKS", suite.ALL_CHECKS + (synthetic_bad_invariant,))
    code, out, err = run_cli("verify")
    assert code == 1
    payload = json.loads(out)
    assert not payload["passed"]
    assert "FAILED synthetic-bad-invariant" in err


def test_aba_compare():
    code, out, _ = run_cli("aba-compare", "--spin", "1", "-L", "4", "--count", "5", "--seed", "2")
    payload = json.loads(out)
    validate("aba-compare", payload)
    assert payload["count"] == 5
    assert payload["min_overlap"] > 1 - 1e-10


def test_csv_paths_smoke():
    for argv in (
        ("local-h", "--spin", "1", "--format", "csv"),
        ("chain-h", "--spin", "1/2", "-L", "2", "--format", "csv"),
        ("ed", "--spin", "1/2", "-L", "3", "--format", "csv"),
        ("solve", "--spin", "1/2", "-L", "4", "-m", "1", "--format", "csv"),
        ("state", "--spin", "1/2", "-L", "3", "--k", "2.0943951023931953", "--format", "csv"),
        ("verify", "--only", "sigma", "--format", "csv"),
        ("aba-compare", "--spin", "1/2", "-L", "4", "--count", "3", "--format", "csv"),
    ):
        code, out, err = run_cli(*argv)
        assert code == 0, (argv, err)
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) >= 2 and all(len(r) == len(rows[0]) for r in rows[1:])


def test_singular_state_json_matches_schema():
    from xxxchain.solver import solve_sector
    from xxxchain.su2 import Spin

    for spin, length, m in ((Spin(1), 4, 2), (Spin(2), 4, 4)):
        cert, = (c for c in solve_sector(spin, length, m) if c.singular)
        payload = cert.state.to_json(residual=cert.eigen_residual)
        validate("state", payload)
        assert payload["k"] is None and len(payload["lambda"]) == m


def test_reconcile_schema():
    from xxxchain.su2 import Spin
    from xxxchain.verify import reconcile_spectrum

    payload = reconcile_spectrum(Spin(1), 4, 2).to_json()
    validate("reconcile", payload)


def _csv_and_json(*argv):
    code, out, err = run_cli(*argv, "--format", "csv")
    assert code == 0, (argv, err)
    header, *rows = csv.reader(io.StringIO(out))
    code, out, err = run_cli(*argv)
    assert code == 0, (argv, err)
    return header, rows, json.loads(out)


def test_csv_and_json_carry_the_same_values():
    _, rows, payload = _csv_and_json("beta", "--spin", "3/2")
    assert [(int(m1), int(m2), int(n), float(v)) for m1, m2, n, v in rows] == \
        [(e["m1"], e["m2"], e["n"], e["value"]) for e in payload["entries"]]

    for argv in (("local-h", "--spin", "1"), ("chain-h", "--spin", "1/2", "-L", "3")):
        header, rows, payload = _csv_and_json(*argv)
        assert header == [f"c{j}" for j in range(len(payload["matrix"][0]))]
        assert [[float(v) for v in row] for row in rows] == payload["matrix"]

    _, rows, payload = _csv_and_json("ed", "--spin", "1", "-L", "3")
    assert [(int(m), float(v)) for m, v in rows] == \
        [(sec["m"], v) for sec in payload["ed"] for v in sec["eigenvalues"]]

    _, rows, payload = _csv_and_json("solve", "--spin", "1", "-L", "4", "-m", "2")
    assert len(rows) == len(payload["certificates"]) > 0
    for row, cert in zip(rows, payload["certificates"]):
        assert [float(v) for v in row[:5]] == [*cert["energy"], cert["bethe_residual"],
                                               cert["eigen_residual"], cert["hw_residual"]]
        assert (int(row[5]), bool(int(row[6]))) == (cert["iterations"], cert["singular"])
        assert [complex(z) for z in row[7].split(";")] == [complex(*z) for z in cert["lambda"]]

    _, rows, payload = _csv_and_json("state", "--spin", "1", "-L", "4", "--k", "0.7,1.9")
    amplitudes = np.array([complex(float(re), float(im)) for _, re, im in rows])
    assert [int(row[0]) for row in rows] == list(range(len(rows)))
    assert float(np.linalg.norm(amplitudes)) == payload["norm"]

    _, rows, payload = _csv_and_json("verify", "--only", "sigma")
    assert [(name, bool(int(ok)), detail) for name, ok, detail in rows] == \
        [(c["name"], c["passed"], c["detail"]) for c in payload["checks"]]

    _, rows, payload = _csv_and_json("aba-compare", "--spin", "1", "-L", "4", "--count", "3")
    assert [[float(v) for v in row] for row in rows] == \
        [[*r["lambda"], r["overlap"]] for r in payload["overlaps"]]


def test_matrix_csv_never_builds_the_json_payload(monkeypatch):
    # the JSON payload of a matrix holds one float object per entry, which a
    # CSV run would build and never print
    built = []
    emit = cli._emit

    def counting_emit(args, payload, header, rows):
        def build():
            built.append(args.command)
            return payload()
        return emit(args, build, header, rows)

    monkeypatch.setattr(cli, "_emit", counting_emit)
    code, out, _ = run_cli("local-h", "--spin", "1/2", "--format", "csv")
    assert code == 0
    assert out == ("c0,c1,c2,c3\n"
                   "0.0,0.0,0.0,0.0\n"
                   "0.0,-1.0,1.0,0.0\n"
                   "0.0,1.0,-1.0,0.0\n"
                   "0.0,0.0,0.0,0.0\n")
    code, out, _ = run_cli("chain-h", "--spin", "1/2", "-L", "3", "--format", "csv")
    assert code == 0
    assert out == ("c0,c1,c2,c3,c4,c5,c6,c7\n"
                   "0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0\n"
                   "0.0,-2.0,1.0,0.0,1.0,0.0,0.0,0.0\n"
                   "0.0,1.0,-2.0,0.0,1.0,0.0,0.0,0.0\n"
                   "0.0,0.0,0.0,-2.0,0.0,1.0,1.0,0.0\n"
                   "0.0,1.0,1.0,0.0,-2.0,0.0,0.0,0.0\n"
                   "0.0,0.0,0.0,1.0,0.0,-2.0,1.0,0.0\n"
                   "0.0,0.0,0.0,1.0,0.0,1.0,-2.0,0.0\n"
                   "0.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0\n")
    assert built == []
    for argv in (("local-h", "--spin", "1/2"), ("chain-h", "--spin", "1/2", "-L", "3")):
        assert run_cli(*argv)[0] == 0
    assert built == ["local-h", "chain-h"]
