"""The scripts under scripts/, the benchmark's tracer, the package's declared
minimum Python and its runtime imports."""

import glob
import importlib.util
import io
import json
import os
import runpy
import shutil
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from test_cli import validate

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "xxxchain"
RECONCILE_DEMO = ROOT / "scripts" / "reconcile_demo.py"
OUTPUT_DIGEST = ROOT / "scripts" / "output_digest.py"
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
PERFBENCH_TESTS = ROOT / "perfbench" / "test_perfbench.py"


def load_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(path, *args, monkeypatch):
    monkeypatch.setattr(sys, "argv", [str(path), *args])
    out = io.StringIO()
    with redirect_stdout(out):
        runpy.run_path(str(path), run_name="__main__")
    return out.getvalue()


def test_reconcile_demo_rows_show_their_own_match(monkeypatch):
    # spin 1/2, L=6 has degenerate multiplets (same m and energy) whose
    # matches differ in max_gap
    args = ("--spin", "1/2", "-L", "6", "-m", "6")
    payload = json.loads(run_script(RECONCILE_DEMO, *args, "--json", monkeypatch=monkeypatch))
    validate("reconcile", payload)
    lines = run_script(RECONCILE_DEMO, *args, monkeypatch=monkeypatch).splitlines()
    rows = [line.split()[:4] for line in lines[2:] if line.lstrip()[:1].isdigit()]
    assert len(rows) == len(payload["matches"]) == len(payload["bethe"])
    for (m, energy, mult, gap), match in zip(rows, payload["matches"]):
        assert (int(m), int(mult)) == (match["m"], match["multiplicity"])
        assert energy == f"{match['energy']:.10f}"
        assert gap == f"{match['max_gap']:.2e}"


def test_readme_demo_commands_show_what_their_comments_claim(monkeypatch):
    # the README's "Scripts" block, run with the same arguments
    block = (ROOT / "README.md").read_text().split("## Scripts", 1)[1].split("```")[1]
    commands = [line.split("#")[0].split()[2:] for line in block.splitlines()
                if line.startswith("python scripts/reconcile_demo.py")]
    assert commands == [["--spin", "1/2", "-L", "4", "-m", "2"],
                        ["--spin", "3/2", "-L", "3", "-m", "4"],
                        ["--spin", "1/2", "-L", "6", "-m", "6", "--json"]]
    matched, deficit, report = (run_script(RECONCILE_DEMO, *args, monkeypatch=monkeypatch)
                                for args in commands)
    assert "matched 16 / 16 ED levels" in matched
    # the double root Q = z^2 of (3/2, 3) leaves one level unmatched in m = 2..7
    assert "matched 58 / 64 ED levels" in deficit
    assert [line.split()[-1] for line in deficit.splitlines() if "deficit:" in line] == \
        ["-2.6666666667"] * 6
    validate("reconcile", json.loads(report))
    # the exact-string multiplets, and only those, carry the tag: (1/2, 4, 2) has one
    payload = json.loads(run_script(RECONCILE_DEMO, *commands[0], "--json",
                                    monkeypatch=monkeypatch))
    rows = [line for line in matched.splitlines() if line.lstrip()[:1].isdigit()]
    tagged = [row.endswith("(exact string)") for row in rows]
    assert tagged == [rec["singular"] for rec in payload["bethe"]] and any(tagged)


def test_output_digest_repeats_and_restores_the_solver(monkeypatch):
    # two runs in one process print the same lines, and the script puts back
    # the Newton entry points it wraps
    from xxxchain import solver

    before = solver.newton_batch, solver.solve_sector
    args = ("--parts", "solve_grid", "--seeds", "0")
    lines = run_script(OUTPUT_DIGEST, *args, monkeypatch=monkeypatch).splitlines()
    assert run_script(OUTPUT_DIGEST, *args, monkeypatch=monkeypatch).splitlines() == lines
    assert (solver.newton_batch, solver.solve_sector) == before
    # one line per solve_sector call, with the workload's `certified` tally at seed 0
    assert len(lines) == 15
    assert sum(int(_field(line, "certified")) for line in lines) == 77


def test_output_digest_covers_the_whole_benchmark_by_default(monkeypatch):
    # without --parts, one line per operation of every part, verify's included
    lines = run_script(OUTPUT_DIGEST, monkeypatch=monkeypatch).splitlines()
    workloads = load_module("perfbench_workloads", WORKLOADS)
    assert [line.split()[0] for line in lines] == \
        [part for part, build in workloads.PARTS.items() for _ in build(0)]


def _field(line, key):
    return line.split(f" {key}=")[1].split()[0]


def test_output_digest_regular_part_skips_singular_sets(monkeypatch):
    # the exact-string sets are singular: without them five sectors certify one
    # set less and run Newton longer, and every regular certificate is the same
    import hashlib

    from xxxchain import solver

    args = ("--parts", "solve_grid", "--seeds", "0")
    lines = run_script(OUTPUT_DIGEST, *args, monkeypatch=monkeypatch).splitlines()
    monkeypatch.setattr(solver, "_string_sets", lambda system, opts: [])
    bare = run_script(OUTPUT_DIGEST, *args, monkeypatch=monkeypatch).splitlines()
    assert [_field(line, "regular") for line in lines] == [_field(line, "regular") for line in bare]
    fewer = [line.split(" exact=")[0] for line, other in zip(lines, bare)
             if int(_field(line, "certified")) != int(_field(other, "certified"))]
    assert fewer == ["solve_grid 0 solve s=1/2 L=4 m=2", "solve_grid 0 solve s=1/2 L=6 m=2",
                     "solve_grid 0 solve s=1/2 L=6 m=3", "solve_grid 0 solve s=1 L=4 m=3",
                     "solve_grid 0 solve s=1 L=5 m=3"]
    # past the equator nothing is certified, and the regular digest hashes nothing
    empty = hashlib.sha256().hexdigest()
    assert [_field(line, "regular") == empty for line in lines] == \
        [_field(line, "certified") == "0" for line in lines]


def _package_bindings():
    """Identity of every name bound in the package's modules and of the
    methods that the tracer wraps on their classes."""
    from xxxchain.hamiltonian import ChainHamiltonian
    from xxxchain.su2 import SiteSumOperator

    owners = [mod for name, mod in sys.modules.items()
              if mod is not None and (name == "xxxchain" or name.startswith("xxxchain."))]
    owners += [ChainHamiltonian, SiteSumOperator]
    return {(owner.__name__, attr): id(value)
            for owner in owners for attr, value in list(vars(owner).items())}


def test_benchmark_tracer_installs_and_uninstalls():
    # `perfbench/run.py --trace 1` wraps functions by module attribute and
    # methods through the class __dict__; a name that was deleted, or that a
    # class only inherits, breaks the traced benchmark
    tracing = load_module("perfbench_tracing", TRACING)
    # the modules the tracer patches, loaded before the bindings are read
    from xxxchain import bethe, cli, hamiltonian, hilbert, solver, su2, suite, verify  # noqa: F401
    from xxxchain.su2 import Spin

    before = _package_bindings()
    tracer = tracing.Tracer().install()
    try:
        assert _package_bindings() != before
        hamiltonian.ChainHamiltonian(Spin(1), 3).sector_matrix(1)
    finally:
        tracer.uninstall()
    assert _package_bindings() == before
    layers = {span[0] for span in tracer.spans}
    assert {"hamiltonian.sector_matrix", "hilbert.sector_basis"} <= layers


def test_benchmark_workloads_build_their_operations():
    # the benchmark imports names from the package and builds its operation
    # lists from them; a trimmed export or a changed signature breaks it here
    workloads = load_module("perfbench_workloads", WORKLOADS)
    for part, build in workloads.PARTS.items():
        ops = build(0)
        assert ops, part
        assert all(callable(op.run) and callable(op.check) and callable(op.tally)
                   for op in ops), part


def test_benchmark_operations_pass_their_own_checks():
    # perfbench/run.py exits 1 when any output fails its check; the tallies
    # pin what its `certified` metric counts at seed 0, so a change that drops
    # a root or a check fails here first
    workloads = load_module("perfbench_workloads", WORKLOADS)
    tallies = {}
    for part, build in workloads.PARTS.items():
        tallies[part] = Counter()
        for op in build(0):
            output = op.run()
            assert op.check(output) == [], (part, op.label)
            tallies[part] += op.tally(output)
    # the workloads: solver = solve_grid + reconcile (226), states = wide_sector + verify (161)
    assert {part: tally["certified"] for part, tally in tallies.items()} == {
        "solve_grid": 77, "reconcile": 149, "wide_sector": 91, "verify": 70}
    assert tallies["reconcile"]["levels"] == 155


def test_benchmark_self_tests_read_the_solver_settings(monkeypatch):
    # the benchmark's own tests are not part of this suite, yet they read
    # SolverOptions.n_random and random_scale and call the one-row Newton wrappers
    from xxxchain.solver import BetheSystem, SolverOptions
    from xxxchain.su2 import Spin

    monkeypatch.setattr(sys, "path", list(sys.path))  # the module prepends its own paths
    selftests = load_module("perfbench_self_tests", PERFBENCH_TESTS)
    outcomes = selftests._outcomes(BetheSystem(Spin(1), 4, 2), SolverOptions(seed=0))
    assert len(outcomes) == 77
    assert ("NewtonFailureError", "stalled") in {o[:2] for o in outcomes if isinstance(o, tuple)}
    selftests.test_wrapper_reraises_newton_failures_unchanged()


def _python310():
    """A Python 3.10 interpreter from PATH or pyenv, or None."""
    candidates = [shutil.which("python3.10"),
                  *sorted(glob.glob(os.path.expanduser("~/.pyenv/versions/3.10.*/bin/python3.10")))]
    for exe in filter(None, candidates):
        try:
            proc = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2] == (3, 10))"],
                                  capture_output=True, text=True, timeout=60)
        except OSError:
            continue
        if proc.stdout.strip() == "True":
            return exe
    return None


def test_package_compiles_on_python_310(tmp_path):
    # pyproject.toml declares requires-python >= 3.10
    exe = _python310()
    if exe is None:
        pytest.skip("no Python 3.10 interpreter found")
    sources = sorted(PACKAGE.glob("*.py"))
    code = ("import py_compile, sys\n"
            "for src, out in zip(sys.argv[1::2], sys.argv[2::2]):\n"
            "    py_compile.compile(src, cfile=out, doraise=True)\n")
    args = [arg for i, src in enumerate(sources) for arg in (str(src), str(tmp_path / f"{i}.pyc"))]
    proc = subprocess.run([exe, "-c", code, *args], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_package_and_cli_run_without_scipy():
    # the runtime depends on NumPy only; SciPy is a benchmark extra
    code = ("import contextlib, io, sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "import xxxchain, xxxchain.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = xxxchain.cli.main(['beta', '--spin', '1'])\n"
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(PACKAGE.parent)],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "[]"]
