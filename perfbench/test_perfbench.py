"""Self-tests of the benchmark: tracing is transparent, and the metric names the
command emits are exactly those of BENCHMARK.json.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from xxxchain import SolverOptions, Spin, solver  # noqa: E402
from xxxchain.errors import NewtonFailureError  # noqa: E402
from xxxchain.solver import BetheSystem, DeflationRegistry  # noqa: E402
from xxxchain.hamiltonian import ChainHamiltonian  # noqa: E402

from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _certs(certs):
    return [(c.to_json(), c.state.vector.tobytes()) for c in certs]


def test_traced_solve_sector_returns_identical_certificates():
    opts = SolverOptions(seed=0)
    untraced = solver.solve_sector(Spin(1), 4, 2, opts)
    original = solver.solve_sector
    with Tracer() as tracer:
        traced = solver.solve_sector(Spin(1), 4, 2, opts)
        assert solver.solve_sector is not original
    assert solver.solve_sector is original
    assert traced and _certs(traced) == _certs(untraced)
    calls, incl, _ = tracer.layer_totals()
    assert calls["solver.sector"] == 1 and calls["solver.newton"] > 0


def _outcomes(system, opts):
    """Outcome of every seed of every strategy, in solve_sector's order."""
    ham = ChainHamiltonian(system.spin, system.length)
    registry = DeflationRegistry()
    rng = np.random.default_rng(opts.seed)
    out = []
    for strategy in opts.strategies:
        for seed in solver.seed_catalog(system, strategy, rng=rng, n_random=opts.n_random,
                                        random_scale=opts.random_scale):
            try:
                cert = solver.solve_newton(system, seed, opts, ham, registry)
                out.append(cert.to_json())
            except NewtonFailureError as exc:
                out.append((type(exc).__name__, exc.reason, str(exc)))
    return out


def test_traced_newton_failures_keep_their_reasons():
    system = BetheSystem(Spin(1), 4, 2)
    opts = SolverOptions(seed=0)
    untraced = _outcomes(system, opts)
    with Tracer() as tracer:
        traced = _outcomes(system, opts)
    assert traced == untraced
    reasons = {o[1] for o in untraced if isinstance(o, tuple)}
    assert "stalled" in reasons  # the comparison covers failing seeds
    assert sum(tracer.counts[k] for k in tracer.counts if k.startswith("solver.fail.")) == \
        sum(1 for o in untraced if isinstance(o, tuple))


def test_wrapper_reraises_newton_failures_unchanged():
    system = BetheSystem(Spin(1), 4, 2)
    with pytest.raises(NewtonFailureError) as plain:
        solver.newton_solve(system, np.array([0.3, 0.3001]), max_iter=0)
    with Tracer():
        with pytest.raises(NewtonFailureError) as traced:
            solver.newton_solve(system, np.array([0.3, 0.3001]), max_iter=0)
    assert type(traced.value) is type(plain.value)
    assert traced.value.reason == plain.value.reason


def _run(args, cwd):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emitted_metrics_match_benchmark_json(trace, section):
    proc = _run(["--workload", "states", "--seed", "3", "--seconds", "1",
                 "--trace", str(trace)], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    record = json.loads(next(l for l in lines if l.startswith("record: "))[len("record: "):])
    assert set(record["metrics"]) == set(spec)
    assert all(m["samples"] >= 1 for m in record["metrics"].values())
    assert record["seed"] == 3 and record["openblas_num_threads"] == "1"


def test_every_listed_workload_is_implemented():
    import run
    from workloads import PARTS

    assert list(run.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert sorted(p for parts in run.WORKLOADS.values() for p in parts) == sorted(PARTS)


def test_readme_maps_every_per_layer_metric():
    readme = (HERE / "README.md").read_text()
    missing = [m["name"] for m in SPEC["per_layer"] if f"`{m['name']}`" not in readme]
    assert not missing


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(["--workload", "states", "--seed", "1", "--seconds", "1", "--trace", "0"],
                tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
