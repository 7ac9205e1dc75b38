"""Span tracer that wraps xxxchain's public functions from the outside.

Each wrapper replaces the function object wherever the package binds it: the
defining module, every `xxxchain.*` module that imported it by name, and the
class for methods.  Calls pass through unchanged (same arguments, same return
value, same exception object re-raised), so a traced run computes exactly what
an untraced one does; the self-test in `test_perfbench.py` holds it to that.

Spans are kept in memory as ``[layer, start, end, parent]`` and written out
once, when the pass ends.  Per-layer times are computed from them:

- ``<layer>_s``: inclusive time of the layer's outermost spans (a span nested
  inside a span of the same layer is not counted twice);
- ``<layer>_calls``: number of those outermost spans;
- self time: a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import math
import sys
import time
from collections import Counter, defaultdict

FAIL_REASONS = ("stalled", "max-iter", "degenerate", "singular", "duplicate")


class Tracer:
    """Installs wrappers, records spans and boundary counts, and turns them
    into the per-layer metrics listed in BENCHMARK.json."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._restore = []
        self._seen = set()
        self._keep = []

    # -- recording -------------------------------------------------------

    def wrap(self, layer, fn, on_result=None, on_error=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            span[2] = clock()
            stack.pop()
            if on_result is not None:
                on_result(result, args)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", layer)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _first_seen(self, obj) -> bool:
        # cached objects (sector bases, sector matrices) count once; holding a
        # reference keeps their ids from being reused during the pass
        if id(obj) in self._seen:
            return False
        self._seen.add(id(obj))
        self._keep.append(obj)
        return True

    def _patch_function(self, module, name, layer, **hooks):
        orig = getattr(module, name)
        traced = self.wrap(layer, orig, **hooks)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "xxxchain" or mod_name.startswith("xxxchain.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, traced)
                    self._restore.append((mod, attr, orig))

    def _patch_method(self, cls, name, layer, **hooks):
        orig = cls.__dict__[name]
        setattr(cls, name, self.wrap(layer, orig, **hooks))
        self._restore.append((cls, name, orig))

    def install(self):
        """Wrap the public functions of every module the workloads reach."""
        import xxxchain  # noqa: F401  (binds the package namespace)
        from xxxchain import bethe, cli, hamiltonian, hilbert, solver, su2, suite, verify
        from xxxchain.errors import NewtonFailureError

        counts = self.counts

        def on_seeds(result, args):
            counts["solver.seeds"] += len(result)

        def on_newton(result, args):
            counts["solver.newton_iters"] += int(result[1])

        def on_attempt_error(exc):
            if isinstance(exc, NewtonFailureError):
                reason = exc.reason if exc.reason in FAIL_REASONS else "other"
                counts[f"solver.fail.{reason}"] += 1

        def on_sector(result, args):
            counts["solver.certified"] += len(result)

        def on_build(result, args):
            m = result.m
            counts["bethe.build_terms"] += len(result.vector) * math.factorial(m) * m

        def on_basis(result, args):
            if self._first_seen(result):
                counts["hilbert.basis_states"] += len(result)

        def on_sector_matrix(result, args):
            if self._first_seen(result):
                counts["hamiltonian.sector_matrix_nnz"] += int(result.nnz)

        def on_run_all(result, args):
            counts["suite.checks"] += len(result)
            counts["suite.checks_failed"] += sum(1 for check in result if not check[1])

        patch = self._patch_function
        patch(solver, "solve_sector", "solver.sector", on_result=on_sector)
        patch(solver, "seed_catalog", "solver.seed_catalog", on_result=on_seeds)
        patch(solver, "solve_newton", "solver.attempt", on_error=on_attempt_error)
        patch(solver, "newton_solve", "solver.newton", on_result=on_newton)
        patch(solver, "scaled_residual", "solver.residual")
        patch(solver, "bethe_residual", "solver.residual")
        patch(solver, "jacobian", "solver.jacobian")
        patch(bethe, "build_bethe_state", "bethe.build", on_result=on_build)
        patch(hilbert, "sector_basis", "hilbert.sector_basis", on_result=on_basis)
        patch(hilbert, "sector_s_plus", "hilbert.ladder")
        patch(hilbert, "sector_s_minus", "hilbert.ladder")
        patch(hilbert, "embed_sector_vector", "hilbert.embed")
        patch(hamiltonian, "build_beta_table", "hamiltonian.beta_table")
        patch(su2, "apply_bond_matrix", "su2.bond_apply")
        patch(verify, "sector_eigh", "verify.eigh")
        patch(verify, "exact_diagonalize", "verify.exact_diagonalize")
        patch(verify, "reconcile_spectrum", "verify.reconcile")
        patch(verify, "eigen_residual", "verify.eigen_residual")
        patch(verify, "highest_weight_residual", "verify.hw_residual")
        patch(suite, "run_all", "suite.run_all", on_result=on_run_all)
        patch(suite, "chain_checks_at", "suite.chain_checks")
        patch(cli, "main", "cli.main")
        self._patch_method(hamiltonian.ChainHamiltonian, "sector_matrix",
                           "hamiltonian.sector_matrix", on_result=on_sector_matrix)
        self._patch_method(hamiltonian.ChainHamiltonian, "apply", "hamiltonian.apply")
        self._patch_method(su2.SiteSumOperator, "apply", "su2.generator_apply")
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()
        return False

    # -- reduction -------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent"], "spans": self.spans,
                       "counts": dict(self.counts)}, fh)

    def layer_totals(self):
        """(calls, inclusive seconds, self seconds) per layer."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_time[parent] += end - start
        calls, incl, self_s = Counter(), defaultdict(float), defaultdict(float)
        for i, (name, start, end, parent) in enumerate(spans):
            self_s[name] += (end - start) - child_time[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                calls[name] += 1
                incl[name] += end - start
        return calls, incl, self_s

    def layer_metrics(self, numpy_warnings: int) -> dict:
        calls, incl, self_s = self.layer_totals()
        c = self.counts
        return {
            "solver.sector_s": incl["solver.sector"],
            "solver.seed_catalog_s": incl["solver.seed_catalog"],
            "solver.seeds": c["solver.seeds"],
            "solver.newton_runs": calls["solver.newton"],
            "solver.newton_iters": c["solver.newton_iters"],
            "solver.newton_s": incl["solver.newton"],
            "solver.residual_calls": calls["solver.residual"],
            "solver.residual_s": incl["solver.residual"],
            "solver.jacobian_calls": calls["solver.jacobian"],
            "solver.jacobian_s": incl["solver.jacobian"],
            **{f"solver.fail.{r}": c[f"solver.fail.{r}"] for r in FAIL_REASONS},
            "solver.fail.other": c["solver.fail.other"],
            "solver.certified": c["solver.certified"],
            "solver.numpy_warnings": numpy_warnings,
            "bethe.build_calls": calls["bethe.build"],
            "bethe.build_s": incl["bethe.build"],
            "bethe.build_terms": c["bethe.build_terms"],
            "hilbert.ladder_calls": calls["hilbert.ladder"],
            "hilbert.ladder_s": incl["hilbert.ladder"],
            "hilbert.sector_basis_s": incl["hilbert.sector_basis"],
            "hilbert.basis_states": c["hilbert.basis_states"],
            "hilbert.embed_s": incl["hilbert.embed"],
            "verify.hw_residual_s": incl["verify.hw_residual"],
            "verify.eigen_residual_s": incl["verify.eigen_residual"],
            "verify.eigh_calls": calls["verify.eigh"],
            "verify.eigh_s": incl["verify.eigh"],
            "verify.reconcile_self_s": self_s["verify.reconcile"],
            "hamiltonian.sector_matrix_calls": calls["hamiltonian.sector_matrix"],
            "hamiltonian.sector_matrix_s": incl["hamiltonian.sector_matrix"],
            "hamiltonian.sector_matrix_nnz": c["hamiltonian.sector_matrix_nnz"],
            "hamiltonian.apply_calls": calls["hamiltonian.apply"],
            "hamiltonian.apply_s": incl["hamiltonian.apply"],
            "hamiltonian.beta_table_s": incl["hamiltonian.beta_table"],
            "su2.generator_apply_s": incl["su2.generator_apply"],
            "su2.bond_apply_s": incl["su2.bond_apply"],
            "suite.checks": c["suite.checks"],
            "suite.checks_failed": c["suite.checks_failed"],
            "suite.run_all_s": incl["suite.run_all"],
            "suite.chain_checks_s": incl["suite.chain_checks"],
            "cli.main_s": incl["cli.main"],
            "cli.self_s": self_s["cli.main"],
        }
