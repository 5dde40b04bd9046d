"""Per-layer timing for the traced run, from the benchmark's side only.

The tracer replaces each layer's public function in the namespace its caller
looks it up in (``fgplate.cases`` for the case runner, ``fgplate.config`` for
the section, ``fgplate.postprocess`` for point location) with a timing
wrapper, and restores the originals afterwards. Spans nest, so a function's
self time is its duration minus the time of the traced calls inside it.
Counts and residuals are taken from the arguments and results of those
calls; the time spent computing them is kept out of every span's self time.
"""
from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import numpy as np
from scipy import sparse

TIMED = (
    "materials.section_constants",
    "nurbs.build_patch",
    "assembly.assemble",
    "assembly.apply_boundary_conditions",
    "solvers.solve_static",
    "solvers.solve_vibration",
    "solvers.solve_buckling",
    "nurbs.locate_point",
    "postprocess.field_at",
    "postprocess.stress_profile",
    "postprocess.nondimensionalize",
    "cases.run_case",
)
MEANS = ("assembly.quad_points", "assembly.dofs_free", "assembly.dofs_fixed",
         "assembly.matrix_bytes", "assembly.nnz_share")
MAXIMA = ("solvers.static_residual_max", "solvers.eigen_residual_max")


def _nbytes(matrix) -> int:
    if matrix is None:
        return 0
    if sparse.issparse(matrix):
        matrix = sparse.csr_array(matrix)
        return matrix.data.nbytes + matrix.indices.nbytes + matrix.indptr.nbytes
    return np.asarray(matrix).nbytes


def _nnz_share(matrix) -> float:
    if sparse.issparse(matrix):
        return matrix.count_nonzero() / max(matrix.nnz, 1)
    return np.count_nonzero(matrix) / matrix.size


def _matvec_longdouble(matrix, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.longdouble)
    if sparse.issparse(matrix):
        return sparse.csr_array(matrix).astype(np.longdouble) @ x
    rows = range(0, matrix.shape[0], 256)
    return np.concatenate([np.asarray(matrix[i:i + 256], dtype=np.longdouble) @ x for i in rows])


class Tracer:
    """Collects call counts, inclusive and child time per traced function."""

    def __init__(self, fg):
        self.fg = fg
        self.calls = defaultdict(int)
        self.failed = defaultdict(int)
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.samples = defaultdict(list)
        self._stack: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        fg = self.fg
        cases, post = fg.cases, fg.postprocess
        targets = (
            ("materials.section_constants", [(fg.config, "section_constants")], None),
            ("nurbs.build_patch", [(fg.config.CaseConfig, "build_patch")], None),
            ("assembly.assemble", [(cases, "assemble")], self._after_assemble),
            ("assembly.apply_boundary_conditions", [(cases, "apply_boundary_conditions")],
             self._after_constraints),
            ("solvers.solve_static", [(cases, "solve_static")], self._after_static),
            ("solvers.solve_vibration", [(cases, "solve_vibration")], self._after_eigen),
            ("solvers.solve_buckling", [(cases, "solve_buckling")], self._after_eigen),
            ("nurbs.locate_point", [(post, "locate_point")], None),
            ("postprocess.field_at", [(cases, "field_at"), (post, "field_at")], None),
            ("postprocess.stress_profile", [(cases, "stress_profile"), (post, "stress_profile")],
             None),
            ("postprocess.nondimensionalize", [(cases, "nondimensionalize")], None),
            ("cases.run_case", [(cases, "run_case")], None),
        )
        for name, owners, after in targets:
            original = getattr(*owners[0])
            wrapper = self._wrap(name, original, after)
            for owner, attr in owners:
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn, after):
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self._close(name, start, children)
                self.failed[name] += 1
                raise
            self._close(name, start, children)
            if after is not None:
                begin = perf_counter()
                after(name, args, result)
                if self._stack:
                    self._stack[-1][0] += perf_counter() - begin
            return result

        return traced

    def _close(self, name, start, children) -> None:
        elapsed = perf_counter() - start
        self._stack.pop()
        self.calls[name] += 1
        self.total[name] += elapsed
        self.child[name] += children[0]
        if self._stack:
            self._stack[-1][0] += elapsed

    def _after_assemble(self, name, args, system) -> None:
        patch = args[0].patch
        pu, pv = patch.degrees
        # the (p+1) x (q+1) Gauss rule per element that assemble integrates K with
        self.samples["assembly.quad_points"].append(len(patch.elements()) * (pu + 1) * (pv + 1))
        self.samples["assembly.matrix_bytes"].append(
            sum(_nbytes(getattr(system, key)) for key in ("K", "M", "Kg", "F")))
        self.samples["assembly.nnz_share"].append(_nnz_share(system.K))

    def _after_constraints(self, name, args, system) -> None:
        fixed = len(system.fixed_dofs)
        self.samples["assembly.dofs_fixed"].append(fixed)
        self.samples["assembly.dofs_free"].append(system.n_dofs - fixed)

    def _after_static(self, name, args, q) -> None:
        system = args[0]
        free = system.free_dofs
        f = np.asarray(system.F[free], dtype=np.longdouble)
        residual = f - _matvec_longdouble(system.reduce(system.K), q[free])
        ratio = np.linalg.norm(residual.astype(float)) / np.linalg.norm(f.astype(float))
        self.samples["solvers.static_residual_max"].append(float(ratio))

    def _after_eigen(self, name, args, eigen) -> None:
        """max over modes of |K v - lambda B v| / |K v|; B is M for vibration
        and the buckling operator (either sign of Kg) for buckling."""
        system = args[0]
        K = system.reduce(system.K)
        V, lam = eigen.vectors, eigen.values
        KV = K @ V
        if name == "solvers.solve_vibration":
            operators = [system.reduce(system.M)]
        else:
            Kg = system.reduce(system.Kg)
            operators = [-Kg, Kg]
        norms = np.linalg.norm(KV, axis=0)
        worst = min(float(np.max(np.linalg.norm(KV - (B @ V) * lam, axis=0) / norms))
                    for B in operators)
        self.samples["solvers.eigen_residual_max"].append(worst)

    def metrics(self, ops: int) -> dict:
        """Per-layer metrics: mean seconds per call, self time of run_case,
        mean counts per assemble/constraint call, worst residuals, and point
        location calls and failures per op."""
        out = {}
        for name in TIMED:
            calls = self.calls[name]
            out[f"{name}.s"] = (self.total[name] / calls if calls else 0.0, "s")
        calls = self.calls["cases.run_case"]
        self_s = self.total["cases.run_case"] - self.child["cases.run_case"]
        out["cases.run_case.self_s"] = (self_s / calls if calls else 0.0, "s")
        units = {"assembly.matrix_bytes": "bytes", "assembly.nnz_share": "1"}
        for name in MEANS:
            values = self.samples[name]
            out[name] = (float(np.mean(values)) if values else 0.0, units.get(name, "count"))
        for name in MAXIMA:
            values = self.samples[name]
            out[name] = (float(max(values)) if values else 0.0, "1")
        out["nurbs.locate_point.calls"] = (self.calls["nurbs.locate_point"] / ops, "1/op")
        out["nurbs.locate_point.failed"] = (self.failed["nurbs.locate_point"] / ops, "1/op")
        return out
