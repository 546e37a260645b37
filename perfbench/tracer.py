"""Spans and counters recorded around polylayer's layers, from outside it.

``install`` wraps every public module-level function of the polylayer
package, in every polylayer namespace that holds a reference to it (the
modules use ``from ..mesh2d import mesh_lshape``-style imports, and
``cli.run`` imports from ``polylayer.analysis`` at call time).  It also
times the scipy boundary the eigensolver crosses: ``splu`` (factorize), the
``solve`` of the factor it returns (inner solves) and ``eigsh`` (ARPACK).

A span is ``[name, start, end, parent_index]``; spans are kept in memory and
written out by the caller when the repetition ends.  ``layer_metrics`` turns
one repetition's spans and counters into the per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

# polylayer modules whose public functions are wrapped, with the prefix
# their span names carry
MODULES = {
    "polylayer.geometry": "geometry",
    "polylayer.mesh2d": "mesh2d",
    "polylayer.grid3d": "grid3d",
    "polylayer.assembly": "assembly",
    "polylayer.eigensolve": "eigensolve",
    "polylayer.extrapolate": "extrapolate",
    "polylayer.report": "report",
    "polylayer.cli": "cli",
    "polylayer.analysis.waveguide": "analysis.waveguide",
    "polylayer.analysis.scans": "analysis.scans",
    "polylayer.analysis.certificates": "analysis.certificates",
    "polylayer.analysis.hardy": "analysis.hardy",
    "polylayer.analysis.weyl": "analysis.weyl",
}

# private functions that mark a stage boundary: span name by (module, name)
PRIVATE = {("polylayer.eigensolve", "_verify"): "eigensolve.verify"}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self._stack = []

    def wrap(self, name, fn, observe=None):
        """``fn`` recording one span per call; ``observe(counters, args,
        kwargs, result)`` runs after the span closes."""
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counters, args, kwargs, out)
            return out

        return traced


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_eigensolve(c, args, kwargs, res):
    n = _arg(args, kwargs, 0, "problem").n
    c["eigensolve.dofs_total"] += n
    c["eigensolve.dofs_max"] = max(c["eigensolve.dofs_max"], n)
    c["eigensolve.inner_solve.calls"] += res.iterations


def _count_nodes(c, args, kwargs, mesh):
    c["mesh2d.nodes_total"] += mesh.num_nodes


def _count_points(c, args, kwargs, out):
    c["mesh2d.evaluate_batch.points"] += len(_arg(args, kwargs, 2, "points"))


def _count_cells(c, args, kwargs, grid):
    c["grid3d.active_cells"] += grid.num_active_cells


def _count_nnz(c, args, kwargs, problem):
    # stored upper triangles: reading ``.full`` would build the mirrored
    # matrices here instead of where the program builds them
    c["assembly.nnz_total"] += problem.K.upper.nnz + problem.M.upper.nnz


def _count_bytes(c, args, kwargs, out):
    c["report.bytes_written"] += len(_arg(args, kwargs, 1, "data"))


def _count_lu(c, args, kwargs, lu):
    # SuperLU's own count; reading .L/.U would copy the factors
    c["eigensolve.factorize.lu_nnz"] = max(c["eigensolve.factorize.lu_nnz"], lu.nnz)


OBSERVERS = {
    "eigensolve.smallest_eigenpairs": _count_eigensolve,
    "mesh2d.mesh_lshape": _count_nodes,
    "mesh2d.refine": _count_nodes,
    "mesh2d.evaluate_batch": _count_points,
    "grid3d.voxelize": _count_cells,
    "assembly.assemble_p1": _count_nnz,
    "assembly.assemble_q1": _count_nnz,
    "report.write_atomic": _count_bytes,
}


class _TimedLU:
    """SuperLU factor whose ``solve`` records an inner-solve span."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, name):
        return getattr(self._lu, name)


def install(tracer: Tracer) -> None:
    """Wrap polylayer's functions and the scipy calls its eigensolver makes.

    Call after polylayer's modules are imported and before any work runs.
    """
    import scipy.sparse.linalg as sla

    wrapped = {}  # id(original) -> wrapper
    for modname, prefix in MODULES.items():
        module = importlib.import_module(modname)
        for name, obj in list(vars(module).items()):
            if not inspect.isfunction(obj) or obj.__module__ != modname:
                continue
            span = PRIVATE.get((modname, name))
            if span is None:
                if name.startswith("_"):
                    continue
                span = f"{prefix}.{name}"
            wrapped[id(obj)] = tracer.wrap(span, obj, OBSERVERS.get(span))

    # rebind every reference held by a polylayer namespace
    for modname, module in list(sys.modules.items()):
        if modname != "polylayer" and not modname.startswith("polylayer."):
            continue
        for name, obj in list(vars(module).items()):
            hit = wrapped.get(id(obj))
            if hit is not None:
                setattr(module, name, hit)

    splu, eigsh = sla.splu, sla.eigsh

    def timed_splu(*args, **kwargs):
        lu = splu(*args, **kwargs)
        return _TimedLU(lu, tracer.wrap("eigensolve.inner_solve", lu.solve))

    sla.splu = tracer.wrap("eigensolve.factorize", timed_splu, _count_lu)
    sla.eigsh = tracer.wrap("eigensolve.arpack", eigsh)


# --- per-layer metrics --------------------------------------------------------

# name -> (unit, source); ``source`` is ("busy", span), ("self", span),
# ("calls", span) or ("counter", key).  Whether lower or higher is better
# is stated in BENCHMARK.json only.


def _time(kind, span):
    return ("s", (kind, span))


def _count(kind, key):
    return ("count", (kind, key))


PER_LAYER = {
    "eigensolve.factorize.busy_s": _time("busy", "eigensolve.factorize"),
    "eigensolve.factorize.lu_nnz": _count("counter", "eigensolve.factorize.lu_nnz"),
    "eigensolve.inner_solve.calls": _count("counter", "eigensolve.inner_solve.calls"),
    "eigensolve.inner_solve.busy_s": _time("busy", "eigensolve.inner_solve"),
    "eigensolve.arpack.self_s": _time("self", "eigensolve.arpack"),
    "eigensolve.verify.self_s": _time("self", "eigensolve.verify"),
    "eigensolve.calls": _count("calls", "eigensolve.smallest_eigenpairs"),
    "eigensolve.dofs_total": _count("counter", "eigensolve.dofs_total"),
    "eigensolve.dofs_max": _count("counter", "eigensolve.dofs_max"),
    "mesh2d.mesh_lshape.busy_s": _time("busy", "mesh2d.mesh_lshape"),
    "mesh2d.refine.busy_s": _time("busy", "mesh2d.refine"),
    "mesh2d.nodes_total": _count("counter", "mesh2d.nodes_total"),
    "mesh2d.segment_quadrature.calls": _count("calls", "mesh2d.segment_quadrature"),
    "mesh2d.segment_quadrature.busy_s": _time("busy", "mesh2d.segment_quadrature"),
    "mesh2d.evaluate_batch.calls": _count("calls", "mesh2d.evaluate_batch"),
    "mesh2d.evaluate_batch.points": _count("counter", "mesh2d.evaluate_batch.points"),
    "mesh2d.evaluate_batch.busy_s": _time("busy", "mesh2d.evaluate_batch"),
    "grid3d.voxelize.busy_s": _time("busy", "grid3d.voxelize"),
    "grid3d.active_cells": _count("counter", "grid3d.active_cells"),
    "assembly.assemble_p1.busy_s": _time("busy", "assembly.assemble_p1"),
    "assembly.assemble_q1.busy_s": _time("busy", "assembly.assemble_q1"),
    "assembly.nnz_total": _count("counter", "assembly.nnz_total"),
    "analysis.waveguide.lambda1_waveguide.calls":
        _count("calls", "analysis.waveguide.lambda1_waveguide"),
    "analysis.waveguide.solves": _count("calls", "analysis.waveguide.solve_waveguide_mode"),
    "analysis.certificates.veps_certificate.self_s":
        _time("self", "analysis.certificates.veps_certificate"),
    "analysis.weyl.weyl_residual.self_s": _time("self", "analysis.weyl.weyl_residual"),
    "report.write_bundle.busy_s": _time("busy", "report.write_bundle"),
    "report.bytes_written": _count("counter", "report.bytes_written"),
    "cli.run.self_s": _time("self", "cli.run"),
}


def span_table(spans):
    """Per span name: calls, busy (summed duration) and self time."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table = defaultdict(lambda: {"calls": 0, "busy": 0.0, "self": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["busy"] += end - start
        row["self"] += end - start - child_time[i]
    return table


def layer_metrics(spans, counters) -> dict:
    table = span_table(spans)
    out = {}
    for metric, (unit, (kind, key)) in PER_LAYER.items():
        if kind == "counter":
            value = float(counters.get(key, 0.0))
        else:
            value = float(table[key][kind]) if key in table else 0.0
        out[metric] = value
    return out
