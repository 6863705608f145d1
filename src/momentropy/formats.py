"""On-disk formats: matrix JSON, problem files, density/trace CSV, reports.

Every float is written with 17 significant digits ("%.17g"), which round-trips
IEEE doubles bit-exactly, and the JSON writer emits keys in insertion order
with fixed separators — so identical data always serialises to identical
bytes.

Matrix JSON:      {"rows": n, "cols": m, "data": [[re, im], ...]}  (row-major)
Problem JSON:     {"grid": {...}, "kernels": {...}, "moment": <matrix>}
                  kernels carry either {"mode": "builtin", "name": ..., ...}
                  or {"mode": "samples", "left": [...], "right": [...]}
Density CSV:      one row per node: support coordinates, then the density
                  entries as re/im column pairs in row-major order
Trace CSV:        header t,V,min_eig,lambda_norm then one row per step
Report JSON:      status / lambda / V_final / entropy / fitted_V_slope /
                  iterations, plus diagnostic entries documented in
                  :class:`momentropy.solver.SolveReport`
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .calculus import as_hermitian
from .grid import SupportGrid, build_grid, discrete_grid
from .operator import MomentOperator, build_operator, kernel_samples
from . import problems as _problems

_BUILTIN_KERNELS = ("nonequispaced-array", "grid2d", "partial-trace", "statecov", "identity")


# ---------------------------------------------------------------------------
# deterministic JSON emission

def format_float(x: float) -> str:
    """Decimal form with 17 significant digits; round-trips doubles exactly."""
    if not math.isfinite(x):
        raise ValueError(f"cannot serialise non-finite float {x!r}")
    return "%.17g" % float(x)


def dumps_canonical(obj) -> str:
    """Deterministic JSON text: fixed separators, floats via %.17g."""
    pieces: list[str] = []
    _emit(obj, pieces)
    return "".join(pieces)


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (key, val) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            _emit(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, val in enumerate(obj):
            if i:
                out.append(", ")
            _emit(val, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")


# ---------------------------------------------------------------------------
# matrices

def matrix_to_obj(matrix: np.ndarray) -> dict:
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2:
        raise ValueError("matrix JSON holds 2-d matrices")
    data = [[float(v.real), float(v.imag)] for v in m.ravel()]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_obj(obj: dict) -> np.ndarray:
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError) as exc:
        raise ValueError("malformed matrix object: needs rows/cols/data") from exc
    if len(data) != rows * cols:
        raise ValueError(
            "matrix data length %d does not match %d x %d" % (len(data), rows, cols)
        )
    flat = np.array([complex(re, im) for re, im in data])
    if not np.all(np.isfinite(flat)):
        raise ValueError("matrix data holds non-finite entries")
    return flat.reshape(rows, cols)


# ---------------------------------------------------------------------------
# density and trace CSV

def write_density_csv(path: str, density: np.ndarray, grid: SupportGrid) -> None:
    rho = np.asarray(density, dtype=complex)
    if rho.ndim != 3 or rho.shape[0] != grid.node_count:
        raise ValueError("density must have shape (node_count, m, m)")
    lines = []
    for i in range(grid.node_count):
        cells = [format_float(c) for c in grid.nodes[i]]
        for v in rho[i].ravel():
            cells.append(format_float(float(v.real)))
            cells.append(format_float(float(v.imag)))
        lines.append(",".join(cells))
    _write_text(path, "\n".join(lines) + "\n")


def read_density_csv(path: str, grid: SupportGrid) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if len(rows) != grid.node_count:
        raise ValueError(
            "density file has %d rows but the grid has %d nodes" % (len(rows), grid.node_count)
        )
    k = grid.nodes.shape[1]
    parsed = [list(map(float, row.split(","))) for row in rows]
    width = len(parsed[0])
    if any(len(row) != width for row in parsed):
        raise ValueError("density file has ragged rows")
    pair_count = width - k
    if pair_count <= 0 or pair_count % 2:
        raise ValueError("density file width does not decompose into coordinates + re/im pairs")
    m = math.isqrt(pair_count // 2)
    if 2 * m * m != pair_count:
        raise ValueError("density entries do not form square matrices")
    arr = np.array(parsed)
    if not np.all(np.isfinite(arr)):
        raise ValueError("density file holds non-finite entries")
    if not np.allclose(arr[:, :k], grid.nodes, rtol=0.0, atol=1e-9):
        raise ValueError("density file coordinates do not match the grid")
    complex_entries = arr[:, k::2] + 1j * arr[:, k + 1::2]
    return as_hermitian(complex_entries.reshape(grid.node_count, m, m))


def write_trace_csv(path: str, trace: list[tuple[float, float, float, float]]) -> None:
    lines = ["t,V,min_eig,lambda_norm"]
    for t, v, min_eig, lam_norm in trace:
        lines.append(",".join(format_float(x) for x in (t, v, min_eig, lam_norm)))
    _write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# problem files

@dataclass(frozen=True, eq=False)
class LoadedProblem:
    """A problem file materialised into an operator plus its target moment."""

    operator: MomentOperator
    moment: np.ndarray
    rho_true_path: str | None = None


def grid_to_obj(grid: SupportGrid) -> dict:
    if grid.kind == "discrete":
        return {"kind": "discrete", "count": grid.node_count}
    if grid.panels is None or grid.order is None:
        raise ValueError("only panelised or discrete grids can be serialised")
    if grid.kind == "interval1d":
        bounds = [grid.bounds[0], grid.bounds[1]]
    else:
        bounds = [[grid.bounds[0][0], grid.bounds[0][1]], [grid.bounds[1][0], grid.bounds[1][1]]]
    return {"kind": grid.kind, "bounds": bounds, "panels": grid.panels, "order": grid.order}


def grid_from_obj(obj: dict) -> SupportGrid:
    kind = obj.get("kind")
    if kind == "discrete":
        return discrete_grid(int(obj["count"]))
    if kind == "interval1d":
        lo, hi = obj["bounds"]
        return build_grid("interval1d", (float(lo), float(hi)),
                          panels=int(obj.get("panels", 32)), order=int(obj.get("order", 5)))
    if kind == "rectangle2d":
        (a, b), (c, d) = obj["bounds"]
        return build_grid("rectangle2d", ((float(a), float(b)), (float(c), float(d))),
                          panels=int(obj.get("panels", 32)), order=int(obj.get("order", 5)))
    raise ValueError(f"unknown grid kind {kind!r}")


def problem_to_obj(grid: SupportGrid, kernels_obj: dict, moment: np.ndarray,
                   rho_true: str | None = None) -> dict:
    obj = {"grid": grid_to_obj(grid), "kernels": kernels_obj, "moment": matrix_to_obj(moment)}
    if rho_true is not None:
        obj["rho_true"] = rho_true
    return obj


def samples_kernels_obj(op: MomentOperator) -> dict:
    return {
        "mode": "samples",
        "left": [matrix_to_obj(op.kernels.left[i]) for i in range(op.node_count)],
        "right": [matrix_to_obj(op.kernels.right[i]) for i in range(op.node_count)],
    }


def write_problem(path: str, obj: dict) -> None:
    _write_text(path, dumps_canonical(obj) + "\n")


def load_problem(path: str) -> LoadedProblem:
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    for key in ("grid", "kernels", "moment"):
        if key not in raw:
            raise ValueError(f"problem file is missing the {key!r} entry")
    grid = grid_from_obj(raw["grid"])
    op = _build_kernels(grid, raw["kernels"])
    moment = matrix_from_obj(raw["moment"])
    if moment.shape != (op.n_left, op.n_right):
        raise ValueError(
            "moment shape %s does not match kernels %s"
            % (moment.shape, (op.n_left, op.n_right))
        )
    rho_true = raw.get("rho_true")
    if rho_true is not None:
        # relative references live next to the problem file itself
        rho_true = Path(path).parent / rho_true
    return LoadedProblem(op, moment, rho_true)


def _build_kernels(grid: SupportGrid, obj: dict) -> MomentOperator:
    mode = obj.get("mode")
    if mode == "samples":
        left = np.stack([matrix_from_obj(o) for o in obj["left"]])
        right = np.stack([matrix_from_obj(o) for o in obj["right"]])
        return build_operator(grid, kernel_samples(left, right))
    if mode != "builtin":
        raise ValueError(f"kernel mode must be 'samples' or 'builtin', not {mode!r}")
    name = obj.get("name")
    if name == "nonequispaced-array":
        return _problems.nonequispaced_array_problem(
            positions=obj.get("positions", _problems.DEFAULT_ARRAY_POSITIONS),
            wavenumber=float(obj.get("wavenumber", 1.0)), grid=grid,
        )
    if name == "grid2d":
        return _problems.grid2d_problem(int(obj["n"]), grid=grid)
    if name == "partial-trace":
        op = _problems.partial_trace_problem(int(obj["dim_keep"]), int(obj["dim_trace"]))
        if op.node_count != grid.node_count:
            raise ValueError("discrete grid count disagrees with the traced dimension")
        return op
    if name == "statecov":
        c_o = matrix_from_obj(obj["C_o"]) if obj.get("C_o") is not None else None
        model = _problems.state_space_model(
            matrix_from_obj(obj["A"]), matrix_from_obj(obj["B"]), c_o
        )
        return _problems.state_covariance_problem(model, grid=grid)
    if name == "identity":
        m = int(obj.get("m", 1))
        eye = np.broadcast_to(np.eye(m, dtype=complex), (grid.node_count, m, m)).copy()
        return build_operator(grid, kernel_samples(eye, eye))
    raise ValueError(f"unknown builtin kernel {name!r}; expected one of {_BUILTIN_KERNELS}")


def report_to_obj(report, family_name: str) -> dict:
    """Report JSON object; None and non-finite entries serialise as null."""
    return {
        "status": report.status,
        "lambda": matrix_to_obj(report.lambda_hat.matrix),
        "V_final": _nullable(report.V_final),
        "entropy": _nullable(report.entropy_value),
        "fitted_V_slope": _nullable(report.fitted_V_slope),
        "iterations": report.iterations,
        "family": family_name,
        "entropy_burg": _nullable(report.entropy_burg),
        "entropy_vonneumann": _nullable(report.entropy_vonneumann),
        "pairing": _nullable(report.pairing_value),
        "message": report.message,
    }


def _nullable(x) -> float | None:
    if x is None or not math.isfinite(x):
        return None
    return float(x)


def write_report(path: str, report, family_name: str) -> None:
    _write_text(path, dumps_canonical(report_to_obj(report, family_name)) + "\n")


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
