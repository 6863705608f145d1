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
                  :class:`momentropy.solver.SolveReport`; ``certificate`` is
                  null unless the run found a separating dual point, then
                  {"dual": <matrix>, "margin", "node", "step"}

Built-in examples (:data:`EXAMPLES`) are builtin kernels objects read by the
same code as problem files, so an example and its problem file agree.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .calculus import _sampled_field, as_hermitian
from .grid import SupportGrid, build_grid, discrete_grid
from .operator import MomentOperator, apply_L, build_operator, kernel_samples
from . import problems as _problems


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
        flat = np.array([complex(re, im) for re, im in obj["data"]])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # overflow: a 400-digit int
        raise ValueError("malformed matrix object: needs rows/cols and [re, im] data") from exc
    _refuse_booleans([obj["data"]])
    rows, cols = _value(obj, "rows", "an integer"), _value(obj, "cols", "an integer")
    if flat.size != rows * cols:
        raise ValueError("matrix data length %d does not match %d x %d" % (flat.size, rows, cols))
    if not np.all(np.isfinite(flat)):
        raise ValueError("matrix data holds non-finite entries")
    return flat.reshape(rows, cols)


def _refuse_booleans(datas: list) -> None:
    """ValueError if the [re, im] pairs of any matrix data in ``datas`` hold
    JSON true or false, which complex() and numpy would read as 1 and 0; one
    pass over the entries, as numpy's dtype cannot tell [true, 0] from [1, 0]."""
    if bool in set(map(type, chain.from_iterable(chain.from_iterable(datas)))):
        raise ValueError("matrix data must be numbers, not true or false")


# ---------------------------------------------------------------------------
# density and trace CSV

# Rows formatted per write, which bounds the text held in memory at once.
_CSV_BLOCK_ROWS = 256


def write_density_csv(path: str, density: np.ndarray, grid: SupportGrid) -> None:
    rho = _sampled_field(density, "density", grid.node_count)
    # re/im pairs in row-major order are the complex entries' float view
    _write_table(path, np.hstack([grid.nodes, rho.reshape(grid.node_count, -1).view(float)]))


def read_density_csv(path: str, grid: SupportGrid) -> np.ndarray:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty file fails the row count
        arr = np.loadtxt(path, delimiter=",", ndmin=2, comments=None)
    if arr.shape[0] != grid.node_count:
        raise ValueError(
            "density file has %d rows but the grid has %d nodes" % (arr.shape[0], grid.node_count)
        )
    k = grid.nodes.shape[1]
    pair_count = arr.shape[1] - k
    if pair_count <= 0 or pair_count % 2:
        raise ValueError("density file width does not decompose into coordinates + re/im pairs")
    m = math.isqrt(pair_count // 2)
    if 2 * m * m != pair_count:
        raise ValueError("density entries do not form square matrices")
    if not np.all(np.isfinite(arr)):
        raise ValueError("density file holds non-finite entries")
    if not np.allclose(arr[:, :k], grid.nodes, rtol=0.0, atol=1e-9):
        raise ValueError("density file coordinates do not match the grid")
    complex_entries = arr[:, k::2] + 1j * arr[:, k + 1::2]
    return as_hermitian(complex_entries.reshape(grid.node_count, m, m))


def write_trace_csv(path: str, trace: list[tuple[float, float, float, float]]) -> None:
    _write_table(path, np.reshape(np.asarray(trace, dtype=float), (-1, 4)),
                 header="t,V,min_eig,lambda_norm")


def _write_table(path: str, table: np.ndarray, header: str | None = None) -> None:
    """CSV rows of ``table``, each float as format_float writes it.

    The bytes are those of ``np.savetxt(fmt="%.17g", delimiter=",")``, from
    one ``%``-format per block of rows in place of its loop over rows.
    """
    bad = table[~np.isfinite(table)]
    if bad.size:
        raise ValueError(f"cannot serialise non-finite float {float(bad[0])!r}")
    row_fmt = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(header + "\n")
        for start in range(0, table.shape[0], _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            fh.write((row_fmt * len(block)) % tuple(block.ravel().tolist()))


# ---------------------------------------------------------------------------
# problem files

@dataclass(frozen=True, eq=False)
class LoadedProblem:
    """A problem file materialised into an operator plus its target moment."""

    operator: MomentOperator
    moment: np.ndarray
    rho_true_path: Path | None = None


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
        return discrete_grid(_value(obj, "count", "an integer"))
    if kind not in ("interval1d", "rectangle2d"):
        raise ValueError(f"unknown grid kind {kind!r}")
    shape = (2,) if kind == "interval1d" else (2, 2)
    bounds = _numbers(obj, "bounds")
    if bounds.shape != shape:
        raise ValueError(f"{kind} bounds have shape {shape}, not {bounds.shape}")
    return build_grid(kind, bounds.tolist(), panels=_value(obj, "panels", "an integer", 32),
                      order=_value(obj, "order", "an integer", 5))


# JSON types of problem-file and config values, by the words an error gives them
_JSON_TYPES = {"an integer": int, "a number": (int, float), "a string": str,
               "true or false": bool, "a list": list}


def json_typed(value, kind: str, what: str):
    """``value`` if its JSON type is ``kind`` and, for a number, it is finite;
    else a ValueError naming ``what``."""
    expected = _JSON_TYPES[kind]
    # JSON true and false load as bool, which Python counts as an int too;
    # json.load reads NaN, Infinity and 1e400 as floats that are not finite,
    # and an integer of 400 digits as an int that no float holds
    if (not isinstance(value, expected) or isinstance(value, bool) and expected is not bool
            or kind == "a number" and not abs(value) <= sys.float_info.max):
        raise ValueError(f"{what} must be {kind}, not {value!r}")
    return value


def _value(obj: dict, key: str, kind: str, default=None):
    """``obj[key]`` of JSON type ``kind``, or ``default`` if given and the key is absent."""
    if default is not None and key not in obj:
        return default
    return json_typed(obj.get(key), kind, f"{key!r} in problem file")


def _numbers(obj: dict, key: str, default=None) -> np.ndarray:
    """``obj[key]``, nested JSON lists of numbers, as a float array."""
    entries = np.asarray(_value(obj, key, "a list", default), dtype=object)
    for entry in entries.flat:  # a ragged list leaves lists here
        json_typed(entry, "a number", f"{key!r} entry in problem file")
    return entries.astype(float)


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
    if not isinstance(raw, dict):
        raise ValueError("a problem file holds a JSON object")
    for key in ("grid", "kernels", "moment"):
        if not isinstance(raw.get(key), dict):
            raise ValueError(f"problem file needs a {key!r} object")
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
        rho_true = Path(path).parent / _value(raw, "rho_true", "a string")
    return LoadedProblem(op, moment, rho_true)


def _build_kernels(grid: SupportGrid, obj: dict) -> MomentOperator:
    mode = obj.get("mode")
    if mode == "samples":
        return build_operator(grid, kernel_samples(_matrix_stack(_value(obj, "left", "a list")),
                                                   _matrix_stack(_value(obj, "right", "a list"))))
    if mode != "builtin":
        raise ValueError(f"kernel mode must be 'samples' or 'builtin', not {mode!r}")
    name = obj.get("name")
    if not isinstance(name, str) or name not in _KERNEL_BUILDERS:
        raise ValueError(
            f"unknown builtin kernel {name!r}; expected one of {tuple(_KERNEL_BUILDERS)}"
        )
    op = _KERNEL_BUILDERS[name](grid, obj)
    if op.node_count != grid.node_count:  # partial-trace builds its own discrete grid
        raise ValueError("discrete grid count disagrees with the traced dimension")
    return op


def _matrix_stack(objs: list) -> np.ndarray:
    """Matrix objects of one shape as an (N, rows, cols) array, from one array
    conversion of all their data.  Anything else (a malformed object, data
    that are not all numbers, mixed shapes, non-finite entries) is read
    matrix by matrix with :func:`matrix_from_obj`, whose error it gives;
    true and false get the same error on both paths."""
    try:
        datas = [o["data"] for o in objs]
        data = np.array(datas)
        # with their types, as 2 and 2.0 are one element of a set
        shapes = {(o["rows"], o["cols"], type(o["rows"]), type(o["cols"])) for o in objs}
    except (KeyError, TypeError, ValueError):
        shapes = ()
    # numpy would read a string or None as a number where complex() refuses
    # it; such data convert to a string or object array and take the slow path
    if len(shapes) == 1 and data.dtype.kind in "biuf" and data.ndim == 3 and data.shape[2] == 2:
        (rows, cols, *types), = shapes
        if (types == [int, int] and rows > 0 and rows * cols == data.shape[1]
                and np.isfinite(data).all()):
            _refuse_booleans(datas)
            return data.astype(float).view(complex).reshape(len(objs), rows, cols)
    return np.stack([matrix_from_obj(o) for o in objs])


def _statecov_kernels(grid: SupportGrid, obj: dict) -> MomentOperator:
    c_o = matrix_from_obj(obj["C_o"]) if obj.get("C_o") is not None else None
    model = _problems.state_space_model(matrix_from_obj(obj["A"]), matrix_from_obj(obj["B"]), c_o)
    return _problems.state_covariance_problem(model, grid=grid)


def _identity_kernels(grid: SupportGrid, obj: dict) -> MomentOperator:
    m = _value(obj, "m", "an integer", 1)
    eye = np.broadcast_to(np.eye(m, dtype=complex), (grid.node_count, m, m))
    return build_operator(grid, kernel_samples(eye, eye))


# Builtin kernels objects by name, each read into an operator on the problem's
# grid.  Constructors are looked up on the problems module at call time, so
# that rebinding them there reaches every caller.
_KERNEL_BUILDERS = {
    "nonequispaced-array": lambda grid, obj: _problems.nonequispaced_array_problem(
        positions=_numbers(obj, "positions", _problems.DEFAULT_ARRAY_POSITIONS),
        wavenumber=float(_value(obj, "wavenumber", "a number", 1.0)), grid=grid),
    "grid2d": lambda grid, obj: _problems.grid2d_problem(_value(obj, "n", "an integer"), grid=grid),
    "partial-trace": lambda grid, obj: _problems.partial_trace_problem(
        _value(obj, "dim_keep", "an integer"), _value(obj, "dim_trace", "an integer")),
    "statecov": _statecov_kernels,
    "identity": _identity_kernels,
}


# ---------------------------------------------------------------------------
# built-in examples: functions of the seed returning (grid, kernels object,
# true density)

def _array_example(seed: int):
    grid = build_grid("interval1d", (0.0, math.pi), panels=32, order=5)
    kernels = {"mode": "builtin", "name": "nonequispaced-array",
               "positions": list(_problems.DEFAULT_ARRAY_POSITIONS), "wavenumber": 1.0}
    return grid, kernels, _problems.two_bump_demo_density(grid)


def _grid2d_example(seed: int):
    grid = build_grid("rectangle2d", ((0.0, math.pi), (0.0, math.pi)), panels=12, order=4)
    rho = _problems.bump2d_density(grid, 0.4, bumps=((1.1, 0.9, 0.5, 0.6, 1.3),
                                                    (2.3, 2.2, 0.7, 0.5, 0.9)))
    return grid, {"mode": "builtin", "name": "grid2d", "n": 2}, rho


def _bell_example(seed: int):
    kernels = {"mode": "builtin", "name": "partial-trace", "dim_keep": 2, "dim_trace": 2}
    return discrete_grid(2), kernels, np.broadcast_to(_problems.bell_state(), (2, 4, 4))


def _statecov_example(seed: int):
    model = _problems.random_state_model(n=4, m=2, seed=seed)
    grid = build_grid("interval1d", (-math.pi, math.pi), panels=32, order=5)
    kernels = {"mode": "builtin", "name": "statecov", "A": matrix_to_obj(model.a),
               "B": matrix_to_obj(model.b), "C_o": matrix_to_obj(model.c_o)}
    return grid, kernels, _problems.random_smooth_matrix_density(grid, 2, seed=seed + 1)


def _scalar_demo_example(seed: int):
    grid = build_grid("interval1d", (0.0, 1.0), panels=8, order=4)
    rho = _problems.constant_density(grid, 1, 2.0)
    return grid, {"mode": "builtin", "name": "identity", "m": 1}, rho


EXAMPLES = {
    "nonequispaced-array": _array_example,
    "grid2d": _grid2d_example,
    "bell": _bell_example,
    "statecov": _statecov_example,
    "scalar-demo": _scalar_demo_example,
}


def example_problem(name: str, seed: int = 0):
    """Built-in example as (operator, kernels object, moment, true density),
    the operator read from the kernels object like a problem file's."""
    if name not in EXAMPLES:
        raise ValueError("unknown example %r; valid names: %s" % (name, ", ".join(EXAMPLES)))
    grid, kernels, rho_true = EXAMPLES[name](seed)
    op = _build_kernels(grid, kernels)
    return op, kernels, apply_L(op, rho_true), rho_true


# ---------------------------------------------------------------------------
# reports

def report_to_obj(report, family_name: str) -> dict:
    """Report JSON object; None and non-finite entries serialise as null."""
    cert = report.certificate
    return {
        "status": report.status,
        "lambda": matrix_to_obj(report.lambda_hat.matrix),
        "V_final": _nullable(report.V_final),
        "entropy": _nullable(report.entropy_value),
        "fitted_V_slope": _nullable(report.fitted_V_slope),
        "iterations": max(len(report.trace) - 1, 0),  # accepted steps
        "family": family_name,
        "entropy_burg": _nullable(report.entropy_burg),
        "entropy_vonneumann": _nullable(report.entropy_vonneumann),
        "pairing": _nullable(report.pairing_value),
        "message": report.message,
        "certificate": None if cert is None else {
            "dual": matrix_to_obj(cert.dual.matrix), "margin": cert.margin,
            "node": cert.node, "step": cert.step},
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
