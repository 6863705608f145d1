"""Deterministic serialization: floats, JSON, CSV, problem bundles."""
import json
import math

import numpy as np
import pytest

import momentropy as mp
from momentropy import formats as fm
from momentropy import problems as pr


def test_float_formatting_round_trips_exactly(rng):
    samples = np.concatenate([
        rng.standard_normal(100),
        10.0 ** rng.uniform(-300, 300, 50) * np.sign(rng.standard_normal(50)),
        np.array([0.0, -0.0, 1.0, np.pi, 2.0 ** -1074, 1.7976931348623157e308]),
    ])
    for x in samples:
        assert float(fm.format_float(float(x))) == float(x)


def test_float_formatting_rejects_non_finite():
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            fm.format_float(bad)


def test_canonical_json_is_deterministic_and_parseable():
    obj = {"b": 1, "a": [1.5, {"z": 2, "y": None, "flag": True}], "s": "text"}
    s1 = fm.dumps_canonical(obj)
    s2 = fm.dumps_canonical(json.loads(s1))
    assert s1 == s2
    assert json.loads(s1) == obj
    # floats are written with full precision
    assert fm.dumps_canonical({"x": 0.1}) == '{"x": 0.10000000000000001}'


def test_matrix_obj_round_trip_is_exact(rng):
    m = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    obj = fm.matrix_to_obj(m)
    assert obj["rows"] == 3 and obj["cols"] == 4
    back = fm.matrix_from_obj(obj)
    assert np.array_equal(back, m)


def test_density_csv_round_trip_and_validation(tmp_path, rng):
    grid = mp.build_grid("interval1d", (0.0, np.pi), panels=4, order=3)
    raw = rng.standard_normal((grid.node_count, 2, 2)) \
        + 1j * rng.standard_normal((grid.node_count, 2, 2))
    rho = raw + np.conj(raw).swapaxes(1, 2)
    path = tmp_path / "density.csv"
    fm.write_density_csv(path, rho, grid)
    back = fm.read_density_csv(path, grid)
    assert np.array_equal(back, rho)

    other = mp.build_grid("interval1d", (0.0, np.pi), panels=5, order=3)
    with pytest.raises(ValueError):
        fm.read_density_csv(path, other)

    lines = path.read_text().splitlines()
    (tmp_path / "short.csv").write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError):
        fm.read_density_csv(tmp_path / "short.csv", grid)

    cells = lines[0].split(",")
    cells[-2] = "nan"
    (tmp_path / "nan.csv").write_text("\n".join([",".join(cells)] + lines[1:]) + "\n")
    with pytest.raises(ValueError):
        fm.read_density_csv(tmp_path / "nan.csv", grid)


def test_density_csv_writes_are_byte_stable(tmp_path, rng):
    grid = mp.build_grid("interval1d", (0.0, 1.0), panels=3, order=3)
    rho = pr.random_smooth_matrix_density(grid, 2, seed=8)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    fm.write_density_csv(p1, rho, grid)
    fm.write_density_csv(p2, rho, grid)
    assert p1.read_bytes() == p2.read_bytes()


def test_trace_csv_layout(tmp_path):
    path = tmp_path / "trace.csv"
    fm.write_trace_csv(path, [(0.0, 1.0, 0.5, 0.1), (0.1, 0.8, 0.5, 0.2)])
    lines = path.read_text().splitlines()
    assert lines[0] == "t,V,min_eig,lambda_norm"
    assert len(lines) == 3
    assert [float(v) for v in lines[1].split(",")] == [0.0, 1.0, 0.5, 0.1]


def test_report_objects_have_stable_shape(scalar_report):
    report, family = scalar_report
    obj = fm.report_to_obj(report, family)
    assert list(obj.keys()) == [
        "status", "lambda", "V_final", "entropy", "fitted_V_slope",
        "iterations", "family", "entropy_burg", "entropy_vonneumann",
        "pairing", "message",
    ]
    assert obj["status"] == "Converged"
    assert obj["family"] == family
    assert obj["lambda"]["rows"] == 1 and obj["lambda"]["cols"] == 1
    # a full JSON round trip of the report is loss-free
    assert json.loads(fm.dumps_canonical(obj)) == json.loads(
        fm.dumps_canonical(json.loads(fm.dumps_canonical(obj))))


def test_report_maps_non_finite_diagnostics_to_null(array_problem, rng):
    op, _rho, moment = array_problem
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    y = raw + raw.conj().T
    coords, _ = mp.project_to_range(op, y)
    bad = moment + 0.5 * (y - op.basis.assemble(coords))
    report = mp.solve(op, bad, mp.rational_family())
    obj = fm.report_to_obj(report, "rational")
    assert obj["status"] == "NotInRange"
    assert obj["V_final"] is None
    assert fm.dumps_canonical(obj).count('"V_final": null') == 1


@pytest.fixture(scope="module")
def scalar_report():
    grid = mp.build_grid("interval1d", (0.0, 1.0), panels=4, order=3)
    ones = np.ones((grid.node_count, 1, 1), dtype=complex)
    op = mp.build_operator(grid, mp.kernel_samples(ones, ones))
    report = mp.solve(op, np.array([[2.0]], dtype=complex), mp.rational_family())
    return report, "rational"


def test_problem_bundle_round_trip_builtin_kernels(tmp_path, array_problem):
    op, rho_true, moment = array_problem
    obj = fm.problem_to_obj(op.grid, {
        "mode": "builtin", "name": "nonequispaced-array",
        "positions": list(pr.DEFAULT_ARRAY_POSITIONS), "wavenumber": 1.0,
    }, moment, rho_true="rho_true.csv")
    path = tmp_path / "problem.json"
    fm.write_problem(path, obj)
    fm.write_density_csv(tmp_path / "rho_true.csv", rho_true, op.grid)

    loaded = fm.load_problem(path)
    assert loaded.operator.d == op.d
    assert np.array_equal(loaded.moment, moment)
    assert np.allclose(loaded.operator.kernels.left, op.kernels.left, rtol=0, atol=0)
    assert loaded.rho_true_path == tmp_path / "rho_true.csv"
    back = fm.read_density_csv(loaded.rho_true_path, loaded.operator.grid)
    assert np.array_equal(back, rho_true)


def test_problem_bundle_round_trip_sampled_kernels(tmp_path):
    grid = mp.discrete_grid(2)
    left = np.stack([np.eye(2), np.diag([1.0, -1.0])]).astype(complex)
    op = mp.build_operator(grid, mp.kernel_samples(left, left))
    moment = mp.apply_L(op, np.tile(np.diag([2.0, 1.0]).astype(complex)[None], (2, 1, 1)))
    obj = fm.problem_to_obj(grid, fm.samples_kernels_obj(op), moment)
    path = tmp_path / "problem.json"
    fm.write_problem(path, obj)
    loaded = fm.load_problem(path)
    assert np.array_equal(loaded.operator.kernels.left, left)
    assert loaded.operator.d == op.d
    assert np.array_equal(loaded.moment, moment)
    assert loaded.rho_true_path is None


def test_problem_loader_rejects_unknown_builtin(tmp_path):
    grid = mp.build_grid("interval1d", (0.0, 1.0), panels=2, order=2)
    obj = fm.problem_to_obj(grid, {"mode": "builtin", "name": "nope"},
                            np.eye(1, dtype=complex))
    path = tmp_path / "problem.json"
    fm.write_problem(path, obj)
    with pytest.raises(ValueError):
        fm.load_problem(path)
    # a problem file, its grid, kernels and moment are JSON objects, and
    # matrix data holds [re, im] pairs
    good = fm.problem_to_obj(grid, {"mode": "builtin", "name": "identity", "m": 1},
                             np.eye(1, dtype=complex))
    bad_data = dict(good["moment"], data=[1])
    for bad in ([good], dict(good, grid=[]), dict(good, kernels=[]),
                dict(good, moment=[]), dict(good, moment=bad_data)):
        fm.write_problem(path, bad)
        with pytest.raises(ValueError):
            fm.load_problem(path)
    for data in ([1], [[1.0]], [["x", 0.0]], [[1.0, 0.0, 2.0]], 5, [[1.0], [0.0, 1.0]]):
        with pytest.raises(ValueError):
            fm.matrix_from_obj({"rows": 1, "cols": 1, "data": data})
    # rows and cols are JSON integers, not numbers that int() would accept
    for rows, cols in ((1.0, 1), (1, "1"), (True, 1), (1, None)):
        with pytest.raises(ValueError, match="'rows'|'cols'"):
            fm.matrix_from_obj({"rows": rows, "cols": cols, "data": [[1.0, 0.0]]})
    # a grid or kernels value of the wrong JSON type is a ValueError too
    samples = {"mode": "samples", "left": 5, "right": 5}
    for section, patch, match in (("grid", {"bounds": 5}, "bounds"),
                                  ("grid", {"panels": [3]}, "panels"),
                                  ("grid", {"kind": [3]}, "grid kind"),
                                  ("kernels", {"m": [1]}, "'m'"),
                                  ("kernels", {"name": [1]}, "builtin kernel"),
                                  ("kernels", samples, "left"),
                                  ("grid", {"panels": True}, "panels"),
                                  ("grid", {"panels": "3"}, "panels"),
                                  ("grid", {"order": 4.0}, "order"),
                                  ("grid", {"bounds": [0.0, "1"]}, "bounds"),
                                  ("grid", {"bounds": [[0.0, 1.0], 1.0]}, "bounds"),
                                  ("grid", {"kind": "discrete", "count": 2.9}, "count"),
                                  ("grid", {"kind": "discrete", "count": True}, "count"),
                                  ("kernels", {"m": 1.0}, "'m'"),
                                  ("moment", {"rows": 1.0}, "rows"),
                                  ("moment", {"cols": "1"}, "cols")):
        # json.dumps keeps 4.0 a JSON float, where the canonical writer gives 4
        path.write_text(json.dumps(dict(good, **{section: dict(good[section], **patch)})))
        with pytest.raises(ValueError, match=match):
            fm.load_problem(path)
    fm.write_problem(path, dict(good, rho_true=5))
    with pytest.raises(ValueError, match="rho_true"):
        fm.load_problem(path)
