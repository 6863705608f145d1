"""Command-line interface: subcommands, exit codes, file outputs."""
import itertools
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import momentropy as mp
from conftest import src_env
from momentropy import cli
from momentropy import formats as fm


def _run(*argv, cwd=None, env=None):
    return subprocess.run([sys.executable, "-m", "momentropy", *argv], capture_output=True,
                          text=True, cwd=cwd, env=src_env(env), timeout=300)


@pytest.fixture(scope="module")
def scalar_bundle(tmp_path_factory):
    d = tmp_path_factory.mktemp("scalar")
    r = _run("example", "scalar-demo", str(d))
    assert r.returncode == 0, r.stderr
    return d


@pytest.fixture(scope="module")
def array_bundle(tmp_path_factory):
    d = tmp_path_factory.mktemp("array")
    r = _run("example", "nonequispaced-array", str(d))
    assert r.returncode == 0, r.stderr
    return d


def test_example_writes_a_complete_bundle(scalar_bundle):
    assert (scalar_bundle / "problem.json").exists()
    assert (scalar_bundle / "rho_true.csv").exists()
    obj = json.loads((scalar_bundle / "problem.json").read_text())
    assert set(obj) >= {"grid", "kernels", "moment"}
    loaded = fm.load_problem(scalar_bundle / "problem.json")
    assert loaded.rho_true_path.exists()


def test_solve_round_trip_on_scalar_bundle(scalar_bundle, tmp_path):
    report_path = tmp_path / "report.json"
    r = _run("solve", "--problem", str(scalar_bundle / "problem.json"),
             "--family", "rational",
             "--report", str(report_path),
             "--density-out", str(tmp_path / "density.csv"),
             "--trace-out", str(tmp_path / "trace.csv"))
    assert r.returncode == 0, r.stderr
    report = json.loads(report_path.read_text())
    assert report["status"] == "Converged"
    lam = report["lambda"]["data"][0]
    assert lam[0] == pytest.approx(0.5, abs=1e-8)
    assert (tmp_path / "trace.csv").read_text().startswith("t,V,min_eig,lambda_norm")
    loaded = fm.load_problem(scalar_bundle / "problem.json")
    density = fm.read_density_csv(tmp_path / "density.csv", loaded.operator.grid)
    assert np.max(np.abs(density[:, 0, 0] - 2.0)) <= 1e-8


def test_report_goes_to_stdout_without_a_path(scalar_bundle):
    r = _run("solve", "--problem", str(scalar_bundle / "problem.json"),
             "--family", "rational")
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    assert report["status"] == "Converged"


def test_unknown_example_name_is_an_input_error(tmp_path):
    r = _run("example", "no-such-example", str(tmp_path / "x"))
    assert r.returncode == 3
    assert r.stderr.startswith("error: unknown example 'no-such-example'; valid names: ")
    assert not (tmp_path / "x").exists()


def test_usage_errors_show_usage_text(scalar_bundle):
    # usage errors are input errors (3), never the divergence verdict (2)
    r = _run("solve")  # no problem source at all
    assert r.returncode == 3
    assert "usage" in r.stderr.lower()
    r2 = _run("solve", "--problem", str(scalar_bundle / "problem.json"),
              "--example", "scalar-demo")  # mutually exclusive
    assert r2.returncode == 3
    r3 = _run("solve", "--example", "scalar-demo", "--tol", "abc")
    assert r3.returncode == 3
    assert "usage" in r3.stderr.lower()
    assert _run("solve", "--help").returncode == 0


def test_infeasible_moment_exits_with_divergence_code(scalar_bundle, tmp_path):
    # ||R||^2 underflows at -1e-200; the certificate test does not form it
    obj = json.loads((scalar_bundle / "problem.json").read_text())
    obj.pop("rho_true", None)
    bad = tmp_path / "problem.json"
    for moment, family in itertools.product((-1.0, -1e-200), ("rational", "exponential")):
        obj["moment"]["data"] = [[moment, 0.0]]
        bad.write_text(fm.dumps_canonical(obj))
        r = _run("solve", "--problem", str(bad), "--family", family,
                 "--report", str(tmp_path / ("r_%s.json" % family)))
        assert r.returncode == 2, (moment, family, r.stderr)
        report = json.loads((tmp_path / ("r_%s.json" % family)).read_text())
        assert report["status"] == "DivergedCertified"
        assert r.stderr.startswith("DivergedCertified: separating certificate at step ")
        cert = report["certificate"]
        assert cert["margin"] < 0.0 and cert["node"] >= 0 and cert["step"] >= 0
        assert fm.matrix_from_obj(cert["dual"]).real[0, 0] > 0.0


def test_a_far_off_divergence_writes_a_finite_trace(scalar_bundle, tmp_path):
    # kernels of size 1e-60 put the rational family's least-squares identity
    # dual lam_I, the solution of L*(lam) = I, at a dual norm near 1e120.
    # Scaled to the attainable target 2 it lands on the dual 1/2 at once;
    # the target -2 is certified by lam_I itself.  The verdicts, the reports
    # and the traces stay finite.
    grid = fm.load_problem(scalar_bundle / "problem.json").operator.grid
    tiny = np.full((grid.node_count, 1, 1), 1e-60, dtype=complex)
    op = mp.build_operator(grid, mp.kernel_samples(tiny, tiny))
    for value, code, status in ((2.0, 0, "Converged"), (-2.0, 2, "DivergedCertified")):
        path = tmp_path / ("problem_%g.json" % value)
        fm.write_problem(path, fm.problem_to_obj(grid, fm.samples_kernels_obj(op),
                                                 np.array([[value]], dtype=complex)))
        trace, report = tmp_path / ("trace_%g.csv" % value), tmp_path / ("report_%g.json" % value)
        r = _run("solve", "--problem", str(path), "--family", "rational",
                 "--report", str(report), "--trace-out", str(trace))
        assert r.returncode == code, r.stderr
        assert r.stderr.startswith(status + ": ") if code else r.stderr == ""
        assert "Warning" not in r.stderr and "inf" not in r.stderr
        assert json.loads(report.read_text())["status"] == status
        rows = np.loadtxt(trace, delimiter=",", skiprows=1, ndmin=2)
        assert np.all(np.isfinite(rows))
        if code:
            assert rows[-1, 3] > 1e100
        else:
            assert len(rows) == 1 and abs(rows[-1, 3] - 0.5) <= 1e-9


def test_a_start_whose_evaluation_fails_exits_inconclusive(scalar_bundle, tmp_path):
    # kernels of size 1e100: the start's Jacobian overflows.  R = 0 leaves
    # the start unscaled and has no certificate, so the verdict is a report,
    # never a traceback; -2 is certified by lam_I before the start is tried
    grid = fm.load_problem(scalar_bundle / "problem.json").operator.grid
    huge = np.full((grid.node_count, 1, 1), 1e100, dtype=complex)
    op = mp.build_operator(grid, mp.kernel_samples(huge, huge))
    for value, code, status in ((0.0, 4, "Inconclusive"), (-2.0, 2, "DivergedCertified")):
        path, trace = tmp_path / ("problem_%g.json" % value), tmp_path / ("trace_%g.csv" % value)
        fm.write_problem(path, fm.problem_to_obj(grid, fm.samples_kernels_obj(op),
                                                 np.array([[value]], dtype=complex)))
        r = _run("solve", "--problem", str(path), "--family", "exponential",
                 "--trace-out", str(trace))
        assert r.returncode == code, r.stderr
        report = json.loads(r.stdout)
        assert report["status"] == status and report["V_final"] is None
        if code == 4:
            assert report["certificate"] is None
            assert report["message"] == "start evaluation failed: non-finite values in evaluation"
        else:
            assert report["certificate"]["step"] == 0
            assert report["message"].startswith("separating certificate at step 0 (t=0.000000)")
        assert r.stderr == "%s: %s\n" % (status, report["message"])
        # the trace holds its header and no row
        assert len(trace.read_text().splitlines()) == 1


def test_feasibility_subcommand_verdicts(scalar_bundle, tmp_path):
    r = _run("feasibility", "--problem", str(scalar_bundle / "problem.json"),
             "--family", "rational")
    assert r.returncode == 0, r.stderr
    assert r.stdout.startswith("feasible")

    obj = json.loads((scalar_bundle / "problem.json").read_text())
    obj["moment"]["data"] = [[-1.0, 0.0]]
    obj.pop("rho_true", None)
    bad = tmp_path / "problem.json"
    bad.write_text(fm.dumps_canonical(obj))
    r2 = _run("feasibility", "--problem", str(bad), "--family", "rational")
    assert r2.returncode == 2
    assert r2.stdout.startswith("not-strictly-feasible (rational family, status "
                                "DivergedCertified, certificate margin -")
    assert r2.stdout.rstrip().endswith(" at step 0)")


def test_a_stalled_run_exits_inconclusive(array_bundle, tmp_path):
    # a point mass at one node of the array is attainable only in the limit,
    # and the exponential run stops short of it without a certificate: no
    # proof either way, so exit 4, never 2
    problem = json.loads((array_bundle / "problem.json").read_text())
    op = fm.load_problem(array_bundle / "problem.json").operator
    mass = np.zeros((op.node_count, 1, 1), dtype=complex)
    mass[80] = 1.0 / op.grid.weights[80]
    problem["moment"] = fm.matrix_to_obj(mp.apply_L(op, mass))
    problem.pop("rho_true", None)
    path = tmp_path / "point_mass.json"
    path.write_text(fm.dumps_canonical(problem))
    r = _run("solve", "--problem", str(path), "--family", "exponential")
    assert r.returncode == 4, r.stderr
    report = json.loads(r.stdout)
    assert report["status"] == "Inconclusive" and report["certificate"] is None
    assert report["message"].startswith("step collapsed below 1e-12 at t=")
    assert r.stderr == "Inconclusive: %s\n" % report["message"]
    r2 = _run("feasibility", "--problem", str(path), "--family", "exponential")
    assert r2.returncode == 4
    assert r2.stdout == "inconclusive (exponential family, status Inconclusive)\n"


def test_a_tiny_moment_outside_the_range_is_an_input_error(array_bundle, tmp_path):
    # at 1e-300 the squares in the range test's norms would underflow to 0
    problem = json.loads((array_bundle / "problem.json").read_text())
    moment = fm.load_problem(array_bundle / "problem.json").moment.copy()
    moment[0, 1] += 0.5j
    moment[1, 0] += 0.5j
    problem["moment"] = fm.matrix_to_obj(1e-300 * moment)
    problem.pop("rho_true", None)
    path = tmp_path / "off_range.json"
    path.write_text(fm.dumps_canonical(problem))
    r = _run("solve", "--problem", str(path), "--family", "exponential")
    assert r.returncode == 3, r.stderr
    assert json.loads(r.stdout)["status"] == "NotInRange"


def test_a_tiny_attainable_moment_converges_with_its_trace(array_bundle, tmp_path):
    # at 1e-200 the squares of R's size underflow; the run reads them in R's
    # unit and lands on R, and the trace's V, in R's own units, stays finite
    problem = json.loads((array_bundle / "problem.json").read_text())
    moment = fm.load_problem(array_bundle / "problem.json").moment
    problem["moment"] = fm.matrix_to_obj(1e-200 * moment)
    problem.pop("rho_true", None)
    path, trace = tmp_path / "tiny.json", tmp_path / "trace.csv"
    path.write_text(fm.dumps_canonical(problem))
    r = _run("solve", "--problem", str(path), "--family", "exponential",
             "--trace-out", str(trace))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["status"] == "Converged"
    rows = np.loadtxt(trace, delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) > 1 and np.all(np.isfinite(rows))


def test_a_subnormal_moment_gets_a_finite_report(array_bundle, tmp_path):
    # at 1e-310 the rational start scaled to R, lam_0 / c, would overflow, so
    # the run keeps lam_0 and stops inconclusive with a finite dual point,
    # never as an input error
    problem = json.loads((array_bundle / "problem.json").read_text())
    moment = fm.load_problem(array_bundle / "problem.json").moment
    problem["moment"] = fm.matrix_to_obj(1e-310 * moment)
    problem.pop("rho_true", None)
    path = tmp_path / "subnormal.json"
    path.write_text(fm.dumps_canonical(problem))
    r = _run("solve", "--problem", str(path), "--family", "rational")
    assert r.returncode == 4, r.stderr
    report = json.loads(r.stdout)
    assert report["status"] == "Inconclusive" and report["certificate"] is None
    assert r.stderr == "Inconclusive: %s\n" % report["message"]
    assert report["V_final"] is None and np.all(np.isfinite(report["lambda"]["data"]))


@pytest.mark.xfail(strict=True, reason="V overflows to inf on this path and the trace writer "
                   "refuses it; ROADMAP item 4 decides how V is reported")
def test_a_huge_moment_writes_its_trace(array_bundle, tmp_path):
    # at 1e160 the exponential run converges, but V, in R's own units,
    # overflows in its trace
    problem = json.loads((array_bundle / "problem.json").read_text())
    moment = fm.load_problem(array_bundle / "problem.json").moment
    problem["moment"] = fm.matrix_to_obj(1e160 * moment)
    problem.pop("rho_true", None)
    path, trace = tmp_path / "huge.json", tmp_path / "trace.csv"
    path.write_text(fm.dumps_canonical(problem))
    r = _run("solve", "--problem", str(path), "--family", "exponential",
             "--trace-out", str(trace))
    assert r.returncode == 0, r.stderr
    assert json.loads(r.stdout)["status"] == "Converged"
    rows = np.loadtxt(trace, delimiter=",", skiprows=1, ndmin=2)
    assert len(rows) > 1 and np.all(np.isfinite(rows))


def test_config_file_merging_and_flag_priority(array_bundle, tmp_path):
    # the array target is not a multiple of the default start's moment, so a
    # run takes steps and meets a short horizon first
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"t_max": 1e-9}))
    r = _run("solve", "--problem", str(array_bundle / "problem.json"),
             "--family", "rational", "--config", str(config))
    assert r.returncode == 4
    report = json.loads(r.stdout)
    assert report["status"] == "Inconclusive"
    assert report["message"] == "horizon t=1e-09 reached before landing on R"
    # an explicit flag beats the config file
    r2 = _run("solve", "--problem", str(array_bundle / "problem.json"),
              "--family", "rational", "--config", str(config), "--t-max", "60")
    assert r2.returncode == 0
    assert json.loads(r2.stdout)["status"] == "Converged"
    # the config file's family is used unless --family is given
    config.write_text(json.dumps({"family": "rational"}))
    r3 = _run("solve", "--problem", str(array_bundle / "problem.json"), "--config", str(config))
    assert r3.returncode == 0, r3.stderr
    assert json.loads(r3.stdout)["family"] == "rational"
    r4 = _run("solve", "--problem", str(array_bundle / "problem.json"),
              "--family", "exponential", "--config", str(config))
    assert r4.returncode == 0, r4.stderr
    assert json.loads(r4.stdout)["family"] == "exponential"


def test_zero_options_are_input_errors(scalar_bundle, tmp_path):
    problem = str(scalar_bundle / "problem.json")
    r = _run("solve", "--problem", problem, "--tol", "0")
    assert r.returncode == 3
    assert "tol" in r.stderr
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"t_max": 0}))
    r2 = _run("solve", "--problem", problem, "--config", str(config))
    assert r2.returncode == 3
    assert "t_max" in r2.stderr
    # a config file holds an object, and torus_override a boolean
    config.write_text(json.dumps([{"t_max": 1.0}]))
    r3 = _run("solve", "--problem", problem, "--config", str(config))
    assert r3.returncode == 3
    assert "config" in r3.stderr and "Traceback" not in r3.stderr
    config.write_text(json.dumps({"torus_override": "false"}))
    r4 = _run("solve", "--example", "grid2d", "--family", "rational", "--config", str(config))
    assert r4.returncode == 3
    assert "torus_override" in r4.stderr
    # a real false keeps the override off, so the 2-D inverse family is refused
    config.write_text(json.dumps({"torus_override": False}))
    r5 = _run("solve", "--example", "grid2d", "--family", "rational", "--config", str(config))
    assert r5.returncode == 3
    assert "pass torus_override to force" in r5.stderr
    # every config value has its JSON type
    for key, value in (("tol", [1]), ("seed", [1]), ("family", 5)):
        config.write_text(json.dumps({key: value}))
        r6 = _run("solve", "--example", "scalar-demo", "--config", str(config))
        assert r6.returncode == 3, (key, r6.stderr)
        assert key in r6.stderr and "Traceback" not in r6.stderr
    # a misspelt key is named, never ignored
    config.write_text(json.dumps({"t_max": 1e-9, "familly": "rational"}))
    r7 = _run("solve", "--example", "scalar-demo", "--config", str(config))
    assert r7.returncode == 3
    assert "unknown config key 'familly'" in r7.stderr and "Traceback" not in r7.stderr


def test_non_finite_moment_is_an_input_error(scalar_bundle, tmp_path):
    obj = json.loads((scalar_bundle / "problem.json").read_text())
    obj.pop("rho_true", None)
    obj["moment"]["data"] = [[float("nan"), 0.0]]
    bad = tmp_path / "problem.json"
    # json writes and reads the NaN literal, so the problem reader must refuse it
    bad.write_text(json.dumps(obj))
    r = _run("solve", "--problem", str(bad))
    assert r.returncode == 3
    assert "non-finite" in r.stderr
    # a malformed structure is an input error too, never a traceback
    good = json.loads((scalar_bundle / "problem.json").read_text())
    bad_moment = {"rows": 1, "cols": 1, "data": [1]}
    for key, value in (("grid", []), ("kernels", []), ("moment", bad_moment)):
        obj = dict(good, **{key: value})
        bad.write_text(json.dumps(obj))
        r = _run("solve", "--problem", str(bad))
        assert r.returncode == 3, (key, r.stderr)
        assert r.stderr.startswith("error: ") and "Traceback" not in r.stderr


def test_weighted_family_with_sigma_recovers_reference(array_bundle, tmp_path):
    out = tmp_path / "density.csv"
    r = _run("solve", "--problem", str(array_bundle / "problem.json"),
             "--family", "weighted-rational",
             "--sigma", str(array_bundle / "rho_true.csv"),
             "--density-out", str(out))
    assert r.returncode == 0, r.stderr
    loaded = fm.load_problem(array_bundle / "problem.json")
    rho_true = fm.read_density_csv(array_bundle / "rho_true.csv", loaded.operator.grid)
    density = fm.read_density_csv(out, loaded.operator.grid)
    rel = np.max(np.abs(density - rho_true)) / np.max(np.abs(rho_true))
    assert rel <= 1e-6


def test_weighted_family_requires_sigma(array_bundle, tmp_path):
    r = _run("solve", "--problem", str(array_bundle / "problem.json"),
             "--family", "weighted-rational")
    assert r.returncode == 3
    assert r.stderr.strip()
    # a sigma of another matrix size is named with both shapes
    grid = fm.load_problem(array_bundle / "problem.json").operator.grid
    sigma = tmp_path / "sigma.csv"
    fm.write_density_csv(sigma, np.tile(np.eye(2, dtype=complex), (grid.node_count, 1, 1)), grid)
    r2 = _run("solve", "--problem", str(array_bundle / "problem.json"),
              "--family", "prior-exponential", "--sigma", str(sigma))
    assert r2.returncode == 3
    assert "error: sigma has shape (160, 2, 2); this operator needs (160, 1, 1)" in r2.stderr


def test_a_tiny_sigma_that_is_not_hermitian_is_an_input_error(array_bundle, tmp_path, capsys):
    # below about 1e-162 the squares in the Hermitian test's norms underflow
    grid = fm.load_problem(array_bundle / "problem.json").operator.grid
    sigma = tmp_path / "sigma.csv"
    fm.write_density_csv(sigma, np.full((grid.node_count, 1, 1), 1e-170 * (1.0 + 0.5j)), grid)
    code = cli.main(["solve", "--problem", str(array_bundle / "problem.json"),
                     "--family", "prior-exponential", "--sigma", str(sigma)])
    assert code == 3
    assert capsys.readouterr().err.startswith("error: matrix is not Hermitian")


@pytest.mark.parametrize("section, key, value", [("grid", "bounds", [0.0, float("inf")]),
                                                ("kernels", "positions", [0.0, float("nan")]),
                                                ("kernels", "wavenumber", float("nan")),
                                                ("kernels", "wavenumber", 10 ** 400),
                                                ("config", "tol", float("nan"))])
def test_a_non_finite_number_in_an_input_file_is_refused_by_key(array_bundle, tmp_path, capsys,
                                                               section, key, value):
    # json.load reads NaN and Infinity, and no such number may reach numpy
    raw = json.loads((array_bundle / "problem.json").read_text())
    config = {}
    (config if section == "config" else raw[section])[key] = value
    problem, config_path = tmp_path / "problem.json", tmp_path / "config.json"
    problem.write_text(json.dumps(raw))  # writes NaN and Infinity
    config_path.write_text(json.dumps(config))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["solve", "--problem", str(problem), "--config", str(config_path)])
    assert code == 3 and caught == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err and "must be a number" in err


def test_bell_example_moment_is_maximally_mixed(tmp_path):
    d = tmp_path / "bell"
    r = _run("example", "bell", str(d))
    assert r.returncode == 0, r.stderr
    obj = json.loads((d / "problem.json").read_text())
    data = np.asarray(obj["moment"]["data"], dtype=float)
    assert obj["moment"]["rows"] == 2
    flat = data[:, 0] + 1j * data[:, 1]
    assert np.max(np.abs(flat.reshape(2, 2) - 0.5 * np.eye(2))) <= 1e-14


def test_statecov_example_seed_controls_the_instance(tmp_path):
    d1, d2, d3 = (tmp_path / n for n in ("a", "b", "c"))
    assert _run("example", "statecov", str(d1), "--seed", "1").returncode == 0
    assert _run("example", "statecov", str(d2), "--seed", "1").returncode == 0
    assert _run("example", "statecov", str(d3), "--seed", "2").returncode == 0
    p1 = (d1 / "problem.json").read_bytes()
    assert p1 == (d2 / "problem.json").read_bytes()
    assert p1 != (d3 / "problem.json").read_bytes()


@pytest.mark.parametrize("name", cli.EXAMPLE_NAMES)
def test_every_example_round_trips_through_its_problem_file(name, tmp_path):
    # an example and the problem file it writes describe the same operator,
    # so solving either gives the same report bytes
    seed = "3"
    direct, loaded = tmp_path / "direct.json", tmp_path / "loaded.json"
    assert cli.main(["solve", "--example", name, "--seed", seed, "--report", str(direct)]) == 0
    assert cli.main(["example", name, str(tmp_path / "bundle"), "--seed", seed]) == 0
    assert cli.main(["solve", "--problem", str(tmp_path / "bundle" / "problem.json"),
                     "--report", str(loaded)]) == 0
    assert direct.read_bytes() == loaded.read_bytes()


@pytest.mark.parametrize("family", ["rational", "exponential"])
def test_statecov_artifacts_are_byte_identical_across_thread_counts(tmp_path, family):
    # the m = 2 counterpart of criterion 12, whose example is m = 1
    artifacts = ("problem.json", "report.json", "density.csv", "trace.csv")
    runs = []
    for threads in ("1", "4"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads)
        d = tmp_path / threads
        r = _run("example", "statecov", str(d), env=env)
        assert r.returncode == 0, r.stderr
        r = _run("solve", "--problem", str(d / "problem.json"), "--family", family,
                 "--report", str(d / "report.json"), "--density-out", str(d / "density.csv"),
                 "--trace-out", str(d / "trace.csv"), env=env)
        assert r.returncode == 0, r.stderr
        runs.append({name: (d / name).read_bytes() for name in artifacts})
    for name in artifacts:
        assert runs[0][name] == runs[1][name], name
