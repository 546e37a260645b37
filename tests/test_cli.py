import argparse
import importlib
import inspect
import json
import math
import os
import pkgutil
import re
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse.linalg as sla
from conftest import assert_no_child_left

from polylayer import fanout
from polylayer.analysis import waveguide
from polylayer.cli import (
    EXIT_CONFIG,
    EXIT_INCONCLUSIVE,
    EXIT_NONCONVERGED,
    EXIT_OK,
    HANDLERS,
    ConfigError,
    build_parser,
    main,
    parse_angle,
)
from polylayer.fanout import cpus

PI = math.pi


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    code = main([*args, "--out", str(out)])
    return code, out


def test_parse_angle_units():
    assert parse_angle("90deg") == pytest.approx(PI / 2)
    assert parse_angle("1.5rad") == pytest.approx(1.5)
    with pytest.raises(ConfigError):
        parse_angle("1.5")


def test_bare_angle_rejected_by_parser():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["waveguide", "--theta", "1.5708"])
    assert exc.value.code == 2


def test_config_round_trip(tmp_path):
    code, out = run_cli(
        [
            "waveguide",
            "--theta",
            "1.2rad",
            "--h",
            "0.25",
            "--levels",
            "2",
            "--R",
            "4",
        ],
        tmp_path,
        "wg",
    )
    assert code == EXIT_OK
    bundle = json.loads((out / "waveguide.json").read_text())
    # the parsed flags of this subcommand, and no others
    assert bundle["meta"]["config"] == {
        "subcommand": "waveguide",
        "theta": 1.2,
        "h": 0.25,
        "levels": 2,
        "R": 4.0,
        "num_pairs": 1,
        "seed": 0,
        "out": str(out),
        "formats": ["json"],
        "dry_run": False,
    }
    # the CPUs a fan-out could use: run metadata, never payload
    assert bundle["meta"]["cpus"] == cpus()
    assert "cpus" not in bundle["payload"]


def test_payload_bytes_reproducible(tmp_path):
    cmd = [
        sys.executable,
        "-m",
        "polylayer",
        "waveguide",
        "--theta",
        "1.2rad",
        "--h",
        "0.25",
        "--levels",
        "2",
        "--R",
        "4",
    ]
    env = dict(os.environ)
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / name
        subprocess.run([*cmd, "--out", str(out)], check=True, env=env)
        bundle = json.loads((out / "waveguide.json").read_text())
        payloads.append(json.dumps(bundle["payload"], sort_keys=True))
    assert payloads[0] == payloads[1]


def test_payload_bytes_do_not_depend_on_blas_threads(tmp_path, blas_threads):
    commands = [
        # a six-pair count: ARPACK's dense BLAS sums in a thread-dependent
        # order unless the CLI pins BLAS to one thread
        (EXIT_OK, ["count", "--theta", "0.15rad", "--h", "0.4", "--levels", "3"]),
        # single-pair chains, solved on the half mesh
        (EXIT_OK, ["waveguide", "--theta", "0.3rad", "--h", "0.25", "--levels", "2"]),
        # a reduced 3D pencil of 1,484 equations at half-bandwidth 144: the
        # band Cholesky factor takes LAPACK's blocked, BLAS-3 path
        (EXIT_INCONCLUSIVE,
         ["certify", "--kind", "trihedral", "--alpha", "90deg,90deg,90deg", "--R", "3",
          "--h", "0.125", "--levels", "1", "--thr-h", "0.25", "--thr-levels", "2"]),
    ]
    for code, argv in commands:
        bundles = []
        for threads in ("1", "2"):
            out = tmp_path / argv[0] / threads
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "polylayer", *argv, "--out", str(out)], env=env
            )
            assert proc.returncode == code, argv[0]
            bundles.append((out / f"{argv[0]}.json").read_bytes())
        payloads = [raw[raw.index(b'"payload": '):] for raw in bundles]
        assert payloads[0] == payloads[1], argv[0]
        assert all(json.loads(raw)["meta"]["blas_pinned"] is True for raw in bundles)
    # these OpenBLAS builds may give the same bytes at any thread count, so
    # the pin itself is read back after an in-process run
    blas_threads(2)
    code, argv = commands[1]
    assert main([*argv, "--out", str(tmp_path / "in-process")]) == code
    assert blas_threads() == [1, 1]


# runs each command through ``main`` in one interpreter whose CPU affinity
# is set first: argv[1] is "1" (the lowest CPU of the parent's set) or "all"
_PINNED_RUNNER = """
import os, sys
from polylayer.cli import main
if sys.argv[1] == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
out = sys.argv[2]
codes = [main([*argv.split(), "--out", os.path.join(out, str(i))])
         for i, argv in enumerate(sys.argv[3:])]
print(codes)
"""


@pytest.mark.skipif(cpus() < 2, reason="one CPU: there is no concurrent run to compare")
def test_payload_bytes_do_not_depend_on_cpu_count(tmp_path):
    commands = [
        "scan-theta --thetas 0.8rad,1.2rad,1.6rad --h 0.25 --levels 2 --R 4",
        "scan-R --theta 90deg --R-list 2,3,4 --h 0.25 --levels 2",
        "certify " + " ".join(FICHERA) + " --R 3 --h 0.125 --thr-h 0.25 --thr-levels 2",
        "alpha-star --star-tol 0.05 --h 0.25 --levels 2",
        # three tasks on two CPUs: alpha_star, the threshold and the voxel bounds
        "absence --alpha 0.26rad --R 4 --h 0.125 --levels 2 --thr-h 0.25 --thr-levels 2"
        " --star-tol 0.05",
    ]
    runs = {}
    for affinity in ("1", "all"):
        out = tmp_path / affinity
        proc = subprocess.run(
            [sys.executable, "-c", _PINNED_RUNNER, affinity, str(out), *commands],
            check=True,
            capture_output=True,
            text=True,
        )
        bundles = [
            (out / str(i) / f"{argv.split()[0]}.json").read_bytes()
            for i, argv in enumerate(commands)
        ]
        runs[affinity] = (proc.stdout.splitlines()[-1], bundles)
    assert runs["1"][0] == runs["all"][0]  # the exit codes
    for argv, one, every in zip(commands, runs["1"][1], runs["all"][1]):
        start = one.index(b'"payload": ')
        assert one[start:] == every[every.index(b'"payload": '):], argv
        assert b'"cpus"' not in one[start:]
        metas = [json.loads(raw)["meta"]["cpus"] for raw in (one, every)]
        assert metas == [1, cpus()]


def test_blas_pin_reports_false_under_another_blas(monkeypatch):
    from polylayer import cli

    monkeypatch.setattr(
        fanout, "_OPENBLAS", (("numpy", "libscipy_openblas64_*.so", "no_such_setter"),)
    )
    assert cli.pin_blas() is False
    monkeypatch.setattr(fanout, "_OPENBLAS", (("numpy", "no_such_lib*.so", "no_such_setter"),))
    assert cli.pin_blas() is False


def _modules_after(statements, tmp_path):
    """The module names a fresh interpreter holds after ``statements``, which
    may call ``main`` with the output directory ``out``."""
    script = (
        f"import os, sys\nfrom polylayer.cli import main\nout = {str(tmp_path / 'out')!r}\n"
        f"{statements}\nprint(' '.join(sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], check=True, capture_output=True, text=True
    )
    return set(proc.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("subcommand", ("angle", "layer"))
def test_geometry_reports_load_no_scipy(subcommand, tmp_path):
    statements = f"assert main([{subcommand!r}, *{REGULAR!r}, '--out', out]) == 0"
    modules = _modules_after(statements, tmp_path)
    assert not {m for m in modules if m.split(".")[0] == "scipy"}


def test_cli_certify_loads_no_scipy_optimize(tmp_path):
    # what a benchmark child imports, then a tiny Fichera certificate
    statements = (
        "import polylayer.analysis, polylayer.report\n"
        f"assert main([*{SMALL_CERTIFY!r}, '--levels', '1', '--out', out]) == 4"
    )
    modules = _modules_after(statements, tmp_path)
    assert "scipy.sparse.linalg" in modules
    assert "scipy.optimize" not in modules


@pytest.mark.skipif(cpus() < 2, reason="one CPU: nothing is forked")
def test_fan_out_loads_no_multiprocessing(tmp_path):
    # the fan-out forks with os.fork and talks over plain pipes
    fanned = _modules_after("from polylayer.fanout import fan_out\nfan_out([os.getpid] * 3)",
                            tmp_path)
    assert not {m for m in fanned if m.split(".")[0] in ("multiprocessing", "concurrent")}
    # scipy brings in concurrent.futures (through numpy.testing), not multiprocessing
    statements = f"assert main([*{SMALL_CERTIFY!r}, '--levels', '1', '--out', out]) == 4"
    certified = _modules_after(statements, tmp_path)
    assert not {m for m in certified if m.split(".")[0] == "multiprocessing"}


def test_dry_run_prints_plan_without_solving(tmp_path):
    code, out = run_cli(
        [
            "certify",
            "--kind",
            "regular",
            "--n",
            "3",
            "--alpha",
            "60deg",
            "--dry-run",
        ],
        tmp_path,
        "dry",
    )
    assert code == EXIT_OK
    bundle = json.loads((out / "certify.json").read_text())
    payload = bundle["payload"]
    assert payload["dry_run"] is True
    assert payload["geometry"]["dihedral_angles"][0] == pytest.approx(
        math.acos(1.0 / 3.0), abs=1e-10
    )
    assert payload["plan"]["threshold"]["theta"] == pytest.approx(
        math.acos(1.0 / 3.0), abs=1e-10
    )


def test_angle_report_and_exit_codes(tmp_path):
    code, out = run_cli(
        ["angle", "--kind", "trihedral", "--alpha", "90deg,45deg,90deg"],
        tmp_path,
        "angle",
    )
    assert code == EXIT_OK
    bundle = json.loads((out / "angle.json").read_text())
    assert bundle["payload"]["dihedral_angles"][0] == pytest.approx(PI / 4)

    code, _ = run_cli(
        ["angle", "--kind", "trihedral", "--alpha", "170deg,10deg,10deg"],
        tmp_path,
        "bad",
    )
    assert code == EXIT_CONFIG


def test_scan_theta_formats_stay_in_outdir(tmp_path):
    code, out = run_cli(
        [
            "scan-theta",
            "--thetas",
            "0.8rad,1.2rad,1.6rad",
            "--h",
            "0.25",
            "--levels",
            "2",
            "--R",
            "4",
            "--formats",
            "json,csv,svg",
        ],
        tmp_path,
        "scan",
    )
    assert code == EXIT_OK
    names = sorted(p.name for p in out.iterdir())
    assert names == ["scan-theta.json", "scan_theta.csv", "scan_theta.svg"]
    csv = (out / "scan_theta.csv").read_text().splitlines()
    assert csv[0] == "theta,lambda1,error_indicator,R,h,levels"
    assert len(csv) == 4
    assert (out / "scan_theta.svg").read_text().startswith("<svg")


def test_one_point_scan_plots_on_a_unit_x_range(tmp_path):
    # a single angle spans no x range; the plot widens it to one unit
    argv = ["scan-theta", "--thetas", "1.2rad", "--h", "0.25", "--levels", "2", "--R", "4",
            "--formats", "json,svg"]
    code, out = run_cli(argv, tmp_path, "one")
    assert code == EXIT_OK
    svg = (out / "scan_theta.svg").read_text()
    assert 'font-size="11">1.2</text>' in svg and 'font-size="11">2.2</text>' in svg


def test_waveguide_pgm_heatmap(tmp_path):
    code, out = run_cli(
        [
            "waveguide",
            "--theta",
            "90deg",
            "--h",
            "0.25",
            "--levels",
            "2",
            "--R",
            "4",
            "--formats",
            "json,pgm",
        ],
        tmp_path,
        "pgm",
    )
    assert code == EXIT_OK
    pgm = (out / "waveguide_mode.pgm").read_text().splitlines()
    assert pgm[0] == "P2"


def test_hardy_cli(tmp_path):
    code, out = run_cli(
        ["hardy", "--case", "random", "--count", "25", "--seed", "7"],
        tmp_path,
        "hardy",
    )
    assert code == EXIT_OK
    bundle = json.loads((out / "hardy.json").read_text())
    assert bundle["payload"]["all_hold"] is True
    assert len(bundle["payload"]["reports"]) == 25


def test_hardy_cli_inverse_case(tmp_path):
    code, out = run_cli(["hardy", "--case", "invz"], tmp_path, "invz")
    assert code == EXIT_OK
    payload = json.loads((out / "hardy.json").read_text())["payload"]
    assert payload["case"] == "invz"
    assert payload["report"]["lemma"]["holds"] is True
    assert payload["report"]["corollary"]["holds"] is True


def test_alpha_star_cli(tmp_path):
    argv = ["alpha-star", "--star-tol", "0.05", "--h", "0.25", "--levels", "2"]
    code, out = run_cli(argv, tmp_path, "star")
    assert code == EXIT_OK
    payload = json.loads((out / "alpha-star.json").read_text())["payload"]
    assert payload["lo"] < payload["hi"] <= payload["lo"] + 0.05
    # the bracket ends first, then one midpoint per halving
    alphas = [e["alpha"] for e in payload["evaluations"]]
    assert alphas[:2] == [0.2, 1.4]
    assert {payload["lo"], payload["hi"]} <= set(alphas)


def test_certify_inconclusive_exit_code(tmp_path):
    code, out = run_cli(
        [
            "certify",
            "--kind",
            "trihedral",
            "--alpha",
            "90deg,90deg,90deg",
            "--R",
            "3",
            "--h",
            "0.33333333333333331",
            "--levels",
            "1",
            "--thr-h",
            "0.2",
            "--thr-levels",
            "2",
        ],
        tmp_path,
        "inconclusive",
    )
    assert code == EXIT_INCONCLUSIVE
    bundle = json.loads((out / "certify.json").read_text())
    assert bundle["payload"]["verdict"] == "INCONCLUSIVE"


def test_unknown_format_rejected(tmp_path):
    code = main(
        [
            "scan-R",
            "--theta",
            "90deg",
            "--R-list",
            "2,3",
            "--formats",
            "json,png",
            "--out",
            str(tmp_path / "x"),
        ]
    )
    assert code == EXIT_CONFIG


def test_schemas_shipped():
    import polylayer

    schema_dir = os.path.join(os.path.dirname(polylayer.__file__), "schemas")
    names = sorted(os.listdir(schema_dir))
    assert "threshold.json" in names
    assert "certificate.json" in names
    for name in names:
        with open(os.path.join(schema_dir, name)) as f:
            schema = json.load(f)
        assert schema["type"] == "object"


FICHERA = ["--kind", "trihedral", "--alpha", "90deg,90deg,90deg"]
SMALL_CERTIFY = ["certify", *FICHERA, "--R", "3", "--h", "0.25", "--thr-h", "0.25",
                 "--thr-levels", "2"]
SMALL_COUNT = ["count", "--theta", "90deg", "--h", "0.25", "--levels", "2"]
REGULAR = ["--kind", "regular", "--n", "3", "--alpha", "60deg"]


def _no_convergence(*args, **kwargs):
    raise sla.ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))


@pytest.mark.parametrize(
    "argv, expected, stderr_prefix",
    [
        (["layer", *REGULAR], EXIT_OK, ""),
        # infeasible geometry, solver input, and analysis parameters
        (["angle", "--kind", "trihedral", "--alpha", "170deg,10deg,10deg"],
         EXIT_CONFIG, "config error:"),
        ([*SMALL_COUNT, "--pairs", "400"], EXIT_CONFIG, "config error:"),
        ([*SMALL_COUNT, "--pairs", "0"], EXIT_CONFIG, "config error:"),
        ([*SMALL_CERTIFY, "--levels", "0"], EXIT_CONFIG, "config error:"),
        (["layer", *FICHERA, "--n", "3"], EXIT_CONFIG, "config error:"),
        (["waveguide", "--theta", "90deg", "--h", "0.25", "--levels", "1"],
         EXIT_CONFIG, "config error:"),
        # an output path that cannot be a directory fails before the run
        (["angle", *REGULAR, "--out", os.devnull], EXIT_CONFIG, "config error:"),
        # ARPACK is made to fail below
        (["waveguide", "--theta", "90deg", "--h", "0.25", "--levels", "2"],
         EXIT_NONCONVERGED, "numerical failure:"),
        ([*SMALL_CERTIFY, "--levels", "1"], EXIT_INCONCLUSIVE, ""),
        # a side file the subcommand does not write, and hardy's random-only flags
        (["waveguide", "--theta", "90deg", "--formats", "json,csv"],
         EXIT_CONFIG, "config error:"),
        (["hardy", "--case", "exp", "--seed", "3"], EXIT_CONFIG, "config error:"),
        (["hardy", "--case", "invz", "--count", "5"], EXIT_CONFIG, "config error:"),
        # a random run over no samples would report all_hold over nothing
        (["hardy", "--count", "0"], EXIT_CONFIG, "config error:"),
        (["hardy", "--count", "-1"], EXIT_CONFIG, "config error:"),
        # --n and the --alpha count follow --kind
        (["layer", "--kind", "regular", "--alpha", "60deg"], EXIT_CONFIG, "config error:"),
        (["layer", "--kind", "regular", "--n", "3", "--alpha", "60deg,60deg,60deg"],
         EXIT_CONFIG, "config error:"),
        (["layer", "--kind", "trihedral", "--alpha", "90deg,90deg"],
         EXIT_CONFIG, "config error:"),
        # a dry run refuses what the run would refuse
        (["scan-R", "--theta", "90deg", "--R-list", "2,nan", "--dry-run"],
         EXIT_CONFIG, "config error:"),
        (["scan-R", "--theta", "90deg", "--R-list", "4,3", "--dry-run"],
         EXIT_CONFIG, "config error:"),
        (["absence", "--alpha", "0.26rad", "--star-tol", "nan", "--dry-run"],
         EXIT_CONFIG, "config error:"),
        (["absence", "--alpha", "1.5rad", "--dry-run"], EXIT_CONFIG, "config error:"),
        # 2^(n+1) of a window index n >= 1023 is no finite double
        (["weyl", *FICHERA, "--indices", "1100"], EXIT_CONFIG, "config error:"),
        # a float overflow after the solves is a numerical failure, not a traceback
        (["weyl", *FICHERA, "--h", "0.25", "--kappa", "1e300"],
         EXIT_NONCONVERGED, "numerical failure: OverflowError"),
        (["certify-veps", *REGULAR, "--h", "0.25", "--eps", "1e300"],
         EXIT_NONCONVERGED, "numerical failure: OverflowError"),
    ],
    ids=["ok", "config-geometry", "config-pairs-400", "config-pairs-0",
         "config-levels-0", "config-trihedral-n", "config-levels-1",
         "config-out-not-a-dir", "nonconverged", "inconclusive",
         "config-waveguide-csv", "config-hardy-exp-seed", "config-hardy-invz-count",
         "config-hardy-count-0", "config-hardy-count-negative",
         "config-regular-no-n", "config-regular-three-alpha", "config-trihedral-two-alpha",
         "dry-scan-R-nan", "dry-scan-R-descending", "dry-absence-star-tol-nan",
         "dry-absence-alpha-above-bracket", "config-weyl-index-1100",
         "overflow-weyl-kappa", "overflow-veps-eps"],
)
def test_exit_codes(argv, expected, stderr_prefix, tmp_path, capsys, monkeypatch):
    from polylayer import eigensolve

    def must_not_run(*args, **kwargs):
        raise AssertionError("solved before the configuration was checked")

    if stderr_prefix == "numerical failure:":  # ARPACK is made to fail
        monkeypatch.setattr(sla, "eigsh", _no_convergence)
    if expected == EXIT_CONFIG:  # refused before any solve
        for module in (eigensolve, waveguide):
            monkeypatch.setattr(module, "smallest_eigenpairs", must_not_run)
    if "--out" not in argv:
        argv = [*argv, "--out", str(tmp_path)]
    code = main(argv)
    assert code == expected
    err = capsys.readouterr().err
    assert err.startswith(stderr_prefix)
    assert "Traceback" not in err
    assert (tmp_path / f"{argv[0]}.json").exists() == (not stderr_prefix)


SMALL_SCAN = ["scan-theta", "--thetas", "0.8rad,1.2rad,1.6rad", "--h", "0.25",
              "--levels", "2", "--R", "4"]


def _exits_nonconverged(argv, tmp_path, capsys) -> str:
    """Run ``argv``; check the exit code, the message and that no worker
    outlives ``main``."""
    assert main([*argv, "--out", str(tmp_path)]) == EXIT_NONCONVERGED
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:")
    assert "Traceback" not in err
    assert_no_child_left()
    return err


def test_failure_in_a_fanned_out_solve_exits_3(tmp_path, capsys, monkeypatch):
    # the workers are forked after the patch, so every scan angle fails
    monkeypatch.setattr(sla, "eigsh", _no_convergence)
    _exits_nonconverged(SMALL_SCAN, tmp_path, capsys)


def test_out_of_memory_exits_3(tmp_path, capsys, monkeypatch):
    # an allocation that fails outside the band factor (here a refinement)
    # is a numerical failure too, with no traceback, in the CLI process and
    # in forked workers alike
    def no_memory(message):
        def refine(mesh):
            raise MemoryError(*message)

        return refine

    argv = ["waveguide", "--theta", "90deg", "--h", "0.25", "--levels", "3"]
    monkeypatch.setattr(waveguide, "refine", no_memory(["Unable to allocate 16.5 MiB"]))
    err = _exits_nonconverged(argv, tmp_path, capsys)
    assert err == "numerical failure: out of memory (Unable to allocate 16.5 MiB)\n"
    monkeypatch.setattr(waveguide, "refine", no_memory([]))
    for command in (argv, SMALL_SCAN):
        err = _exits_nonconverged(command, tmp_path, capsys)
        assert err == "numerical failure: out of memory\n"


@pytest.mark.skipif(cpus() < 2, reason="one CPU: the solves run in-process, no worker to lose")
def test_worker_death_exits_3(tmp_path, capsys, monkeypatch):
    def die(*args, **kwargs):
        if not fanout._IN_WORKER:
            raise AssertionError("a scan angle was solved in the CLI process")
        os._exit(1)

    monkeypatch.setattr(waveguide, "solve_waveguide_mode", die)
    err = _exits_nonconverged(SMALL_SCAN, tmp_path, capsys)
    assert "worker process died" in err


def test_nested_fan_out_runs_serially(tmp_path, capsys, monkeypatch):
    # certify fans out the threshold and each voxel level; a fan-out inside
    # a level's task must run in that task's process, forking nothing more
    from polylayer.analysis import AnalysisError, certificates

    def nested_level(*args):
        pids = fanout.fan_out([os.getpid] * 3)
        raise AnalysisError(f"task {os.getpid()} nested {sorted(set(pids))}")

    monkeypatch.setattr(certificates, "voxel_level", nested_level)
    err = _exits_nonconverged([*SMALL_CERTIFY, "--levels", "1"], tmp_path, capsys)
    task, nested = re.search(r"task (\d+) nested \[(\d+)\]", err).groups()
    assert nested == task
    assert (int(task) != os.getpid()) == (cpus() >= 2)


@pytest.mark.parametrize(
    "argv",
    [
        [*SMALL_CERTIFY[:-4], "--h", "0.125", "--levels", "2", *SMALL_CERTIFY[-4:]],
        ["absence", "--alpha", "0.26rad", "--R", "4", "--h", "0.125", "--levels", "2",
         "--thr-h", "0.25", "--thr-levels", "2", "--star-tol", "0.05"],
    ],
    ids=["certify", "absence"],
)
def test_each_voxel_level_is_a_fan_out_task_finest_first(argv, tmp_path, monkeypatch):
    from polylayer.analysis import certificates

    handed = []  # the level index of each voxel task, in the order handed over

    def serial(thunks):
        handed.extend(t.args[4] for t in thunks if t.func is certificates.voxel_level)
        return [thunk() for thunk in thunks]

    monkeypatch.setattr(certificates, "fan_out", serial)
    code, out = run_cli(argv, tmp_path, "levels")
    assert code in (EXIT_OK, EXIT_INCONCLUSIVE)
    assert handed == [1, 0]
    levels = json.loads((out / f"{argv[0]}.json").read_text())["payload"]["evidence"]["levels"]
    assert [d["h"] for d in levels] == [0.25, 0.125]  # records stay coarsest first


# (id, argv, message): each case runs, and runs again with --dry-run as id-dry
_CHECKED_BEFORE_SOLVE = [
    ("certify", [*SMALL_CERTIFY, "--levels", "0"], "levels"),
    ("absence", ["absence", "--alpha", "0.26rad", "--levels", "0"], "levels"),
    ("certify-thr-levels-1", [*SMALL_CERTIFY, "--levels", "1", "--thr-levels", "1"],
     "refinement levels"),
    ("absence-thr-levels-1", ["absence", "--alpha", "0.26rad", "--thr-levels", "1"],
     "refinement levels"),
    ("certify-R-2", [*SMALL_CERTIFY, "--levels", "1", "--R", "2"], "R must be >= 3"),
    # coarsest level h = 0.5
    ("certify-coarsest-h", [*SMALL_CERTIFY, "--levels", "2"], "h must be <= 1/3"),
    ("waveguide-pairs-0", ["waveguide", "--theta", "90deg", "--pairs", "0"], "num_pairs"),
    # the auto-R rule would solve its coarse chain at max(h, 0.2) first
    ("waveguide-h-negative", ["waveguide", "--theta", "90deg", "--h", "-1"],
     "h = -1.0 must lie in (0, 0.5]"),
    ("waveguide-h-0", ["waveguide", "--theta", "90deg", "--h", "0"],
     "h = 0.0 must lie in (0, 0.5]"),
    ("certify-thr-h-0", [*SMALL_CERTIFY, "--levels", "1", "--thr-h", "0"], "h = 0.0 must lie"),
    ("weyl-index-0", ["weyl", *FICHERA, "--h", "0.25", "--indices", "2,0"], "window index"),
    ("weyl-h-grid", ["weyl", *FICHERA, "--h", "0.25", "--h-grid", "0.3"], "too coarse"),
    ("weyl-h-grid-0", ["weyl", *FICHERA, "--h", "0.25", "--h-grid", "0"],
     "h_grid = 0.0 must be positive"),
    ("weyl-h-grid-negative", ["weyl", *FICHERA, "--h", "0.25", "--h-grid", "-0.05"],
     "must be positive"),
    ("weyl-h-grid-nan", ["weyl", *FICHERA, "--h", "0.25", "--h-grid", "nan"],
     "h_grid = nan must be positive"),
    ("weyl-kappa-nan", ["weyl", *FICHERA, "--h", "0.25", "--kappa", "nan"],
     "kappa = nan must be finite"),
    ("weyl-kappa-inf", ["weyl", *FICHERA, "--h", "0.25", "--kappa", "inf"],
     "kappa = inf must be finite"),
    # V^eps is in L^2 only for eps > 0
    ("veps-eps-0", ["certify-veps", *REGULAR, "--eps", "0"],
     "eps must be finite and > 0, got [0.0]"),
    ("veps-eps-negative", ["certify-veps", *REGULAR, "--eps", "0.1,-1"], "got [-1.0]"),
    ("veps-eps-nan", ["certify-veps", *REGULAR, "--eps", "nan"], "got [nan]"),
    ("veps-eps-inf", ["certify-veps", *REGULAR, "--eps", "inf"], "got [inf]"),
    # alpha_star < 1.4, the bisection bracket's upper end
    ("absence-alpha-above-bracket", ["absence", "--alpha", "1.4rad"], "alpha_star"),
    # non-finite values fail the negated bounds
    ("alpha-star-tol-nan", ["alpha-star", "--star-tol", "nan"], "tolerance nan"),
    ("absence-star-tol-nan", ["absence", "--alpha", "0.26rad", "--star-tol", "nan"],
     "tolerance nan"),
    ("waveguide-R-nan", ["waveguide", "--theta", "90deg", "--R", "nan"], "R = nan must be finite"),
    ("waveguide-R-inf", ["waveguide", "--theta", "90deg", "--R", "inf"], "R = inf must be finite"),
    ("scan-R-nan", ["scan-R", "--theta", "90deg", "--R-list", "2,nan"], "R = nan must be finite"),
    ("scan-R-inf", ["scan-R", "--theta", "90deg", "--R-list", "2,inf"], "R = inf must be finite"),
    ("weyl-R-nan", ["weyl", *FICHERA, "--R", "nan"], "R = nan must be finite"),
    ("weyl-R-inf", ["weyl", *FICHERA, "--R", "inf"], "R = inf must be finite"),
    ("certify-R-nan", [*SMALL_CERTIFY, "--levels", "1", "--R", "nan"],
     "R must be >= 3 and finite"),
    ("certify-R-inf", [*SMALL_CERTIFY, "--levels", "1", "--R", "inf"],
     "R must be >= 3 and finite"),
    ("certify-h-nan", [*SMALL_CERTIFY, "--levels", "1", "--h", "nan"], "h must be > 0"),
    ("certify-thr-h-nan", [*SMALL_CERTIFY, "--levels", "1", "--thr-h", "nan"],
     "h = nan must lie"),
    # too many pairs even at the longest automatic outlet, R_CAP
    ("count-pairs-400", ["count", "--theta", "90deg", "--pairs", "400"],
     "too large for dimension"),
    ("waveguide-pairs-90-R-4", ["waveguide", "--theta", "90deg", "--pairs", "90", "--R", "4"],
     "too large"),
    ("veps-eps-0-1", ["certify-veps", *REGULAR, "--eps", "0,1"], "got [0.0]"),
    ("veps-levels-2", ["certify-veps", *REGULAR, "--levels", "2"], "at least 3 levels"),
    ("veps-not-regular", ["certify-veps", "--kind", "trihedral", "--alpha", "90deg,60deg,90deg"],
     "regular polyhedral layer"),
    ("scan-theta-descending", ["scan-theta", "--thetas", "2rad,1rad"], "strictly ascending"),
    ("scan-theta-above-pi", ["scan-theta", "--thetas", "0.5rad,4rad"],
     "opening angle theta = 4.0 not in (0, pi)"),
    ("weyl-kappa-nan-default-h", ["weyl", *FICHERA, "--kappa", "nan"],
     "kappa = nan must be finite"),
    ("weyl-indices-0", ["weyl", *FICHERA, "--indices", "0"], "window index"),
    ("weyl-h-grid-0.5", ["weyl", *FICHERA, "--h-grid", "0.5"], "too coarse"),
    ("waveguide-theta-200deg", ["waveguide", "--theta", "200deg"], "not in (0, pi)"),
    ("absence-alpha-0", ["absence", "--alpha", "0rad"], "alpha_2 = 0.0 not in (0, pi)"),
    ("weyl-index-1100", ["weyl", *FICHERA, "--indices", "2,1100"], "must lie in [1, 1022]"),
    # numpy's generators take no negative seed; certify would meet it in a worker
    ("waveguide-seed-negative", ["waveguide", "--theta", "90deg", "--seed", "-1"],
     "--seed -1 must be >= 0"),
    ("certify-seed-negative", [*SMALL_CERTIFY, "--levels", "1", "--seed", "-1"],
     "--seed -1 must be >= 0"),
    ("hardy-seed-negative", ["hardy", "--seed", "-1"], "--seed -1 must be >= 0"),
]


@pytest.mark.parametrize(
    "argv, message",
    [pytest.param(argv, message, id=name) for name, argv, message in _CHECKED_BEFORE_SOLVE]
    + [
        pytest.param([*argv, "--dry-run"], message, id=f"{name}-dry")
        for name, argv, message in _CHECKED_BEFORE_SOLVE
    ],
)
def test_levels_checked_before_any_solve(argv, message, tmp_path, capsys, monkeypatch):
    from polylayer import eigensolve

    # a solve in a forked worker is seen through the marker file it leaves
    marker = tmp_path / "solved"

    def must_not_run(*args, **kwargs):
        marker.touch()
        raise AssertionError("solved before the configuration was checked")

    for module in (eigensolve, waveguide):
        monkeypatch.setattr(module, "smallest_eigenpairs", must_not_run)
    assert main([*argv, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not marker.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", *FICHERA, "--R", "3", "--h", "0.125", "--levels", "1",
         "--thr-h", "0.25", "--thr-levels", "2"],
        ["absence", "--alpha", "0.26rad", "--R", "4", "--h", "0.125", "--levels", "1",
         "--thr-h", "0.25", "--thr-levels", "2", "--star-tol", "0.05"],
    ],
    ids=["certify", "absence"],
)
def test_seed_reaches_every_solve(argv, tmp_path, monkeypatch):
    # every start vector of the run comes from --seed: the threshold chain,
    # the voxel bounds and, for absence, the alpha_star bisection
    seeds = set()
    default_rng = np.random.default_rng

    def recording(seed=None):  # the eigensolver's start-vector draws only
        if sys._getframe(1).f_globals["__name__"] == "polylayer.eigensolve":
            seeds.add(seed)
        return default_rng(seed)

    monkeypatch.setattr(fanout, "_allowed", lambda: [None])  # every solve in this process
    monkeypatch.setattr(np.random, "default_rng", recording)
    code = main([*argv, "--seed", "7", "--out", str(tmp_path)])
    assert code in (EXIT_OK, EXIT_INCONCLUSIVE)
    assert seeds == {7}


SMALL_ABSENCE = ["absence", "--R", "4", "--h", "0.125", "--levels", "1", "--thr-h", "0.25",
                 "--thr-levels", "2", "--star-tol", "0.05"]


def test_alpha_refused_by_the_bisected_bracket_exits_2(tmp_path, capsys):
    # 1.2 rad passes the check against STAR_BRACKET before any solve; only
    # the bisected bracket refuses it, once the one fan-out has returned
    code = main([*SMALL_ABSENCE, "--alpha", "1.2rad", "--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert "alpha_star in [0.3125, 0.3500]" in err
    assert "Traceback" not in err
    assert_no_child_left()


# each subcommand at a small configuration
SMALL_RUNS = {
    "angle": ["angle", *REGULAR],
    "layer": ["layer", *REGULAR],
    "waveguide": ["waveguide", "--theta", "90deg", "--h", "0.25", "--levels", "2"],
    "scan-theta": SMALL_SCAN,
    "scan-R": ["scan-R", "--theta", "90deg", "--R-list", "2,3,4", "--h", "0.25", "--levels", "2"],
    "count": SMALL_COUNT,
    "certify": [*SMALL_CERTIFY, "--levels", "1"],
    "certify-veps": ["certify-veps", *REGULAR, "--h", "0.25"],
    "absence": [*SMALL_ABSENCE, "--alpha", "0.26rad"],
    "hardy": ["hardy", "--count", "2"],
    "weyl": ["weyl", *FICHERA, "--indices", "2,3", "--h", "0.25"],
    "alpha-star": ["alpha-star", "--star-tol", "0.05", "--h", "0.25", "--levels", "2"],
}


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_one_fan_out_per_run_and_no_solve_after_it(name, tmp_path, monkeypatch):
    # a run's independent solves share its one fan-out: a solve in the CLI
    # process after the fan-out returned would have been one more task of it
    from polylayer import eigensolve

    assert set(SMALL_RUNS) == set(HANDLERS)
    events = []  # the CLI process's: a forked worker's appends stay in the worker
    fan_out = fanout.fan_out

    def fanning(thunks):
        events.append("fan_out")
        try:
            return fan_out(thunks)
        finally:
            events.append("returned")

    def recording(solve):
        def solving(*args, **kwargs):
            events.append("solve")
            return solve(*args, **kwargs)

        return solving

    for module in list(sys.modules.values()):  # every caller that imported it by name
        if vars(module).get("fan_out") is fan_out:
            monkeypatch.setattr(module, "fan_out", fanning)
    for module in (eigensolve, waveguide):
        monkeypatch.setattr(module, "smallest_eigenpairs", recording(module.smallest_eigenpairs))
    assert main([*SMALL_RUNS[name], "--out", str(tmp_path)]) in (EXIT_OK, EXIT_INCONCLUSIVE)
    assert events.count("fan_out") <= 1
    if "returned" in events:
        assert "solve" not in events[events.index("returned"):]


# each subcommand with its required flags only
DRY_RUN_ARGV = {
    "angle": REGULAR,
    "layer": REGULAR,
    "waveguide": ["--theta", "90deg"],
    "scan-theta": ["--thetas", "0.8rad,1.2rad"],
    "scan-R": ["--theta", "90deg", "--R-list", "2,3"],
    "count": ["--theta", "90deg"],
    "certify": REGULAR,
    "certify-veps": REGULAR,
    "absence": ["--alpha", "0.26rad"],
    "hardy": [],
    "weyl": FICHERA,
    "alpha-star": [],
}


@pytest.mark.parametrize("name", sorted(DRY_RUN_ARGV))
def test_dry_run_never_solves(name, tmp_path, monkeypatch):
    from polylayer import eigensolve
    from polylayer.analysis import certificates, waveguide

    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(HANDLERS) == set(subparsers.choices) == set(DRY_RUN_ARGV)

    def must_not_run(*args, **kwargs):
        raise AssertionError("a dry run solved")

    # every solve goes through eigensolve.smallest_eigenpairs, called from
    # waveguide directly or, for voxel grids, through
    # eigensolve.invariant_ground_state
    for module in (eigensolve, waveguide):
        monkeypatch.setattr(module, "smallest_eigenpairs", must_not_run)
    code, out = run_cli([name, *DRY_RUN_ARGV[name], "--dry-run"], tmp_path, name)
    assert code == EXIT_OK
    assert json.loads((out / f"{name}.json").read_text())["payload"]["dry_run"] is True


@pytest.mark.parametrize(
    "argv",
    [
        [*SMALL_CERTIFY, "--pairs", "7"],
        [*SMALL_CERTIFY, "--tol", "1e-3"],
        ["certify-veps", *REGULAR, "--pairs", "7"],
        ["certify-veps", *REGULAR, "--tol", "1e-3"],
        ["absence", "--alpha", "0.26rad", "--pairs", "7"],
        ["absence", "--alpha", "0.26rad", "--tol", "1e-3"],
        ["waveguide", "--theta", "90deg", "--tol", "1e-3"],
        ["scan-theta", "--thetas", "0.8rad,1.2rad", "--tol", "1e-3"],
        ["scan-R", "--theta", "90deg", "--R-list", "2,3", "--tol", "1e-3"],
        ["count", "--theta", "90deg", "--tol", "1e-3"],
        ["scan-R", "--theta", "90deg", "--R-list", "2,3", "--R", "3"],
        ["scan-theta", "--thetas", "0.8rad,1.2rad", "--pairs", "2"],
        ["scan-R", "--theta", "90deg", "--R-list", "2,3", "--pairs", "2"],
        ["angle", *REGULAR, "--seed", "5"],
        ["layer", *REGULAR, "--seed", "5"],
        ["count", "--theta", "90deg", "--threads", "1"],
        ["angle", *REGULAR, "--formats", "json"],
        ["count", "--theta", "90deg", "--formats", "json"],
        [*SMALL_CERTIFY, "--formats", "json"],
        ["hardy", "--formats", "json"],
    ],
    ids=["certify-pairs", "certify-tol", "certify-veps-pairs", "certify-veps-tol",
         "absence-pairs", "absence-tol", "waveguide-tol", "scan-theta-tol", "scan-R-tol",
         "count-tol", "scan-R-R", "scan-theta-pairs", "scan-R-pairs",
         "angle-seed", "layer-seed",
         "count-threads", "angle-formats", "count-formats", "certify-formats",
         "hardy-formats"],
)
def test_flags_a_subcommand_does_not_read_are_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_every_exception_derives_from_the_common_base():
    # the CLI maps errors to exit codes through this base alone
    import polylayer
    from polylayer.errors import PolylayerError

    classes = []
    for info in pkgutil.walk_packages(polylayer.__path__, "polylayer."):
        if info.name == "polylayer.__main__":  # runs the CLI on import
            continue
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                inspect.isclass(obj)
                and issubclass(obj, Exception)
                and obj.__module__ == info.name
            ):
                classes.append(obj)
    assert len(classes) >= 8
    stray = [c.__qualname__ for c in classes if not issubclass(c, PolylayerError)]
    assert not stray
    assert {c.exit_code for c in classes} == {EXIT_CONFIG, EXIT_NONCONVERGED}
