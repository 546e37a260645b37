"""Configuration-driven experiment runner.

One subcommand per claim keeps acceptance runs scriptable:

    angle, layer          geometry reports (no solving)
    waveguide             truncated-waveguide eigenvalue + extrapolation
    scan-theta, scan-R    monotonicity and truncation-convergence scans
    count                 eigenvalues certified below the threshold
    certify               3D inscribed-domain existence certificate
    certify-veps          exponential trial-function certificate
    absence               no-trapped-waves consistency experiment
    hardy                 Hardy-type inequality checks
    weyl                  Weyl-sequence residuals
    alpha-star            critical angle where lambda_1 crosses pi^2/2

The parsed flags are the run configuration (echoed in ``meta.config``).
Angles are accepted only with an explicit 'deg' or 'rad' suffix; there is no
default unit.  Results are written atomically into the output directory as a
JSON bundle whose payload section is byte-reproducible for identical configs
and seeds, whatever the host's BLAS thread count or CPU count (run metadata
such as wall time lives in the separate meta section).  Exit codes: 0
success, 2 config error (invalid input), 3 numerical non-convergence, 4
inconclusive certificate.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time

from . import __version__
from .errors import INCONCLUSIVE, ConfigError, PolylayerError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_INCONCLUSIVE = 4

DEFAULT_OUTDIR_ENV = "POLYLAYER_OUTDIR"

# the subcommands that write side files, and the --formats entries each takes
_FORMATS = {
    "waveguide": ("json", "pgm"),
    "scan-theta": ("json", "csv", "svg"),
    "scan-R": ("json", "csv", "svg"),
    "certify-veps": ("json", "csv"),
}

# numpy's and scipy's bundled OpenBLAS: (package, library glob, thread setter)
_OPENBLAS = (
    ("numpy", "libscipy_openblas64_*.so", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas*.so", "scipy_openblas_set_num_threads"),
)


def parse_angle(text: str) -> float:
    """Angle with a mandatory 'deg' or 'rad' suffix, returned in radians."""
    token = text.strip()
    if token.endswith("deg"):
        return math.radians(float(token[:-3]))
    if token.endswith("rad"):
        return float(token[:-3])
    raise ConfigError(
        f"angle {text!r} needs an explicit unit suffix ('deg' or 'rad')"
    )


def parse_angle_list(text: str) -> tuple:
    return tuple(parse_angle(tok) for tok in text.split(","))


def parse_float_list(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(","))


def parse_int_list(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(","))


def _geometry_args(sub):
    sub.add_argument("--kind", choices=("trihedral", "regular"), required=True)
    sub.add_argument(
        "--alpha",
        type=parse_angle_list,
        required=True,
        help="vertex angle(s) with unit suffix, e.g. 90deg,45deg,90deg or 60deg",
    )
    sub.add_argument("--n", type=int, default=None, help="face count (regular)")


# numerics flags by argparse name: (flag, type); ``build_parser`` gives each
# subcommand only the ones its handler reads
_NUMERICS_FLAGS = {
    "h": ("--h", float),
    "levels": ("--levels", int),
    "R": ("--R", float),
    "num_pairs": ("--pairs", int),
    "tol": ("--tol", float),
    "thr_h": ("--thr-h", float),
    "thr_levels": ("--thr-levels", int),
    "star_tol": ("--star-tol", float),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument("--dry-run", action="store_true")

    p = argparse.ArgumentParser(
        prog="polylayer",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sp = p.add_subparsers(dest="subcommand", required=True)

    def add(name, geometry=False, seed=True, **numerics):  # numerics: name=default
        # no abbreviations: scan-R would read --R as --R-list
        sub = sp.add_parser(name, parents=[common], allow_abbrev=False)
        if seed:
            sub.add_argument("--seed", type=int, default=0)
        if name in _FORMATS:
            sub.add_argument(
                "--formats", default="json", help="comma list of " + ",".join(_FORMATS[name])
            )
        if geometry:
            _geometry_args(sub)
        for dest, default in numerics.items():
            flag, kind = _NUMERICS_FLAGS[dest]
            sub.add_argument(flag, dest=dest, type=kind, default=default)
        return sub

    add("angle", geometry=True, seed=False)
    add("layer", geometry=True, seed=False)

    sub = add("waveguide", h=0.1, levels=3, R=None, num_pairs=1, tol=1e-8)
    sub.add_argument("--theta", type=parse_angle, required=True)

    sub = add("scan-theta", h=0.1, levels=3, R=None, num_pairs=1, tol=1e-8)
    sub.add_argument("--thetas", type=parse_angle_list, required=True)

    sub = add("scan-R", h=0.125, levels=3, num_pairs=1, tol=1e-8)
    sub.add_argument("--theta", type=parse_angle, required=True)
    sub.add_argument("--R-list", type=parse_float_list, required=True)

    sub = add("count", h=0.1, levels=3, R=None, num_pairs=6, tol=1e-8)
    sub.add_argument("--theta", type=parse_angle, required=True)

    add("certify", geometry=True, h=0.1, levels=2, R=6.0, thr_h=0.05, thr_levels=3)

    sub = add("certify-veps", geometry=True, h=0.05, levels=3, R=None)
    sub.add_argument(
        "--eps", type=parse_float_list, default=None, help="epsilon grid"
    )

    sub = add(
        "absence", h=1.0 / 6.0, levels=2, R=4.0, thr_h=0.05, thr_levels=3, star_tol=5e-3
    )
    sub.add_argument("--alpha", type=parse_angle, required=True)

    sub = add("hardy", seed=False)
    sub.add_argument(
        "--case", choices=("exp", "invz", "random"), default="random"
    )
    # --case random only: absent unless given, defaulted in _check_args
    sub.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    sub.add_argument("--count", type=int, default=argparse.SUPPRESS)

    sub = add("weyl", geometry=True, h=0.04, levels=2, R=16.0)
    sub.add_argument("--indices", type=parse_int_list, default=(2, 3, 4, 5))
    sub.add_argument("--kappa", type=float, default=0.0)
    sub.add_argument("--h-grid", type=float, default=0.08)

    add("alpha-star", h=0.1, levels=3, star_tol=5e-3)

    return p


def _check_args(args: argparse.Namespace) -> None:
    """The checks argparse cannot express; resolves --out, --formats and the
    hardy defaults."""
    args.out = args.out or os.environ.get(DEFAULT_OUTDIR_ENV) or "polylayer-out"
    if hasattr(args, "formats"):
        args.formats = tuple(tok.strip() for tok in args.formats.split(",") if tok.strip())
        unknown = set(args.formats) - set(_FORMATS[args.subcommand])
        if unknown:
            raise ConfigError(f"{args.subcommand} writes no formats {sorted(unknown)}")
    if args.subcommand == "hardy":  # --seed and --count drive --case random only
        if args.case == "random":
            args.seed, args.count = getattr(args, "seed", 0), getattr(args, "count", 100)
        elif hasattr(args, "seed") or hasattr(args, "count"):
            raise ConfigError(f"hardy --case {args.case} takes no --seed or --count")
    kind = getattr(args, "kind", None)
    if kind == "regular":
        if args.n is None:
            raise ConfigError("regular geometry needs --n")
        if len(args.alpha) != 1:
            raise ConfigError("regular geometry takes a single --alpha")
    elif kind == "trihedral":
        if args.n is not None:
            raise ConfigError("trihedral geometry takes no --n")
        if len(args.alpha) != 3:
            raise ConfigError("trihedral geometry takes three --alpha values")


def _build_angle(args):
    """The polyhedral angle the flags describe; ``absence --alpha`` is the
    third vertex angle of a trihedral angle with two right ones."""
    from .geometry import build_regular, build_trihedral

    if args.subcommand == "absence":
        return build_trihedral((math.pi / 2, args.alpha, math.pi / 2))
    if args.kind == "regular":
        return build_regular(args.n, args.alpha[0])
    return build_trihedral(args.alpha)


def _build_layer(args):
    from .geometry import make_layer

    return make_layer(_build_angle(args))


def _numerics(args):
    """Waveguide numerics from whichever of --h, --levels, --R, --pairs,
    --tol and --seed the subcommand takes; the rest keep their defaults."""
    from .analysis import WaveguideNumerics

    names = {f.name for f in dataclasses.fields(WaveguideNumerics)}
    return WaveguideNumerics(**{k: v for k, v in vars(args).items() if k in names})


def _dry_run_payload(args) -> dict:
    """Geometry validation and solve plan, no eigensolves."""
    payload: dict = {"dry_run": True, "plan": {}}
    if hasattr(args, "alpha"):
        layer = _build_layer(args)
        payload["geometry"] = layer.to_report()
        if hasattr(args, "h"):  # certify and absence name their own numerics
            payload["plan"]["threshold"] = {
                "theta": layer.beta_min,
                "h": getattr(args, "thr_h", args.h),
                "levels": getattr(args, "thr_levels", args.levels),
            }
    if hasattr(args, "theta"):
        payload["plan"]["waveguide"] = {
            "theta": args.theta,
            "h": args.h,
            "levels": args.levels,
            "R": getattr(args, "R", None),  # scan-R takes --R-list instead
        }
    return payload


# --- one handler per subcommand: (args, files) -> payload.  ``files`` maps a
# side file's name to its writer's arguments.  Handlers import analysis
# functions at call time, so wrappers installed on ``polylayer.analysis`` apply.


def _angle(args, files):
    return _build_angle(args).to_report()


def _layer(args, files):
    return _build_layer(args).to_report()


def _waveguide(args, files):
    from .analysis import solve_waveguide_mode
    from .report import sha256_of_arrays

    mode = solve_waveguide_mode(args.theta, _numerics(args))
    payload = mode.threshold.to_json()
    payload["mesh_sha256"] = sha256_of_arrays(mode.mesh.nodes, mode.mesh.triangles)
    if "pgm" in args.formats:
        files["waveguide_mode.pgm"] = (_mode_heatmap(mode),)
    return payload


def _scan_files(args, files, scan, x_name, x_label, refs, columns=()):
    """The side files of a scan: a CSV table (the parameter, lambda1, its
    indicator and the named record ``columns``) and an SVG plot of lambda1."""
    stem = f"scan_{x_name}"
    if "csv" in args.formats:
        files[f"{stem}.csv"] = (
            [x_name, "lambda1", "error_indicator", *columns],
            [
                [r.parameter, r.eigenvalues[0], r.error_indicators[0]]
                + [getattr(r, c) for c in columns]
                for r in scan.records
            ],
        )
    if "svg" in args.formats:
        xs = [r.parameter for r in scan.records]
        ys = [r.eigenvalues[0] for r in scan.records]
        files[f"{stem}.svg"] = ({f"lambda1({x_name})": (xs, ys)}, x_label, "lambda1", refs)
    return scan.to_json()


def _scan_theta(args, files):
    from .analysis import scan_theta

    scan = scan_theta(args.thetas, _numerics(args))
    refs = {"pi^2": math.pi**2, "pi^2/4": math.pi**2 / 4}
    return _scan_files(args, files, scan, "theta", "theta (rad)", refs, ("R", "h", "levels"))


def _scan_R(args, files):
    from .analysis import scan_truncation

    scan = scan_truncation(args.theta, args.R_list, _numerics(args))
    refs = {"asymptote": scan.asymptote}
    return _scan_files(args, files, scan, "R", "outlet length R", refs)


def _count(args, files):
    from .analysis import count_below_threshold

    return count_below_threshold(
        args.theta, _numerics(args), num_pairs=args.num_pairs
    ).to_json()


def _certify(args, files):
    from .analysis import WaveguideNumerics, certify_discrete

    return certify_discrete(
        _build_layer(args),
        R=args.R,
        h=args.h,
        levels=args.levels,
        threshold_numerics=WaveguideNumerics(h=args.thr_h, levels=args.thr_levels),
        seed=args.seed,
    ).to_json()


def _certify_veps(args, files):
    from .analysis import veps_certificate

    cert = veps_certificate(
        _build_layer(args), eps_grid=args.eps, mode_numerics=_numerics(args)
    )
    if "csv" in args.formats:
        files["veps_terms.csv"] = (
            ["eps", "T1", "T2", "T3", "value"],
            [
                [r["eps"], r["T1"], r["T2"], r["T3"], r["value"]]
                for r in cert.evidence["terms"]
            ],
        )
    return cert.to_json()


def _absence(args, files):
    from .analysis import WaveguideNumerics, absence_experiment

    return absence_experiment(
        args.alpha,
        R=args.R,
        h=args.h,
        levels=args.levels,
        threshold_numerics=WaveguideNumerics(h=args.thr_h, levels=args.thr_levels),
        star_tol=args.star_tol,
        seed=args.seed,
    ).to_json()


def _hardy(args, files):
    import numpy as np

    from .analysis import hardy_check, random_decaying_sample, sample_from_function

    if args.case == "exp":
        sample = sample_from_function(lambda z: np.exp(1.0 - z), z_max=30.0, n=30_000)
        return {"case": "exp", "report": hardy_check(sample).to_json()}
    if args.case == "invz":
        sample = sample_from_function(
            lambda z: 1.0 / z, z_max=500.0, n=200_000, taper=3.0
        )
        return {"case": "invz", "report": hardy_check(sample).to_json()}
    rng = np.random.default_rng(args.seed)
    reports = [hardy_check(random_decaying_sample(rng)) for _ in range(args.count)]
    return {
        "case": "random",
        "count": args.count,
        "all_hold": all(rep.lemma_holds and rep.corollary_holds for rep in reports),
        "reports": [rep.to_json() for rep in reports],
    }


def _weyl(args, files):
    from .analysis import WeylConfig, solve_waveguide_mode, weyl_residual

    layer = _build_layer(args)
    numerics = _numerics(args)
    mode = solve_waveguide_mode(layer.beta_min, numerics)
    rows = []
    for n in args.indices:
        cfg = WeylConfig(
            index=n, kappa=args.kappa, h_grid=args.h_grid, mode_numerics=numerics
        )
        rows.append(weyl_residual(layer, cfg, mode=mode).to_json())
    return {"elements": rows, "kappa": args.kappa}


def _alpha_star(args, files):
    from .analysis import alpha_star

    return alpha_star(tol=args.star_tol, numerics=_numerics(args)).to_json()


HANDLERS = {
    "angle": _angle,
    "layer": _layer,
    "waveguide": _waveguide,
    "scan-theta": _scan_theta,
    "scan-R": _scan_R,
    "count": _count,
    "certify": _certify,
    "certify-veps": _certify_veps,
    "absence": _absence,
    "hardy": _hardy,
    "weyl": _weyl,
    "alpha-star": _alpha_star,
}


def run(args: argparse.Namespace) -> tuple:
    """Execute the parsed subcommand; returns (payload, exit_code, files).

    ``files`` maps relative file names inside the output directory to the
    arguments of their writer; the JSON bundle itself is handled by the caller.
    """
    if args.dry_run:
        return _dry_run_payload(args), EXIT_OK, {}

    files: dict = {}
    payload = HANDLERS[args.subcommand](args, files)
    code = EXIT_INCONCLUSIVE if payload.get("verdict") == INCONCLUSIVE else EXIT_OK
    return payload, code, files


def _mode_heatmap(mode, resolution: int = 400):
    import numpy as np

    from .mesh2d import evaluate_batch

    nodes = mode.mesh.nodes
    lo = nodes.min(axis=0)
    hi = nodes.max(axis=0)
    nx = resolution
    ny = max(2, int(resolution * (hi[1] - lo[1]) / max(hi[0] - lo[0], 1e-9)))
    xs = np.linspace(lo[0], hi[0], nx)
    ys = np.linspace(lo[1], hi[1], ny)
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    pts = np.stack([X.ravel(), Y.ravel()], axis=1)
    vals, inside = evaluate_batch(mode.mesh, mode.values[:, 0], pts)
    img = np.abs(vals).reshape(ny, nx)
    img[~inside.reshape(ny, nx)] = 0.0
    return img[::-1]


def _write_outputs(args, payload: dict, files: dict, started: float, blas_pinned: bool):
    from .fanout import cpus
    from .report import make_meta, write_bundle, write_csv, write_pgm, write_svg_lines

    bundle_path = os.path.join(args.out, f"{args.subcommand}.json")
    echo = {k: (list(v) if isinstance(v, tuple) else v) for k, v in vars(args).items()}
    meta = make_meta(echo, started, __version__)
    meta["blas_pinned"] = blas_pinned
    meta["cpus"] = cpus()  # how many independent solves could run at once
    write_bundle(bundle_path, payload, meta)
    writers = {".csv": write_csv, ".svg": write_svg_lines, ".pgm": write_pgm}
    for name, content in files.items():
        writers[os.path.splitext(name)[1]](os.path.join(args.out, name), *content)
    return bundle_path


def _pin_blas() -> bool:
    """Pin the bundled OpenBLAS of numpy and scipy to one thread, so that
    ARPACK's dense BLAS sums in one order and the payload bytes do not depend
    on the host's thread count.  True when both setters were found and
    called; False under another BLAS, which is left as it is."""
    import ctypes
    import glob
    from importlib.util import find_spec

    pinned = []
    for package, pattern, setter in _OPENBLAS:
        site = os.path.dirname(os.path.dirname(find_spec(package).origin))
        libs = [ctypes.CDLL(p) for p in glob.glob(os.path.join(site, f"{package}.libs", pattern))]
        setters = [getattr(lib, setter) for lib in libs if hasattr(lib, setter)]
        for set_threads in setters:
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(1)
        pinned.append(bool(setters))
    return all(pinned)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_args(args)
        blas_pinned = _pin_blas()
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create output directory: {exc}") from exc
        started = time.time()
        payload, code, files = run(args)
    except (PolylayerError, ValueError) as exc:
        # a ValueError from numpy/scipy is bad input as well
        code = getattr(exc, "exit_code", EXIT_CONFIG)
        label = "numerical failure" if code == EXIT_NONCONVERGED else "config error"
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    print(_write_outputs(args, payload, files, started, blas_pinned))
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
