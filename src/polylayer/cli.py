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

Angles are accepted only with an explicit 'deg' or 'rad' suffix; there is no
default unit.  Results are written atomically into the output directory as a
JSON bundle whose payload section is byte-reproducible for identical configs
and seeds (run metadata such as wall time lives in the separate meta
section).  Exit codes: 0 success, 2 config error, 3 numerical
non-convergence, 4 inconclusive certificate.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

from . import __version__
from .errors import PolylayerError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_INCONCLUSIVE = 4

DEFAULT_OUTDIR_ENV = "POLYLAYER_OUTDIR"
_THREADS_SENTINEL = "POLYLAYER_THREADS_APPLIED"

KNOWN_FORMATS = ("json", "csv", "svg", "pgm")


class ConfigError(PolylayerError, ValueError):
    """Invalid command-line or file configuration."""


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


@dataclass(frozen=True)
class RunConfig:
    """Validated run description; echoes into the report bundle."""

    subcommand: str
    kind: Optional[str] = None  # trihedral | regular
    alphas: Optional[tuple] = None  # radians
    n_faces: Optional[int] = None
    theta: Optional[float] = None
    thetas: Optional[tuple] = None
    R: Optional[float] = None
    R_list: Optional[tuple] = None
    h: float = 0.1
    levels: int = 3
    num_pairs: int = 1
    tol: float = 1e-8
    seed: int = 0
    eps_grid: Optional[tuple] = None
    alpha: Optional[float] = None
    indices: Optional[tuple] = None
    kappa: float = 0.0
    h_grid: float = 0.08
    star_tol: float = 5e-3
    hardy_case: Optional[str] = None
    hardy_count: int = 100
    thr_h: float = 0.05
    thr_levels: int = 3
    out_dir: str = ""
    formats: tuple = ("json",)
    dry_run: bool = False
    threads: Optional[int] = None

    def to_dict(self) -> dict:
        raw = dataclasses.asdict(self)
        return {k: (list(v) if isinstance(v, tuple) else v) for k, v in raw.items()}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - names
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        tuple_fields = {
            "alphas",
            "thetas",
            "R_list",
            "eps_grid",
            "indices",
            "formats",
        }
        clean = {
            k: (tuple(v) if k in tuple_fields and v is not None else v)
            for k, v in data.items()
        }
        return cls(**clean)


def _geometry_args(sub):
    sub.add_argument("--kind", choices=("trihedral", "regular"), required=True)
    sub.add_argument(
        "--alpha",
        type=parse_angle_list,
        required=True,
        help="vertex angle(s) with unit suffix, e.g. 90deg,45deg,90deg or 60deg",
    )
    sub.add_argument("--n", type=int, default=None, help="face count (regular)")


def _numerics_args(sub, h=0.1, levels=3):
    sub.add_argument("--h", type=float, default=h)
    sub.add_argument("--levels", type=int, default=levels)
    sub.add_argument("--R", type=float, default=None)
    sub.add_argument("--pairs", type=int, default=1)
    sub.add_argument("--tol", type=float, default=1e-8)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None, help="output directory")
    common.add_argument(
        "--formats",
        default="json",
        help="comma list of json,csv,svg,pgm",
    )
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--dry-run", action="store_true")
    common.add_argument("--threads", type=int, default=None)

    p = argparse.ArgumentParser(
        prog="polylayer",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sp = p.add_subparsers(dest="subcommand", required=True)

    def add(name):
        return sp.add_parser(name, parents=[common])

    for name in ("angle", "layer"):
        sub = add(name)
        _geometry_args(sub)

    sub = add("waveguide")
    sub.add_argument("--theta", type=parse_angle, required=True)
    _numerics_args(sub)

    sub = add("scan-theta")
    sub.add_argument("--thetas", type=parse_angle_list, required=True)
    _numerics_args(sub)

    sub = add("scan-R")
    sub.add_argument("--theta", type=parse_angle, required=True)
    sub.add_argument("--R-list", type=parse_float_list, required=True)
    _numerics_args(sub, h=0.125)

    sub = add("count")
    sub.add_argument("--theta", type=parse_angle, required=True)
    _numerics_args(sub)
    sub.set_defaults(pairs=6)

    sub = add("certify")
    _geometry_args(sub)
    _numerics_args(sub, h=0.1, levels=2)
    sub.add_argument("--thr-h", type=float, default=0.05)
    sub.add_argument("--thr-levels", type=int, default=3)
    sub.set_defaults(R=6.0)

    sub = add("certify-veps")
    _geometry_args(sub)
    _numerics_args(sub, h=0.05, levels=3)
    sub.add_argument(
        "--eps", type=parse_float_list, default=None, help="epsilon grid"
    )

    sub = add("absence")
    sub.add_argument("--alpha", type=parse_angle, required=True)
    _numerics_args(sub, h=1.0 / 6.0, levels=2)
    sub.add_argument("--thr-h", type=float, default=0.05)
    sub.add_argument("--thr-levels", type=int, default=3)
    sub.add_argument("--star-tol", type=float, default=5e-3)
    sub.set_defaults(R=4.0)

    sub = add("hardy")
    sub.add_argument(
        "--case", choices=("exp", "invz", "random"), default="random"
    )
    sub.add_argument("--count", type=int, default=100)

    sub = add("weyl")
    _geometry_args(sub)
    sub.add_argument("--indices", type=parse_int_list, default=(2, 3, 4, 5))
    sub.add_argument("--kappa", type=float, default=0.0)
    sub.add_argument("--h-grid", type=float, default=0.08)
    sub.add_argument("--h", type=float, default=0.04)
    sub.add_argument("--levels", type=int, default=2)
    sub.add_argument("--R", type=float, default=16.0)

    sub = add("alpha-star")
    sub.add_argument("--star-tol", type=float, default=5e-3)
    sub.add_argument("--h", type=float, default=0.1)
    sub.add_argument("--levels", type=int, default=3)

    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    out = args.out or os.environ.get(DEFAULT_OUTDIR_ENV) or "polylayer-out"
    formats = tuple(tok.strip() for tok in args.formats.split(",") if tok.strip())
    unknown = set(formats) - set(KNOWN_FORMATS)
    if unknown:
        raise ConfigError(f"unknown output formats: {sorted(unknown)}")
    kw = dict(
        subcommand=args.subcommand,
        out_dir=out,
        formats=formats,
        seed=args.seed,
        dry_run=args.dry_run,
        threads=args.threads,
    )
    if hasattr(args, "kind"):
        alphas = args.alpha
        kw.update(kind=args.kind, alphas=alphas, n_faces=args.n)
        if args.kind == "regular":
            if args.n is None:
                raise ConfigError("regular geometry needs --n")
            if len(alphas) != 1:
                raise ConfigError("regular geometry takes a single --alpha")
        elif len(alphas) != 3:
            raise ConfigError("trihedral geometry takes three --alpha values")
    for src, dst in (
        ("theta", "theta"),
        ("thetas", "thetas"),
        ("R", "R"),
        ("R_list", "R_list"),
        ("h", "h"),
        ("levels", "levels"),
        ("pairs", "num_pairs"),
        ("tol", "tol"),
        ("eps", "eps_grid"),
        ("alpha_value", "alpha"),
        ("indices", "indices"),
        ("kappa", "kappa"),
        ("h_grid", "h_grid"),
        ("star_tol", "star_tol"),
        ("case", "hardy_case"),
        ("count", "hardy_count"),
        ("thr_h", "thr_h"),
        ("thr_levels", "thr_levels"),
    ):
        if hasattr(args, src):
            kw[dst] = getattr(args, src)
    if args.subcommand == "absence":
        kw["alpha"] = args.alpha
        kw.pop("alphas", None)
    return RunConfig(**kw)


def _build_angle(config: RunConfig):
    from .geometry import build_regular, build_trihedral

    if config.kind == "regular":
        return build_regular(config.n_faces, config.alphas[0])
    return build_trihedral(config.alphas)


def _numerics(config: RunConfig):
    from .analysis import WaveguideNumerics

    return WaveguideNumerics(
        h=config.h,
        levels=config.levels,
        R=config.R,
        num_pairs=config.num_pairs,
        tol=config.tol,
        seed=config.seed,
    )


def _dry_run_payload(config: RunConfig) -> dict:
    """Geometry validation and solve plan, no eigensolves."""
    payload: dict = {"dry_run": True, "plan": {}}
    if config.kind is not None or config.subcommand == "absence":
        from .geometry import build_trihedral, make_layer

        angle = (
            build_trihedral((math.pi / 2, config.alpha, math.pi / 2))
            if config.subcommand == "absence"
            else _build_angle(config)
        )
        layer = make_layer(angle)
        payload["geometry"] = layer.to_report()
        payload["plan"]["threshold"] = {
            "theta": layer.beta_min,
            "h": config.thr_h if config.subcommand in ("certify", "absence") else config.h,
            "levels": config.thr_levels
            if config.subcommand in ("certify", "absence")
            else config.levels,
        }
    if config.theta is not None:
        payload["plan"]["waveguide"] = {
            "theta": config.theta,
            "h": config.h,
            "levels": config.levels,
            "R": config.R,
        }
    return payload


def run(config: RunConfig) -> tuple:
    """Execute the configured operation; returns (payload, exit_code, files).

    ``files`` maps relative file names inside the output directory to their
    content description; the JSON bundle itself is handled by the caller.
    """
    import numpy as np

    if config.dry_run:
        return _dry_run_payload(config), EXIT_OK, {}

    from .analysis import (
        INCONCLUSIVE,
        WaveguideNumerics,
        WeylConfig,
        absence_experiment,
        alpha_star,
        certify_discrete,
        count_below_threshold,
        scan_theta,
        scan_truncation,
        solve_waveguide_mode,
        veps_certificate,
        weyl_residual,
    )
    from .geometry import make_layer

    files: dict = {}

    if config.subcommand == "angle":
        payload = _build_angle(config).to_report()

    elif config.subcommand == "layer":
        payload = make_layer(_build_angle(config)).to_report()

    elif config.subcommand == "waveguide":
        mode = solve_waveguide_mode(config.theta, _numerics(config))
        payload = mode.threshold.to_json()
        from .report import sha256_of_arrays

        payload["mesh_sha256"] = sha256_of_arrays(
            mode.mesh.nodes, mode.mesh.triangles
        )
        if "pgm" in config.formats:
            files["waveguide_mode.pgm"] = _mode_heatmap(mode)

    elif config.subcommand == "scan-theta":
        scan = scan_theta(config.thetas, _numerics(config))
        payload = scan.to_json()
        if "csv" in config.formats:
            files["scan_theta.csv"] = (
                ["theta", "lambda1", "error_indicator", "R", "h", "levels"],
                [
                    [r.parameter, r.eigenvalues[0], r.error_indicators[0], r.R, r.h, r.levels]
                    for r in scan.records
                ],
            )
        if "svg" in config.formats:
            xs = [r.parameter for r in scan.records]
            ys = [r.eigenvalues[0] for r in scan.records]
            files["scan_theta.svg"] = (
                {"lambda1(theta)": (xs, ys)},
                "theta (rad)",
                "lambda1",
                {"pi^2": math.pi**2, "pi^2/4": math.pi**2 / 4},
            )

    elif config.subcommand == "scan-R":
        scan = scan_truncation(config.theta, config.R_list, _numerics(config))
        payload = scan.to_json()
        if "csv" in config.formats:
            files["scan_R.csv"] = (
                ["R", "lambda1", "error_indicator"],
                [
                    [r.parameter, r.eigenvalues[0], r.error_indicators[0]]
                    for r in scan.records
                ],
            )
        if "svg" in config.formats:
            xs = [r.parameter for r in scan.records]
            ys = [r.eigenvalues[0] for r in scan.records]
            files["scan_R.svg"] = (
                {"lambda1(R)": (xs, ys)},
                "outlet length R",
                "lambda1",
                {"asymptote": scan.asymptote},
            )

    elif config.subcommand == "count":
        result = count_below_threshold(
            config.theta, _numerics(config), num_pairs=config.num_pairs
        )
        payload = result.to_json()

    elif config.subcommand == "certify":
        layer = make_layer(_build_angle(config))
        cert = certify_discrete(
            layer,
            R=config.R,
            h=config.h,
            levels=config.levels,
            threshold_numerics=WaveguideNumerics(h=config.thr_h, levels=config.thr_levels),
            seed=config.seed,
        )
        payload = cert.to_json()

    elif config.subcommand == "certify-veps":
        layer = make_layer(_build_angle(config))
        eps = config.eps_grid if config.eps_grid else None
        cert = veps_certificate(
            layer,
            eps_grid=np.asarray(eps) if eps else None,
            mode_numerics=WaveguideNumerics(
                h=config.h, levels=config.levels, R=config.R, seed=config.seed
            ),
        )
        payload = cert.to_json()
        if "csv" in config.formats:
            files["veps_terms.csv"] = (
                ["eps", "T1", "T2", "T3", "value"],
                [
                    [r["eps"], r["T1"], r["T2"], r["T3"], r["value"]]
                    for r in cert.evidence["terms"]
                ],
            )

    elif config.subcommand == "absence":
        cert = absence_experiment(
            config.alpha,
            R=config.R,
            h=config.h,
            levels=config.levels,
            threshold_numerics=WaveguideNumerics(h=config.thr_h, levels=config.thr_levels),
            star_tol=config.star_tol,
            seed=config.seed,
        )
        payload = cert.to_json()

    elif config.subcommand == "hardy":
        payload = _run_hardy(config)

    elif config.subcommand == "weyl":
        layer = make_layer(_build_angle(config))
        mode_numerics = WaveguideNumerics(
            h=config.h, levels=config.levels, R=config.R, seed=config.seed
        )
        mode = solve_waveguide_mode(layer.beta_min, mode_numerics)
        rows = []
        for n in config.indices:
            cfg = WeylConfig(
                index=n,
                kappa=config.kappa,
                h_grid=config.h_grid,
                mode_numerics=mode_numerics,
            )
            rows.append(weyl_residual(layer, cfg, mode=mode).to_json())
        payload = {"elements": rows, "kappa": config.kappa}

    elif config.subcommand == "alpha-star":
        star = alpha_star(
            tol=config.star_tol,
            numerics=WaveguideNumerics(h=config.h, levels=config.levels),
        )
        payload = star.to_json()

    else:  # pragma: no cover - argparse guards this
        raise ConfigError(f"unknown subcommand {config.subcommand}")

    code = EXIT_INCONCLUSIVE if payload.get("verdict") == INCONCLUSIVE else EXIT_OK
    return payload, code, files


def _run_hardy(config: RunConfig) -> dict:
    import numpy as np

    from .analysis import hardy_check, random_decaying_sample, sample_from_function

    if config.hardy_case == "exp":
        sample = sample_from_function(lambda z: np.exp(1.0 - z), z_max=30.0, n=30_000)
        return {"case": "exp", "report": hardy_check(sample).to_json()}
    if config.hardy_case == "invz":
        sample = sample_from_function(
            lambda z: 1.0 / z, z_max=500.0, n=200_000, taper=3.0
        )
        return {"case": "invz", "report": hardy_check(sample).to_json()}
    rng = np.random.default_rng(config.seed)
    rows = []
    all_hold = True
    for _ in range(config.hardy_count):
        rep = hardy_check(random_decaying_sample(rng))
        all_hold &= rep.lemma_holds and rep.corollary_holds
        rows.append(rep.to_json())
    return {
        "case": "random",
        "count": config.hardy_count,
        "all_hold": bool(all_hold),
        "reports": rows,
    }


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


def _write_outputs(config: RunConfig, payload: dict, files: dict, started: float):
    from .report import make_meta, write_bundle, write_csv, write_pgm, write_svg_lines

    os.makedirs(config.out_dir, exist_ok=True)
    bundle_path = os.path.join(config.out_dir, f"{config.subcommand}.json")
    meta = make_meta(config.to_dict(), started, __version__)
    write_bundle(bundle_path, payload, meta)
    for name, content in files.items():
        path = os.path.join(config.out_dir, name)
        if name.endswith(".csv"):
            header, rows = content
            write_csv(path, header, rows)
        elif name.endswith(".svg"):
            series, xlabel, ylabel, hlines = content
            write_svg_lines(path, series, xlabel, ylabel, hlines)
        elif name.endswith(".pgm"):
            write_pgm(path, content)
    return bundle_path


def _apply_threads(argv, threads: Optional[int]) -> None:
    """Re-exec with BLAS/OpenMP thread caps applied before numpy loads."""
    if threads is None or os.environ.get(_THREADS_SENTINEL) == str(threads):
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    os.environ[_THREADS_SENTINEL] = str(threads)
    os.execv(sys.executable, [sys.executable, "-m", "polylayer", *argv])


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
        if args.subcommand == "absence":
            args.alpha_value = args.alpha  # scalar angle, not a geometry list
        config = config_from_args(args)
        _apply_threads(argv, config.threads)
        started = time.time()
        payload, code, files = run(config)
    except (PolylayerError, ValueError) as exc:
        # a ValueError from numpy/scipy is bad input as well
        code = getattr(exc, "exit_code", EXIT_CONFIG)
        label = "numerical failure" if code == EXIT_NONCONVERGED else "config error"
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    bundle = _write_outputs(config, payload, files, started)
    print(bundle)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
