"""Report emission: deterministic JSON bundles, flat CSV, and presentation
plots (SVG polylines, PGM heatmaps).  Bundles are written atomically and the
payload bytes are reproducible for identical configs and seeds; wall time and
other run metadata live in a separate section excluded from that contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from typing import Iterable

import numpy as np

def sha256_of_arrays(*arrays) -> str:
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a).tobytes())
    return digest.hexdigest()


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def payload_bytes(payload: dict) -> bytes:
    return json.dumps(
        payload, sort_keys=True, indent=1, default=_json_default
    ).encode()


def write_atomic(path: str, data: bytes) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as f:
        f.write(data)
    os.replace(tmp, path)


def write_bundle(path: str, payload: dict, meta: dict) -> None:
    """Bundle = {'meta': run metadata, 'payload': deterministic results}."""
    body = (
        b'{\n"meta": '
        + json.dumps(meta, sort_keys=True, indent=1, default=_json_default).encode()
        + b',\n"payload": '
        + payload_bytes(payload)
        + b"\n}\n"
    )
    write_atomic(path, body)


def make_meta(config_echo: dict, started: float, version: str) -> dict:
    return {
        "version": version,
        "config": config_echo,
        "wall_time_s": round(time.time() - started, 3),
    }


def write_csv(path: str, header: list, rows: Iterable[Iterable]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_csv_cell(x) for x in row))
    write_atomic(path, ("\n".join(lines) + "\n").encode())


def _csv_cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def write_svg_lines(path: str, series: dict, xlabel: str, ylabel: str, hlines: dict) -> None:
    """Minimal deterministic 640 x 480 SVG line plot; ``series`` maps label
    -> (x, y), ``hlines`` label -> y of a dashed reference line."""
    W, H = 640, 480
    margin = 60
    xs = np.concatenate([np.asarray(x, dtype=float) for x, _ in series.values()])
    ys = np.concatenate([np.asarray(y, dtype=float) for _, y in series.values()])
    ys = np.concatenate([ys, np.array(list(hlines.values()), dtype=float)])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    if x1 == x0:
        x1 = x0 + 1.0
    pad = 0.05 * (y1 - y0 or 1.0)
    y0, y1 = y0 - pad, y1 + pad

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (W - 2 * margin)

    def sy(y):
        return H - margin - (y - y0) / (y1 - y0) * (H - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
        f'viewBox="0 0 {W} {H}">',
        f'<rect width="{W}" height="{H}" fill="white"/>',
        f'<line x1="{margin}" y1="{H - margin}" x2="{W - margin}" '
        f'y2="{H - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{H - margin}" '
        f'stroke="black"/>',
        f'<text x="{W / 2:.1f}" y="{H - 15}" text-anchor="middle" '
        f'font-size="14">{xlabel}</text>',
        f'<text x="18" y="{H / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {H / 2:.1f})">{ylabel}</text>',
    ]
    for k in range(5):
        xv = x0 + k * (x1 - x0) / 4.0
        yv = y0 + k * (y1 - y0) / 4.0
        parts.append(
            f'<text x="{sx(xv):.1f}" y="{H - margin + 18}" text-anchor="middle" '
            f'font-size="11">{xv:.3g}</text>'
        )
        parts.append(
            f'<text x="{margin - 8}" y="{sy(yv) + 4:.1f}" text-anchor="end" '
            f'font-size="11">{yv:.4g}</text>'
        )
    for label, y in hlines.items():
        parts.append(
            f'<line x1="{margin}" y1="{sy(y):.2f}" x2="{W - margin}" '
            f'y2="{sy(y):.2f}" stroke="#888" stroke-dasharray="6 4"/>'
        )
        parts.append(
            f'<text x="{W - margin - 4}" y="{sy(y) - 5:.2f}" text-anchor="end" '
            f'font-size="11" fill="#555">{label}</text>'
        )
    for idx, (label, (x, y)) in enumerate(series.items()):
        pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(x, y))
        color = colors[idx % len(colors)]
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.6" '
            f'points="{pts}"/>'
        )
        parts.append(
            f'<text x="{W - margin - 4}" y="{margin + 16 + 16 * idx}" '
            f'text-anchor="end" font-size="12" fill="{color}">{label}</text>'
        )
    parts.append("</svg>\n")
    write_atomic(path, "\n".join(parts).encode())


def write_pgm(path: str, image: np.ndarray) -> None:
    """Plain-text PGM (P2) heatmap of a nonnegative field, 255 gray levels."""
    max_gray = 255
    img = np.asarray(image, dtype=float)
    top = img.max()
    scaled = np.zeros_like(img, dtype=int) if top == 0 else np.rint(
        img / top * max_gray
    ).astype(int)
    lines = ["P2", f"{img.shape[1]} {img.shape[0]}", str(max_gray)]
    for row in scaled:
        lines.append(" ".join(str(v) for v in row))
    write_atomic(path, ("\n".join(lines) + "\n").encode())
