"""Command-line surface for data generation, training, evaluation, and plots.

Every command is deterministic given its config (seeds live in the configs).
Exit codes: 0 ok, 2 config problem, 3 training abort, 4 checkpoint/scenario
incompatibility, 5 unsupported input format, 6 empty result.  Every output
file, the reconstructed image included, goes through one temp-then-rename
writer (`model.write_atomic`), so partial outputs never appear.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from dataclasses import replace
from typing import Optional

import numpy as np

from . import hypernets, model, solver, training
from .model import DatasetManifest, ManifestError, SignalPrior
from .solver import align_phase, constant_schedule, geometric_schedule, nmse_db, run_solver
from .training import IncompatibleError, TrainerConfig, TrainingAborted

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_TRAINING = 3
EXIT_INCOMPATIBLE = 4
EXIT_FORMAT = 5
EXIT_EMPTY = 6

BASELINE_GEOMETRIC = "schedule_0.9t"
BASELINE_CONSTANT = "schedule_0.5"
# Fixed schedules hold no state, so one instance serves every evaluation.
BASELINES = {BASELINE_GEOMETRIC: geometric_schedule(0.9),
             BASELINE_CONSTANT: constant_schedule(0.5)}

RESULT_HEADER = "variant,scenario,t,metric,value"

IMAGE_PIXEL_CAP = 4096


class InputFormatError(ValueError):
    """Unsupported or malformed input file (maps to exit code 5)."""


class EmptyResultError(RuntimeError):
    """Nothing to write (maps to exit code 6)."""


def _policy_source(name: Optional[str], checkpoint: Optional[str]):
    """(table label, evaluation source): a checkpoint's payload, else a baseline."""
    if checkpoint:
        payload = hypernets.load_checkpoint(checkpoint)
        return payload["variant"], payload
    if name not in BASELINES:
        raise ManifestError(f"variant {name!r} needs a checkpoint or a baseline name")
    return name, BASELINES[name]


def _scenario_label(manifest: DatasetManifest) -> str:
    classes = "+".join(manifest.matrix_class)
    return (f"m{manifest.m}n{manifest.n}_{classes}"
            f"_snr{manifest.snr_db_range[0]:g}-{manifest.snr_db_range[1]:g}"
            f"_rho{manifest.rho_range[0]:g}-{manifest.rho_range[1]:g}")


def _write_results(out_dir: str, name: str, points: list, sources: list,
                   layers: int) -> int:
    """Evaluate every (label, source) at every (scenario, manifest) point and
    write the long-format result table.  Every policy is built before any solve."""
    if layers < 1:
        raise ManifestError(f"layers must be >= 1, got {layers}")
    runs = [(label, scenario, manifest, training.policy_for_evaluation(source, manifest.n))
            for scenario, manifest in points for label, source in sources]
    rows = [RESULT_HEADER]
    for label, scenario, manifest, policy in runs:
        result = training.evaluate(policy, manifest, layers)
        for t in range(result.layers):
            rows.append(f"{label},{scenario},{t + 1},nmse_median_db,"
                        f"{result.median_db[t]:.6g}")
            rows.append(f"{label},{scenario},{t + 1},nmse_mean_db,"
                        f"{result.mean_db[t]:.6g}")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, name)
    model.write_atomic(out_path, ("\n".join(rows) + "\n",))
    print(f"result table -> {out_path}")
    return EXIT_OK


# ---------------------------------------------------------------- commands


def cmd_gen(args: argparse.Namespace) -> int:
    manifest = model.load_manifest(args.manifest)
    probe = min(manifest.count, 64)
    if probe == 0:
        print("manifest valid; count=0, nothing to probe")
        return EXIT_OK
    snrs, rhos = [], []
    classes: dict[str, int] = {}
    for i in range(probe):
        sample = model.sample_at(manifest, i)
        snrs.append(10.0 * math.log10(sample.snr))
        rhos.append(sample.prior.rho)
        cls, _ = model.scenario_at(manifest, i)
        classes[cls] = classes.get(cls, 0) + 1
    edges = np.linspace(manifest.rho_range[0], manifest.rho_range[1] + 1e-12, 5)
    hist, _ = np.histogram(rhos, bins=edges)
    print(f"manifest valid; probed {probe} samples")
    print(f"mean SNR: {np.mean(snrs):.2f} dB (declared range "
          f"{manifest.snr_db_range[0]:g}..{manifest.snr_db_range[1]:g})")
    print("rho histogram: " + " ".join(
        f"[{edges[k]:.2f},{edges[k + 1]:.2f}):{hist[k]}" for k in range(len(hist))))
    print("matrix classes: " + ", ".join(f"{k}={v}" for k, v in sorted(classes.items())))
    return EXIT_OK


def cmd_train(args: argparse.Namespace) -> int:
    raw = model.read_json_object(args.config, ManifestError, "config")
    model.check_keys(raw, "train config", ("variants", "manifest"), ("trainer",))
    manifest = model.record_from_object(DatasetManifest, raw["manifest"], "manifest")
    trainer = model.record_from_object(TrainerConfig, raw.get("trainer", {}), "trainer")
    variants = raw["variants"]
    if not isinstance(variants, list):
        raise ManifestError(f"train config 'variants' must be a list, got {variants!r}")
    if not variants:
        raise EmptyResultError("train config lists no variants")
    if args.seed is not None:
        trainer = replace(trainer, seed=args.seed)
    if args.layers is not None:
        trainer = replace(trainer, layers=args.layers)
    # Check every name before the first one trains and writes files.
    unknown = [v for v in variants
               if not isinstance(v, str) or v not in hypernets.VARIANTS]
    if unknown:
        raise ManifestError(f"unknown variants {unknown}; "
                            f"expected names from {tuple(hypernets.VARIANTS)}")
    os.makedirs(args.out, exist_ok=True)
    written: list[str] = []
    for variant in variants:
        try:
            result = training.train(variant, manifest, trainer)
        except TrainingAborted:
            for path in written:
                if os.path.exists(path):
                    os.remove(path)
            raise
        ck_path = os.path.join(args.out, f"{variant}.json")
        hypernets.save_checkpoint(ck_path, result.checkpoint)
        written.append(ck_path)
        loss_lines = ["step,batch_loss,moving_avg"]
        loss_lines += [f"{s},{l:.6g},{m:.6g}" for s, l, m in result.history]
        loss_path = os.path.join(args.out, f"{variant}_loss.csv")
        model.write_atomic(loss_path, ("\n".join(loss_lines) + "\n",))
        written.append(loss_path)
        flag = (" (no-progress flag raised)"
                if result.checkpoint["metadata"]["no_progress"] else "")
        print(f"{variant}: checkpoint -> {ck_path}{flag}")
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    manifest = model.load_manifest(args.manifest)
    if manifest.count == 0:
        raise EmptyResultError("manifest has no samples to evaluate")
    sources = list(BASELINES.items())
    if args.checkpoint:
        sources.insert(0, _policy_source(None, args.checkpoint))
    return _write_results(args.out, "eval.csv", [(_scenario_label(manifest), manifest)],
                          sources, args.layers)


def _sweep_manifest(base: DatasetManifest, kind: str, value: float,
                    point_seed: int, ratio: float, count: int) -> DatasetManifest:
    changes: dict = {"seed": point_seed, "count": count}
    if kind == "snr":
        changes["snr_db_range"] = (value, value)
    elif kind == "gamma":
        changes["matrix_class"] = ("geometric",)
        changes["gammas"] = (value,)
    elif kind == "ratio":
        changes["m"] = math.ceil(value * base.n)
    elif kind == "rho":
        changes["rho_range"] = (value, value)
    elif kind == "size":
        changes["n"] = model.integer_field("grid", value)
        changes["m"] = math.ceil(ratio * value)
    else:
        raise ManifestError(f"unknown sweep kind {kind!r}")
    return replace(base, **changes)


def cmd_sweep(args: argparse.Namespace) -> int:
    raw = model.read_json_object(args.config, ManifestError, "config")
    model.check_keys(raw, "sweep config", ("kind", "grid", "manifest", "variants"),
                     ("samples", "layers", "ratio"))
    kind, grid, variants = raw["kind"], raw["grid"], raw["variants"]
    base = model.record_from_object(DatasetManifest, raw["manifest"], "manifest")
    if not (isinstance(grid, list) and grid):
        raise ManifestError("sweep grid must be a non-empty list")
    if not isinstance(variants, list):
        raise ManifestError(f"sweep 'variants' must be a list, got {variants!r}")
    for entry in variants:
        model.check_keys(entry, "sweep variant", ("name",), ("checkpoint",))
        # The name labels the entry's rows of the comma-separated table.
        if not (all(isinstance(value, str) for value in entry.values())
                and re.fullmatch(r"[\w.=+-]+", entry["name"])):
            raise ManifestError(f"sweep variant {entry!r}: 'name' and 'checkpoint' must be "
                                "strings, the name of letters, digits and _ . = + -")
    if not variants:
        raise EmptyResultError("sweep config lists no variants")
    names = [entry["name"] for entry in variants]
    if len(set(names)) < len(names):
        raise ManifestError(f"sweep variant names must differ, got {names}")
    sources = [(e["name"], _policy_source(e["name"], e.get("checkpoint"))[1])
               for e in variants]
    layers = (args.layers if args.layers is not None
              else model.integer_field("layers", raw.get("layers", 10)))
    samples = model.integer_field("samples", raw.get("samples", 48))
    if samples == 0:
        raise EmptyResultError("sweep has no samples to evaluate")
    ratio = model.number_field("ratio", raw.get("ratio", 4.0))
    points = []
    for k, value in enumerate(grid):
        point_seed = (base.seed * 1_000_003 + k) % (2**63)
        manifest = _sweep_manifest(base, kind, model.number_field("grid", value),
                                   point_seed, ratio, samples)
        points.append((f"{kind}={value:g}", manifest))
    return _write_results(args.out, f"sweep_{kind}.csv", points, sources, layers)


def cmd_recon_image(args: argparse.Namespace) -> int:
    # M = ceil(ratio * N) must be a finite count of at least N.
    if not (math.isfinite(args.ratio) and args.ratio >= 1.0):
        raise ManifestError(f"--ratio must be a finite number >= 1, got {args.ratio}")
    model.check_snr_db("--snr-db", args.snr_db)
    for flag, value in (("--layers", args.layers), ("--seed", args.seed)):
        if value < 0:
            raise ManifestError(f"{flag} must be >= 0, got {value}")
    try:
        image = model.read_pgm(args.image)
    except ValueError as exc:
        raise InputFormatError(str(exc)) from exc
    n = image.size
    if n > IMAGE_PIXEL_CAP:
        raise ManifestError(
            f"image has {n} pixels, above the desk-scale cap {IMAGE_PIXEL_CAP}")
    m = math.ceil(args.ratio * n)
    # The default ratio at the pixel cap is the largest draw: 1 GiB complex.
    if m * n > 4 * IMAGE_PIXEL_CAP**2:
        raise ManifestError(f"--ratio {args.ratio:g} needs a {m} x {n} transform, "
                            f"above the cap of {4 * IMAGE_PIXEL_CAP**2} entries")
    x = image.reshape(-1).astype(complex)
    if not np.any(np.abs(x) > 0):
        raise InputFormatError("all-black image: zero signal has no defined NMSE")
    # A controller trained at another N resamples the image's spectrum itself.
    variant, source = _policy_source(BASELINE_GEOMETRIC, args.checkpoint)
    policy = training.policy_for_evaluation(source)
    rho_est = min(max(float(np.mean(image > 0.05)), 1.0 / n), 1.0)
    snr = 10.0 ** (args.snr_db / 10.0)
    rng = np.random.default_rng([args.seed, n, m])
    matrix = model.dense_gaussian_matrix(m, n, snr, rng)
    y = model.forward_measure(matrix, x, rng)
    sample = model.Sample(x=x, y=y, matrix=matrix, snr=snr, prior=SignalPrior(rho_est))
    if args.layers == 0:
        _, msg_x0 = solver.spectral_init(y, matrix)
        estimate = msg_x0.mean
        level = nmse_db(x, align_phase(x, estimate))
    else:
        trace = run_solver(sample, policy, args.layers)
        estimate = trace.x_means[-1]
        level = trace.nmse_db[-1]
    aligned = align_phase(x, estimate)
    recon = np.abs(aligned).reshape(image.shape)
    os.makedirs(args.out, exist_ok=True)
    out_image = os.path.join(args.out, "recon.pgm")
    model.write_pgm(out_image, np.clip(recon, 0.0, 1.0))
    report = {
        "variant": variant,
        "nmse_db": level,
        "layers": args.layers,
        "snr_db": args.snr_db,
        "m": m,
        "n": n,
        "rho_estimate": rho_est,
    }
    model.write_atomic(os.path.join(args.out, "recon_report.json"),
                       (json.dumps(report, indent=2, sort_keys=True) + "\n",))
    print(f"reconstruction NMSE: {level:.2f} dB -> {out_image}")
    return EXIT_OK


# ------------------------------------------------------------------ plots


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _svg_plot(title: str, x_label: str, series: dict[str, list[tuple[float, float]]]) -> str:
    # Imported here: `html` loads its table of named entities (about 0.35 MB
    # of peak RSS), which no other command needs.
    import html
    width, height = 640, 480
    left, right, top, bottom = 70, 20, 40, 50
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(v: float) -> float:
        return height - bottom - (v - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{html.escape(title)}</text>',
    ]
    for k in range(6):
        yv = y_lo + k * (y_hi - y_lo) / 5
        parts.append(f'<line x1="{left}" y1="{sy(yv):.2f}" x2="{width - right}" '
                     f'y2="{sy(yv):.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{left - 6}" y="{sy(yv) + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{yv:.4g}</text>')
        xv = x_lo + k * (x_hi - x_lo) / 5
        parts.append(f'<text x="{sx(xv):.2f}" y="{height - bottom + 18}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{xv:.4g}</text>')
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" '
                 f'stroke="black"/>')
    parts.append(f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
                 f'y2="{height - bottom}" stroke="black"/>')
    parts.append(f'<text x="{width / 2:.1f}" y="{height - 14}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12">{html.escape(x_label)}</text>')
    parts.append(f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
                 f'font-family="sans-serif" font-size="12" '
                 f'transform="rotate(-90 16 {height / 2:.1f})">NMSE (dB)</text>')
    for idx, name in enumerate(sorted(series)):
        color = _PALETTE[idx % len(_PALETTE)]
        pts = sorted(series[name])
        coords = " ".join(f"{sx(px):.2f},{sy(py):.2f}" for px, py in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - right - 4}" y="{top + 16 * idx + 12}" '
                     f'text-anchor="end" font-family="sans-serif" font-size="11" '
                     f'fill="{color}">{html.escape(name)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _read_table(path: str) -> list[tuple[str, str, int, str, float]]:
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != RESULT_HEADER:
            raise InputFormatError(f"unexpected result-table header: {header!r}")
        for number, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                variant, scenario, t, metric, value = line.split(",")
                row = (variant, scenario, int(t), metric, float(value))
            except ValueError:
                row = None
            if row is None or not math.isfinite(row[4]):
                raise InputFormatError(f"{path}, line {number}: expected five fields, an "
                                       f"integer layer and a finite value: {line!r}")
            rows.append(row)
    return rows


def _safe_name(label: str) -> str:
    return "".join(ch if ch.isalnum() or ch in "-_=." else "_" for ch in label)


def cmd_plot(args: argparse.Namespace) -> int:
    rows = _read_table(args.table)
    if not rows:
        raise EmptyResultError("result table has no data rows")
    plots: list[tuple[str, str]] = []

    def add_plot(name: str, title: str, x_label: str, keep, x_of) -> None:
        """Plot each variant's median NMSE at x_of(row) over the rows kept."""
        series: dict[str, list[tuple[float, float]]] = {}
        for row in rows:
            if row[3] == "nmse_median_db" and keep(row):
                series.setdefault(row[0], []).append((x_of(row), row[4]))
        if series:
            # Labels that differ only where _safe_name writes "_" share a stem;
            # each later holder of a taken file name gets a -2, -3, ... suffix.
            stem, taken, k = _safe_name(name), {file for file, _ in plots}, 1
            file = f"{stem}.svg"
            while file in taken:
                k += 1
                file = f"{stem}-{k}.svg"
            plots.append((file, _svg_plot(title, x_label, series)))

    scenarios = sorted({r[1] for r in rows})
    for scenario in scenarios:
        add_plot(f"curve_{scenario}", scenario, "layer t",
                 lambda r: r[1] == scenario, lambda r: float(r[2]))
    # Sweep tables ("kind=value" scenarios) also get a final-layer summary.
    kinds = {s.split("=")[0] for s in scenarios if s.count("=") == 1}
    if len(scenarios) > 1 and all(s.count("=") == 1 for s in scenarios) and len(kinds) == 1:
        kind, t_max = kinds.pop(), max(r[2] for r in rows)
        add_plot(f"sweep_{kind}", f"{kind} sweep (t={t_max})", kind,
                 lambda r: r[2] == t_max, lambda r: float(r[1].split("=")[1]))
    if not plots:
        raise EmptyResultError("no plottable series in the result table")
    os.makedirs(args.out, exist_ok=True)
    for name, svg in plots:
        path = os.path.join(args.out, name)
        model.write_atomic(path, (svg,))
        print(f"plot -> {path}")
    return EXIT_OK


# ------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gecsr",
        description="Phase retrieval with expectation-consistent recovery and "
                    "learned damping controllers.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="validate a dataset manifest and probe samples")
    p.add_argument("--manifest", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("train", help="train damping controllers")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=".")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--layers", type=int, default=None)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint plus fixed baselines")
    p.add_argument("--manifest", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--layers", type=int, default=10)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sweep", help="evaluate variants over a scenario grid")
    p.add_argument("--config", required=True)
    p.add_argument("--layers", type=int, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("recon-image", help="reconstruct a PGM image")
    p.add_argument("--image", required=True)
    p.add_argument("--checkpoint", default=None)
    p.add_argument("--out", default=".")
    p.add_argument("--snr-db", type=float, default=15.0)
    p.add_argument("--ratio", type=float, default=4.0)
    p.add_argument("--layers", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_recon_image)

    p = sub.add_parser("plot", help="render SVG plots from a result table")
    p.add_argument("--table", required=True)
    p.add_argument("--out", default=".")
    p.set_defaults(fn=cmd_plot)
    return parser


# Matched in order, so a subclass precedes its base: InputFormatError,
# ManifestError and CheckpointError are ValueErrors.
EXIT_CODES = {InputFormatError: EXIT_FORMAT, EmptyResultError: EXIT_EMPTY,
              TrainingAborted: EXIT_TRAINING, IncompatibleError: EXIT_INCOMPATIBLE,
              ValueError: EXIT_CONFIG, OSError: EXIT_CONFIG}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
