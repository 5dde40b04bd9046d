"""Command-line entry point.

Commands: run, sweep, profile, presets list, presets run <id>. Flags only
select the command, the config file and the output directory; everything
else lives in the JSON config. run and presets run dispatch a config with a
sweep section to the sweep table, as sweep does, and any other config to one
case; sweep needs a sweep section, and profile refuses one. Each command
writes <out>/results.csv and <out>/config.echo.json; profile additionally
writes a small SVG chart.
Exit codes: 0 success, 2 configuration error, 3 solver failure.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .cases import profile_case, run_case, sweep_case
from .config import PRESETS, CaseConfig, load_config, preset_config
from .errors import ConfigurationError, FGPlateError
from .postprocess import NondimReport

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


def _fmt(value: float) -> str:
    return "%.6e" % value


def _report_columns(report: NondimReport) -> tuple[list[str], list[list[str]]]:
    header, rows = report.table()
    return header, [[str(v) if isinstance(v, int) else _fmt(v) for v in row] for row in rows]


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    lines = [",".join(header)] + [",".join(row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_echo(path: Path, config: CaseConfig) -> None:
    path.write_text(
        json.dumps(config.raw, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def _svg_chart(path: Path, z_over_h, series: dict[str, list[float]]) -> None:
    """Minimal fixed-size polyline chart; never a hard failure."""
    width, height, pad = 640, 480, 50
    lo = min(min(v) for v in series.values())
    hi = max(max(v) for v in series.values())
    if hi == lo:
        hi = lo + 1.0
    zlo, zhi = min(z_over_h), max(z_over_h)
    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="black"/>',
    ]
    for idx, (label, values) in enumerate(series.items()):
        pts = []
        for z, v in zip(z_over_h, values):
            x = pad + (v - lo) / (hi - lo) * (width - 2 * pad)
            y = height - pad - (z - zlo) / (zhi - zlo) * (height - 2 * pad)
            pts.append(f"{x:.1f},{y:.1f}")
        color = colors[idx % len(colors)]
        parts.append(
            f'<polyline points="{" ".join(pts)}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{width - pad + 4}" y="{pad + 14 * idx + 10}" font-size="11" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n", encoding="utf-8")


def _cmd_run(config: CaseConfig, out: Path) -> None:
    if config.sweep_axis is not None:
        return _cmd_sweep(config, out)
    result = run_case(config)
    header, rows = _report_columns(result.report)
    _write_csv(out / "results.csv", header, rows)
    _write_echo(out / "config.echo.json", config)


def _cmd_sweep(config: CaseConfig, out: Path) -> None:
    sweep = sweep_case(config)
    axis = config.sweep_axis
    header = [axis] + sweep.reports[0].table()[0]
    changes = sweep.relative_changes()
    if axis == "mesh":
        header.append("rel_change")
    rows = []
    for i, (value, report) in enumerate(zip(config.sweep_values, sweep.reports)):
        _, report_rows = _report_columns(report)
        for row in report_rows:
            full = [value if isinstance(value, str) else _fmt(float(value))] + row
            if axis == "mesh":
                full.append("" if changes[i] is None else _fmt(changes[i]))
            rows.append(full)
    _write_csv(out / "results.csv", header, rows)
    _write_echo(out / "config.echo.json", config)


def _cmd_profile(config: CaseConfig, out: Path) -> None:
    if config.sweep_axis is not None:
        raise ConfigurationError("profile solves one case: remove the sweep section")
    result, prof = profile_case(config)
    h = result.model.section.h
    z_over_h = [z / h for z in prof.z_samples]
    header = ["z_over_h", "sigma_xx", "sigma_yy", "tau_xy", "tau_xz", "tau_yz"]
    rows = [
        [_fmt(z), _fmt(sx), _fmt(sy), _fmt(sxy), _fmt(sxz), _fmt(syz)]
        for z, sx, sy, sxy, sxz, syz in zip(
            z_over_h, prof.sigma_x, prof.sigma_y, prof.tau_xy, prof.tau_xz, prof.tau_yz
        )
    ]
    _write_csv(out / "results.csv", header, rows)
    _write_echo(out / "config.echo.json", config)
    try:
        _svg_chart(
            out / "profile.svg",
            z_over_h,
            {
                "sigma_xx": list(prof.sigma_x),
                "tau_xz": list(prof.tau_xz),
                "tau_yz": list(prof.tau_yz),
            },
        )
    except Exception:  # chart is best-effort only
        pass


_COMMANDS = {"run": _cmd_run, "presets": _cmd_run, "sweep": _cmd_sweep, "profile": _cmd_profile}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fgplate",
        description="Isogeometric analysis of functionally graded plates "
        "(static bending, free vibration, buckling).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("run", "solve the case from a JSON config, or its sweep if it has one"),
        ("sweep", "run the config's parameter sweep (axis: n, aspect, mesh or model)"),
        ("profile", "solve a static case and sample stresses through the thickness"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="path to the case JSON")
        cmd.add_argument("--out", default=".", help="output directory (created if missing)")

    presets = sub.add_parser("presets", help="list or run the shipped benchmark presets")
    preset_sub = presets.add_subparsers(dest="preset_command", required=True)
    preset_sub.add_parser("list", help="print all preset names")
    preset_run = preset_sub.add_parser("run", help="run one preset by name")
    preset_run.add_argument("name", help="preset identifier from 'presets list'")
    preset_run.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "presets" and args.preset_command == "list":
            for name in sorted(PRESETS):
                print(name)
            return EXIT_OK
        config = preset_config(args.name) if args.command == "presets" else load_config(args.config)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _COMMANDS[args.command](config, out)
        print(f"wrote {out / 'results.csv'}")
        return EXIT_OK
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FGPlateError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
