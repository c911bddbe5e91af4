"""Command-line front end: scenario generation, risk bundles, scalarization
and pinned example reproduction.

Exit codes: 0 success, 1 reproduction mismatch, 2 configuration or IO
error, arithmetic overflow or an allocation that cannot be made, 3 modelling
pathology (outer bound degenerates to the whole plane).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from ._repro import REPRO_IDS, run_repro
from .bounds import RiskBundle, compute_bundle, scalarize_bundle
from .errors import ValidationError, WholePlaneError
from .geom2d import _clip_to_window, _window_halfspaces, canonical_json
from .markets import KINDS, _count, _object, _real
from .riskstats import RiskSpec
from .scenarios import GenSpec, generate, read_csv, write_csv

# Keys of a run config, of its "scenarios" block and of its "risk" block.
_CONFIG_KEYS = ("scenarios", "portfolio", "risk", "strategies", "directions", "window", "audit")
_SCENARIOS_KEYS = ("csv", "generate")
_RISK_KEYS = ("kind", "level")


def _load_json(path):
    """The JSON value in the file."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path} is not valid JSON: {exc}") from None


def _risk_spec(config):
    block = _object(config.get("risk", {}), "'risk'", _RISK_KEYS)
    if "kind" not in block:
        raise ValidationError('config needs a "risk" block with a "kind"')
    try:
        level = block.get("level")
        return RiskSpec(block["kind"], None if level is None else _real(level, "risk level"))
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"risk block: {exc}") from None


def _ensemble(config, seed=None, n=None):
    block = _object(config.get("scenarios", {}), "'scenarios'", _SCENARIOS_KEYS)
    if ("generate" in block) == ("csv" in block):
        raise ValidationError(
            'config needs a "scenarios" block with exactly one of "generate" or "csv"'
        )
    if "csv" in block:
        if seed is not None or n is not None:
            raise ValidationError("--seed/--n only apply to generated scenarios")
        # A number would be taken for an open file descriptor.
        if not isinstance(block["csv"], str):
            raise ValidationError('"csv" must be a path string')
        return read_csv(block["csv"])
    try:
        gen_cfg = dict(block["generate"])
        if seed is not None:
            gen_cfg["seed"] = seed
        if n is not None:
            gen_cfg["n"] = n
        spec = GenSpec.from_dict(gen_cfg)
    except KeyError as exc:
        raise ValidationError(f"generate block is missing {exc}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"generate block: {exc}") from None
    return generate(spec)


def _portfolio(config, ensemble):
    block = config.get("portfolio", {})
    if not isinstance(block, dict):
        raise ValidationError(f'"portfolio" must be an object, got {block!r}')
    block = dict(block)
    kind = block.pop("kind", None)
    if not isinstance(kind, str) or kind not in KINDS:
        raise ValidationError(f'portfolio "kind" must be one of {tuple(KINDS)}')
    try:
        portfolio = KINDS[kind].parse(block, ensemble)
    except KeyError as exc:
        raise ValidationError(f"portfolio block is missing {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"portfolio block: {exc}") from None
    if block:
        raise ValidationError(f"unknown portfolio keys: {sorted(block)}")
    return portfolio


def _parse_window(value):
    """Window box from the "x0,y0,x1,y1" flag text or a config list."""
    parts = value.split(",") if isinstance(value, str) else value
    if not isinstance(parts, (list, tuple)) or len(parts) != 4:
        raise ValidationError("window expects x0,y0,x1,y1")
    if isinstance(value, str):
        try:
            box = tuple(float(p) for p in parts)
        except ValueError:
            raise ValidationError("window expects four numbers") from None
    else:
        box = tuple(_real(p, "window") for p in parts)
    _window_halfspaces(box)  # rejects an empty box before any work is done
    return box


def _emit_bundle(bundle, out_dir, window=None):
    # Clip every region first: a window that misses one writes no file.
    boundaries = {
        name: region.vertices if window is None else _clip_to_window(region, window)
        for name, region in (
            ("marginal", bundle.marginal),
            ("inner", bundle.inner),
            ("outer", bundle.outer),
        )
    }
    os.makedirs(out_dir, exist_ok=True)
    bundle_path = os.path.join(out_dir, "bundle.json")
    with open(bundle_path, "w") as fh:
        fh.write(bundle.to_json())
        fh.write("\n")
    for name, pts in boundaries.items():
        with open(os.path.join(out_dir, f"boundary_{name}.csv"), "w") as fh:
            fh.write("x,y\n")
            for p in pts:
                fh.write(f"{p[0]:.12g},{p[1]:.12g}\n")
    return bundle_path


def cmd_gen(args):
    config = _object(_load_json(args.config), "the config", _CONFIG_KEYS)
    block = config.get("scenarios", {})
    if not isinstance(block, dict) or "generate" not in block:
        raise ValidationError('gen needs a "scenarios" block with "generate"')
    ensemble = _ensemble(config, seed=args.seed, n=args.n)
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "scenarios.csv")
    write_csv(ensemble, path)
    mean = ensemble.gains.mean(axis=0)
    print(f"wrote {path}: n={ensemble.n}, mean=({mean[0]:.4g}, {mean[1]:.4g})"
          + (f", rate-mean={ensemble.rates.mean():.4g}" if ensemble.rates is not None else ""))
    return 0


def cmd_risk(args):
    config = _object(_load_json(args.config), "the config", _CONFIG_KEYS)
    ensemble = _ensemble(config, seed=args.seed, n=args.n)
    portfolio = _portfolio(config, ensemble)
    spec = _risk_spec(config)
    window = config.get("window") if args.window is None else args.window
    if window is not None:
        window = _parse_window(window)
    strategies = config.get("strategies")
    if strategies is not None and not isinstance(strategies, list):
        raise ValidationError('"strategies" must be a list of strategy objects')
    n_dirs = _count(config.get("directions", 181), '"directions"', 2)
    audit = config.get("audit", False)
    if not isinstance(audit, bool):
        raise ValidationError('"audit" must be true or false')
    bundle = compute_bundle(
        portfolio,
        spec,
        strategies=strategies,
        n_dirs=n_dirs,
        audit=audit,
    )
    out_dir = args.out or "."
    path = _emit_bundle(bundle, out_dir, window)
    print(f"wrote {path}")
    print(f"inner vertices: {len(bundle.inner.vertices)}, "
          f"outer vertices: {len(bundle.outer.vertices)}")
    return 0


def cmd_scalarize(args):
    bundle = RiskBundle.from_dict(_load_json(args.bundle))
    parts = args.direction.split(",")
    if len(parts) != 2:
        raise ValidationError("--direction expects u1,u2")
    try:
        u = [float(parts[0]), float(parts[1])]
    except ValueError:
        raise ValidationError("--direction expects two numbers") from None
    result = scalarize_bundle(bundle, u)
    printable = {
        k: (None if isinstance(v, float) and not math.isfinite(v) else v)
        for k, v in result.items()
    }
    print(canonical_json(printable))
    return 0


def cmd_repro(args):
    window = None if args.window is None else _parse_window(args.window)
    rows, artifacts = run_repro(args.example)
    if args.out:
        out_dir = os.path.join(args.out, args.example)
        os.makedirs(out_dir, exist_ok=True)
        for bundle in artifacts.values():
            _emit_bundle(bundle, out_dir, window)
        report = [
            {k: row[k] for k in ("name", "computed", "expected", "tol", "ok")}
            for row in rows
        ]
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(canonical_json(report))
            fh.write("\n")
    width = max(len(r["name"]) for r in rows)
    ok = True
    for r in rows:
        status = "pass" if r["ok"] else "FAIL"
        print(
            f"{r['name']:<{width}}  computed={r['computed']: .7g}  "
            f"expected={r['expected']: .7g}  tol={r['tol']:.1g}  {status}"
        )
        ok &= r["ok"]
    print(f"{args.example}: {'all checks passed' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="svrisk",
        description=(
            "Set-valued portfolio risk: inner approximations from selection "
            "strategies, outer approximations from dual half-space bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a scenario CSV from a config")
    p_gen.add_argument("--config", required=True, help="JSON run configuration")
    p_gen.add_argument("--out", help="output directory (default: cwd)")
    p_gen.add_argument("--seed", type=int, help="override the generator seed")
    p_gen.add_argument("--n", type=int, help="override the sample size")
    p_gen.set_defaults(func=cmd_gen)

    p_risk = sub.add_parser("risk", help="compute a marginal/inner/outer bundle")
    p_risk.add_argument("--config", required=True, help="JSON run configuration")
    p_risk.add_argument("--out", help="output directory (default: cwd)")
    p_risk.add_argument("--seed", type=int, help="override the generator seed")
    p_risk.add_argument("--n", type=int, help="override the sample size")
    p_risk.add_argument("--window", help="x0,y0,x1,y1 box for boundary CSVs")
    p_risk.set_defaults(func=cmd_risk)

    p_scal = sub.add_parser("scalarize", help="support values of a saved bundle")
    p_scal.add_argument("--bundle", required=True, help="bundle.json path")
    p_scal.add_argument("--direction", required=True, help="u1,u2 (non-negative)")
    p_scal.set_defaults(func=cmd_scalarize)

    p_repro = sub.add_parser("repro", help="re-run a pinned example and diff values")
    p_repro.add_argument("example", choices=REPRO_IDS)
    p_repro.add_argument("--out", help="write bundle/report artifacts here")
    p_repro.add_argument("--window", help="x0,y0,x1,y1 box for boundary CSVs")
    p_repro.set_defaults(func=cmd_repro)
    return parser


def entrypoint(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # The one floating-point policy: a value that overflows is bad input.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except WholePlaneError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, OSError, FloatingPointError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(entrypoint())


if __name__ == "__main__":
    main()
