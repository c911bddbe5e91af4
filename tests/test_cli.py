import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import svrisk

import svrisk.cli as cli
import svrisk.scenarios
from svrisk._repro import run_repro
from svrisk.bounds import RiskBundle, compute_bundle, sandwich_violation
from svrisk.cli import entrypoint
from svrisk.errors import ValidationError
from svrisk.markets import ScenarioEnsemble
from svrisk.geom2d import (
    ConvexCone2D,
    RiskRegion2D,
    _clip_to_window,
    region_from_points_plus_cone,
)


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def nonmargin_csv(tmp_path):
    path = tmp_path / "scenarios.csv"
    path.write_text("x1,x2,w\n-2,4,0.5\n4,-2,0.5\n")
    return str(path)


def nonmargin_config(tmp_path, **extra):
    payload = {
        "scenarios": {"csv": nonmargin_csv(tmp_path)},
        "portfolio": {"kind": "cone-det", "pi12": 5.0, "pi21": 5.0},
        "risk": {"kind": "expected-shortfall", "level": 0.75},
        "strategies": [
            {"strategy": "quantile-shift", "side": "ray1"},
            {"strategy": "quantile-shift", "side": "ray2"},
            {"strategy": "corner-selections"},
        ],
    }
    payload.update(extra)
    return write_json(tmp_path / "config.json", payload)


def duplicate_column_csv(tmp_path):
    """Config patch whose CSV names x1 twice; the second x1 holds no number."""
    path = tmp_path / "dup.csv"
    path.write_text("x1,x2,x1\n-2,4,nope\n4,-2,nope\n")
    return {"scenarios": {"csv": str(path)}}


GEN_WITH_RATES = {"n": 30, "seed": 3, "rate": {"mean": 1.5, "vol": 0.3}}
# Config patch for a liquidity-capped portfolio on generated scenarios.
LIQUIDITY = {
    "scenarios": {"generate": GEN_WITH_RATES},
    "portfolio": {"kind": "liquidity-capped", "cap": [1.0, 1.0]},
}


def generated(portfolio, **rate):
    """Config patch: a portfolio under its default strategies at ES 0.1 on
    generated n=40 scenarios, with rate parameters overriding 1.5 / 0.4."""
    return {
        "scenarios": {"generate": {"n": 40, "seed": 1,
                                   "rate": {"mean": 1.5, "vol": 0.4, **rate}}},
        "portfolio": portfolio,
        "risk": {"kind": "expected-shortfall", "level": 0.1},
        "strategies": None,
    }


# One more than the largest count a config may set (markets._BLOCK_VALUES).
TOO_MANY = 2**18 + 1

# Config patches with a grid value that a strategy cannot use, and the words
# its one-line error must contain to name that grid.
BAD_GRIDS = {
    "t-grid-scale-string": (
        {"strategies": [{"strategy": "quantile-shift", "side": "ray1", "t_grid": {"scale": "x"}}]},
        "t_grid.scale must be a number"),
    "t-grid-scale-negative": (
        {"strategies": [{"strategy": "quantile-shift", "side": "ray1", "t_grid": {"scale": -5}}]},
        "t_grid.scale must be a non-negative finite number"),
    "t-grid-scale-minus-infinity": (
        {"strategies": [{"strategy": "quantile-shift", "side": "ray1",
                         "t_grid": {"scale": -math.inf}}]},
        "t_grid.scale must be a non-negative finite number"),
    "t-grid-span-string": (
        {"strategies": [{"strategy": "quantile-shift", "side": "ray1", "t_grid": {"span": "x"}}]},
        "t_grid.span must be a number"),
    "t-grid-span-huge-integer": (
        {"strategies": [{"strategy": "quantile-shift", "side": "ray1",
                         "t_grid": {"span": 10**400}}]},
        "t_grid.span must be a finite number"),
    "t-grid-values-empty": (
        {"strategies": [{"strategy": "quantile-shift", "t_grid": {"values": []}}]},
        "scale grid must be a non-empty list"),
    "lambda-grid-values-empty": (
        {**LIQUIDITY,
         "strategies": [{"strategy": "liquidity-family", "lambda_grid": {"values": []}}]},
        "lambda grid must be a non-empty list"),
    "lambda-grid-count-zero": (
        {**LIQUIDITY,
         "strategies": [{"strategy": "liquidity-family", "lambda_grid": {"count": 0}}]},
        "lambda grid count must be an integer in [1,"),
    "t-grid-unknown-key": (
        {"strategies": [{"strategy": "quantile-shift", "t_grid": {"cuont": 3}}]},
        "strategy 'quantile-shift': unknown keys in 't_grid': ['cuont']"),
    "lambda-grid-unknown-key": (
        {**LIQUIDITY,
         "strategies": [{"strategy": "liquidity-family", "lambda_grid": {"span": 2, "count": 3}}]},
        "strategy 'liquidity-family': unknown keys in 'lambda_grid': ['span']"),
}


def negative_weight_csv(tmp_path):
    """Config patch whose CSV gives one scenario a negative weight."""
    path = tmp_path / "negative.csv"
    path.write_text("x1,x2,w\n-2,4,1.5\n4,-2,-0.5\n")
    return {"scenarios": {"csv": str(path)}}


def identity_only(portfolio):
    """Config patch: a portfolio on generated scenarios with identity only,
    so the outer cuts see the portfolio's values first."""
    return {**generated(portfolio), "strategies": [{"strategy": "identity"}]}


def generator(**values):
    """Config patch: generated scenarios with these generator values."""
    return {"scenarios": {"generate": {"n": 10, "seed": 1, **values}}}


# Config patches whose numbers are of the wrong type or not finite; each ran
# to a bundle or to exit 3 before the number rules.
BAD_NUMBERS = {
    "no-exchange-string": generated({"kind": "cone-det", "no_exchange": "no"}),
    "pi12-bool": generated({"kind": "cone-det", "pi12": True, "pi21": 5.0}),
    "pi12-string": generated({"kind": "cone-det", "pi12": "2", "pi21": 5.0}),
    "frictionless-rate-bool": generated({"kind": "cone-det", "frictionless_rate": True}),
    "radius-bool": generated({"kind": "ball", "radius": True}),
    "radius-string": generated({"kind": "ball", "radius": "1"}),
    "radius-infinite": identity_only({"kind": "ball", "radius": math.inf}),
    "cap-bool": generated({"kind": "liquidity-capped", "cap": [True, 1]}),
    "cap-infinite": identity_only({"kind": "liquidity-capped", "cap": [math.inf, 1]}),
    "extra-gains-nan": identity_only(
        {"kind": "segment-hull", "extra_gains": [[[0.0, 0.0]] * 39 + [[math.nan, 0.0]]]}
    ),
    "generate-n-fraction": generator(n=10.7),
    "generate-n-bool": generator(n=True),
    "generate-seed-fraction": generator(seed=1.9),
    "generate-correlation-string": generator(correlation="0.5"),
    "generate-mean-string": generator(mean=["0", 0]),
    "generate-rate-vol-string": generator(rate={"mean": 1.5, "vol": "0.3"}),
    "risk-level-string": {"risk": {"kind": "expected-shortfall", "level": "0.75"}},
    "window-bool-and-string": {"window": [True, "-3", 3, 3]},
    "explicit-gains-string": {"strategies": [{"strategy": "explicit",
                                              "gains": [["-2", 4], [4, "-2"]]}]},
    "explicit-gains-bool": {"strategies": [{"strategy": "explicit",
                                            "gains": [[-2, True], [4, -2]]}]},
    "extra-gains-string": {"portfolio": {"kind": "segment-hull",
                                         "extra_gains": [[["1", 2], [4, -2]]]},
                           "strategies": None},
    "extra-gains-bool": {"portfolio": {"kind": "segment-hull",
                                       "extra_gains": [[[1, True], [4, -2]]]},
                         "strategies": None},
    "quantile-shift-level-string": {"strategies": [{"strategy": "quantile-shift",
                                                    "side": "ray1", "level": "0.5"}]},
    "t-grid-values-string": {"strategies": [{"strategy": "quantile-shift", "side": "ray1",
                                             "t_grid": {"values": ["0", 1]}}]},
    "lambda-grid-values-bool": {**LIQUIDITY,
                                "strategies": [{"strategy": "liquidity-family",
                                                "lambda_grid": {"values": [True, 0.5]}}]},
}


# Segment-hull blocks whose "extra" is not "mirror"; with "extra_gains" also
# given, each ran to a bundle.
ZERO_GAINS = [[[0.0, 0.0]] * 40]
BAD_EXTRAS = {
    "extra-other": generated({"kind": "segment-hull", "extra": "other",
                              "extra_gains": ZERO_GAINS}),
    "extra-null": generated({"kind": "segment-hull", "extra": None,
                             "extra_gains": ZERO_GAINS}),
    "extra-number": generated({"kind": "segment-hull", "extra": 5,
                               "extra_gains": ZERO_GAINS}),
    "extra-other-alone": generated({"kind": "segment-hull", "extra": "other"}),
}


def gen_config(tmp_path, n=50, seed=7):
    return write_json(
        tmp_path / "gen.json",
        {
            "scenarios": {
                "generate": {
                    "n": n,
                    "seed": seed,
                    "mean": [0.5, 0.5],
                    "stdev": [1.0, 1.0],
                    "rate": {"mean": 1.5, "vol": 0.4},
                }
            },
            "portfolio": {"kind": "cone-halfplane-random"},
            "risk": {"kind": "expected-shortfall", "level": 0.05},
        },
    )


def reference_clip(region, window):
    """The pair loop that the CLI's window clip must reproduce bit for bit:
    every meeting point of two lines that satisfies all lines, in pair
    order, less near duplicates, sorted by angle about their mean."""
    x0, y0, x1, y1 = window
    dirs = np.vstack([region._normals, [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]])
    offs = np.concatenate([region._offsets, [x0, -x1, y0, -y1]])
    scale = max(1.0, float(np.max(np.abs(offs))))
    pts = []
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            (a0, a1), (b0, b1) = dirs[i], dirs[j]
            det = float(a0 * b1 - a1 * b0)
            if abs(det) <= 1e-12:
                continue
            p = np.array([(offs[i] * b1 - offs[j] * a1) / det, (a0 * offs[j] - b0 * offs[i]) / det])
            tol = 1e-9 * max(scale, max(1.0, float(np.max(np.abs(p))))) * 10.0
            if np.all(dirs @ p >= offs - tol):
                pts.append(p)
    if not pts:
        raise ValidationError("window does not intersect the region")
    keep = [pts[0]]
    for p in pts[1:]:
        if all(np.max(np.abs(p - q)) > 1e-9 * scale for q in keep):
            keep.append(p)
    pts = np.array(keep)
    center = pts.mean(axis=0)
    return pts[np.argsort(np.arctan2(pts[:, 1] - center[1], pts[:, 0] - center[0]), kind="stable")]


def clip_outcome(clip, region, window):
    try:
        return clip(region, window).tobytes()
    except ValidationError as exc:
        return str(exc)


class TestWindowClip:
    def test_matches_reference_clip(self):
        rng = np.random.default_rng(20261022)
        cones = [ConvexCone2D((1.0, 0.0), (0.0, 1.0)), ConvexCone2D((1.0, -0.5), (-0.4, 1.0)),
                 ConvexCone2D.halfplane((1.0, -0.7))]
        missed = 0
        for trial in range(300):
            t = rng.uniform(np.pi, 1.5 * np.pi, int(rng.integers(1, 40)))
            pts = np.column_stack([np.cos(t), np.sin(t)]) * rng.uniform(0.5, 3.0)
            region = region_from_points_plus_cone(pts + rng.standard_normal(2), cones[trial % 3])
            x0, y0 = rng.uniform(-4.0, 1.0, 2)
            window = (x0, y0, x0 + rng.uniform(0.1, 6.0), y0 + rng.uniform(0.1, 6.0))
            ref = clip_outcome(reference_clip, region, window)
            assert clip_outcome(_clip_to_window, region, window) == ref
            missed += isinstance(ref, str)
        assert 0 < missed < 150

    def test_feasibility_rounds_as_the_pair_loop(self):
        # A meeting point whose slack against the next edge line sits on its
        # limit: `dirs @ p` (one matrix-vector product per point) drops it,
        # while a matrix-matrix product over a block of points keeps it.
        # Found by bisecting the window's left edge.
        verts = np.array([float.fromhex(v) for v in (
            "0x1.79cc49cabc341p-1", "-0x1.8cddb14f0f26cp+0", "0x1.108b6ddf8b9e7p-2",
            "-0x1.ffb70ca4212b8p-1", "-0x1.a50324350d998p-3", "-0x1.cb654d035fa84p-2",
        )]).reshape(3, 2)
        region = RiskRegion2D(verts, ConvexCone2D((1.0, 0.0), (0.0, 1.0)))
        window = (float.fromhex("0x1.312b861ff63ebp-2"), -5.0, 5.0, 5.0)
        assert clip_outcome(_clip_to_window, region, window) == clip_outcome(
            reference_clip, region, window
        )


class TestGen:
    def test_writes_scenarios(self, tmp_path, capsys):
        cfg = gen_config(tmp_path)
        assert entrypoint(["gen", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        out = capsys.readouterr().out
        assert "scenarios.csv" in out and "rate-mean=" in out
        lines = (tmp_path / "o" / "scenarios.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,pi,w"
        assert len(lines) == 51

    def test_seed_repeat_is_byte_identical(self, tmp_path):
        cfg = gen_config(tmp_path)
        entrypoint(["gen", "--config", cfg, "--out", str(tmp_path / "a")])
        entrypoint(["gen", "--config", cfg, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "scenarios.csv").read_bytes()
        b = (tmp_path / "b" / "scenarios.csv").read_bytes()
        assert a == b

    def test_overrides_change_output(self, tmp_path):
        cfg = gen_config(tmp_path)
        entrypoint(["gen", "--config", cfg, "--out", str(tmp_path / "a")])
        entrypoint(["gen", "--config", cfg, "--out", str(tmp_path / "c"), "--seed", "8"])
        entrypoint(["gen", "--config", cfg, "--out", str(tmp_path / "d"), "--n", "10"])
        a = (tmp_path / "a" / "scenarios.csv").read_text()
        c = (tmp_path / "c" / "scenarios.csv").read_text()
        d = (tmp_path / "d" / "scenarios.csv").read_text()
        assert a != c
        assert len(d.splitlines()) == 11

    def test_negative_seed_exits_two(self, tmp_path, capsys):
        cfg = gen_config(tmp_path)
        out = tmp_path / "o"
        assert entrypoint(["gen", "--config", cfg, "--out", str(out), "--seed", "-5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out.exists()

    def test_unknown_config_key_exits_two(self, tmp_path, capsys):
        cfg = json.loads(pathlib.Path(gen_config(tmp_path)).read_text())
        cfg = write_json(tmp_path / "gen.json", {**cfg, "audti": True})
        out = tmp_path / "o"
        assert entrypoint(["gen", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: unknown keys in the config: ['audti']\n"
        assert not out.exists()

    def test_gen_requires_generate_block(self, tmp_path, capsys):
        cfg = nonmargin_config(tmp_path)
        assert entrypoint(["gen", "--config", cfg]) == 2
        assert "generate" in capsys.readouterr().err


class TestRisk:
    def test_nonmargin_bundle(self, tmp_path, capsys):
        cfg = nonmargin_config(tmp_path)
        out = tmp_path / "run"
        assert entrypoint(["risk", "--config", cfg, "--out", str(out)]) == 0
        assert "bundle.json" in capsys.readouterr().out
        bundle = json.loads((out / "bundle.json").read_text())
        assert bundle["meta"]["portfolio"] == "cone-det"
        assert np.allclose(bundle["outer"]["vertices"], [[-1 / 3, -1 / 3]], atol=1e-9)
        for name in ("marginal", "inner", "outer"):
            csv_path = out / f"boundary_{name}.csv"
            assert csv_path.read_text().startswith("x,y\n")

    def test_window_changes_boundaries_not_bundle(self, tmp_path):
        cfg = nonmargin_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        entrypoint(["risk", "--config", cfg, "--out", str(a)])
        entrypoint(
            ["risk", "--config", cfg, "--out", str(b), "--window=-3,-3,3,3"]
        )
        assert (a / "bundle.json").read_bytes() == (b / "bundle.json").read_bytes()
        assert (a / "boundary_outer.csv").read_text() != (
            b / "boundary_outer.csv"
        ).read_text()
        clipped = np.loadtxt(b / "boundary_outer.csv", delimiter=",", skiprows=1)
        assert np.all(np.abs(clipped) <= 3.0 + 1e-9)

    @pytest.mark.parametrize(
        "portfolio, level",
        [
            ({"kind": "ball", "radius": 1.0}, 0.05),
            ({"kind": "segment-hull", "extra": "mirror"}, 0.05),
            # Many outer cuts bind here, so many pairs of lines meet.
            ({"kind": "liquidity-capped", "cap": [1.0, 1.0]}, 0.3),
        ],
        ids=["ball", "segment-hull", "liquidity-capped"],
    )
    def test_window_boundaries_match_reference_clip(
        self, tmp_path, monkeypatch, portfolio, level
    ):
        bundles = []

        def recording(*args, **kwargs):
            bundles.append(compute_bundle(*args, **kwargs))
            return bundles[-1]

        monkeypatch.setattr(cli, "compute_bundle", recording)
        generate = {"n": 300, "seed": 5, "mean": [0.1, 0.0], "stdev": [1.0, 1.3],
                    "correlation": -0.3, "rate": {"mean": 1.5, "vol": 0.3}}
        cfg = write_json(tmp_path / "config.json", {
            "scenarios": {"generate": generate},
            "portfolio": portfolio,
            "risk": {"kind": "expected-shortfall", "level": level},
        })
        out = tmp_path / "o"
        assert entrypoint(["risk", "--config", cfg, "--out", str(out), "--window=-5,-5,5,5"]) == 0
        (bundle,) = bundles
        for name in ("marginal", "inner", "outer"):
            pts = reference_clip(getattr(bundle, name), (-5.0, -5.0, 5.0, 5.0))
            text = "x,y\n" + "".join(f"{x:.12g},{y:.12g}\n" for x, y in pts)
            assert (out / f"boundary_{name}.csv").read_text() == text

    def test_window_from_config(self, tmp_path):
        cfg = nonmargin_config(tmp_path, window=[-3, -3, 3, 3])
        out = tmp_path / "w"
        assert entrypoint(["risk", "--config", cfg, "--out", str(out)]) == 0
        clipped = np.loadtxt(out / "boundary_outer.csv", delimiter=",", skiprows=1)
        assert np.all(np.abs(clipped) <= 3.0 + 1e-9)

    def test_identity_only_inner_equals_marginal(self, tmp_path):
        cfg = nonmargin_config(tmp_path, strategies=[])
        out = tmp_path / "id"
        assert entrypoint(["risk", "--config", cfg, "--out", str(out)]) == 0
        bundle = json.loads((out / "bundle.json").read_text())
        assert bundle["inner"] == bundle["marginal"]

    def test_generated_run_is_deterministic(self, tmp_path):
        cfg = gen_config(tmp_path, n=200, seed=13)
        a, b = tmp_path / "a", tmp_path / "b"
        assert entrypoint(["risk", "--config", cfg, "--out", str(a)]) == 0
        assert entrypoint(["risk", "--config", cfg, "--out", str(b)]) == 0
        assert (a / "bundle.json").read_bytes() == (b / "bundle.json").read_bytes()

    def test_missing_risk_block(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "bad.json",
            {"scenarios": {"csv": nonmargin_csv(tmp_path)},
             "portfolio": {"kind": "ball", "radius": 1.0}},
        )
        assert entrypoint(["risk", "--config", cfg]) == 2
        assert "risk" in capsys.readouterr().err

    def test_missing_scenarios_block(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "bad.json",
            {"portfolio": {"kind": "ball", "radius": 1.0},
             "risk": {"kind": "expected-shortfall", "level": 0.5}},
        )
        assert entrypoint(["risk", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            'error: config needs a "scenarios" block with exactly one of "generate" or "csv"\n'
        )
        assert not (tmp_path / "o").exists()

    def test_segment_hull_from_extra_gains(self, tmp_path):
        # README's "extra_gains" form: given as the mirrored gains, it makes
        # the bundle of "extra": "mirror", and the bundle nests.
        generate = {"n": 60, "seed": 4, "correlation": -0.4}
        gains = cli.generate(cli.GenSpec.from_dict(generate)).gains
        bundles = []
        for i, portfolio in enumerate([{"extra": "mirror"},
                                       {"extra_gains": [gains[:, ::-1].tolist()]}]):
            cfg = write_json(tmp_path / f"{i}.json", {
                "scenarios": {"generate": generate},
                "portfolio": {"kind": "segment-hull", **portfolio},
                "risk": {"kind": "expected-shortfall", "level": 0.1},
            })
            out = tmp_path / str(i)
            assert entrypoint(["risk", "--config", cfg, "--out", str(out)]) == 0
            bundles.append((out / "bundle.json").read_text())
        assert bundles[1] == bundles[0]
        bundle = RiskBundle.from_dict(json.loads(bundles[1]))
        assert bundle.meta["selections"] == 3 + 21  # identity, two vertices, 21 mixes
        assert sandwich_violation(bundle) <= 1e-9

    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        assert entrypoint(["risk", "--config", str(bad)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert entrypoint(["risk", "--config", str(tmp_path / "ghost.json")]) == 2

    def test_seed_override_rejected_for_csv(self, tmp_path, capsys):
        cfg = nonmargin_config(tmp_path)
        assert entrypoint(["risk", "--config", cfg, "--seed", "1"]) == 2
        assert "--seed" in capsys.readouterr().err

    def test_unknown_portfolio_keys(self, tmp_path):
        cfg = nonmargin_config(tmp_path)
        payload = json.loads((tmp_path / "config.json").read_text())
        payload["portfolio"]["leverage"] = 2.0
        cfg = write_json(tmp_path / "config.json", payload)
        assert entrypoint(["risk", "--config", cfg]) == 2

    def test_bad_window_string(self, tmp_path):
        cfg = nonmargin_config(tmp_path)
        assert entrypoint(["risk", "--config", cfg, "--window", "1,2,3"]) == 2

    @pytest.mark.parametrize(
        "patch",
        [
            {"strategies": [{"strategy": "explicit"}]},
            {"strategies": [{"strategy": "explicit", "gains": [[0.0, 0.0]]}]},
            {"directions": "abc"},
            {"strategies": "identity"},
            {"portfolio": {"kind": "ball", "radius": "x"}},
            {"portfolio": {"kind": "cone-det", "pi12": "x", "pi21": 5.0}},
            {"risk": {"kind": "expected-shortfall", "level": "x"}},
            {"window": [1, 2, 3]},
            {"window": [3, 3, -3, -3]},
            {"strategies": [{"strategy": "quantile-shift", "sdie": "ray1"}]},
            {"audit": "no"},
            {"strategies": [{"strategy": "quantile-shift", "t_grid": {"count": "x"}}]},
            {"strategies": [{"strategy": "quantile-shift", "t_grid": "abc"}]},
            {**LIQUIDITY,
             "strategies": [{"strategy": "liquidity-family", "lambda_grid": [0.5]}]},
            {**LIQUIDITY,
             "strategies": [{"strategy": "liquidity-family", "lambda_grid": {"count": "x"}}]},
            [],  # a whole config that is not an object
            {"scenarios": {"generate": {"seed": 1}}},
            {"scenarios": {"generate": {"n": 10, "seed": 1, "rate": 1.5}}},
            {"scenarios": {"csv": ["scenarios.csv"]}},
            {"window": [-101, -101, -100, -100]},
            {"window": "-inf,-inf,inf,inf"},
            {"window": "-inf,0,5,5"},
            {"scenarios": {"generate": {"n": 300, "seed": 31, "correlation": -0.5}},
             "portfolio": {"kind": "segment-hull", "extra": "mirror"},
             "risk": {"kind": "value-at-risk", "level": 0.2}},
            duplicate_column_csv,
            {"strategies": [{"strategy": "quantile-shift", "level": 0.5,
                             "t_grid": {"values": [0, 1e308]}}]},
            {"scenarios": {"generate": {"n": 10, "seed": -1}}},
            ({"scenarios": {"generate": {"n": 10, "seed": 1}}}, ["--seed", "-1"]),
            ({"scenarios": {"generate": {"n": 10, "seed": 1}}}, ["--n", str(10**20)]),
            {"scenarios": {"generate": {"n": 1e30, "seed": 1}}},
            {"scenarios": {"generate": {"n": math.inf, "seed": 1}}},
            {"scenarios": {"generate": {"n": 10, "seed": 1, "rate": {"mean": 1, "vol": 1e200}}}},
            {"scenarios": {"generate": {"n": 10, "seed": 1, "rate": {"mean": 1e308, "vol": 1}}}},
            {"scenarios": {"generate": {"n": 50, "seed": 1, "stdev": [1e308, 1e308]}}},
            {"scenarios": {"generate": {"n": 10, "seed": 1, "stdev": [1e308, 1e308]}}},
            {"portfolio": [1]},
            {"portfolio": "ball"},
            {"portfolio": 5},
            {"strategies": [{"strategy": "quantile-shift", "t_grid": {"scale": 1e308}}]},
            {"strategies": [{"strategy": "quantile-shift",
                             "t_grid": {"scale": 2.0, "span": 1e308}}]},
            {"strategies": [{"strategy": "quantile-shift", "t_grid": {"scale": math.inf}}]},
            generated({"kind": "cone-det", "pi12": 1e308, "pi21": 1e308}),
            generated({"kind": "cone-det", "frictionless_rate": 1e300}),
            generated({"kind": "cone-det", "pi12": 1e-300, "pi21": 1e300}),
            generated({"kind": "cone-halfplane-random"}, mean=1e-300),
            # malloc refuses 16 PB at once; never use an n that could fit.
            ({"scenarios": {"generate": {"n": 10, "seed": 1}}}, ["--n", str(10**15)]),
            {"strategies": [{"strategy": "quantile-shift", "side": "ray1",
                             "t_grid": {"count": TOO_MANY}}]},
            {**LIQUIDITY,
             "strategies": [{"strategy": "liquidity-family", "lambda_grid": {"count": TOO_MANY}}]},
            {"strategies": [{"strategy": "quantile-shift", "side": "both",
                             "t_grid": {"count": 1024}}]},
            {"strategies": [{"strategy": "quantile-shift", "side": "ray1",
                             "t_grid": {"values": [i / 1024 for i in range(TOO_MANY)]}}]},
            {"directions": TOO_MANY},
            {"strategies": [{"strategy": "quantile-shift", "side": "ray1",
                             "t_grid": {"count": 2.9}}]},
            {**LIQUIDITY,
             "strategies": [{"strategy": "liquidity-family", "lambda_grid": {"count": 2.9}}]},
            {**LIQUIDITY,
             "strategies": [{"strategy": "liquidity-family", "lambda_grid": {"count": "3"}}]},
            {**LIQUIDITY,
             "strategies": [{"strategy": "liquidity-family", "lambda_grid": {"count": True}}]},
            *(patch for patch, _ in BAD_GRIDS.values()),
            *BAD_NUMBERS.values(),
            *BAD_EXTRAS.values(),
            {"portfolio": {"kind": "teleport"}},
            {"portfolio": {"kind": "ball"}},
            ({}, ["--window=-1,-1,1,x"]),
            ({"window": [-3, -3, 3, 3]}, ["--window="]),
            {**LIQUIDITY, "strategies": [{"strategy": "liquidity-family",
                                          "lambda_grid": {"values": [0.5, 2]}}]},
            {"strategies": [1]},
            {"strategies": [{"strategy": "quantile-shift", "side": "ray1",
                             "t_grid": {"span": -1}}]},
            negative_weight_csv,
            {"audti": True},
            {"stratgies": [{"strategy": "identity"}]},
            lambda tmp_path: {"scenarios": {"csv": nonmargin_csv(tmp_path), "seed": 3}},
            {"risk": {"kind": "expected-shortfall", "level": 0.75, "levle": 0.25}},
        ],
        ids=[
            "explicit-without-gains", "explicit-wrong-shape", "directions",
            "strategies-string", "radius", "pi12", "level", "window", "empty-window",
            "unknown-strategy-key", "audit-string", "t-grid-count", "t-grid-string",
            "lambda-grid-list", "lambda-grid-count", "config-list", "generate-without-n",
            "generate-rate-number", "csv-not-string", "window-misses-region",
            "window-infinite", "window-half-infinite", "value-at-risk",
            "duplicate-column", "t-grid-overflow", "generate-negative-seed",
            "seed-flag-negative", "n-flag-too-large", "generate-n-too-large",
            "generate-n-infinite", "rate-vol-overflow", "rate-mean-overflow",
            "stdev-overflow", "gains-near-overflow", "portfolio-list", "portfolio-string", "portfolio-number",
            "t-grid-scale-overflow", "t-grid-span-overflow", "t-grid-scale-infinite",
            "rates-overflow-support", "frictionless-rate-overflow", "rates-skewed",
            "rate-mean-tiny", "n-flag-unallocatable", "t-grid-count-too-large",
            "lambda-grid-count-too-large", "t-grid-both-count-too-large",
            "t-grid-values-too-many", "directions-too-many", "t-grid-count-float",
            "lambda-grid-count-float", "lambda-grid-count-string", "lambda-grid-count-bool",
            *BAD_GRIDS, *BAD_NUMBERS, *BAD_EXTRAS, "portfolio-kind-unknown", "ball-without-radius",
            "window-flag-not-a-number", "window-flag-empty", "lambda-grid-values-above-one",
            "strategy-number", "t-grid-span-negative", "csv-negative-weight",
            "config-unknown-key", "config-misspelt-strategies", "scenarios-unknown-key",
            "risk-unknown-key",
        ],
    )
    def test_malformed_input_exits_two(self, tmp_path, capsys, patch):
        # A patch is a config patch or a whole config, optionally paired with
        # command-line flags.  Warnings are errors in this suite, so a numpy
        # warning before the error line fails the case too.
        flags = []
        if isinstance(patch, tuple):
            patch, flags = patch
        if callable(patch):
            patch = patch(tmp_path)
        if isinstance(patch, dict):
            cfg = nonmargin_config(tmp_path, **patch)
        else:
            cfg = write_json(tmp_path / "config.json", patch)
        assert entrypoint(["risk", "--config", cfg, "--out", str(tmp_path / "o"), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "o" / "bundle.json").exists()

    @pytest.mark.parametrize(
        "portfolio, rate, operation",
        [
            ({"kind": "cone-det", "pi12": 1e308, "pi21": 1e308}, 1.5, "matmul"),
            ({"kind": "cone-det", "frictionless_rate": 1e300}, 1.5, "multiply"),
            ({"kind": "cone-halfplane-random"}, 1e-300, "power"),
        ],
        ids=["pi-overflow", "frictionless-rate-overflow", "rate-mean-tiny"],
    )
    def test_overflow_error_names_the_stage(self, tmp_path, capsys, portfolio, rate, operation):
        cfg = write_json(tmp_path / "config.json", {
            "scenarios": {"generate": {"n": 40, "seed": 1, "rate": {"mean": rate, "vol": 0.3}}},
            "portfolio": portfolio,
            "risk": {"kind": "expected-shortfall", "level": 0.1},
        })
        assert entrypoint(["risk", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: overflow encountered in {operation} in the outer-cut stage, "
            'which reads config "portfolio" and "scenarios"\n'
        )

    @pytest.mark.parametrize("patch, words", BAD_GRIDS.values(), ids=list(BAD_GRIDS))
    def test_bad_grid_error_names_the_grid(self, tmp_path, capsys, patch, words):
        cfg = nonmargin_config(tmp_path, **patch)
        assert entrypoint(["risk", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert words in capsys.readouterr().err

    @pytest.mark.parametrize("patch", BAD_EXTRAS.values(), ids=list(BAD_EXTRAS))
    def test_bad_extra_is_named(self, tmp_path, capsys, patch):
        cfg = nonmargin_config(tmp_path, **patch)
        assert entrypoint(["risk", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            'error: portfolio block: "extra" must be "mirror"; '
            'give other vertices as "extra_gains"\n'
        )

    def test_tolerance_cycle_of_selection_risks(self, tmp_path):
        # Three selection risk points, each within the hull tolerance of the
        # next in one coordinate, so tolerant dominance among them cycles.
        csv = tmp_path / "one.csv"
        csv.write_text("x1,x2\n0,0\n")
        gains = [[[8e-10, 0.0]], [[4e-10, 8e-10]], [[1.2e-9, -8e-10]]]
        cfg = write_json(
            tmp_path / "cycle.json",
            {
                "scenarios": {"csv": str(csv)},
                "portfolio": {"kind": "ball", "radius": 1.0},
                "risk": {"kind": "expected-shortfall", "level": 0.5},
                "strategies": [{"strategy": "explicit", "gains": g} for g in gains],
            },
        )
        assert entrypoint(["risk", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        bundle = RiskBundle.from_dict(json.loads((tmp_path / "o" / "bundle.json").read_text()))
        assert sandwich_violation(bundle) <= 1e-9

    def test_no_exchange_cone_runs_default_strategies(self, tmp_path, capsys):
        cfg = write_json(
            tmp_path / "ne.json",
            {
                "scenarios": {"generate": GEN_WITH_RATES},
                "portfolio": {"kind": "cone-det", "no_exchange": True},
                "risk": {"kind": "expected-shortfall", "level": 0.25},
            },
        )
        assert entrypoint(["risk", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
        bundle = json.loads((tmp_path / "o" / "bundle.json").read_text())
        # Without exchange no selection beats the position itself.
        point = bundle["marginal"]["vertices"]
        assert bundle["inner"]["vertices"] == point == bundle["outer"]["vertices"]
        explicit = json.loads((tmp_path / "ne.json").read_text())
        explicit["strategies"] = [{"strategy": "corner-selections"}]
        cfg = write_json(tmp_path / "ne.json", explicit)
        assert entrypoint(["risk", "--config", cfg, "--out", str(tmp_path / "o2")]) == 2
        assert "finite exchange rates" in capsys.readouterr().err

    def test_whole_plane_exit_code(self, tmp_path, capsys):
        path = tmp_path / "skew.csv"
        path.write_text(
            "x1,x2,pi,w\n"
            "0,0,1e-4,0.001\n"
            "0,0,1,0.998\n"
            "0,0,1e4,0.001\n"
        )
        cfg = write_json(
            tmp_path / "wp.json",
            {
                "scenarios": {"csv": str(path)},
                "portfolio": {"kind": "cone-halfplane-random"},
                "risk": {"kind": "expected-shortfall", "level": 0.5},
            },
        )
        assert entrypoint(["risk", "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "whole plane" in capsys.readouterr().err


class TestScalarize:
    def test_support_values(self, tmp_path, capsys):
        cfg = nonmargin_config(tmp_path)
        out = tmp_path / "run"
        entrypoint(["risk", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        code = entrypoint(
            ["scalarize", "--bundle", str(out / "bundle.json"), "--direction", "5,1"]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["direction"] == [5.0, 1.0]
        assert result["outer"] == pytest.approx(-2.0, abs=1e-9)
        assert result["inner"] >= result["outer"] - 1e-9
        assert result["marginal"] >= result["inner"] - 1e-9

    def test_unsupported_direction_is_null(self, tmp_path, capsys):
        cfg = nonmargin_config(tmp_path)
        out = tmp_path / "run"
        entrypoint(["risk", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        code = entrypoint(
            ["scalarize", "--bundle", str(out / "bundle.json"), "--direction", "1,-1"]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        assert result["inner"] is None and result["outer"] is None

    def test_overflowing_support_exits_two(self, tmp_path, capsys):
        # 1e308 * (1 + 1) overflows: that is no unbounded support, so no null.
        region = region_from_points_plus_cone(np.array([[1.0, 1.0]]),
                                              ConvexCone2D.nonneg_orthant())
        bundle = RiskBundle(inner=region, outer=region, marginal=region, meta={})
        path = tmp_path / "bundle.json"
        path.write_text(bundle.to_json())
        code = entrypoint(["scalarize", "--bundle", str(path), "--direction", "1e308,1e308"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    def test_bad_direction(self, tmp_path):
        cfg = nonmargin_config(tmp_path)
        out = tmp_path / "run"
        entrypoint(["risk", "--config", cfg, "--out", str(out)])
        path = str(out / "bundle.json")
        assert entrypoint(["scalarize", "--bundle", path, "--direction", "1"]) == 2
        assert entrypoint(["scalarize", "--bundle", path, "--direction", "a,b"]) == 2

    def test_bundle_without_inner(self, tmp_path, capsys):
        cfg = nonmargin_config(tmp_path)
        out = tmp_path / "run"
        entrypoint(["risk", "--config", cfg, "--out", str(out)])
        capsys.readouterr()
        bundle = json.loads((out / "bundle.json").read_text())
        del bundle["inner"]
        path = write_json(out / "bundle.json", bundle)
        assert entrypoint(["scalarize", "--bundle", path, "--direction", "1,1"]) == 2
        err = capsys.readouterr().err
        assert err == "error: malformed bundle payload: missing 'inner'\n"

    @pytest.mark.parametrize(
        "spoil, message",
        [
            pytest.param(lambda b: b.update(meta=5), "bundle payload: ", id="meta-number"),
            pytest.param(lambda b: b["inner"].pop("vertices"), "region payload: 'vertices'",
                         id="inner-without-vertices"),
            pytest.param(lambda b: b["inner"].update(vertices=[1.0, 2.0]),
                         "region payload: vertices must be a non-empty (k, 2) array",
                         id="inner-flat-vertex"),
            pytest.param(lambda b: b["inner"].update(vertices=[[0.0, 1.0], [1.0, 0.0]]),
                         "region payload: vertices must have decreasing first coordinate",
                         id="inner-increasing-x"),
            pytest.param(lambda b: b["inner"]["vertices"][0].__setitem__(0, math.inf),
                         "region payload: vertices contain non-finite entries",
                         id="inner-infinite-vertex"),
            pytest.param(lambda b: b["inner"].update(recession=[[1.0, 0.0], [1.0, 1.0]]),
                         "region payload: recession cone must contain the non-negative quadrant",
                         id="inner-narrow-recession"),
        ],
    )
    def test_malformed_bundle_exits_two(self, tmp_path, capsys, spoil, message):
        out = tmp_path / "run"
        entrypoint(["risk", "--config", nonmargin_config(tmp_path), "--out", str(out)])
        capsys.readouterr()
        bundle = json.loads((out / "bundle.json").read_text())
        spoil(bundle)
        path = write_json(out / "bundle.json", bundle)
        assert entrypoint(["scalarize", "--bundle", path, "--direction", "1,1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed " + message) and err.count("\n") == 1, err

    def test_missing_bundle(self, tmp_path):
        assert (
            entrypoint(
                ["scalarize", "--bundle", str(tmp_path / "nope.json"), "--direction", "1,1"]
            )
            == 2
        )


class TestRepro:
    def test_nonmargin_passes(self, tmp_path, capsys):
        assert entrypoint(["repro", "nonmargin", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        report = json.loads((tmp_path / "nonmargin" / "report.json").read_text())
        assert all(row["ok"] for row in report)
        assert (tmp_path / "nonmargin" / "bundle.json").exists()

    def test_out_works_without_bundle_artifacts(self, monkeypatch, tmp_path, capsys):
        # examples whose checks are all scalar emit a report but no bundle
        rows = [
            {"name": "probe", "computed": 1.0, "expected": 1.0, "tol": 0.1, "ok": True}
        ]
        monkeypatch.setattr(cli, "run_repro", lambda example: (rows, {}))
        assert entrypoint(["repro", "intro", "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "intro" / "report.json").read_text())
        assert report[0]["ok"]
        assert not (tmp_path / "intro" / "bundle.json").exists()

    @pytest.mark.parametrize("example", ["normcone", "liquidity"])
    def test_pinned_example_passes(self, example):
        rows, _ = run_repro(example)
        assert rows and all(row["ok"] for row in rows), rows

    def test_unknown_example_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as err:
            entrypoint(["repro", "warp-drive"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "flags", [["--window", "abc"], ["--window="], ["--out", None, "--window", "1,1,0,0"]],
        ids=["not-numbers", "empty-string", "empty-box-with-out"],
    )
    def test_bad_window_exits_two_before_the_repro(self, monkeypatch, tmp_path, capsys, flags):
        # The window is checked first, with or without --out: no example
        # runs and no output directory is made.
        ran = []
        rows = [
            {"name": "probe", "computed": 1.0, "expected": 1.0, "tol": 0.1, "ok": True}
        ]
        monkeypatch.setattr(cli, "run_repro", lambda example: ran.append(example) or (rows, {}))
        flags = [str(tmp_path) if flag is None else flag for flag in flags]
        assert entrypoint(["repro", "nonmargin", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: window") and err.count("\n") == 1, err
        assert ran == [] and list(tmp_path.iterdir()) == []

    def test_mismatch_exits_one(self, monkeypatch, capsys):
        rows = [
            {"name": "probe", "computed": 1.0, "expected": 2.0, "tol": 0.1, "ok": False}
        ]
        monkeypatch.setattr(cli, "run_repro", lambda example: (rows, {}))
        assert entrypoint(["repro", "nonmargin"]) == 1
        assert "MISMATCH" in capsys.readouterr().out


def test_floating_point_policy_is_set_only_in_cli():
    # The CLI decides what overflow means; library modules follow the
    # caller's numpy error state and set none of their own.
    package = pathlib.Path(svrisk.__file__).parent
    setters = sorted(path.name for path in package.glob("*.py") if "errstate" in path.read_text())
    assert setters == ["cli.py"]


def test_import_loads_no_scipy():
    code = (
        "import sys, svrisk.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    root = os.path.dirname(os.path.dirname(svrisk.__file__))
    env = dict(os.environ, PYTHONPATH=root)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


# Portfolio blocks and strategy lists of the mutated configs: small grids,
# so that each run takes milliseconds.
MUTATED_KINDS = [
    ({"kind": "cone-det", "pi12": 1.5, "pi21": 1.2},
     [{"strategy": "quantile-shift", "side": "both", "t_grid": {"count": 3}},
      {"strategy": "corner-selections"}]),
    ({"kind": "cone-halfplane-random"},
     [{"strategy": "frictionless", "t_grid": {"values": [0.0, 1.0, 2.0]}}]),
    ({"kind": "liquidity-capped", "cap": [1.0, 0.5]},
     [{"strategy": "liquidity-family", "lambda_grid": {"count": 3}}]),
    ({"kind": "ball", "radius": 0.7}, [{"strategy": "ball-boost"}]),
    ({"kind": "segment-hull", "extra": "mirror"},
     [{"strategy": "segment-vertices", "lambda_grid": {"values": [0.25, 0.5]}}]),
]
# What a mutated config value becomes.
MUTANT_VALUES = [None, True, False, 0, -1, 2, 0.5, -0.5, 1e308, -1e308, 5e-324, 2**64, "x",
                 "", [], [1.0], [1.0, 2.0, 3.0], {}, {"values": [0.0, 1.0]}]


def mutated_config(base, rng):
    """A deep copy of ``base`` with one value replaced or one key dropped."""
    config = json.loads(json.dumps(base))
    places = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            places.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(config)
    node, key = places[int(rng.integers(len(places)))]
    if isinstance(node, dict) and rng.random() < 0.2:
        del node[key]
    else:
        node[key] = MUTANT_VALUES[int(rng.integers(len(MUTANT_VALUES)))]
    return config


def mutated_bytes(data, rng):
    """``data`` with one byte changed, a few removed or inserted, a run
    doubled or the tail cut off."""
    data = bytearray(data)
    at = int(rng.integers(len(data)))
    op = int(rng.integers(5))
    if op == 0:
        data[at] = int(rng.integers(256))
    elif op == 1:
        del data[at : at + int(rng.integers(1, 8))]
    elif op == 2:
        pool = b',."-+e\n\r 0123456789inan\x00\xff'
        data[at:at] = bytes(pool[int(i)] for i in rng.integers(len(pool), size=rng.integers(1, 6)))
    elif op == 3:
        data[at:at] = data[at : at + int(rng.integers(1, 40))]
    else:
        del data[at:]
    return bytes(data)


def run_quietly(tmp_path, capsys, config):
    """Exit code of ``svrisk risk`` on the config, which must end in 0, 2 or
    3 with at most one line on stderr, no traceback and no warning."""
    path = write_json(tmp_path / "mutant.json", config)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = entrypoint(["risk", "--config", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (code, config)
    assert len(err.splitlines()) <= 1 and "Traceback" not in err, (err, config)
    return code


class TestMutatedInputs:
    def test_mutated_configs_fail_cleanly(self, tmp_path, capsys):
        rng = np.random.default_rng(61)
        codes = []
        for i in range(60):
            portfolio, strategies = MUTATED_KINDS[i % len(MUTATED_KINDS)]
            base = {
                "scenarios": {"generate": {"n": 16, "seed": 3, "correlation": -0.3,
                                           "rate": {"mean": 1.5, "vol": 0.3}}},
                "portfolio": portfolio,
                "risk": {"kind": "expected-shortfall", "level": 0.2},
                "strategies": strategies,
                "directions": 9,
                "audit": True,
                "window": [-5.0, -5.0, 5.0, 5.0],
            }
            codes.append(run_quietly(tmp_path, capsys, mutated_config(base, rng)))
        # Most mutations are refused, and some still make a bundle.
        assert codes.count(2) >= 20 and codes.count(0) >= 5, codes

    def test_mutated_scenario_files_fail_cleanly(self, tmp_path, capsys):
        rng = np.random.default_rng(62)
        e = ScenarioEnsemble(rng.standard_normal((12, 2)), rates=rng.uniform(0.5, 2.0, 12))
        clean = tmp_path / "clean.csv"
        svrisk.scenarios.write_csv(e, clean)
        data = clean.read_bytes()
        path = tmp_path / "mutant.csv"
        codes = []
        for i in range(60):
            portfolio, strategies = MUTATED_KINDS[i % len(MUTATED_KINDS)]
            path.write_bytes(mutated_bytes(data, rng))
            config = {
                "scenarios": {"csv": str(path)},
                "portfolio": portfolio,
                "risk": {"kind": "expected-shortfall", "level": 0.25},
                "strategies": strategies,
                "directions": 9,
                "audit": True,
            }
            codes.append(run_quietly(tmp_path, capsys, config))
        assert codes.count(2) >= 10 and codes.count(0) >= 10, codes
