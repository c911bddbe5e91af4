"""Scenario generation and CSV interchange for two-asset ensembles."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .markets import ScenarioEnsemble


@dataclass(frozen=True)
class GenSpec:
    """Monte Carlo layout: correlated normal gains and an optional
    lognormal exchange rate with unit-mean noise (vol is the stdev of the
    log rate)."""

    n: int
    seed: int
    mean: tuple = (0.0, 0.0)
    stdev: tuple = (1.0, 1.0)
    correlation: float = 0.0
    rate_mean: float | None = None
    rate_vol: float = 0.0

    def __post_init__(self):
        if int(self.n) <= 0:
            raise ValidationError("n must be positive")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "seed", int(self.seed))
        mean = tuple(float(v) for v in self.mean)
        stdev = tuple(float(v) for v in self.stdev)
        if len(mean) != 2 or len(stdev) != 2:
            raise ValidationError("mean and stdev must have two entries")
        if not all(math.isfinite(v) for v in mean + stdev):
            raise ValidationError("mean and stdev must be finite")
        if any(v <= 0 for v in stdev):
            raise ValidationError("stdev must be positive")
        rho = float(self.correlation)
        if not -1.0 < rho < 1.0:
            raise ValidationError("correlation must lie in (-1, 1)")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "stdev", stdev)
        object.__setattr__(self, "correlation", rho)
        if self.rate_mean is not None:
            rate_mean = float(self.rate_mean)
            rate_vol = float(self.rate_vol)
            if not (math.isfinite(rate_mean) and rate_mean > 0):
                raise ValidationError("rate_mean must be positive")
            if not (math.isfinite(rate_vol) and rate_vol >= 0):
                raise ValidationError("rate_vol must be non-negative")
            object.__setattr__(self, "rate_mean", rate_mean)
            object.__setattr__(self, "rate_vol", rate_vol)

    @classmethod
    def from_dict(cls, data):
        d = dict(data)
        rate = d.pop("rate", None)
        kwargs = {
            "n": d.pop("n"),
            "seed": d.pop("seed"),
            "mean": d.pop("mean", (0.0, 0.0)),
            "stdev": d.pop("stdev", (1.0, 1.0)),
            "correlation": d.pop("correlation", 0.0),
        }
        if d:
            raise ValidationError(f"unknown generator keys: {sorted(d)}")
        if rate is not None:
            if not isinstance(rate, dict):
                raise ValidationError(f"rate must be an object, got {rate!r}")
            extra = set(rate) - {"mean", "vol"}
            if extra:
                raise ValidationError(f"unknown rate keys: {sorted(extra)}")
            kwargs["rate_mean"] = rate.get("mean", 1.0)
            kwargs["rate_vol"] = rate.get("vol", 0.0)
        return cls(**kwargs)

    def to_dict(self):
        out = {
            "n": self.n,
            "seed": self.seed,
            "mean": list(self.mean),
            "stdev": list(self.stdev),
            "correlation": self.correlation,
        }
        if self.rate_mean is not None:
            out["rate"] = {"mean": self.rate_mean, "vol": self.rate_vol}
        return out


def generate(spec):
    """Draw an ensemble from the spec with a PCG64 stream keyed by the seed.

    Draw order is fixed (gain block first, then the rate block) so a seed
    pins the ensemble bit-for-bit across runs.
    """
    rng = np.random.default_rng(spec.seed)
    z = rng.standard_normal((spec.n, 2))
    rho = spec.correlation
    x1 = spec.mean[0] + spec.stdev[0] * z[:, 0]
    x2 = spec.mean[1] + spec.stdev[1] * (rho * z[:, 0] + math.sqrt(1.0 - rho**2) * z[:, 1])
    gains = np.column_stack([x1, x2])
    rates = None
    if spec.rate_mean is not None:
        z3 = rng.standard_normal(spec.n)
        # exp(vol*Z - vol^2/2) has mean one, so the rate averages rate_mean
        rates = spec.rate_mean * np.exp(spec.rate_vol * z3 - 0.5 * spec.rate_vol**2)
    return ScenarioEnsemble(gains, rates=rates)


_COLUMNS = ("x1", "x2", "pi", "w")


def write_csv(ensemble, path):
    """Write scenarios with 12 significant digits per value."""
    cols = ["x1", "x2"]
    data = [ensemble.gains[:, 0], ensemble.gains[:, 1]]
    if ensemble.rates is not None:
        cols.append("pi")
        data.append(ensemble.rates)
    cols.append("w")
    data.append(ensemble.weights)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(cols)
        # The bytes csv.writer gives for f"{v:.12g}" cells, in one call.
        np.savetxt(fh, np.column_stack(data), fmt="%.12g", delimiter=",", newline="\r\n")


def read_csv(path):
    """Read an ensemble written by ``write_csv`` (w and pi columns optional)."""
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
            body = fh.read()
        except StopIteration:
            raise ValidationError(f"{path}: empty scenario file") from None
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: {exc}") from None
    header = [h.strip() for h in header]
    unknown = [h for h in header if h not in _COLUMNS]
    if unknown or "x1" not in header or "x2" not in header:
        raise ValidationError(
            f"{path}: header must use columns x1,x2[,pi][,w], got {header}"
        )
    for name in header:
        if header.count(name) > 1:
            raise ValidationError(f"{path}: column {name!r} appears twice in the header")
    data = _parse_block(body, len(header))
    if data is None:
        data = _parse_rows(path, body, len(header))
    cols = {name: data[:, i] for i, name in enumerate(header)}
    gains = np.column_stack([cols["x1"], cols["x2"]])
    rates = cols.get("pi")
    weights = cols.get("w")
    try:
        return ScenarioEnsemble(gains, rates=rates, weights=weights)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _parse_block(body, width):
    """The rows after the header as one (rows, width) array parsed by numpy,
    or None where numpy rejects them or finds another width.  Each cell it
    accepts it converts as ``float()`` does, bit for bit."""
    if not body.strip():
        return None  # numpy would warn that the input has no data
    try:
        data = np.loadtxt(io.StringIO(body, newline=""), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    return data if data.shape[1] == width else None


def _parse_rows(path, body, width):
    """Parse the rows after the header one cell at a time.  This accepts
    what numpy does not (quoted cells, rows of blank cells, ``1_0``) and
    names the line of the first row it cannot read."""
    rows = []
    for lineno, row in enumerate(csv.reader(io.StringIO(body, newline="")), start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != width:
            raise ValidationError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
        try:
            rows.append([float(cell) for cell in row])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: no scenario rows")
    return np.asarray(rows, dtype=float)
