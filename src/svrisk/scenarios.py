"""Scenario generation and CSV interchange for two-asset ensembles."""

from __future__ import annotations

import csv
import io
import itertools
import locale
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .markets import ScenarioEnsemble, _count, _object, _real

# Keys of a config's generate block and of its rate block.
_GENERATE_KEYS = ("n", "seed", "mean", "stdev", "correlation", "rate")
_RATE_KEYS = ("mean", "vol")


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
        # n is capped so that an (n, 2) float array fits in one index range.
        object.__setattr__(self, "n", _count(self.n, "n", 1, np.iinfo(np.intp).max // 16))
        object.__setattr__(self, "seed", _count(self.seed, "seed", 0, math.inf))
        mean = tuple(_real(v, "mean") for v in self.mean)
        stdev = tuple(_real(v, "stdev") for v in self.stdev)
        if len(mean) != 2 or len(stdev) != 2:
            raise ValidationError("mean and stdev must have two entries")
        if not all(math.isfinite(v) for v in mean + stdev):
            raise ValidationError("mean and stdev must be finite")
        if any(v <= 0 for v in stdev):
            raise ValidationError("stdev must be positive")
        rho = _real(self.correlation, "correlation")
        if not -1.0 < rho < 1.0:
            raise ValidationError("correlation must lie in (-1, 1)")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "stdev", stdev)
        object.__setattr__(self, "correlation", rho)
        if self.rate_mean is not None:
            rate_mean = _real(self.rate_mean, "rate_mean")
            rate_vol = _real(self.rate_vol, "rate_vol")
            if not (math.isfinite(rate_mean) and rate_mean > 0):
                raise ValidationError("rate_mean must be positive")
            if not 0 <= rate_vol < 1e154:  # its square must stay finite
                raise ValidationError("rate_vol must lie in [0, 1e154)")
            object.__setattr__(self, "rate_mean", rate_mean)
            object.__setattr__(self, "rate_vol", rate_vol)

    @classmethod
    def from_dict(cls, data):
        d = _object(data, "'generate'", _GENERATE_KEYS)
        kwargs = {
            "n": d["n"],
            "seed": d["seed"],
            "mean": d.get("mean", (0.0, 0.0)),
            "stdev": d.get("stdev", (1.0, 1.0)),
            "correlation": d.get("correlation", 0.0),
        }
        if d.get("rate") is not None:
            rate = _object(d["rate"], "'rate'", _RATE_KEYS)
            kwargs["rate_mean"] = rate.get("mean", 1.0)
            kwargs["rate_vol"] = rate.get("vol", 0.0)
        return cls(**kwargs)


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
# Rows that write_csv formats with one % call.
_WRITE_ROWS = 1024


def write_csv(ensemble, path):
    """Write scenarios with 12 significant digits per value: the bytes that
    csv.writer gives for f"{v:.12g}" cells, formatted _WRITE_ROWS rows at a
    time."""
    cols = ["x1", "x2"]
    data = [ensemble.gains[:, 0], ensemble.gains[:, 1]]
    if ensemble.rates is not None:
        cols.append("pi")
        data.append(ensemble.rates)
    cols.append("w")
    data.append(ensemble.weights)
    line = ",".join(["%.12g"] * len(cols)) + "\r\n"
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(cols)
        for lo in range(0, ensemble.n, _WRITE_ROWS):
            block = np.column_stack([col[lo : lo + _WRITE_ROWS] for col in data])
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def read_csv(path):
    """Read an ensemble written by ``write_csv`` (w and pi columns optional).

    The file is opened in binary: after the header line its rows go from
    the handle straight to numpy, with no copy of the text.  A file whose
    header does not decode or split as csv, or whose rows numpy rejects, is
    read again as text and its rows parsed one cell at a time, which gives
    the messages for empty files, undecodable bytes, cells past the csv
    module's field limit and bad rows."""
    encoding = locale.getpreferredencoding(False)
    with open(path, "rb") as fh:
        try:
            header = next(csv.reader(line.decode(encoding) for line in fh))
        except (StopIteration, UnicodeDecodeError, csv.Error):
            data = None
        else:
            header = _columns(path, header)
            data = _parse_block(fh, len(header), encoding)
    if data is None:
        header, body = _read_text(path)
        data = _parse_rows(path, body, len(header))
    cols = {name: data[:, i] for i, name in enumerate(header)}
    gains = np.column_stack([cols["x1"], cols["x2"]])
    rates = cols.get("pi")
    weights = cols.get("w")
    try:
        return ScenarioEnsemble(gains, rates=rates, weights=weights)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def _columns(path, header):
    """The header's column names, checked."""
    header = [h.strip() for h in header]
    unknown = [h for h in header if h not in _COLUMNS]
    if unknown or "x1" not in header or "x2" not in header:
        raise ValidationError(
            f"{path}: header must use columns x1,x2[,pi][,w], got {header}"
        )
    for name in header:
        if header.count(name) > 1:
            raise ValidationError(f"{path}: column {name!r} appears twice in the header")
    return header


def _read_text(path):
    """The checked header and the text of the rows after it."""
    with open(path, newline="") as fh:
        try:
            header = next(csv.reader(fh))
            body = fh.read()
        except StopIteration:
            raise ValidationError(f"{path}: empty scenario file") from None
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"{path}: {exc}") from None
    return _columns(path, header), body


def _parse_block(fh, width, encoding):
    """The rows left in the binary handle ``fh`` as one (rows, width) array
    parsed by numpy, or None where there are none or numpy rejects them or
    finds another width.  Each cell it accepts it decodes as a text read
    does and converts as ``float()`` does, bit for bit."""
    for line in fh:
        if line.strip():
            break
    else:
        return None  # numpy would warn that the input has no data
    try:
        data = np.loadtxt(itertools.chain([line], fh), delimiter=",", comments=None,
                          ndmin=2, encoding=encoding)
    except ValueError:  # UnicodeDecodeError included
        return None
    return data if data.shape[1] == width else None


def _parse_rows(path, body, width):
    """Parse the rows after the header one cell at a time.  This accepts
    what numpy does not (quoted cells, rows of blank cells, ``1_0``) and
    names the line of the first row it cannot read."""
    rows = []
    reader = csv.reader(io.StringIO(body, newline=""))
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != width:
                raise ValidationError(f"{path}:{lineno}: expected {width} fields, got {len(row)}")
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
    except csv.Error as exc:  # the reader counts the lines after the header
        raise ValidationError(f"{path}:{reader.line_num + 1}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path}: no scenario rows")
    return np.asarray(rows, dtype=float)
