import csv
import tracemalloc

import numpy as np
import pytest

from svrisk import scenarios
from svrisk.errors import ValidationError
from svrisk.markets import ScenarioEnsemble
from svrisk.scenarios import GenSpec, generate, read_csv, write_csv


class TestGenSpec:
    def test_defaults(self):
        spec = GenSpec(n=10, seed=1)
        assert spec.mean == (0.0, 0.0)
        assert spec.rate_mean is None

    def test_n_positive(self):
        with pytest.raises(ValidationError):
            GenSpec(n=0, seed=1)

    def test_stdev_positive(self):
        with pytest.raises(ValidationError):
            GenSpec(n=5, seed=1, stdev=(1.0, 0.0))

    def test_correlation_open_interval(self):
        with pytest.raises(ValidationError):
            GenSpec(n=5, seed=1, correlation=1.0)
        GenSpec(n=5, seed=1, correlation=0.999)

    def test_rate_mean_positive(self):
        with pytest.raises(ValidationError):
            GenSpec(n=5, seed=1, rate_mean=0.0)

    def test_rate_vol_non_negative(self):
        with pytest.raises(ValidationError):
            GenSpec(n=5, seed=1, rate_mean=1.0, rate_vol=-0.1)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError):
            GenSpec.from_dict({"n": 5, "seed": 1, "skew": 0.2})
        with pytest.raises(ValidationError):
            GenSpec.from_dict({"n": 5, "seed": 1, "rate": {"mean": 1.0, "drift": 0.1}})


class TestGenerate:
    def test_deterministic_per_seed(self):
        spec = GenSpec(n=100, seed=42, rate_mean=1.5, rate_vol=0.4)
        a = generate(spec)
        b = generate(spec)
        assert np.array_equal(a.gains, b.gains)
        assert np.array_equal(a.rates, b.rates)

    def test_seed_changes_draws(self):
        a = generate(GenSpec(n=100, seed=1))
        b = generate(GenSpec(n=100, seed=2))
        assert not np.array_equal(a.gains, b.gains)

    def test_no_rate_block(self):
        e = generate(GenSpec(n=10, seed=5))
        assert e.rates is None
        assert np.allclose(e.weights, 0.1)

    def test_moments_at_scale(self):
        n = 200_000
        spec = GenSpec(
            n=n, seed=7, mean=(0.5, -1.0), stdev=(1.0, 2.0), correlation=0.6
        )
        e = generate(spec)
        se1 = 1.0 / np.sqrt(n)
        assert e.gains[:, 0].mean() == pytest.approx(0.5, abs=4 * se1)
        assert e.gains[:, 1].mean() == pytest.approx(-1.0, abs=4 * 2.0 * se1)
        assert e.gains[:, 0].std() == pytest.approx(1.0, rel=0.02)
        assert e.gains[:, 1].std() == pytest.approx(2.0, rel=0.02)
        rho = np.corrcoef(e.gains.T)[0, 1]
        assert rho == pytest.approx(0.6, abs=4 * (1 - 0.6**2) * se1)

    def test_rate_block_mean_one_noise(self):
        n = 200_000
        e = generate(GenSpec(n=n, seed=9, rate_mean=1.5, rate_vol=0.4))
        sigma = np.sqrt(np.exp(0.4**2) - 1.0) * 1.5  # lognormal stdev
        assert e.rates.mean() == pytest.approx(1.5, abs=4 * sigma / np.sqrt(n))
        assert np.log(e.rates).std() == pytest.approx(0.4, rel=0.02)

    def test_gain_block_unchanged_by_rate_block(self):
        base = generate(GenSpec(n=50, seed=11))
        with_rates = generate(GenSpec(n=50, seed=11, rate_mean=1.5, rate_vol=0.4))
        assert np.array_equal(base.gains, with_rates.gains)


class TestCsvRoundtrip:
    def test_write_then_read(self, tmp_path):
        e = generate(GenSpec(n=20, seed=13, rate_mean=1.2, rate_vol=0.3))
        path = tmp_path / "scenarios.csv"
        write_csv(e, path)
        back = read_csv(path)
        assert np.allclose(back.gains, e.gains, rtol=1e-11, atol=1e-14)
        assert np.allclose(back.rates, e.rates, rtol=1e-11)
        assert np.allclose(back.weights, e.weights, rtol=1e-11)

    def test_header_order_and_optional_columns(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2\n1.0,2.0\n3.0,4.0\n")
        e = read_csv(path)
        assert e.rates is None
        assert np.allclose(e.weights, 0.5)

    def test_with_rates_no_weights(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2,pi\n1.0,2.0,1.5\n")
        e = read_csv(path)
        assert e.rates[0] == 1.5
        assert e.weights[0] == 1.0

    def test_unknown_column(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2,volume\n1.0,2.0,9\n")
        with pytest.raises(ValidationError, match="header"):
            read_csv(path)

    def test_bad_cell_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2\n1.0,2.0\nnope,4.0\n")
        with pytest.raises(ValidationError, match=":3:"):
            read_csv(path)

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2\n1.0,2.0\n3.0\n")
        with pytest.raises(ValidationError, match=":3:"):
            read_csv(path)

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2\n1.0,2.0\n\n3.0,4.0\n")
        assert read_csv(path).n == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("")
        with pytest.raises(ValidationError, match="empty"):
            read_csv(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2\n")
        with pytest.raises(ValidationError, match="no scenario rows"):
            read_csv(path)

    def test_bad_weights_mention_path(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("x1,x2,w\n1.0,2.0,0.9\n3.0,4.0,0.2\n")
        with pytest.raises(ValidationError, match="s.csv"):
            read_csv(path)

    def test_uniform_weights_written_explicitly(self, tmp_path):
        e = ScenarioEnsemble(np.array([[1.0, 2.0], [3.0, 4.0]]))
        path = tmp_path / "s.csv"
        write_csv(e, path)
        header = path.read_text().splitlines()[0]
        assert header == "x1,x2,w"

    @pytest.mark.parametrize("header, column", [("x1,x2,x1", "x1"), ("x1,x2,w,w", "w")])
    def test_duplicate_column_rejected_before_rows(self, tmp_path, header, column):
        path = tmp_path / "s.csv"
        path.write_text(f"{header}\n1.0,2.0,nope,0\n")
        with pytest.raises(ValidationError, match=f"column '{column}' appears twice") as exc:
            read_csv(path)
        assert ":2:" not in str(exc.value)

    @pytest.mark.parametrize("with_rates", [False, True])
    def test_write_matches_csv_writer_bytes(self, tmp_path, with_rates):
        # Several blocks of rows and a partial one, led by awkward values.
        n = 2 * scenarios._WRITE_ROWS + 7
        rng = np.random.default_rng(4)
        gains = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-30, 30, (n, 1))
        gains[:3] = [[-0.0, 5e-324], [1e300, -1e300], [0.1, 1 / 3]]
        rates = rng.lognormal(0.0, 0.5, n) if with_rates else None
        if with_rates:
            rates[:3] = [1e300, 5e-324, 1.5]
        e = ScenarioEnsemble(gains, rates=rates)
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x1", "x2", "pi", "w"] if with_rates else ["x1", "x2", "w"])
            for i in range(e.n):
                row = [*e.gains[i]] + ([e.rates[i]] if with_rates else []) + [e.weights[i]]
                writer.writerow([f"{v:.12g}" for v in row])
        path = tmp_path / "s.csv"
        write_csv(e, path)
        assert path.read_bytes() == ref.read_bytes()

    def test_large_roundtrip_matches_float_per_cell(self, tmp_path):
        e = generate(GenSpec(n=50_000, seed=19, rate_mean=1.2, rate_vol=0.3))
        path = tmp_path / "s.csv"
        write_csv(e, path)
        with open(path, newline="") as fh:
            cells = np.array([[float(c) for c in row] for row in list(csv.reader(fh))[1:]])
        back = read_csv(path)
        assert back.gains.tobytes() == cells[:, :2].tobytes()
        assert back.rates.tobytes() == cells[:, 2].tobytes()
        assert back.weights.tobytes() == cells[:, 3].tobytes()


TOO_LONG = f"field larger than field limit ({csv.field_size_limit()})"

# Files the one-pass parse rejects or reads differently from a per-cell
# parse: each gives the ensemble or the one-line message the row loop gives.
ODD_FILES = {
    "quoted": ('x1,x2\n"1.5","-2"\n3,4\n', [[1.5, -2.0], [3.0, 4.0]]),
    "blank-cells": ("x1,x2\n1,2\n,\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "crlf": ("x1,x2\r\n1,2\r\n3,4\r\n", [[1.0, 2.0], [3.0, 4.0]]),
    "underscore": ("x1,x2\n1_0,2\n", [[10.0, 2.0]]),
    "trailing-comma": ("x1,x2\n1,2,\n3,4,\n", ":2: expected 2 fields, got 3"),
    "ragged": ("x1,x2\n1,2\n3\n", ":3: expected 2 fields, got 1"),
    "bad-cell": ("x1,x2\n1,2\nnope,4\n", ":3: could not convert string to float: 'nope'"),
    "header-only": ("x1,x2\n", ": no scenario rows"),
    "blank-lines": ("x1,x2\n\n \r\n\t\n", ": no scenario rows"),
    "empty": ("", ": empty scenario file"),
    "no-trailing-newline": ("x1,x2\n1,2\n3,4", [[1.0, 2.0], [3.0, 4.0]]),
    "leading-blank-lines": ("x1,x2\n\n  \n1,2\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    # Line ends a binary line read does not split at.
    "bare-cr": ("x1,x2\r1,2\r3,4\r", [[1.0, 2.0], [3.0, 4.0]]),
    "cr-in-rows": ("x1,x2\n1,2\r3,4\n", [[1.0, 2.0], [3.0, 4.0]]),
    "quoted-header": ('"x1",x2\n1,2\n', [[1.0, 2.0]]),
    "multi-line-header": ('"x1\n",x2\n1,2\n', [[1.0, 2.0]]),
    # Cells longer than the csv module's field limit, in the header, in a
    # quoted body cell, and in a quoted cell that runs on past its line (the
    # message names the line where the cell passes the limit).
    "long-header-cell": ("x1,x2" + "1" * 200_000 + "\n1,2\n", f": {TOO_LONG}"),
    "long-quoted-cell": ('x1,x2\n1,2\n3,"' + "4" * 200_000 + '"\n', f":3: {TOO_LONG}"),
    "long-open-quote": ('x1,x2\n1,2\n3,"4"\n5,"6\n' + "7" * 200_000 + "\n", f":5: {TOO_LONG}"),
}


@pytest.mark.parametrize("name", list(ODD_FILES))
def test_odd_files_read_as_the_row_loop_does(tmp_path, capfd, name):
    text, want = ODD_FILES[name]
    path = tmp_path / "s.csv"
    path.write_bytes(text.encode())
    if isinstance(want, str):
        with pytest.raises(ValidationError) as exc:
            read_csv(path)
        assert str(exc.value) == f"{path}{want}"
    else:
        assert read_csv(path).gains.tolist() == want
    assert capfd.readouterr().err == ""


def test_undecodable_file_reports_path(tmp_path):
    path = tmp_path / "s.csv"
    path.write_bytes(b"x1,x2\n1,\xff2\n")
    with pytest.raises(ValidationError, match="s.csv: .*can't decode byte 0xff"):
        read_csv(path)


@pytest.mark.parametrize(
    "data, position",
    [
        (b"x1,\xff2\n1,2\n", 3),
        # Past the first rows, and past the first 8 KiB the text read decodes.
        (b"x1,x2\n" + b"1,2\n" * 3000 + b"3,\x824\n", 6 + 4 * 3000 - 8192 + 2),
        # A byte numpy would read as whitespace if it decoded latin-1.
        (b"x1,x2\n1,\xa02\n", 8),
    ],
    ids=["header", "late-row", "nbsp"],
)
def test_undecodable_bytes_name_their_position(tmp_path, capfd, data, position):
    path = tmp_path / "s.csv"
    path.write_bytes(data)
    with pytest.raises(ValidationError, match=f"s.csv: .*can't decode byte 0x.. in position {position}:"):
        read_csv(path)
    assert capfd.readouterr().err == ""


def test_read_holds_no_copy_of_the_text(tmp_path):
    # A text copy of the 2.6 MB file and its StringIO took 14 MB.
    e = generate(GenSpec(n=50_000, seed=19, rate_mean=1.2, rate_vol=0.3))
    path = tmp_path / "s.csv"
    write_csv(e, path)
    tracemalloc.start()
    try:
        back = read_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.n == e.n
    assert peak < 6e6
