"""The column-by-column CSV writer: the same bytes as the per-cell reference
(`csv_reference.py`) on every kind of cell and on every table the package
writes, RFC 4180 quoting where a cell needs it, and one rule for booleans."""

import csv
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from trilinear import cli
from trilinear.config import RunConfig
from trilinear.report import format_column, write_csv

import csv_reference as ref

TMP = settings(max_examples=60, deadline=None,
               suppress_health_check=[HealthCheck.function_scoped_fixture])

floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
int64s = st.integers(-(2 ** 63), 2 ** 63 - 1)
# strings without the characters that make the writer quote a cell
plain_text = st.text(st.characters(blacklist_categories=("Cs",),
                                   blacklist_characters=',"\r\n'))


def same_bytes(tmp_path, header, columns):
    """Write the table through the writer and, row by row, through the
    reference; return both files' bytes."""
    write_csv(tmp_path / "new.csv", header, columns, comments=["c"])
    ref.write_rows(tmp_path / "ref.csv", header, list(zip(*columns)),
                   comments=["c"])
    return (tmp_path / "new.csv").read_bytes(), (tmp_path / "ref.csv").read_bytes()


@TMP
@given(values=st.lists(floats, max_size=12))
@example(values=[math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                 2.2250738585072014e-308, 1e308, -1e308,
                 1.7976931348623157e308, 0.1, 1 / 3, 123456789012.5])
def test_float_columns_match_the_reference(tmp_path, values):
    arr = np.array(values, dtype=float)
    with np.errstate(over="ignore"):
        f32 = arr.astype(np.float32)
    columns = [values, arr, list(arr), f32]
    new, old = same_bytes(tmp_path, ["py", "np", "np_scalars", "f32"], columns)
    assert new == old


@TMP
@given(big=st.lists(st.integers(-(2 ** 80), 2 ** 80), min_size=3, max_size=3),
       small=st.lists(int64s, min_size=3, max_size=3),
       unsigned=st.lists(st.integers(0, 2 ** 64 - 1), min_size=3, max_size=3))
@example(big=[2 ** 63, -(2 ** 63) - 1, 10 ** 20],
         small=[2 ** 63 - 1, -(2 ** 63), 0], unsigned=[2 ** 64 - 1, 2 ** 63, 0])
def test_integer_columns_match_the_reference(tmp_path, big, small, unsigned):
    arr = np.array(small, dtype=np.int64)
    columns = [big, small, arr, list(arr), np.array(unsigned, dtype=np.uint64)]
    new, old = same_bytes(tmp_path, list("abcde"), columns)
    assert new == old


@TMP
@given(texts=st.lists(plain_text, max_size=8))
def test_string_columns_match_the_reference(tmp_path, texts):
    columns = [texts, np.array(texts, dtype=str), list(range(len(texts)))]
    new, old = same_bytes(tmp_path, ["text", "np_text", "n"], columns)
    assert new == old


@st.composite
def tables(draw):
    """A table of mixed-kind columns, each a list or a numpy array."""
    n = draw(st.integers(0, 6))
    columns = []
    for kind in draw(st.lists(st.sampled_from("fiU"), min_size=1, max_size=5)):
        values = draw(st.lists({"f": floats, "i": int64s, "U": plain_text}[kind],
                               min_size=n, max_size=n))
        if draw(st.booleans()):
            values = np.array(values, dtype={"f": float, "i": np.int64,
                                             "U": str}[kind])
        columns.append(values)
    return columns


@TMP
@given(columns=tables())
def test_mixed_tables_match_the_reference(tmp_path, columns):
    header = [f"c{i}" for i in range(len(columns))]
    new, old = same_bytes(tmp_path, header, columns)
    assert new == old


def test_booleans_write_as_digits():
    # one rule for every boolean: the reference wrote True as 1 (bool is
    # an Integral) but np.True_ as True (numpy's bool is not)
    for column in ([True, False], np.array([True, False]),
                   [np.True_, np.False_]):
        assert format_column(column) == ["1", "0"]
    assert ref.format_cell(True) == "1"
    assert ref.format_cell(np.True_) == "True"


def test_cells_that_need_it_are_quoted(tmp_path):
    texts = ["plain", "a,b", 'say "hi"', "two\nlines", "cr\r", "", "#"]
    write_csv(tmp_path / "q.csv", ["n", "text"], [list(range(len(texts))), texts])
    lines = (tmp_path / "q.csv").read_bytes().decode().split("\n")
    assert lines[1:4] == ["0,plain", '1,"a,b"', '2,"say ""hi"""']
    assert lines[4:6] == ['3,"two', 'lines"']
    assert lines[7:] == ["5,", "6,#", ""]


@TMP
@given(texts=st.lists(st.text(st.characters(blacklist_categories=("Cs",))),
                      min_size=1, max_size=6))
def test_any_text_reads_back_with_csv_reader(tmp_path, texts):
    path = tmp_path / "t.csv"
    write_csv(path, ["n", "text,quoted"], [list(range(len(texts))), texts])
    with open(path, newline="") as f:
        table = list(csv.reader(f))
    assert table == [["n", "text,quoted"]] + [
        [str(i), t] for i, t in enumerate(texts)]


def test_malformed_tables_are_refused(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        write_csv(path, ["a", "b"], [[1.0, 2.0], [1.0]])
    with pytest.raises(ValueError):
        write_csv(path, ["a"], [[1.0], [2.0]])
    with pytest.raises(TypeError):
        write_csv(path, ["a"], [[1.0, "x"]])
    with pytest.raises(TypeError):
        write_csv(path, ["a"], [[1j]])


def test_empty_table_writes_its_header(tmp_path):
    write_csv(tmp_path / "e.csv", ["a", "b"], [np.array([]), []])
    assert (tmp_path / "e.csv").read_text() == "a,b\n"


# ---------------------------------------------------------------------------
# every table: the file a run writes against its result's reference rows


def capture(monkeypatch, name):
    """Record what `cli.<name>` returns while a subcommand runs."""
    seen = []
    fn = getattr(cli, name)

    def recorded(*args, **kwargs):
        seen.append(fn(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(cli, name, recorded)
    return seen


def data_bytes(path) -> bytes:
    with open(path, "rb") as f:
        return b"".join(ln for ln in f if not ln.startswith(b"#"))


def run_cli(tmp_path, args, config=None):
    argv = args + ["--out", str(tmp_path / "out")]
    if config is not None:
        (tmp_path / "cfg.yaml").write_text(config)
        argv += ["--config", str(tmp_path / "cfg.yaml")]
    assert cli.main(argv) == 0
    return tmp_path / "out"


@pytest.mark.parametrize("exact", [False, True])
def test_wigner_table_bytes(tmp_path, monkeypatch, capsys, exact):
    scans = capture(monkeypatch, "wigner_scan")
    out = run_cli(tmp_path, ["wigner", "--dims", "8x4", "--seed", "3"]
                  + (["--exact"] if exact else []))
    ref.write_rows(tmp_path / "ref.csv", ref.WIGNER_HEADER,
                   ref.wigner_rows(scans[0]))
    assert data_bytes(out / "wigner.csv") == data_bytes(tmp_path / "ref.csv")


def test_oscillation_table_bytes(tmp_path, monkeypatch, capsys):
    results = capture(monkeypatch, "oscillation_experiment")
    out = run_cli(tmp_path, ["oscillate", "--seed", "4"],
                  "simulation:\n  radial_dim: 8\n  axial_dim: 4\n"
                  "oscillation:\n  hold_points: 33\n  hold_max_s: 1.5e-3\n")
    ref.write_rows(tmp_path / "ref.csv", ref.OSCILLATION_HEADER,
                   ref.oscillation_rows(results[0]))
    assert data_bytes(out / "oscillation.csv") == data_bytes(tmp_path / "ref.csv")


def test_parity_table_bytes(tmp_path, monkeypatch, capsys):
    scans = capture(monkeypatch, "wigner_scan")
    axial = capture(monkeypatch, "axial_distribution")
    out = run_cli(tmp_path, ["parity", "--dims", "8x4", "--seed", "5"])
    ref.write_rows(tmp_path / "ref.csv", ["key", "value"],
                   ref.parity_rows(RunConfig().state, scans[0], axial[0]))
    assert data_bytes(out / "parity.csv") == data_bytes(tmp_path / "ref.csv")


def test_modes_table_bytes(tmp_path, monkeypatch, capsys):
    params = capture(monkeypatch, "mode_params")
    out = run_cli(tmp_path, ["modes"])
    header, rows = ref.modes_table(params[0], RunConfig().simulation.parking_hz)
    ref.write_rows(tmp_path / "ref.csv", header, rows)
    assert data_bytes(out / "modes.csv") == data_bytes(tmp_path / "ref.csv")


def test_crossing_table_bytes(tmp_path, monkeypatch, capsys):
    spectra = capture(monkeypatch, "avoided_crossing_spectrum")
    out = run_cli(tmp_path, ["crossing"])
    ref.write_rows(tmp_path / "ref.csv", ref.CROSSING_HEADER,
                   ref.crossing_rows(spectra[0]))
    assert data_bytes(out / "crossing.csv") == data_bytes(tmp_path / "ref.csv")


def test_converge_table_bytes(tmp_path, monkeypatch, capsys):
    reports = capture(monkeypatch, "convergence_report")
    out = run_cli(tmp_path, ["converge"],
                  "simulation:\n  radial_dim: 10\n  axial_dim: 5\n"
                  "converge:\n  radial_dims: [8, 10]\n  step_fractions: [1.0]\n"
                  "oscillation:\n  hold_max_s: 1.0e-3\n")
    ref.write_rows(tmp_path / "ref.csv", ref.CONVERGE_HEADER, reports[0])
    assert data_bytes(out / "converge.csv") == data_bytes(tmp_path / "ref.csv")
