"""Writer determinism and formatting rules."""

import csv
import io

import numpy as np
import pytest

from fusionsampler.artifacts import (
    format_cell,
    load_json,
    render_csv,
    render_json,
    render_scatter_svg,
)
from fusionsampler.evaluate import SWEEP_COLUMNS


def test_json_round_trip_and_stable_bytes(tmp_path):
    obj = {"b": [1, 2.5, None], "a": {"nested": True, "s": "x"}}
    text = render_json(obj)
    path = tmp_path / "one.json"
    path.write_text(text)
    assert load_json(str(path)) == obj
    # key order in the input dict must not leak into the bytes
    assert render_json({"a": {"s": "x", "nested": True}, "b": [1, 2.5, None]}) == text
    assert text.endswith("\n")


def test_format_cell_rules():
    assert format_cell(None) == ""
    assert format_cell(True) == "true"
    assert format_cell(False) == "false"
    assert format_cell(3) == "3"
    assert format_cell("ok") == "ok"
    # floats round-trip through repr exactly
    v = 0.1 + 0.2
    assert float(format_cell(v)) == v


def test_write_csv_column_union_and_blanks():
    rows = [
        {"a": 1, "b": 2.0},
        {"b": 3.5, "c": None},
        {"c": "text", "a": False},
    ]
    lines = render_csv(rows).splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,2.0,"
    assert lines[2] == ",3.5,"
    assert lines[3] == "false,,text"


def test_write_csv_explicit_columns():
    rows = [{"x": 1, "y": 2}]
    assert render_csv(rows, columns=["y", "x", "missing"]) == "y,x,missing\n2,1,\n"


def test_write_csv_rerun_identical_bytes():
    rows = [{"v": float(x)} for x in np.linspace(0.0, 1.0, 7)]
    assert render_csv(rows) == render_csv([dict(row) for row in rows])


def test_write_csv_quotes_cells_that_need_it():
    rows = [
        {"lam": 1.0, "seed": 0, "status": "sampling failed: a, b",
         "recon_error": 0.25},
        {"lam": 10.0, "seed": 1, "status": 'say "hi"\r\nbye', "recon_error": None},
        {"lam": 0.0, "seed": 2, "status": "ok", "recon_error": 0.5},
    ]
    text = render_csv(rows, columns=SWEEP_COLUMNS)
    back = list(csv.DictReader(io.StringIO(text, newline="")))
    assert [list(r) for r in back] == [SWEEP_COLUMNS] * 3
    assert [r["status"] for r in back] == [row["status"] for row in rows]
    assert [r["recon_error"] for r in back] == ["0.25", "", "0.5"]
    # cells without a delimiter, quote or line break keep their bytes
    assert text.splitlines()[-1] == "0.0,2,ok,0.5,,,"
    header = render_csv([{"a,b": 1, 'c"': 2}])
    assert next(csv.reader(io.StringIO(header))) == ["a,b", 'c"']


def test_scatter_svg_content_and_clamping():
    pts = [(0.5, 0.5, "mid"), (2.0, -1.0, "out")]
    text = render_scatter_svg(pts, "demo")
    assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
    assert "demo" in text and "mid" in text and "out" in text
    assert text.count("<circle") == 2
    # out-of-range points are clamped onto the [0, 1] frame, never outside it
    pad, w, h = 48, 480, 360
    for line in text.splitlines():
        if "<circle" not in line:
            continue
        cx = float(line.split('cx="')[1].split('"')[0])
        cy = float(line.split('cy="')[1].split('"')[0])
        assert pad <= cx <= w - pad
        assert pad <= cy <= h - pad


def test_scatter_svg_deterministic():
    pts = [(0.1, 0.9, "a"), (0.7, 0.3, "b")]
    assert render_scatter_svg(pts, "t") == render_scatter_svg(pts, "t")
