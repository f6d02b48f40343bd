import csv
import io
import json
import math

import pytest

from kickspec.runio import (
    CellCache,
    ResultTable,
    atomic_write_text,
    canonical_params,
    manifest_hash,
    write_csv,
    write_manifest,
)


class TestResultTable:
    def test_arity_checked(self):
        with pytest.raises(ValueError):
            ResultTable(columns=("a", "b"), rows=((1.0,),))

    def test_missing_cells_rejected(self):
        # None, like every cell that is not exactly an int, a float or a
        # str, could not be written as a CLI table cell ("True" for a bool)
        for cell in (None, True, {"N": 1}, [1], b"1", 1j):
            with pytest.raises(ValueError, match="unsupported cell type"):
                ResultTable(columns=("a",), rows=((cell,),))

    def test_len(self):
        t = ResultTable(columns=("a",), rows=((1,), (2,)))
        assert len(t) == 2


class TestCsv:
    def test_roundtrip_precision(self, tmp_path):
        value = 0.1 + 0.2  # 0.30000000000000004
        table = ResultTable(columns=("v",), rows=((value,),))
        path = tmp_path / "t.csv"
        write_csv(path, table)
        text = path.read_text().splitlines()
        assert float(text[1]) == value

    def test_quoting(self, tmp_path):
        table = ResultTable(columns=("label",), rows=(("a,b",),))
        path = tmp_path / "t.csv"
        write_csv(path, table)
        assert '"a,b"' in path.read_text()

    def test_footer_rows(self, tmp_path):
        table = ResultTable(columns=("n", "v"), rows=((1, 2.0),))
        path = tmp_path / "t.csv"
        write_csv(path, table, footer=[("slope", -1.0)])
        assert path.read_text().splitlines()[-1] == "slope,-1.0"

    def test_byte_identical_rewrites(self, tmp_path):
        table = ResultTable(columns=("n", "v"),
                            rows=tuple((i, i / 7.0) for i in range(50)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, table)
        write_csv(b, table)
        assert a.read_bytes() == b.read_bytes()


def csv_writer_bytes(table, footer=()):
    """Oracle: csv.writer with QUOTE_MINIMAL over each cell's repr (a float)
    or str (anything else)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    for row in (table.columns, *table.rows, *footer):
        writer.writerow([repr(cell) if isinstance(cell, float) else str(cell)
                         for cell in row])
    return buffer.getvalue().encode()


class TestCsvWriterEquivalence:
    def test_number_rows_and_quoted_cells(self, tmp_path):
        table = ResultTable(columns=("label", "n", "v"), rows=(
            # rows of numbers only: written as the join of their reprs
            (-0.0, math.inf, math.nan),
            (123456789012345678901234567890, -math.inf, 5e-324),
            (1, 0.1 + 0.2, -1e-300),
            # rows with a str cell: written by csv.writer
            ("a,b", 1, 0.1 + 0.2),
            ('say "hi"', -2, -0.0),
            ("cr\rx", 3, math.inf),
            ("lf\nx", 4, math.nan),
            ("", 123456789012345678901234567890, 1e-300),
            ("divergent-trend", -7, 5e-324),
        ))
        path = tmp_path / "t.csv"
        write_csv(path, table)
        assert path.read_bytes() == csv_writer_bytes(table)

    def test_single_empty_cell(self, tmp_path):
        # csv writes a row whose only cell is empty as ""
        table = ResultTable(columns=("only",), rows=(("",), ("x",), (1.5,)))
        path = tmp_path / "t.csv"
        write_csv(path, table)
        assert path.read_bytes() == csv_writer_bytes(table)
        assert path.read_text().splitlines()[1] == '""'

    @pytest.mark.parametrize("slope", [-0.9312, math.nan])
    def test_discrepancy_footer(self, slope, tmp_path):
        table = ResultTable(columns=("N", "D_N", "ET_bound"),
                            rows=((1000, 0.0015, 0.0123),
                                  (10000, 0.00021, 0.0019)))
        footer = [("slope", slope, "")]
        path = tmp_path / "t.csv"
        write_csv(path, table, footer=footer)
        assert path.read_bytes() == csv_writer_bytes(table, footer)
        assert path.read_text().splitlines()[-1] == f"slope,{slope!r},"


class TestManifest:
    def test_hash_deterministic_and_order_free(self):
        h1 = manifest_hash({"a": 1, "b": [1.5, 2.5]})
        h2 = manifest_hash({"b": [1.5, 2.5], "a": 1})
        assert h1 == h2
        assert h1 != manifest_hash({"a": 1, "b": [1.5, 2.5000001]})

    def test_canonical_form(self):
        assert canonical_params({"b": 2, "a": 1}) == '{"a":1,"b":2}'

    def test_write_and_reload(self, tmp_path):
        path = write_manifest(tmp_path, "demo", {"x": 1}, "0.1.0",
                              ["out.csv"])
        data = json.loads(path.read_text())
        assert data["command"] == "demo"
        assert data["hash"] == manifest_hash({"x": 1})
        assert data["outputs"] == ["out.csv"]
        assert data["version"] == "0.1.0"

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        atomic_write_text(tmp_path / "f.txt", "hello")
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]


class TestCellCache:
    def test_miss_then_hit(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        key = manifest_hash({"p": 1})
        assert cache.get(key) is None
        cache.put(key, {"cells": [[1, 2.0]]})
        assert cache.get(key) == {"cells": [[1, 2.0]]}

    def test_exact_match_only(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        cache.put(manifest_hash({"p": 1}), {"cells": []})
        assert cache.get(manifest_hash({"p": 2})) is None

    def test_unreadable_entries_miss(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        key = manifest_hash({"p": 1})
        cache.put(key, {"cells": [[1, 2.0]]})
        path = tmp_path / "cache" / f"{key}.json"
        for text in (path.read_text()[:20], "[1, 2]", "", "\udcff"):
            path.write_text(text, errors="surrogateescape")
            assert cache.get(key) is None
        cache.put(key, {"cells": []})
        assert cache.get(key) == {"cells": []}
