import csv
import hashlib
import io
import json
import math
from pathlib import Path

import pytest

import kickspec
from kickspec import runio
from kickspec.runio import (
    CellCache,
    ResultTable,
    atomic_write_text,
    canonical_params,
    manifest_hash,
    source_digest,
    write_csv,
    write_run,
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
            with pytest.raises(ValueError, match="unsupported cell type"):
                ResultTable(columns=("a",), rows=(), footer=(("x", cell),))

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
        # footer rows follow the data rows, in any arity, outside len()
        table = ResultTable(columns=("n", "v"), rows=((1, 2.0),),
                            footer=(("slope", -1.0, ""),))
        path = tmp_path / "t.csv"
        write_csv(path, table)
        assert path.read_text().splitlines()[-2:] == ["1,2.0", "slope,-1.0,"]
        assert len(table) == 1

    def test_byte_identical_rewrites(self, tmp_path):
        table = ResultTable(columns=("n", "v"),
                            rows=tuple((i, i / 7.0) for i in range(50)))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(a, table)
        write_csv(b, table)
        assert a.read_bytes() == b.read_bytes()


def csv_writer_bytes(table):
    """Oracle: csv.writer with QUOTE_MINIMAL over each cell's repr (a float)
    or str (anything else)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    for row in (table.columns, *table.rows, *table.footer):
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
                                  (10000, 0.00021, 0.0019)),
                            footer=(("slope", slope, ""),))
        path = tmp_path / "t.csv"
        write_csv(path, table)
        assert path.read_bytes() == csv_writer_bytes(table)
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
        table = ResultTable(columns=("n",), rows=((1,),))
        write_run(tmp_path, "demo", {"x": 1}, {"out.csv": table})
        data = json.loads((tmp_path / "manifest.json").read_text())
        assert data["command"] == "demo"
        assert data["params"] == {"x": 1}
        assert data["hash"] == manifest_hash({"x": 1})
        assert data["outputs"] == ["out.csv"]
        assert data["version"] == kickspec.__version__
        assert data["source_sha256"] == source_digest()
        assert (tmp_path / "out.csv").read_text() == "n\n1\n"

    def test_outputs_are_the_names_written_in_order(self, tmp_path):
        table = ResultTable(columns=("n", "v"), rows=((1, 0.5),),
                            footer=(("slope", -1.0, ""),))
        summary = {"b": [1.5, None], "a": 2}
        outputs = {"z.csv": table, "summary.json": summary, "a.csv": table}
        write_run(tmp_path / "run", "demo", {}, outputs)
        data = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert data["outputs"] == ["z.csv", "summary.json", "a.csv"]
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == \
            ["a.csv", "manifest.json", "summary.json", "z.csv"]
        write_csv(tmp_path / "t.csv", table)
        for name in ("z.csv", "a.csv"):
            assert (tmp_path / "run" / name).read_bytes() == \
                (tmp_path / "t.csv").read_bytes()
        assert (tmp_path / "run" / "summary.json").read_text() == \
            json.dumps(summary, indent=2, sort_keys=True) + "\n"

    def test_atomic_write_leaves_no_temp(self, tmp_path):
        atomic_write_text(tmp_path / "f.txt", "hello")
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]


class TestSourceDigest:
    def test_documented_rule(self):
        # sha256 over the package's *.py files in name order, each hashed
        # as its name, a NUL byte and its bytes
        package = Path(kickspec.__file__).parent
        names = sorted(name for name in (p.name for p in package.iterdir())
                       if name.endswith(".py"))
        assert "runio.py" in names and "__init__.py" in names
        blob = b"".join(name.encode() + b"\0" + (package / name).read_bytes()
                        for name in names)
        assert source_digest() == hashlib.sha256(blob).hexdigest()

    def test_computed_once_per_process(self):
        assert source_digest() is source_digest()


class TestCellCache:
    def test_miss_then_hit(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        assert cache.get({"p": 1}) is None
        cache.put({"p": 1}, {"cells": [[1, 2.0]]})
        assert cache.get({"p": 1}) == {"cells": [[1, 2.0]]}

    def test_exact_match_only(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        cache.put({"p": 1}, {"cells": []})
        assert cache.get({"p": 2}) is None
        assert cache.get({"p": 1.0000001}) is None

    def test_put_keeps_one_entry(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        cache.put({"p": 1}, {"cells": [[1, 2.0]]})
        cache.put({"p": 2}, {"cells": []})
        assert len(list((tmp_path / "cache").iterdir())) == 1
        assert cache.get({"p": 1}) is None
        assert cache.get({"p": 2}) == {"cells": []}

    def test_key_covers_the_source(self, tmp_path, monkeypatch):
        cache = CellCache(tmp_path / "cache")
        cache.put({"p": 1}, {"cells": []})
        (entry,) = (tmp_path / "cache").iterdir()
        assert entry.stem == manifest_hash(
            {"params": {"p": 1}, "source_sha256": source_digest()})
        monkeypatch.setattr(runio, "source_digest", lambda: "0" * 64)
        assert cache.get({"p": 1}) is None

    def test_unreadable_entries_miss(self, tmp_path):
        cache = CellCache(tmp_path / "cache")
        cache.put({"p": 1}, {"cells": [[1, 2.0]]})
        (path,) = (tmp_path / "cache").iterdir()
        for text in (path.read_text()[:20], "[1, 2]", "", "\udcff"):
            path.write_text(text, errors="surrogateescape")
            assert cache.get({"p": 1}) is None
        cache.put({"p": 1}, {"cells": []})
        assert cache.get({"p": 1}) == {"cells": []}
