"""Every row of the golden command-line table, run in-process, and checks of
the table itself."""

import time
from collections import Counter

import pytest

from golden import FILES, ROWS, filled, problems, row_id, write_files
from operad_lab.cli import main


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    directory = tmp_path_factory.mktemp("golden")
    write_files(directory)
    return str(directory)


@pytest.mark.parametrize("row", ROWS, ids=row_id)
def test_row(row, tmp, capsys):
    row = filled(row, tmp)
    start = time.perf_counter()
    code = main(list(row["argv"]))
    seconds = time.perf_counter() - start
    out, err = capsys.readouterr()
    found = problems(row, code, out, err)
    assert not found, "; ".join(found)
    assert seconds < row["limit"]


def test_each_row_id_is_unique():
    # a run is pinned once: pytest would quietly rename a repeated id
    repeated = [name for name, count in Counter(map(row_id, ROWS)).items() if count > 1]
    assert not repeated


def test_each_file_is_read_by_a_row():
    unread = [name for name in FILES
              if not any(f"{{tmp}}/{name}" in arg for row in ROWS for arg in row["argv"])]
    assert not unread
