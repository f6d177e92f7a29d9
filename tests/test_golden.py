"""Every row of the golden command-line table, run in-process."""

import time

import pytest

from golden import ROWS, filled, problems, row_id, write_files
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
