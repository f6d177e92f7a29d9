"""Command-line behaviour that a golden row (``tests/golden.py``) cannot hold:
argparse usage errors, which raise ``SystemExit``, and runs under a memory
limit."""

import resource
import subprocess
import sys

import pytest

from operad_lab.cli import main


def test_usage_errors_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["face", "--element", "21"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--operad", "assoc", "--differential", "boundary",
              "--lo", "0", "--hi", "2", "--column-cap", "-1"])
    assert exc.value.code == 64
    assert "--column-cap: must be at least 0, got -1" in capsys.readouterr().err
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ("boundary",), ("coboundary",), ("brace", "--with", "1", "--with", "1"),
], ids=("boundary", "coboundary", "brace"))
def test_zero_element_of_a_huge_arity_prints_zero_at_once(argv):
    # the differentials walk the terms, not the 10^8 slots, and the brace
    # of a zero tries none of its C(10^8, 2) slot choices; a walk over the
    # slots would fill memory, so the command gets 1 GiB of address space
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    command, *rest = argv
    done = subprocess.run([sys.executable, "-m", "operad_lab.cli", command,
                           "--element", '{"arity":100000000,"terms":[]}', *rest],
                          capture_output=True, text=True, timeout=20, preexec_fn=limit_memory)
    assert (done.returncode, done.stdout, done.stderr) == (0, "0\n", "")
