"""The golden command-line results of operad-lab, each written once.

``ROWS`` is one table of command-line runs and what each must give.  A
complex row holds ``cohomology --json`` arguments with the dims and ranks
of the report, and its warnings where they are pinned.  A run row holds a
whole argv with its exit code, its exact stdout or the SHA-256 of it, and
its exact stderr, or None where that text is the interpreter's own and
differs between Python versions.  No row may print a traceback, and each
has a time limit in seconds.  ``{tmp}`` in an argument or an expected text
stands for a directory holding ``FILES``.

``problems`` checks one finished run against its row.  Two callers run
every row: ``tests/test_golden.py`` in-process through ``cli.main``, and
this script through a command, each row in a subprocess under its limit:

    python tests/golden.py operad-lab                  # an installed entry point
    PYTHONPATH=src python tests/golden.py python -m operad_lab.cli

It prints one line per row and exits 1 if any row fails.
"""

import hashlib
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CAP = "; pass allow_large=True (--allow-large on the command line) to override"
LONG_INT = "1" + "0" * 5000  # past the 4300 digits Python converts to or from text
HUGE = "1" + "0" * 30
ZERO = '{"arity":100000000,"terms":[]}'  # a zero element of a huge arity
E12 = '{"arity":0,"coeffs":[0,1,0,0]}'  # an algebra element of M_2, not the point

FILES = {
    # T_2, unit e11 + e22, and a dense multimap on it
    "t2.json": b'{"dim": 3, "unit": [1, 0, 1], "mul": [[[1,0,0],[0,1,0],[0,0,0]],'
               b'[[0,0,0],[0,0,0],[0,1,0]],[[0,0,0],[0,0,0],[0,0,1]]]}',
    "nonassoc.json": b'{"dim": 3, "unit": [1, 0, 0], "mul": [[[1,0,0],[0,1,0],[0,0,1]],'
                     b'[[0,1,0],[0,0,1],[0,0,0]],[[0,0,1],[0,1,0],[0,0,0]]]}',
    "nonunital.json": b'{"dim": 1, "unit": [1], "mul": [[[2]]]}',
    "not_utf8.json": b'\xff\xfe{"terms":[]}',
}


def complex_row(args, dims, ranks, limit=20, **pinned):
    """``cohomology ARGS --json``, with ``args`` split at spaces."""
    return dict(argv=("cohomology", *args.split(), "--json"), code=0, err="",
                dims=dims, ranks=ranks, limit=limit, **pinned)


def run_row(*argv, out, limit=20):
    """Exit 0, ``out`` on stdout and nothing on stderr."""
    return dict(argv=argv, code=0, out=out, err="", limit=limit)


def refused(message, *argv, limit=20):
    """Exit 1, no stdout, and ``error: MESSAGE`` as the one stderr line."""
    err = None if message is None else f"error: {message}\n"
    return dict(argv=argv, code=1, out="", err=err, limit=limit)


def verify_row(*argv, sha256):
    """The verify report: exit 2 on the known failing identities, exact bytes."""
    return dict(argv=("verify", "--json", *argv), code=2, sha256=sha256, err="", limit=60)


ROWS = [
    complex_row("--operad endo:dual --field gfp:3 --lo 0 --hi 3", [2, 1, 1, 1], [0, 3, 4, 11]),
    complex_row("--operad endo:m2 --field q --lo 0 --hi 3", [1, 0, 0, 0], [3, 13, 51, 205]),
    # the complex of the benchmark's betti-assoc8, exactly
    complex_row("--operad assoc --field gfp:5 --differential boundary --lo 0 --hi 8 --allow-large",
                [0, 0, 0, 0, 0, 0, 0, 0, 35900], [0, 1, 0, 2, 4, 20, 100, 620, 4420], limit=60),
    # one degree further, past the cap: degree 8 is then two-sided and exact
    complex_row("--operad assoc --field gfp:5 --differential boundary --lo 0 --hi 9 --allow-large",
                [0, 0, 0, 0, 0, 0, 0, 0, 0, 326980],
                [0, 1, 0, 2, 4, 20, 100, 620, 4420, 35900], limit=60),
    # the same complex over q, where integral data reduce in int arithmetic,
    # and over gfp:2, where the signs +1 and -1 of two coinciding faces are equal
    complex_row("--operad assoc --field q --differential boundary --lo 0 --hi 8 --allow-large",
                [0, 0, 0, 0, 0, 0, 0, 0, 35900], [0, 1, 0, 2, 4, 20, 100, 620, 4420], limit=60),
    complex_row("--operad assoc --field gfp:2 --differential boundary --lo 0 --hi 8 --allow-large",
                [0, 0, 0, 0, 0, 0, 0, 0, 35900], [0, 1, 0, 2, 4, 20, 100, 620, 4420], limit=60),
    # degree 9 over q and over gfp:2: each reduction stops at its rank bound
    # after the first (n-1)! columns, so only those of d_9 are assembled
    complex_row("--operad assoc --field q --differential boundary --lo 0 --hi 9 --allow-large",
                [0, 0, 0, 0, 0, 0, 0, 0, 0, 326980],
                [0, 1, 0, 2, 4, 20, 100, 620, 4420, 35900], limit=60),
    complex_row("--operad assoc --field gfp:2 --differential boundary --lo 0 --hi 9 --allow-large",
                [0, 0, 0, 0, 0, 0, 0, 0, 0, 326980],
                [0, 1, 0, 2, 4, 20, 100, 620, 4420, 35900], limit=60),
    # the complex of the benchmark's betti-m2-q, exactly
    complex_row("--operad endo:m2 --field q --differential hochschild --lo 0 --hi 5",
                [1, 0, 0, 0, 0, 0], [3, 13, 51, 205, 819, 3277], limit=60),
    # one degree further: 16384 columns past the cap, read off key ranks, and
    # over q each reduction builds only the columns it does not clear
    complex_row("--operad endo:m2 --field gfp:5 --differential hochschild --lo 0 --hi 6 "
                "--allow-large", [1, 0, 0, 0, 0, 0, 0], [3, 13, 51, 205, 819, 3277, 13107],
                limit=60),
    complex_row("--operad endo:m2 --field q --differential hochschild --lo 0 --hi 6 --allow-large",
                [1, 0, 0, 0, 0, 0, 0], [3, 13, 51, 205, 819, 3277, 13107], limit=60),
    # characteristic 2 on the key-rank stream of both kinds, where the signs
    # +1 and -1 are equal, so coinciding terms add instead of cancelling
    complex_row("--operad endo:m2 --field gfp:2 --differential hochschild --lo 0 --hi 5",
                [1, 0, 0, 0, 0, 0], [3, 13, 51, 205, 819, 3277]),
    complex_row("--operad endo:dual --field gfp:2 --differential coboundary --lo 0 --hi 5",
                [1, 2, 2, 2, 2, 2], [0, 2, 4, 10, 20, 42]),
    # homology inside the window, or a window above degree 0, where the rank
    # bound of each degree is not tight
    complex_row("--operad endo:dual --field gfp:2 --differential hochschild --lo 0 --hi 7",
                [2, 2, 2, 2, 2, 2, 2, 2], [0, 2, 4, 10, 20, 42, 84, 170]),
    # the shift basis is empty at degree 9, so degree 8 is exact, not one-sided
    complex_row("--operad shift --field q --differential boundary --lo 0 --hi 8",
                [0, 1, 6, 16, 24, 22, 12, 4, 1], [0, 1, 6, 16, 24, 22, 12, 4, 0], warnings=[]),
    complex_row("--operad endo:dual --field q --differential hochschild --lo 2 --hi 7",
                [4, 1, 1, 1, 1, 1], [4, 11, 20, 43, 84, 171]),
    # the coboundary kind, on assoc and on an endomorphism operad
    complex_row("--operad assoc --field q --differential coboundary --lo 0 --hi 5",
                [1, 0, 0, 0, 0, 0], [0, 1, 1, 5, 19, 101]),
    complex_row("--operad endo:dual --field q --differential coboundary --lo 0 --hi 4",
                [1, 1, 1, 1, 1], [0, 3, 4, 11, 20]),
    # the largest complex assembled key by key, from core.coboundary: 40320
    # rows past the cap, and one degree further no key is applied whose
    # column the degree before clears
    complex_row("--operad assoc --field gfp:5 --differential coboundary --lo 0 --hi 7 "
                "--allow-large", [1, 0, 0, 0, 0, 0, 0, 0], [0, 1, 1, 5, 19, 101, 619, 4421],
                limit=60),
    complex_row("--operad assoc --field gfp:5 --differential coboundary --lo 0 --hi 8 "
                "--allow-large", [1, 0, 0, 0, 0, 0, 0, 0, 0],
                [0, 1, 1, 5, 19, 101, 619, 4421, 35899], limit=60),
    # the endo coboundary is read off key ranks, as the classical kind is: the
    # same ranks from degree 1 on, the point at degree 0 and Der M_2 = sl_2 at
    # degree 1; 16384 columns past the cap at degree 6
    complex_row("--operad endo:m2 --field gfp:5 --differential coboundary --lo 0 --hi 4",
                [1, 3, 0, 0, 0], [0, 13, 51, 205, 819]),
    complex_row("--operad endo:m2 --field gfp:5 --differential coboundary --lo 0 --hi 6 "
                "--allow-large", [1, 3, 0, 0, 0, 0, 0], [0, 13, 51, 205, 819, 3277, 13107],
                limit=60),
    # the boundary of an endomorphism operad, key by key from core.boundary
    complex_row("--operad endo:m2 --field q --differential boundary --lo 0 --hi 5",
                [0, 3, 0, 0, 0, 3276], [0, 1, 12, 52, 204, 820]),
    complex_row("--operad endo:m2 --field gfp:5 --differential boundary --lo 0 --hi 5",
                [0, 3, 0, 0, 0, 3276], [0, 1, 12, 52, 204, 820]),
    # a structure-constant file
    complex_row("--operad endo:@{tmp}/t2.json --field gfp:3 --lo 0 --hi 4",
                [1, 0, 0, 0, 0], [2, 7, 20, 61, 182]),

    run_row("compose", "--left", "4312", "--at", "1", "--right", "231", out="564312\n"),
    run_row("compose", "--left", "4312", "--at", "2", "--right", "231", out="645312\n"),
    run_row("coboundary", "--element", "21", out="132 + -1*213 + -1*231 + 312\n"),
    # the differentials and the brace of a zero read no slot
    run_row("boundary", "--element", ZERO, out="0\n"),
    run_row("coboundary", "--element", ZERO, out="0\n"),
    run_row("brace", "--element", ZERO, "--with", "1", "--with", "1", out="0\n"),
    run_row("face", "--operad", "endo:@{tmp}/t2.json", "--at", "2", "--element",
            '{"arity":2,"coeffs":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2]}',
            out="E[0->0] + 2*E[2->2]\n"),

    # a file that is not UTF-8 is a domain error with one message
    refused("{tmp}/not_utf8.json is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte", "boundary", "--element", "@{tmp}/not_utf8.json"),
    # so are numbers too long for text: a huge or negative multimap arity, a
    # JSON integer past the 4300-digit limit, an exponent past it
    refused("arity-100000 dense map needs 2^100001 coefficients, got 1",
            "boundary", "--operad", "endo:dual", "--element", '{"arity":100000,"coeffs":[1]}'),
    refused("negative arity -2",
            "boundary", "--operad", "endo:dual", "--element", '{"arity":-2,"coeffs":[1]}'),
    refused(None, "boundary", "--operad", "endo:dual",
            "--element", '{"arity":%s,"coeffs":[1]}' % LONG_INT),
    refused(None, "boundary",
            "--element", '{"arity":2,"terms":[{"basis":[1,2],"coeff":%s}]}' % LONG_INT),
    refused("rational scalar '1e99999999' has an exponent beyond 4300, the interpreter's "
            "digit limit", "boundary",
            "--element", '{"arity":2,"terms":[{"basis":[1,2],"coeff":"1e99999999"}]}'),
    # an arity-0 algebra element, which is not a point, has no degeneracy
    refused("degree-0 key (0,) carries no operadic slot data",
            "degen", "--operad", "endo:dual", "--element", '{"arity":0,"coeffs":[1,0]}',
            "--at", "1"),
    *(refused("degree-0 key (1,) carries no operadic slot data",
              command, "--operad", "endo:m2", "--element", E12)
      for command in ("boundary", "coboundary", "coproduct")),
    # an algebra that is not associative, or not unital, is refused with one
    # line naming its first failing triple or basis index
    refused("algebra '{tmp}/nonassoc.json' is not associative at (1,1,1)",
            "cohomology", "--operad", "endo:@{tmp}/nonassoc.json", "--lo", "0", "--hi", "1"),
    refused("unit axiom fails at basis index 0",
            "cohomology", "--operad", "endo:@{tmp}/nonunital.json", "--lo", "0", "--hi", "1"),
    # the cap refuses C(200, 5) columns without listing them, and the row
    # basis of an ascending kind: 4^8 rows under 4^7 columns
    refused("2535650040 columns at degree 5 exceed the cap 20000" + CAP, "cohomology",
            "--operad", "shift", "--max-entry", "200", "--differential", "boundary",
            "--lo", "5", "--hi", "5"),
    refused("65536 rows at degree 7 exceed the cap 20000" + CAP, "cohomology",
            "--operad", "endo:m2", "--differential", "coboundary", "--lo", "6", "--hi", "6"),
    # counts with more digits than Python converts an int to text
    refused("more than 10^4754 columns at degree 1700 exceed the cap 20000" + CAP, "cohomology",
            "--operad", "assoc", "--differential", "boundary", "--lo", "1700", "--hi", "1700"),
    refused("more than 10^4816 columns at degree 8000 exceed the cap 20000" + CAP, "cohomology",
            "--operad", "endo:m2", "--lo", "8000", "--hi", "8000"),
    refused("more than 10^30097 columns at degree 50000 exceed the cap 20000" + CAP,
            "cohomology", "--operad", "shift", "--max-entry", "100000",
            "--differential", "boundary", "--lo", "50000", "--hi", "50000"),
    # the shift basis truncated at max-entry is not closed under the
    # coboundary: (8,) maps to (1,9).  Refused whatever the window, before
    # any matrix is made, even one that builds no column outside it
    refused("the shift basis truncated at max-entry 8 is not closed under the coboundary",
            "cohomology", "--operad", "shift", "--differential", "coboundary",
            "--lo", "0", "--hi", "0"),
    *(refused(f"the shift basis truncated at max-entry {top} is not closed under the coboundary",
              "cohomology", "--operad", "shift", "--max-entry", top,
              "--differential", "coboundary", "--lo", lo, "--hi", hi)
      for top, lo, hi in [("8", "0", "0"), ("8", "1", "1"), ("8", "8", "8"),
                          ("8", "9", "12"), ("3", "0", "5")]),
    # a huge degree window is walked lazily, and the cap refuses its first
    # oversized degree; shift bases are empty above --max-entry, and the cap
    # bounds the empty degrees
    refused("40320 columns at degree 8 exceed the cap 20000" + CAP, "cohomology",
            "--operad", "assoc", "--differential", "boundary", "--lo", "0", "--hi", "99999999999"),
    refused("65536 rows at degree 7 exceed the cap 20000" + CAP, "cohomology",
            "--operad", "endo:m2", "--differential", "hochschild",
            "--lo", "0", "--hi", "99999999999"),
    refused("20001 empty degrees up to degree 20010 exceed the cap 20000" + CAP, "cohomology",
            "--operad", "shift", "--differential", "boundary", "--lo", "0", "--hi", "99999999999"),
    # a huge --max-entry: degree 0 has the one key (), and the cap refuses degree 1
    refused(f"{HUGE} columns at degree 1 exceed the cap 20000" + CAP, "cohomology",
            "--operad", "shift", "--max-entry", HUGE, "--differential", "boundary",
            "--lo", "0", "--hi", "3"),
    # past the cap, the entry range of arity 1 is too long to copy into a
    # tuple (too long for a C size at 10^30, too large to allocate at 10^18),
    # and at degree 2 the 10^30 rows are refused by name before any is made
    *(refused(f"max-entry {top} is too large to list the keys of arity 1", "cohomology",
              "--operad", "shift", "--max-entry", top, "--differential", "boundary",
              "--lo", degree, "--hi", degree, "--allow-large")
      for top, degree in [(HUGE, "1"), ("1" + "0" * 18, "1"), (HUGE, "2")]),

    # the default verify report, the benchmark's verify command, and the
    # report over q, where an int and an integral Fraction print alike
    verify_row(sha256="93cb5e346cc1f9ab0071e3bb5232c1d1f6ec3386ec016508018316b03c9eb988"),
    verify_row("--field", "q",
               sha256="ea2fd273da3ac9a74643ac8f72dc78d1ecd713da1ef1bf77dbdac603b3b2956a"),
]


def row_id(row):
    """The row's argv as one line, each argument over 100 characters by its length."""
    return " ".join(arg if len(arg) <= 100 else f"<{len(arg)} chars>" for arg in row["argv"])


def write_files(directory):
    for name, data in FILES.items():
        (Path(directory) / name).write_bytes(data)


def filled(row, tmp):
    """``row`` with ``{tmp}`` replaced by ``tmp`` in its argv and expected texts."""
    def fill(value):
        if isinstance(value, str):
            return value.replace("{tmp}", tmp)
        return tuple(map(fill, value)) if isinstance(value, tuple) else value
    return {key: fill(value) for key, value in row.items()}


def problems(row, code, out, err):
    """What of ``row`` the run with exit ``code``, stdout ``out`` and stderr
    ``err`` breaks, one line each: an empty list if it gives every pin."""
    found = []
    if code != row["code"]:
        found.append(f"exit {code}, want {row['code']}")
    if "Traceback" in err:
        found.append("a traceback on stderr")
    if row["err"] is not None and err != row["err"]:
        found.append(f"stderr {err[:300]!r}, want {row['err']!r}")
    if "dims" in row:
        try:
            report = json.loads(out)
        except ValueError:
            return found + [f"stdout is not JSON: {out[:300]!r}"]
        for key in ("dims", "ranks", "warnings"):
            if key in row and report.get(key) != row[key]:
                found.append(f"{key} {report.get(key)}, want {row[key]}")
    elif "sha256" in row:
        digest = hashlib.sha256(out.encode()).hexdigest()
        if digest != row["sha256"]:
            found.append(f"stdout sha256 {digest}, want {row['sha256']}")
    elif out != row["out"]:
        found.append(f"stdout {out[:300]!r}, want {row['out']!r}")
    return found


def main(command):
    """Run every row through ``command``; 0 if all pass, else 1."""
    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        write_files(tmp)
        for row in ROWS:
            row = filled(row, tmp)
            start = time.perf_counter()
            try:
                done = subprocess.run([*command, *row["argv"]], capture_output=True,
                                      encoding="utf-8", errors="replace", timeout=row["limit"])
            except subprocess.TimeoutExpired:
                found = [f"no exit within {row['limit']} s"]
            else:
                found = problems(row, done.returncode, done.stdout, done.stderr)
            failures += bool(found)
            seconds = time.perf_counter() - start
            print(f"{'FAIL' if found else 'ok'} {seconds:6.2f} s  {row_id(row)}", flush=True)
            for line in found:
                print(f"    {line}", flush=True)
    print(f"{len(ROWS) - failures} of {len(ROWS)} rows pass")
    return 1 if failures else 0


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(f"usage: {sys.argv[0]} COMMAND...  (e.g. operad-lab)")
    sys.exit(main(sys.argv[1:]))
