"""The golden command-line results of operad-lab, each written once.

``ROWS`` is one table of command-line runs and what each must give.  A
complex row holds ``cohomology --json`` arguments with the dims and ranks
of the report, and its warnings where they are pinned.  A run row holds a
whole argv with its exit code, its exact stdout or the SHA-256 of it, and
its exact stderr.  No row may print a traceback, and each has a time limit
in seconds.  ``{tmp}`` in an argument or an expected text stands for a
directory holding ``FILES``.

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
NINES = '{"arity":2,"terms":[{"basis":[1,2],"coeff":"%s"}]}' % ("9" * 3000)
HUGE = "1" + "0" * 30
ZERO = '{"arity":100000000,"terms":[]}'  # a zero element of a huge arity
E12 = '{"arity":0,"coeffs":[0,1,0,0]}'  # an algebra element of M_2, not the point
M2_ZERO = '{"arity":0,"coeffs":[0,0,0,0]}'  # the zero element of arity 0 of M_2
DIGITS = "a JSON integer has more than 4300 digits, the interpreter's limit for reading an integer"

FILES = {
    # T_2, unit e11 + e22, and a dense multimap on it
    "t2.json": b'{"dim": 3, "unit": [1, 0, 1], "mul": [[[1,0,0],[0,1,0],[0,0,0]],'
               b'[[0,0,0],[0,0,0],[0,1,0]],[[0,0,0],[0,0,0],[0,0,1]]]}',
    "nonassoc.json": b'{"dim": 3, "unit": [1, 0, 0], "mul": [[[1,0,0],[0,1,0],[0,0,1]],'
                     b'[[0,1,0],[0,0,1],[0,0,0]],[[0,0,1],[0,1,0],[0,0,0]]]}',
    # a unit that fails the unit axiom
    "nonunital.json": b'{"dim": 1, "unit": [1], "mul": [[[2]]]}',
    # algebras missing "dim", missing "mul", not an object, with a unit not a
    # list, of dimension 0, with a mul of the wrong shape, with a zero unit
    "no_dim.json": b'{"unit": [1], "mul": [[[1]]]}',
    "no_mul.json": b'{"dim": 1, "unit": [1]}',
    "list.json": b"[1]",
    "unit_int.json": b'{"dim": 1, "unit": 5, "mul": [[[1]]]}',
    "dim_0.json": b'{"dim": 0, "unit": [], "mul": []}',
    "mul_shape.json": b'{"dim": 2, "unit": [1, 0], "mul": [[[1, 0]], [[0, 1]]]}',
    "zero_unit.json": b'{"dim": 1, "unit": [0], "mul": [[[1]]]}',
    # an element, and JSON that is no element: not UTF-8, not an object,
    # nested deeper than the parser recurses
    "element.json": b'{"operad": "assoc", "arity": 3,'
                    b' "terms": [{"basis": [3, 1, 2], "coeff": "1"}]}',
    "not_utf8.json": b'\xff\xfe{"terms":[]}',
    "five.json": b"5\n",
    "deep.json": b"[" * 5000 + b"]" * 5000,
}


def complex_row(args, dims, ranks, limit=20, **pinned):
    """``cohomology ARGS --json``, with ``args`` split at spaces."""
    return dict(argv=("cohomology", *args.split(), "--json"), code=0, err="",
                dims=dims, ranks=ranks, limit=limit, **pinned)


def run_row(*argv, code=0, limit=20, **stdout):
    """Exit ``code`` and nothing on stderr, with stdout pinned as ``out=``,
    its exact text, or as ``sha256=``, its digest."""
    return dict(argv=argv, code=code, err="", limit=limit, **stdout)


def refused(message, *argv, code=1, limit=20):
    """Exit ``code``, 1 for a domain error or 64 for a usage error, no
    stdout, and ``error: MESSAGE`` as the one stderr line."""
    return dict(argv=argv, code=code, out="", err=f"error: {message}\n", limit=limit)


ROWS = [
    complex_row("--operad endo:dual --field gfp:3 --lo 0 --hi 3", [2, 1, 1, 1], [0, 3, 4, 11],
                warnings=[]),
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

    # each algebra command, on assoc unless named
    run_row("compose", "--left", "4312", "--at", "1", "--right", "231", out="564312\n"),
    run_row("compose", "--left", "4312", "--at", "2", "--right", "231", out="645312\n"),
    run_row("compose", "--json", "--left", "12", "--at", "2", "--right", "21",
            out='{"arity":3,"operad":"assoc","terms":[{"basis":[1,3,2],"coeff":"1"}]}\n'),
    run_row("face", "--element", "4312", "--at", "1", out="312\n"),
    run_row("degen", "--element", "21", "--at", "1", out="231\n"),
    run_row("degen", "--element", "21", "--at", "2", out="312\n"),
    run_row("boundary", "--element", "312", out="-1*12\n"),
    run_row("boundary", "--element", "4312", out="0\n"),
    run_row("boundary", "--element", "@{tmp}/element.json", out="-1*12\n"),
    run_row("coboundary", "--element", "1", out="12\n"),
    run_row("coboundary", "--element", "21", out="132 + -1*213 + -1*231 + 312\n"),
    run_row("boundary", "--operad", "shift", "--element", "(1,3,4)", out="-1*2,3\n"),
    run_row("face", "--operad", "shift", "--element", "2,5,7", "--at", "1", out="4,6\n"),
    run_row("brace", "--element", "12", "--with", "1", "--with", "1", out="12\n"),
    run_row("odot", "--left", "12", "--right", "21", out="1243\n"),
    run_row("dot", "--left", "12", "--right", "21", out="1243\n"),
    # arity 1 x arity 1 flips the sign of the plain composition
    run_row("dot", "--left", "1", "--right", "1", out="-1*12\n"),
    run_row("coproduct", "--element", "21", out="() | 21\n1 | 1\n21 | ()\n"),
    run_row("coproduct", "--json", "--element", "21",
            out='[{"left":{"arity":0,"operad":"assoc","terms":[{"basis":[],"coeff":"1"}]},'
                '"right":{"arity":2,"operad":"assoc","terms":[{"basis":[2,1],"coeff":"1"}]}},'
                '{"left":{"arity":1,"operad":"assoc","terms":[{"basis":[1],"coeff":"1"}]},'
                '"right":{"arity":1,"operad":"assoc","terms":[{"basis":[1],"coeff":"1"}]}},'
                '{"left":{"arity":2,"operad":"assoc","terms":[{"basis":[2,1],"coeff":"1"}]},'
                '"right":{"arity":0,"operad":"assoc","terms":[{"basis":[],"coeff":"1"}]}}]\n'),
    # a dense multimap, and the point, whose degeneracy is the unit
    run_row("face", "--operad", "endo:dual", "--field", "gfp:3",
            "--element", '{"arity":1,"coeffs":["1","0","0","1"]}', "--at", "1", out="()\n"),
    run_row("degen", "--operad", "endo:dual", "--element", "()", "--at", "1",
            out="E[0->0] + E[1->1]\n"),
    # the point and the zero element of arity 0 keep their images, where an
    # algebra element of arity 0 is refused (below)
    run_row("boundary", "--operad", "endo:m2", "--element", "()", out="0\n"),
    run_row("boundary", "--operad", "endo:m2", "--element", M2_ZERO, out="0\n"),
    run_row("coboundary", "--operad", "endo:m2", "--element", "()", out="0\n"),
    run_row("coboundary", "--operad", "endo:m2", "--element", M2_ZERO, out="0\n"),
    run_row("coproduct", "--operad", "endo:m2", "--element", "()", out="() | ()\n"),
    run_row("coproduct", "--operad", "endo:m2", "--element", M2_ZERO, out="0 | ()\n"),
    # the human cohomology report, and --allow-large lifting a cap of 0
    run_row("cohomology", "--operad", "endo:dual", "--field", "gfp:3", "--lo", "0", "--hi", "3",
            out="degree 0: dim 2 (rank of outgoing map 0)\n"
                "degree 1: dim 1 (rank of outgoing map 3)\n"
                "degree 2: dim 1 (rank of outgoing map 4)\n"
                "degree 3: dim 1 (rank of outgoing map 11)\n"),
    run_row("cohomology", "--operad", "assoc", "--differential", "boundary", "--lo", "0",
            "--hi", "3", "--column-cap", "0", "--allow-large",
            out="degree 0: dim 0 (rank of outgoing map 0)\n"
                "degree 1: dim 0 (rank of outgoing map 1)\n"
                "degree 2: dim 0 (rank of outgoing map 0)\n"
                "degree 3: dim 4 (rank of outgoing map 2)\n"
                "warning: degree 3: incoming rank at degree 4 not computed (one-sided)\n"),
    # the differentials and the brace of a zero read no slot
    run_row("boundary", "--element", ZERO, out="0\n"),
    run_row("coboundary", "--element", ZERO, out="0\n"),
    run_row("brace", "--element", ZERO, "--with", "1", "--with", "1", out="0\n"),
    run_row("face", "--operad", "endo:@{tmp}/t2.json", "--at", "2", "--element",
            '{"arity":2,"coeffs":[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,2]}',
            out="E[0->0] + 2*E[2->2]\n"),

    # a number literal coefficient is read exactly, as the literal writes it
    run_row("boundary", "--field", "q", "--element",
            '{"arity":1,"terms":[{"basis":[1],"coeff":0.30000000000000001}]}',
            out="-30000000000000001/100000000000000000*()\n"),
    run_row("boundary", "--field", "q", "--element",
            '{"arity":1,"terms":[{"basis":[1],"coeff":1e400}]}', out="-1" + "0" * 400 + "*()\n"),

    # a domain error is one line on stderr: a slot out of range, a malformed
    # key, an unknown operad, a missing file
    refused("slot 5 out of range for arity 2", "face", "--element", "21", "--at", "5"),
    refused("'122' is not a permutation", "boundary", "--element", "122"),
    refused("'12a' is not a permutation", "face", "--element", "12a", "--at", "1"),
    refused("'[1,2]' is not a permutation", "face", "--element", "[1,2]", "--at", "1"),
    refused("'1,x' is not strictly increasing and positive",
            "face", "--operad", "shift", "--element", "1,x", "--at", "1"),
    refused("bad map key 'E[a->0]'", "face", "--operad", "endo:dual", "--element", "E[a->0]",
            "--at", "1"),
    refused("bad map key (7, 0) for arity 1",
            "face", "--operad", "endo:dual", "--element", "E[7->0]", "--at", "1"),
    refused("unknown operad 'mystery' (want assoc, shift, or endo:<preset-or-@file>)",
            "boundary", "--operad", "mystery", "--element", "1"),
    refused("[Errno 2] No such file or directory: '/no/such/file.json'",
            "boundary", "--element", "@/no/such/file.json"),
    # malformed element JSON, and dense maps of the wrong shape; a float or a
    # bool is no integer, and true is no coefficient
    refused("element JSON term needs a 'coeff' field",
            "boundary", "--element", '{"arity":1,"terms":[{"basis":[1]}]}'),
    refused('malformed element JSON: arity must be an integer, got "x"',
            "boundary", "--element", '{"arity":"x","terms":[]}'),
    refused("malformed element JSON: basis must be an array, got 5",
            "boundary", "--element", '{"arity":1,"terms":[{"basis":5,"coeff":"1"}]}'),
    refused('malformed element JSON: terms must be an array, got an object',
            "boundary", "--element", '{"arity":1,"terms":{"basis":[1]}}'),
    refused('malformed element JSON: a term must be an object, got an array',
            "boundary", "--element", '{"arity":1,"terms":[[[1],"1"]]}'),
    refused("element JSON needs an object with a 'terms' array",
            "boundary", "--operad", "endo:dual", "--element", "@{tmp}/five.json"),
    refused("malformed element JSON: arity must be an integer, got 2.9",
            "boundary", "--element", '{"arity":2.9,"terms":[{"basis":[2,1],"coeff":"1"}]}'),
    refused("malformed element JSON: basis entry must be an integer, got 1.7",
            "boundary", "--element", '{"arity":2,"terms":[{"basis":[1.7,2],"coeff":"1"}]}'),
    refused("malformed element JSON: basis entry must be an integer, got true",
            "boundary", "--element", '{"arity":2,"terms":[{"basis":[true,2],"coeff":"1"}]}'),
    refused("a coefficient must be a number or a string, got true",
            "boundary", "--element", '{"arity":2,"terms":[{"basis":[2,1],"coeff":true}]}'),
    refused("a coefficient must be a number or a string, got null", "boundary", "--operad",
            "endo:dual", "--element", '{"arity":0,"coeffs":[1,null]}'),
    refused("negative arity -1", "boundary", "--element", '{"arity":-1,"terms":[]}'),
    refused("dense map arity must be an integer, got null",
            "boundary", "--operad", "endo:dual", "--element", '{"coeffs":[1]}'),
    refused('dense map arity must be an integer, got "x"',
            "boundary", "--operad", "endo:dual", "--element", '{"arity":"x","coeffs":[1]}'),
    refused("dense map arity must be an integer, got true", "face", "--operad", "endo:dual",
            "--element", '{"arity":true,"coeffs":[1,0,0,1]}', "--at", "1"),
    refused("dense map needs a list of coefficients, got 7",
            "boundary", "--operad", "endo:dual", "--element", '{"arity":1,"coeffs":7}'),
    refused("arity-0 dense map needs 2 coefficients",
            "boundary", "--operad", "endo:dual", "--element", '{"arity":0,"coeffs":[1]}'),
    # a file that is not UTF-8 is a domain error with one message, as element
    # and as algebra, and so is JSON nested deeper than the parser recurses
    refused("{tmp}/not_utf8.json is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte", "boundary", "--element", "@{tmp}/not_utf8.json"),
    refused("{tmp}/not_utf8.json is not UTF-8 text: 'utf-8' codec can't decode byte 0xff "
            "in position 0: invalid start byte",
            "cohomology", "--operad", "endo:@{tmp}/not_utf8.json", "--lo", "0", "--hi", "1"),
    refused("JSON nested too deeply to read",
            "boundary", "--element", '{"terms":' + "[" * 1000 + "]" * 1000 + "}"),
    refused("JSON nested too deeply to read",
            "face", "--operad", "endo:@{tmp}/deep.json", "--element", "E[0->0]", "--at", "1"),
    # so are numbers too long for text: a huge or negative multimap arity, a
    # JSON integer past the 4300-digit limit, an exponent past it either
    # way, and a 6000-digit product
    refused("arity-100000 dense map needs 2^100001 coefficients, got 1",
            "boundary", "--operad", "endo:dual", "--element", '{"arity":100000,"coeffs":[1]}'),
    refused("negative arity -2",
            "boundary", "--operad", "endo:dual", "--element", '{"arity":-2,"coeffs":[1]}'),
    refused(DIGITS, "boundary", "--operad", "endo:dual",
            "--element", '{"arity":%s,"coeffs":[1]}' % LONG_INT),
    refused(DIGITS, "boundary",
            "--element", '{"arity":2,"terms":[{"basis":[1,2],"coeff":%s}]}' % LONG_INT),
    *(refused(f"rational scalar '{coeff}' has an exponent beyond 4300, the interpreter's "
              "digit limit", "boundary",
              "--element", '{"arity":2,"terms":[{"basis":[1,2],"coeff":"%s"}]}' % coeff)
      for coeff in ("1e99999999", "1e5000", "1e-5000")),
    # a number literal is read as its own text: as a coefficient it is
    # refused as its string form is, and as an arity past the digit limit
    refused("rational scalar '1e99999999' has an exponent beyond 4300, the interpreter's "
            "digit limit", "boundary",
            "--element", '{"arity":2,"terms":[{"basis":[1,2],"coeff":1e99999999}]}'),
    refused("malformed element JSON: " + DIGITS, "boundary",
            "--element", '{"arity":1e99999999,"terms":[]}'),
    refused("bad scalar '1e400' for gfp:7", "boundary", "--field", "gfp:7",
            "--element", '{"arity":1,"terms":[{"basis":[1],"coeff":1e400}]}'),
    *(refused("a coefficient has more than 4300 digits, the interpreter's limit for printing "
              "an integer", "compose", "--left", NINES, "--at", "1", "--right", NINES, *flags)
      for flags in ((), ("--json",))),
    # an arity-0 algebra element, which is not a point, has no degeneracy
    refused("degree-0 key (0,) carries no operadic slot data",
            "degen", "--operad", "endo:dual", "--element", '{"arity":0,"coeffs":[1,0]}',
            "--at", "1"),
    *(refused("degree-0 key (1,) carries no operadic slot data",
              command, "--operad", "endo:m2", "--element", E12)
      for command in ("boundary", "coboundary", "coproduct")),
    # an algebra file that is not an algebra object, or fails a FinAlgebra
    # check: not associative, not unital, with one line naming its first
    # failing triple or basis index
    *(refused("algebra JSON needs an object with 'dim', 'unit' and 'mul' fields", "face",
              "--operad", f"endo:@{{tmp}}/{name}.json", "--element", "E[0->0]", "--at", "1")
      for name in ("no_dim", "no_mul", "list")),
    *(refused(message, "face", "--operad", f"endo:@{{tmp}}/{name}.json",
              "--element", "E[0->0]", "--at", "1")
      for name, message in [
          ("unit_int", "algebra JSON needs 'unit' as a list and 'mul' as a list of lists of lists"),
          ("dim_0", "algebra dimension must be >= 1"),
          ("mul_shape", "structure constant shapes do not match dim"),
          ("zero_unit", "unit vector is zero"),
          ("nonunital", "unit axiom fails at basis index 0")]),
    refused("algebra '{tmp}/nonassoc.json' is not associative at (1,1,1)",
            "cohomology", "--operad", "endo:@{tmp}/nonassoc.json", "--lo", "0", "--hi", "1"),
    refused("unit axiom fails at basis index 0",
            "cohomology", "--operad", "endo:@{tmp}/nonunital.json", "--lo", "0", "--hi", "1"),
    # a cap the command line sets is named with its flag
    refused("1 column at degree 0 exceeds the cap 0" + CAP, "cohomology", "--operad", "assoc",
            "--differential", "boundary", "--lo", "0", "--hi", "3", "--column-cap", "0"),
    refused("6 columns at degree 3 exceed the cap 2" + CAP, "cohomology", "--operad", "assoc",
            "--differential", "boundary", "--lo", "0", "--hi", "3", "--column-cap", "2"),
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

    # verify: exit 0 when every check passes and 2 when one fails, here
    # brace/boundary_brace_literal; a bad trial count or operad is a usage error
    run_row("verify", "--suite", "simplicial", "--operad", "assoc", "--trials", "10",
            sha256="a035b6b5e8793c31a23035b1161bd23a33b5ab257556575a3a898df004887970"),
    run_row("verify", "--suite", "chain", "--operad", "assoc", "--trials", "10", "--json",
            sha256="bf7a31ef8843956a9e905c1674af5f01ba6d5fc84e7af6fb4a18f725ecec7f36"),
    run_row("verify", "--suite", "brace", "--trials", "40", code=2,
            sha256="fc0b6aa663baf2fc9b988d8fb8f6f7e17b2a9fa10a6837695d147f2ff0dbf746"),
    *(refused(f"trials must be at least 1, got {trials}", "verify", "--json", "--trials", trials,
              code=64) for trials in ("0", "-3")),
    refused("unknown operad label 'nope' (want one of assoc, shift, endo:dual, endo:k, "
            "endo:dual@gfp:3, endo:m2@gfp:5)", "verify", "--operad", "nope", "--trials", "1",
            code=64),
    # the default verify report, the benchmark's verify command, and the
    # report over q, where an int and an integral Fraction print alike
    run_row("verify", "--json", code=2, limit=60,
            sha256="93cb5e346cc1f9ab0071e3bb5232c1d1f6ec3386ec016508018316b03c9eb988"),
    run_row("verify", "--json", "--field", "q", code=2, limit=60,
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
    if err != row["err"]:
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
