"""Host-speed probe: time a fixed piece of pure-Python work and print the
seconds it took.

    python3 perfbench/speed_probe.py

The work mixes what operad-lab spends its time on (small-int modular
arithmetic, dicts keyed by tuples, ``Fraction`` arithmetic) and imports
nothing from operad-lab, so a change to the program cannot change it.  It
runs in its own process for the same reason: nothing the program sets up
(garbage-collector settings, caches, patched modules) reaches it.  run.py
runs it before a timed run's first sample and after each sample, and scales
the run's timing medians by the mean probe, which cancels the host's speed
drift (design notes: perfbench/DESIGN.md, "Host-speed normalisation").
"""

import time
from fractions import Fraction

STEPS = 150_000
PRIME = 32003


def work():
    acc = {}
    frac = Fraction(0)
    v = 1
    for i in range(STEPS):
        key = (i % 97, i % 89, i & 7)
        acc[key] = (acc.get(key, 0) + v) % PRIME
        v = (v * 31 + i) % PRIME
        if i % 16 == 0:
            frac += Fraction(v, i % 13 + 1)
            frac -= Fraction(frac.numerator % 1000, frac.denominator)
    return sorted(acc.items()), frac


def main():
    t0 = time.perf_counter()
    work()
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
