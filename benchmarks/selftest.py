"""Self-test of the benchmark's own code: the random interval generator and
the span arithmetic.  Run from the root of a source checkout:

    python3 benchmarks/selftest.py

Exits 0 and prints ``selftest ok`` when every check holds.
"""

from __future__ import annotations

import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import tamarimaps as tm  # noqa: E402

from generate import random_sync_interval  # noqa: E402
from recorder import Recorder, Reference, summarize  # noqa: E402


def check(ok, what):
    if not ok:
        raise SystemExit("selftest FAILED: " + what)


def test_generator_valid_and_deterministic():
    for seed in (1, 2, 3):
        for n in (0, 1, 2, 5, 40, 300):
            a = random_sync_interval(tm, n, random.Random(seed))
            b = random_sync_interval(tm, n, random.Random(seed))
            check(isinstance(a, tm.SyncInterval) and a.size == n, "size %d interval" % n)
            check(a == b, "seed %d, size %d gives two different intervals" % (seed, n))
            # rebuilding from text runs every check of the library's constructor
            check(tm.SyncInterval.from_text(a.to_text()) == a, "text round trip")
    words = {random_sync_interval(tm, 40, random.Random(seed)).to_text() for seed in range(10)}
    check(len(words) > 1, "different seeds give the same interval")


def test_generator_depth_is_bounded():
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(100)
    try:
        I = random_sync_interval(tm, 3000, random.Random(7))
    finally:
        sys.setrecursionlimit(limit)
    check(I.size == 3000, "size 3000 interval under a recursion limit of 100")


def test_self_time():
    rec = Recorder(Reference())
    rec.begin("pass", True)
    with rec.op("outer"):
        rec.call("paths.outer", lambda: rec.call("tamari.inner", time.sleep, 0.02))
    functions, layers = summarize(rec)
    inner, outer = functions["pass"]["tamari.inner"], functions["pass"]["paths.outer"]
    check(inner["s"] >= 0.02 and abs(inner["self_s"] - inner["s"]) < 1e-12, "leaf self time")
    check(0 <= outer["self_s"] < 0.01 and outer["s"] >= inner["s"], "parent self time")
    check(layers["tamari"]["calls"] == 1 and layers["paths"]["calls"] == 1, "calls per layer")


if __name__ == "__main__":
    test_generator_valid_and_deterministic()
    test_generator_depth_is_bounded()
    test_self_time()
    print("selftest ok")
