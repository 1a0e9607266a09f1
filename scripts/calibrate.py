#!/usr/bin/env python3
"""Regenerate tests/fixtures/calibration.json.

The asymptotic statements exercised by the suite carry unspecified
constants, so their numerical sizes are pinned by this one-time run and
enforced as regressions (current <= stored * 1.05) thereafter.  The run is
fully deterministic; regenerate only when an intentional algorithm change
shifts the baselines.
"""

import json
import pathlib
import sys

import numpy as np

from goldbachkit import (
    build_mangoldt,
    bundled_zeros,
    gk_fft,
    gy_lemma_diagnostic,
    minor_arc_l2,
    psi1_explicit,
    residual_report,
    sk_prefix,
)

TARGET = pathlib.Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "calibration.json"


def main() -> int:
    sieve = build_mangoldt(1 << 18)
    zeros = bundled_zeros()

    fixtures: dict = {"version": 1}

    g2 = gk_fft(sieve, 2, 1 << 17)
    prefix2 = sk_prefix(g2)
    report2 = residual_report(prefix2, zeros, [1 << e for e in range(10, 18)])
    g3 = gk_fft(sieve, 3, 1 << 13)
    prefix3 = sk_prefix(g3)
    report3 = residual_report(prefix3, zeros, [1 << e for e in range(10, 14)])
    fixtures["residual_cstar"] = {
        "k2": max(row.normalized for row in report2.rows),
        "k3": max(row.normalized for row in report3.rows),
    }

    fixtures["psi1_explicit"] = {}
    for x in (100.0, 1000.0, 10_000.0):
        formula, direct = psi1_explicit(zeros, sieve, x)
        fixtures["psi1_explicit"][str(int(x))] = abs(formula - direct) / x

    fixtures["gy_ratio"] = {}
    for key, h in (("X256_h1", 1.0), ("X256_h16", 16.0)):
        integral, reference = gy_lemma_diagnostic(sieve, 256.0, h)
        fixtures["gy_ratio"][key] = integral / reference

    fixtures["minor_arc_ratio"] = {}
    for key, n in (("N128", 128), ("N1024", 1024)):
        power_sum, reference = minor_arc_l2(sieve, n)
        fixtures["minor_arc_ratio"][key] = power_sum / reference

    g2_big = gk_fft(sieve, 2, 1 << 18)
    fixtures["max_g2_over_n"] = {}
    for exponent in range(12, 19):
        top = 1 << exponent
        ratio = float(np.max(g2_big.values[1 : top + 1] / np.arange(1, top + 1)))
        fixtures["max_g2_over_n"][str(top)] = ratio

    TARGET.parent.mkdir(parents=True, exist_ok=True)
    with open(TARGET, "w") as handle:
        json.dump(fixtures, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {TARGET}")
    for key, value in fixtures.items():
        print(key, "=", value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
