"""Regenerate ``pins.json``, the expected answers the benchmark checks against.

    python3 perfbench/pins.py

Writes, from ``oracle`` alone (no spnum import):

- ``census``: a grid of bounds, log-uniform from 10^4 to 10^9, with the
  exact kp (k = 2), kp (k = 3) and psp counts at each.  The Lucy_Hedgehog
  prime count is first held to the published pi(10^k), k <= 9, and every
  count with n <= 10^7 is held to direct enumeration.
- ``x2p1``: every x <= X2P1_XMAX with x^2 + 1 an SP number (covers
  ``witness x2p1 --bound`` up to 10^9).
- ``x3p1``: every x <= X3P1_XMAX with x^3 + 1 an SP number (covers
  ``witness x3p1 --bound`` up to 10^15), after checking the published
  count of 243 at x <= 10^6.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

import oracle

PINS_PATH = Path(__file__).with_name("pins.json")
GRID_POINTS = 400
GRID_LO_EXP, GRID_HI_EXP = 4, 9
ENUMERATION_LIMIT = 10**7
X2P1_XMAX = 31623  # 31623^2 + 1 > 10^9
X3P1_XMAX = 10**5
X3P1_COUNT_AT_1E6 = 243


def census_grid() -> list[int]:
    span = GRID_HI_EXP - GRID_LO_EXP
    return [round(10 ** (GRID_LO_EXP + span * j / (GRID_POINTS - 1))) for j in range(GRID_POINTS)]


def census_pins() -> dict:
    for x, want in oracle.PUBLISHED_PI.items():
        if x <= 10**GRID_HI_EXP and oracle.PiTable(x).pi(x) != want:
            raise SystemExit(f"Lucy pi({x}) disagrees with the published {want}")
    grid = census_grid()
    pins = {"grid": grid, "kp2": [], "kp3": [], "psp": []}
    for n in grid:
        table = oracle.PiTable(n)
        counts = {"kp2": oracle.kp_count(table, 2), "kp3": oracle.kp_count(table, 3),
                  "psp": oracle.psp_count(table)}
        if n <= ENUMERATION_LIMIT:
            for fam, vals in (("kp2", oracle.kp_values(n, 2)), ("kp3", oracle.kp_values(n, 3)),
                              ("psp", oracle.kp_values(n, 2, prime_base=True))):
                if len(np.unique(vals)) != len(vals) or len(vals) != counts[fam]:
                    raise SystemExit(f"{fam} at n={n}: identity {counts[fam]}, "
                                     f"enumeration {len(vals)} ({len(np.unique(vals))} distinct)")
        for fam, count in counts.items():
            pins[fam].append(count)
    return pins


def main() -> int:
    x3p1_big = oracle.x3p1_members(10**6)
    if len(x3p1_big) != X3P1_COUNT_AT_1E6:
        raise SystemExit(f"x^3+1 scan found {len(x3p1_big)} at x <= 10^6, "
                         f"expected {X3P1_COUNT_AT_1E6}")
    pins = {
        "census": census_pins(),
        "x2p1_xmax": X2P1_XMAX,
        "x2p1": oracle.x2p1_members(X2P1_XMAX),
        "x3p1_xmax": X3P1_XMAX,
        "x3p1": [x for x in x3p1_big if x <= X3P1_XMAX],
    }
    PINS_PATH.write_text(json.dumps(pins, separators=(",", ":")) + "\n")
    print(f"wrote {PINS_PATH}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
