"""Seeded inputs of the three benchmark workloads.

Everything here is computed by the benchmark itself: the degree threshold,
the admissible section degrees and the gonal validity gates are written out
again from the paper's formulas instead of being imported from the program,
so that the inputs and the expected row sets do not depend on the code under
test.  The program sees only the argv or the tuples made here.
"""

from __future__ import annotations

import random

WORKLOADS = ("scan-general", "scan-gonal-verify", "library-grid")

SCAN_GENERAL_G = (3, 300)
SCAN_GONAL_G = (3, 200)
LIBRARY_GMAX = 120


def threshold(g: int, h1: int) -> int:
    """Minimal degree of the classification: 4g - 3 for h1 = 2, else
    (7g - (g mod 2))/2 - 2*h1 + 2."""
    if h1 == 2:
        return 4 * g - 3
    return (7 * g - g % 2) // 2 - 2 * h1 + 2


def has_general_moduli(g: int, h1: int) -> bool:
    """Whether components with general moduli exist: g >= 4*h1, or (3, 1)."""
    return (g, h1) == (3, 1) or g >= 4 * h1


def admissible_m(g: int, h1: int) -> range:
    """Section degrees g + 3 - h1 .. floor(g/h1) - 1 + g - h1, or [4] at (3, 1)."""
    if (g, h1) == (3, 1):
        return range(4, 5)
    return range(g + 3 - h1, g // h1 - 1 + g - h1 + 1)


def general_rows_m(g: int, h1: int, d: int) -> list[int]:
    """Section degrees of the general-moduli rows a scan emits for one cell:
    the canonical degree alone for h1 = 1, every admissible degree above it."""
    if not has_general_moduli(g, h1) or d < threshold(g, h1):
        return []
    if h1 == 1:
        return [2 * g - 2]
    return list(admissible_m(g, h1))


def gonality(g: int) -> int:
    return (g + 3) // 2


def gonal_valid(g: int, t: int, l: int, d: int) -> bool:
    """Gates of a gonal component Z(t, l): 2 < t < gonality, 2 <= l <= a - 1
    with a = ceil(g/(t-1)) + 1, very-ampleness l*t*(t-1) <= 2g - (t-1) -
    t*(t-1), and d >= 6g - 5."""
    if not 2 < t < gonality(g):
        return False
    a = -(-g // (t - 1)) + 1
    return (
        2 <= l <= a - 1
        and l * t * (t - 1) <= 2 * g - (t - 1) - t * (t - 1)
        and d >= 6 * g - 5
    )


def gonal_rows_t(g: int, h1: int, d: int) -> list[int]:
    """Gonalities of the gonal rows a ``--gonal`` scan emits for one cell."""
    if h1 < 2:
        return []
    return [t for t in range(3, gonality(g)) if gonal_valid(g, t, h1, d)]


def scan_argv(workload: str, seed: int) -> tuple[list[str], dict]:
    """Scan argv for ``seed`` and the generated parameters."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "scan-general":
        k = rng.randrange(4)
        policy = "min" if k == 0 else f"+{k}"
        lo, hi = SCAN_GENERAL_G
        argv = ["scan", "--g", f"{lo}..{hi}", "--h1", f"1..{hi}", "--d", policy,
                "--format", "csv"]
        return argv, {"K": k}
    if workload == "scan-gonal-verify":
        lo, hi = SCAN_GONAL_G
        d = 6 * hi - 5 + rng.randrange(64)
        argv = ["scan", "--g", f"{lo}..{hi}", "--h1", f"1..{hi}", "--d", str(d),
                "--gonal", "--verify", "--format", "json"]
        return argv, {"D": d}
    raise ValueError(f"not a scan workload: {workload}")


def scan_cells(argv: list[str]) -> list[tuple[int, int, int]]:
    """Grid cells (g, h1, d) of a scan argv, in the order the scan visits them."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    g_lo, g_hi = (int(x) for x in opts["--g"].split(".."))
    h_lo, h_hi = (int(x) for x in opts["--h1"].split(".."))
    policy = opts["--d"]
    cells = []
    for g in range(g_lo, g_hi + 1):
        for h1 in range(max(h_lo, 1), min(h_hi, g - 1) + 1):
            if policy == "min":
                degrees = [threshold(g, h1)]
            elif policy.startswith("+"):
                degrees = [threshold(g, h1) + int(policy[1:])]
            else:
                degrees = sorted({int(s) for s in policy.split(",")})
            cells.extend((g, h1, d) for d in degrees)
    return cells


def library_tuples(seed: int) -> tuple[list[tuple[int, int, int, int]], list[tuple[int, int, int]]]:
    """Scroll tuples (d, g, h1, m) and gonal tuples (g, t, l) of the library
    grid, each list in seeded call order.

    Scroll grid: 3 <= g <= LIBRARY_GMAX, every speciality with general
    moduli, every admissible m, and five degrees per (g, h1): the threshold,
    two seeded offsets above it in 1..12, 6g - 5 and 6g.  Gonal tuples: every
    valid Z(t, l) with g in the same range, at d = 6g - 5.
    """
    rng = random.Random(f"library-grid:{seed}")
    scroll = []
    for g in range(3, LIBRARY_GMAX + 1):
        for h1 in range(1, g):
            if not has_general_moduli(g, h1):
                continue
            thr = threshold(g, h1)
            offsets = rng.sample(range(1, 13), 2)
            degrees = sorted({thr, thr + offsets[0], thr + offsets[1], 6 * g - 5, 6 * g})
            scroll.extend((d, g, h1, m) for d in degrees for m in admissible_m(g, h1))
    gonal = [
        (g, t, l)
        for g in range(3, LIBRARY_GMAX + 1)
        for t in range(3, gonality(g))
        for l in range(2, g)
        if gonal_valid(g, t, l, 6 * g - 5)
    ]
    rng.shuffle(scroll)
    rng.shuffle(gonal)
    return scroll, gonal
