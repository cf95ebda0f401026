"""The benchmark's workloads: fixed lists of `tamari` CLI commands.

Every op runs as its own `python -m tamari.cli <argv>` child, as a user
runs the CLI.  The sizes are fixed because the computation is exact and
deterministic; the seed only permutes the op order within a pass.
Enumerating ops pass an explicit budget so no environment setting can
change how far they go.
"""
from __future__ import annotations

from dataclasses import dataclass

BUDGET = ("--budget", "100000000")


@dataclass(frozen=True)
class Workload:
    why: str
    ops: tuple


WORKLOADS = {
    # The n = 11 tree engine (58,786 elements, 48,336,171 intervals) and
    # the slope-3 ballot engine (53,820 words, 73,083,880 intervals) are
    # built cold and read only through mask popcounts: engine build and
    # tallies do the work and set the peak memory.
    "lattice-tally": Workload(
        why="both interval engines built cold at n = 11 and slope 3, read "
            "through mask tallies",
        ops=(
            ("table", "refined-pq", "--nmax", "11") + BUDGET,
            ("table", "m-stats", "--nmax", "7", "--mmax", "3") + BUDGET,
        ),
    ),
    # Small engines (n <= 9), but every op walks intervals one by one in
    # Python (138,647 at n = 8) and computes per-interval tree statistics.
    "interval-walk": Workload(
        why="per-interval Python walks: internal faces, canopy, catalytic "
            "and canopy-pair series, face dimensions",
        ops=(
            ("table", "internal", "--nmax", "8") + BUDGET,
            ("verify", "canopy", "--nmax", "8") + BUDGET,
            ("verify", "catalytic", "--order", "9") + BUDGET,
            ("verify", "fusy-humbert", "--order", "7") + BUDGET,
            ("table", "face-dims", "--nmax", "9") + BUDGET,
        ),
    ),
    # Nothing is enumerated: Newton on the frozen quartic over Fraction
    # polynomials, the printed operators, the recurrences, and big-integer
    # closed forms rendered to about 5 MB of CSV.
    "series-solve": Workload(
        why="no enumeration: Newton on the quartic to order 20, operators, "
            "recurrences, 5 MB of closed-form CSV",
        ops=(
            ("verify", "polynomial", "--order", "20"),
            ("verify", "pde", "--order", "20"),
            ("verify", "telescoped", "--nmax", "40"),
            ("table", "a", "--nmax", "200"),
            ("table", "b", "--nmax", "200"),
        ),
    ),
}
