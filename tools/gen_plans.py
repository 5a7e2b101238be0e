#!/usr/bin/env python3
"""Regenerate the shipped contraction-plan files in src/rqcsim/data/plans/.

The region shapes below are the tuned choices for each supported lattice:
a batch-friendly region C that carries no cut and joins last, regions A/B
split across the lattice waist, and cut bonds chosen on the waist far from
C.  Greedy per-region contraction orders come from the library itself so
the files stay in sync with the runtime.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from rqcsim.circuits import Lattice
from rqcsim.contraction_plan import ContractionPlan, format_plan, two_region_plan

OUT_DIR = pathlib.Path(__file__).resolve().parents[1] / "src/rqcsim/data/plans"


def bristlecone(size: int, region_c, row_split: int, cut_cols,
                shift: int = 0) -> ContractionPlan:
    """Waist split between rows row_split-1 and row_split; C per predicate."""
    lat = Lattice.named(f"bristlecone-{size}")
    exclude = {(0, 5), (11, 5)} if size == 72 else set()
    sites = [rc for rc in lat.sites if rc not in exclude]
    C = {lat.site_id(rc) for rc in sites if region_c(*rc)}
    A = {lat.site_id(rc) for rc in sites
         if rc[0] < row_split and lat.site_id(rc) not in C}
    B = {lat.site_id(rc) for rc in sites
         if rc[0] >= row_split and lat.site_id(rc) not in C}
    cut_bonds = []
    for c in cut_cols:
        a, b = (row_split - 1, c), (row_split, c)
        cut_bonds.append((lat.site_id(a), lat.site_id(b)))
    return two_region_plan(lat, A, B, C, cut_bonds)


def shipped_plans() -> dict[str, ContractionPlan]:
    """Every shipped plan file's name and the plan it must hold."""
    return {
        # A|B split along the v = r - c + 5 diagonals; single waist cut.
        "bristlecone_24.txt": bris24(),
        "bristlecone_48.txt": bristlecone(
            48, lambda r, c: c <= 2, row_split=5, cut_cols=(6, 7)),
        "bristlecone_60.txt": bristlecone(
            60, lambda r, c: c == 7 or (c >= 8 and 4 <= r <= 5),
            row_split=5, cut_cols=(0, 1, 2)),
        "bristlecone_64.txt": bristlecone(
            64, lambda r, c: c <= 1, row_split=6, cut_cols=(6, 7)),
        "bristlecone_70.txt": bristlecone(
            70, lambda r, c: c <= 2, row_split=5, cut_cols=(7, 8, 9, 10)),
        "bristlecone_72.txt": bristlecone(
            72, lambda r, c: c <= 2, row_split=6, cut_cols=(7, 8, 9, 10)),
    }


def main():
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    for fname, plan in shipped_plans().items():
        lat = Lattice.named(plan.lattice_kind)
        plan.analyze(lat)  # sanity: every file parses back clean
        path = OUT_DIR / fname
        path.write_text(format_plan(plan))
        print(f"wrote {path.name}: {len(plan.cuts)} cuts, "
              f"{sum(1 for _ in plan.steps())} steps, "
              f"batch region {len(plan.batch_sites)} sites")


def bris24() -> ContractionPlan:
    lat = Lattice.named("bristlecone-24")
    v = lambda r, c: r - c + 5
    A = {lat.site_id(rc) for rc in lat.sites if v(*rc) <= 4}
    C = {lat.site_id(rc) for rc in lat.sites if v(*rc) >= 9}
    B = set(range(lat.n)) - A - C
    assert (len(A), len(B), len(C)) == (10, 8, 6)
    cut = (lat.site_id((2, 3)), lat.site_id((3, 3)))
    return two_region_plan(lat, A, B, C, [cut])


if __name__ == "__main__":
    main()
