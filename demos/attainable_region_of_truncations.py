"""Truncated photon-subtracted states reach (almost) every optimal qutrit.

Builds the attainable (nbar, beta) region of 3-level truncations of
photon-subtracted displaced squeezed states, computes the optimal qutrit
weight curves for several loss values, and checks that each optimal point is
covered by the region. Writes region_points.csv and optimal_beta_curves.csv.

Takes a few seconds: the region is a closed form on the default lattice,
which refines toward the origin, where the (eta, r) -> (nbar, beta) map is
singular and every weight angle accumulates; the coverage check solves all
76 optimal qutrits in one lockstep search, and its report holds the curves.
"""

import numpy as np

from lossqfi import coverage_check, region_map

region = region_map()
print(f"sampled {len(region.points)} region points "
      f"({region.skipped} degenerate lattice points skipped)")

with open("region_points.csv", "w", encoding="utf-8") as fh:
    fh.write("eta,r,nbar,beta\n")
    for p in region.points:
        fh.write(",".join(format(v, ".12g")
                          for v in (p["eta"], p["r"], p["nbar"], p["beta"])) + "\n")

phis = [np.pi / 16, np.pi / 8, np.pi / 4, 3 * np.pi / 8]
nbars = np.linspace(0.05, 0.95, 19)
report = coverage_check(phis, nbars, region)

with open("optimal_beta_curves.csv", "w", encoding="utf-8") as fh:
    fh.write("phi,nbar,beta_opt,H_opt\n")
    for phi in phis:
        curve = [p for p in report.points if p.phi == phi]
        for p in curve:
            fh.write(",".join(format(v, ".12g") for v in
                              (phi, p.nbar, p.beta_opt, p.qfi_opt)) + "\n")
        print(f"phi = {phi:.4f}: optimal beta spans "
              f"[{curve[0].beta_opt:.3f}, {curve[-1].beta_opt:.3f}]")

covered = sum(p.covered for p in report.points)
print(f"\ncoverage: {covered}/{len(report.points)} optimal points attainable "
      f"by truncated photon-subtracted states")
print("wrote region_points.csv and optimal_beta_curves.csv")
