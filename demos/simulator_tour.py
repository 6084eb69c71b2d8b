"""Tour of the synthetic causal simulator.

Generates datasets at several noise levels, shows how the observation vector
decomposes into the label's parents (pa), non-descendant siblings (nd) and
descendants (dc), and measures how much of each block leaks into the raw
features via distance correlation.

Run:  python demos/simulator_tour.py
"""

import os
import tempfile

import numpy as np

from carr.dataio import write_csv
from carr.infometrics import distance_correlation
from carr.scm import SynthConfig, generate


def main():
    print("=== label rate and block dependence vs noise variance ===")
    print(f"{'beta':>6} {'P(y=1)':>8} {'dcor(x,pa)':>11} {'dcor(x,nd)':>11} "
          f"{'dcor(x,dc)':>11}")
    for beta in (0.0, 0.1, 0.3, 0.5, 1.0):
        data = generate(SynthConfig(beta=beta, n=500, seed=0))
        print(f"{beta:>6.1f} {data.y.mean():>8.3f} "
              f"{distance_correlation(data.x, data.pa):>11.3f} "
              f"{distance_correlation(data.x, data.nd):>11.3f} "
              f"{distance_correlation(data.x, data.dc):>11.3f}")

    print()
    print("=== structural facts ===")
    # with beta=0 the noise is a constant, so the descendant block is a
    # deterministic function of the label: two distinct rows per dataset
    data = generate(SynthConfig(beta=0.0, n=200, seed=1))
    unique_dc = np.unique(np.round(data.dc, 12), axis=0)
    print(f"beta=0: distinct dc rows = {unique_dc.shape[0]} "
          "(one per label value; dc depends on y alone)")

    # nd never looks at y: shuffling labels leaves nd untouched by design,
    # shown here by the tiny label/nd dependence relative to pa/nd
    data = generate(SynthConfig(beta=0.3, n=500, seed=2))
    print(f"beta=0.3: dcor(nd, pa) = {distance_correlation(data.nd, data.pa):.3f}, "
          f"dcor(nd, y) = {distance_correlation(data.nd, data.y.astype(float)):.3f}")

    path = os.path.join(tempfile.gettempdir(), "synth_demo.csv")
    write_csv(data, path)
    print(f"\nwrote {len(data)} samples to {path}")


if __name__ == "__main__":
    main()
