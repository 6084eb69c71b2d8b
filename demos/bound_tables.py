"""Finite-sample bound tables for the label/representation mutual-information
estimate.

Two regimes: a general representation with effective alphabet |Z|, and the
ideal case where the representation coincides with the label's causal
parents, which swaps |Z| for the (much smaller) noise variance in the
dominant term.  Each bound is only valid above a sample-count threshold.

Run:  python demos/bound_tables.py
"""

from carr.bounds import BoundInputs, bound_general, bound_ideal, min_samples


def main():
    print("=== bounds vs sample count (|Y|=2, |Z|=64, beta=0.3, delta=0.05) ===")
    print(f"{'m':>10} {'general':>10} {'ideal':>10} {'ratio':>7}")
    for m in (10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7, 10 ** 8):
        inputs = BoundInputs(m=m)
        g, i = bound_general(inputs), bound_ideal(inputs)
        print(f"{m:>10d} {g:>10.4f} {i:>10.4f} {g / i:>7.1f}")

    print()
    print("=== validity thresholds ===")
    inputs = BoundInputs(m=10)
    print(f"general case: m >= {min_samples('general', inputs)}")
    print(f"ideal case:   m >= {min_samples('ideal', inputs)}")

    print()
    print("=== effect of the representation alphabet ===")
    print(f"{'card_z':>7} {'general@1e6':>12} {'ideal@1e6':>10}")
    for card_z in (8, 64, 512):
        inputs = BoundInputs(m=10 ** 6, card_z=card_z)
        print(f"{card_z:>7d} {bound_general(inputs):>12.4f} "
              f"{bound_ideal(inputs):>10.4f}")
    print("the ideal-case bound barely moves: only the small additive term "
          "still sees |Z|")


if __name__ == "__main__":
    main()
