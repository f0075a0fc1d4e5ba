"""Mass of periodic interval unions along a certified frequency set.

A_n places n equal intervals (offset fraction sigma, width fraction tau)
inside n equal blocks of I.  Along frequencies where the normalized
measure's coefficients are certified small, mu(A_n) approaches
tau * mu(I) -- equidistribution in action for a measure with no density.
"""

import numpy as np

from menshov import (MeasureSpec, build_lambda, build_measure, mset_masses,
                     normalize, proposition_scan)


def main():
    mu = build_measure(MeasureSpec.cantor(40))
    nrm = normalize(mu, (0.0, 1.0))
    sigma, tau = 0.2, 0.3

    print("raw masses (no frequency selection): mu(A_n) for the Cantor measure")
    ns = (1, 3, 9, 27, 81, 100, 1000)
    masses = mset_masses(mu, (0.0, 1.0), ns, sigma, tau)
    for n, m in zip(ns, masses):
        print(f"  n={n:5d}  mass {m:.5f}   |mass - 0.3| = {abs(m - 0.3):.5f}")
    print("  (powers of 3 resonate with the Cantor construction and refuse"
          " to converge)\n")

    lam = build_lambda(nrm, K=3, J=3, N_max=2000, m=1)
    scan = proposition_scan(mu, (0.0, 1.0), sigma, tau, lam)
    tail = scan.errors[scan.ns >= 1500]
    print(f"along the certified set ({len(scan.ns)} members, "
          f"density {lam.density:.3f}):")
    print(f"  target tau*mu(I)      = {scan.target:.5f}")
    print(f"  tail sup   (n>=1500)  = {scan.tail_sup:.5f}")
    print(f"  tail median           = {np.median(tail):.5f}")
    print(f"  tail 99th percentile  = {np.quantile(tail, 0.99):.5f}")

    lam5 = build_lambda(nrm, K=5, J=5, N_max=2000, m=1)
    scan5 = proposition_scan(mu, (0.0, 1.0), sigma, tau, lam5)
    print(f"tightening the certificate to 1/5 over |k| <= 5: "
          f"tail sup {scan5.tail_sup:.5f}")


if __name__ == "__main__":
    main()
