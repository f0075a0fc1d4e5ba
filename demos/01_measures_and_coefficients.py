"""Measures as CDFs, and their Fourier-Stieltjes coefficients.

Builds Lebesgue, purely atomic, and Cantor measures, prints a few interval
masses, and compares the computed Cantor coefficients against the classical
infinite-product formula.
"""

import numpy as np

from menshov import MeasureSpec, build_measure, normalize, spectrum


def main():
    lebesgue = build_measure(MeasureSpec.lebesgue((0.0, 2 * np.pi)))
    atomic = build_measure(MeasureSpec.atomic([(1.0, 0.3), (2.5, 0.7)],
                                              (0.0, 2 * np.pi)))
    cantor = build_measure(MeasureSpec.cantor(40))

    print("interval masses")
    print(f"  Lebesgue [0, pi]          = {lebesgue.interval_mass(0, np.pi):.6f}")
    print(f"  atomic   [0.5, 1.5]       = {atomic.interval_mass(0.5, 1.5):.6f}")
    print(f"  Cantor   [0, 1/3]         = {cantor.interval_mass(0, 1/3):.6f}")
    print(f"  Cantor   (1/3, 2/3) open  = "
          f"{cantor.interval_mass(1/3 + 1e-9, 2/3 - 1e-9):.6f}")

    nrm = normalize(cantor, (0.0, 1.0))
    freqs = np.array([1, 2, 3, 9, 27])
    vals, errs = spectrum(nrm, freqs.max()).coefficients(freqs)
    k = np.arange(1, 41)
    print("\nCantor coefficients vs the product formula "
          "e^{-pi i j} prod cos(2 pi j / 3^k)")
    for f, v, e in zip(freqs, vals, errs):
        prod = np.exp(-1j * np.pi * f) * np.prod(np.cos(2 * np.pi * f / 3.0**k))
        print(f"  j={f:3d}  computed {v.real:+.6f}{v.imag:+.6f}i   "
              f"product {prod.real:+.6f}{prod.imag:+.6f}i   "
              f"certified error {e:.2e}")

    _, (err,) = spectrum(nrm, 1, refinement=1 << 20).coefficients([1])
    print(f"\nhigher refinement shrinks the certificate: j=1 error {err:.2e}")


if __name__ == "__main__":
    main()
