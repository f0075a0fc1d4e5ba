"""Cesaro averages of squared coefficients, and density-1 index sets.

The running average of |nu-hat(n)|^2 converges to the sum of squared atom
masses: zero exactly when the measure has no atoms.  For non-atomic
measures that makes the certified index sets (frequencies with provably
small coefficients) carry density 1.
"""

import numpy as np

from menshov import (MeasureSpec, build_measure, build_lambda, normalize,
                     wiener_scan)


def main():
    cases = {
        "two atoms (0.3, 0.7)": MeasureSpec.atomic(
            [(np.sqrt(2) - 1, 0.3), (np.sqrt(3) - 1, 0.7)], (0.0, 1.0)),
        "Cantor (levels=40)": MeasureSpec.cantor(40),
        "0.7 Cantor + 0.3 uniform": MeasureSpec.mixture(
            [(0.7, MeasureSpec.cantor(40)),
             (0.3, MeasureSpec.lebesgue((0.0, 1.0)))]),
    }
    print("running averages (1/(N+1)) sum |nu-hat(n)|^2")
    for name, spec in cases.items():
        nu = normalize(build_measure(spec), (0.0, 1.0))
        # the last running average of wiener_scan is the average up to N
        row = "  ".join(f"N={N}: {wiener_scan(nu, 1, N)[2][-1]:.5f}"
                        for N in (100, 1000, 5000))
        print(f"  {name:28s} {row}")
    print("  (two atoms -> 0.3^2 + 0.7^2 = 0.58; non-atomic -> 0)\n")

    cantor = normalize(build_measure(MeasureSpec.cantor(40)), (0.0, 1.0))
    for J in (3, 5):
        lam = build_lambda(cantor, K=3, J=J, N_max=2000, m=1)
        print(f"index set for the Cantor measure, |coeff| <= 1/{J} certified "
              f"for all |k| <= 3: density {lam.density:.4f}, "
              f"{len(lam.members)} members up to 2000")
    lam3 = build_lambda(cantor, K=3, J=3, N_max=2000, m=3)
    print(f"restricted to multiples of 3: density {lam3.density:.4f} "
          "over all n <= 2000 (close to 1/3: nearly every multiple survives)")


if __name__ == "__main__":
    main()
