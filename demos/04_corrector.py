"""The piecewise-linear corrector and its four verified properties.

On [c, d] the construction keeps a set E of large Lebesgue measure where
psi = gamma exactly, while deep narrow dips cancel the integral over each
period, keeping the running integral below eps everywhere.
"""

import numpy as np

from menshov import (CorrectorParams, build_psi, choose_r, kernel_sup,
                     layout, running_integral_sup)
from menshov.corrector import _kernel_rows


def main():
    c, d, gamma, eps, nu = 0.0, 1.0, 1.0, 0.1, 10
    r = choose_r(c, d, gamma, eps, nu)
    lay = layout(CorrectorParams(c, d, gamma, eps, nu, r))
    psi = build_psi(lay, gamma, nu)

    print(f"parameters: gamma={gamma}, eps={eps}, nu={nu} -> r={r}, "
          f"q={lay.q}, delta={lay.delta:.6f}")
    print(f"kept set E: {lay.e_intervals.shape[0]} closed intervals in "
          f"[{lay.a_prime:.3f}, {lay.b_prime:.3f}], "
          f"Lebesgue(E) = {lay.lebesgue_e():.4f} "
          f">= (d-c)(1 - 5/nu) = {(d - c) * (1 - 5 / nu):.4f}")

    print("\nproperty checks")
    print(f"  (1) sup|psi| = {np.max(np.abs(psi.ys)):.1f} "
          f"<= 2 nu |gamma| = {2 * nu * abs(gamma):.1f}")
    mid = lay.e_intervals[3].mean()
    print(f"  (2) psi on E: psi({mid:.4f}) = {psi(mid)} (= gamma exactly)")
    sup = running_integral_sup(psi)
    print(f"  (3) sup |running integral| = {sup:.5f} < eps = {eps}")
    sup_k, b_hat = kernel_sup(psi, j_max=16, x_grid=64, nu=nu, gamma=gamma)
    print(f"  (4) oscillatory-kernel sup (j <= 16) = {sup_k:.4f}, "
          f"normalized B-hat = {b_hat:.4f}")

    print("\nkernel bound at dip-resolving frequencies "
          "(where the constant actually lives):")
    for nu_s, r_s in [(16, 1), (32, 1), (64, 2)]:
        eps_s = 16.0 * 2 * np.pi / (r_s * nu_s)
        lay_s = layout(CorrectorParams(0.0, 2 * np.pi, 1.0, eps_s, nu_s, r_s))
        psi_s = build_psi(lay_s, 1.0, nu_s)
        j_star = max(1, int(round(0.5 / lay_s.delta)))
        # row j* of the kernel at the removed-interval midpoints
        xs = lay_s.removed.mean(axis=1)
        *_, rows = _kernel_rows(psi_s, j_star, xs)
        b_res = float(np.max(np.abs(rows[-1]))) / nu_s
        print(f"  nu={nu_s:3d}, r={r_s}: j* = {j_star:5d}, "
              f"B-hat at j* = {b_res:.3f}")


if __name__ == "__main__":
    main()
