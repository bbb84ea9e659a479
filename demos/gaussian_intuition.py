"""Why outlier-removal defenses struggle in high dimension.

Two well-separated unit-variance Gaussians look trivially classifiable, yet a
point placed at the far side of the opposite class is no farther from its own
centroid than a typical sample. Enough such points flip the learned direction
outright. This script measures the clean error, the sqrt(d) geometry, and the
empirical flipping threshold.
"""

import math

import numpy as np

import poisoncert as pc


def main():
    # Clean task: ideal classifier sign(x1) at lam=2 errs ~2.3%.
    ds = pc.generate_gaussian(pc.GaussianSpec(d=1, lam=2.0, n=100_000, seed=11))
    err = float(np.mean(np.sign(ds.X[:, 0]) != ds.y))
    print(f"clean 0/1 error of sign(x1) at lam=2: {err:.4f} (Phi(-2) = 0.0228)")

    # Geometry: distance to own centroid ~ sqrt(d) dwarfs the class gap 2*lam.
    d = 400
    big = pc.generate_gaussian(pc.GaussianSpec(d=d, lam=2.0, n=2000, seed=5))
    stats = pc.class_stats(big)
    pos = big.X[big.y == 1]
    mean_dist = float(np.linalg.norm(pos - stats.mu_plus, axis=1).mean())
    print(f"d={d}: mean distance to centroid {mean_dist:.1f} ~ sqrt(d) = {math.sqrt(d):.1f}; "
          f"centroid gap {np.linalg.norm(stats.mu_plus - stats.mu_minus):.1f}")

    # Mean-shift attack: positive-labeled points at -(sqrt(d)-lam)e1 and vice
    # versa. Sweep eps and watch the learned first coordinate flip sign.
    spec = pc.GaussianSpec(d=d, lam=2.0, n=500, seed=0)
    clean = pc.generate_gaussian(spec)
    print("\n eps   theta_1 (trained on clean + attack)")
    for eps in (0.02, 0.05, 0.08, 0.12, 0.2, 0.4):
        attack = pc.gaussian_attack_points(spec, eps)
        model = pc.train_erm(pc.concat(clean, attack), 2.0).model
        print(f" {eps:4.2f}  {model.theta[0]:+.4f}")
    print("\nthe sign flips once eps passes a modest threshold; the defense-free")
    print("learner is fully steered by points that no centroid test can flag.")


if __name__ == "__main__":
    main()
