"""Certifying text-style data: integer count features.

Attack points on count data must be non-negative integer vectors. The upper
bound comes from relaxing integrality (still sound); the candidate attack is
produced by randomized rounding of the continuous optimum with a greedy
feasibility repair.
"""

import numpy as np

import poisoncert as pc


def main():
    rng = np.random.default_rng(0)
    X = np.vstack([
        rng.poisson(3.0, size=(120, 6)),
        rng.poisson(1.0, size=(120, 6)),
    ]).astype(float)
    y = np.array([1] * 120 + [-1] * 120)
    ds = pc.Dataset(X, y, integer_features=True)

    stats = pc.class_stats(ds)
    params = pc.calibrate_thresholds(ds, stats, keep_fraction=0.8)
    F = pc.FeasibleSet("oracle", params, integer_features=True)
    model = pc.train_erm(ds, 1.0).model

    res = pc.max_loss_integer(params, model, budget=1000, seed=7, coord_cap=ds.X.max(axis=0))
    relaxed_loss = res.relaxed.losses.max()
    k = int(np.argmax(res.losses))  # one row per class, labels (+1, -1)
    print("worst feasible point against the trained model:")
    print(f"  continuous relaxation loss: {relaxed_loss:.4f}")
    print(f"  best rounded integer point: {res.X[k]} (label {(1, -1)[k]:+d})")
    print(f"  its hinge loss: {res.losses[k]:.4f} (integrality gap "
          f"{relaxed_loss - res.losses[k]:.4f})")

    cert = pc.certify_fixed(ds, F, eps=0.2, rho=1.0, seed=7, rounding_budget=500)
    print(f"\neps=0.2 certificate: upper {cert.upper_bound:.4f} (relaxed), "
          f"lower {cert.lower_bound:.4f} (rounded attack)")
    print(f"attack of {cert.attack.n} integer points, all passing the defense")


if __name__ == "__main__":
    main()
