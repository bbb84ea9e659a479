"""Certify the oracle sphere+slab defense on synthetic data.

For each poisoned fraction eps the engine reports a certified upper bound on
the minimax training loss, the matching candidate attack's induced loss (the
lower bound), and the regret-based guarantee on their gap.
"""

import numpy as np

import poisoncert as pc


def main():
    ds = pc.generate_gaussian(pc.GaussianSpec(d=2, lam=2.0, n=2000, seed=0))
    stats = pc.class_stats(ds)
    params = pc.calibrate_thresholds(ds, stats, keep_fraction=0.9)
    F = pc.FeasibleSet("oracle", params)
    rho = 1.5

    print(f"n={ds.n}, keep_fraction=0.9, rho={rho}")
    print(f"{'eps':>5} {'upper':>8} {'lower':>8} {'gap':>8} {'regret/T':>9}")
    for eps in (0.05, 0.1, 0.2, 0.3):
        cert = pc.certify_fixed(ds, F, eps, rho, seed=0)
        print(
            f"{eps:5.2f} {cert.upper_bound:8.4f} {cert.lower_bound:8.4f} "
            f"{cert.duality_gap:8.4f} {cert.avg_regret_bound:9.4f}"
        )
    print("\nlower <= minimax loss <= upper on every row, and the gap is")
    print("bounded by the average regret of the dual-averaging learner.")

    # The certificate also hands back the attack itself.
    cert = pc.certify_fixed(ds, F, 0.3, rho, seed=0)
    attacked = pc.evaluate(cert.model_tilde, ds)
    clean_model = pc.train_erm(ds, rho).model
    clean = pc.evaluate(clean_model, ds)
    print(f"\nclean train hinge {clean.avg_hinge:.4f} -> under the eps=0.3 "
          f"candidate attack {attacked.avg_hinge:.4f}")
    uniq = np.unique(np.round(cert.attack.X, 3), axis=0)
    print(f"attack support: {cert.attack.n} points concentrated on "
          f"{len(uniq)} distinct locations")


if __name__ == "__main__":
    main()
