"""Head-to-head: label flipping, gradient ascent, and the certificate attack.

The certificate attack falls out of the upper-bound computation for free and
consistently dominates the two standard baselines: flipping is too weak once
the defense tightens, and the alternating gradient heuristic stalls in local
optima of its bilevel objective.
"""

import poisoncert as pc


def induced_clean_loss(ds, attack, rho):
    model = pc.train_erm(pc.concat(ds, attack) if attack.n else ds, rho).model
    return pc.evaluate(model, ds).avg_hinge


def main():
    ds = pc.generate_gaussian(pc.GaussianSpec(d=2, lam=2.0, n=400, seed=2))
    stats = pc.class_stats(ds)
    params = pc.calibrate_thresholds(ds, stats, keep_fraction=0.9)
    F = pc.FeasibleSet("oracle", params)
    eps, rho = 0.15, 2.0

    flip = pc.label_flip_attack(ds, F, eps, seed=0)
    grad = pc.gradient_attack(ds, F, eps, rho, steps=12, step_size=0.2, seed=0)
    cert = pc.certify_fixed(ds, F, eps, rho, seed=0)

    clean = pc.evaluate(pc.train_erm(ds, rho).model, ds).avg_hinge
    print(f"clean train hinge: {clean:.4f}   (eps={eps}, keep=0.9)")
    print(f"label flip    ({flip.n:3d} pts): {induced_clean_loss(ds, flip, rho):.4f}")
    print(f"gradient      ({grad.dataset.n:3d} pts): "
          f"{induced_clean_loss(ds, grad.dataset, rho):.4f}")
    print(f"certificate   ({cert.attack.n:3d} pts): "
          f"{induced_clean_loss(ds, cert.attack, rho):.4f}")
    print(f"certified upper bound on any attack: {cert.upper_bound:.4f}")
    print("\ngradient baseline clean-loss trace per outer iteration:")
    print("  " + " ".join(f"{v:.4f}" for v in grad.clean_loss_trace))


if __name__ == "__main__":
    main()
