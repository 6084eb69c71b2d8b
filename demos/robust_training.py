"""Train the four methods on synthetic data and compare them under attack.

Methods: plain cross-entropy (base), the KL-regularized bottleneck (ib),
rcvae, which assembles the same loss as ib today, and the full objective
with the counterfactual negative term (carr).  Any method trains on
PGD-attacked representations when its training mode is robust; here rcvae
and carr do, so rcvae differs from ib only in that.  Evaluation attacks the
learned representation with 10-step PGD in an L2 ball of radius 0.3.

The robustness story is stark: methods trained on attacked representations
keep most of their attacked AUC, the rest collapse.  The dcor columns show
how strongly z stays tied to each ground-truth block.

Run:  python demos/robust_training.py   (roughly 10 seconds)
"""

from carr.attack import AttackSpec
from carr.trainer import RunConfig, run_experiment

ROWS = [
    ("base", "standard", False),
    ("ib", "standard", False),
    ("rcvae", "robust", False),
    ("carr", "robust", True),
]


def main():
    print(f"{'method':>7} {'mode':>9} {'auc':>6} {'adv_auc':>8} {'acc':>6} "
          f"{'adv_acc':>8} {'dcor_pa':>8} {'dcor_nd':>8} {'dcor_dc':>8}")
    for method, mode, stop_grad in ROWS:
        beta = 0.3 if mode == "robust" else 0.0
        cfg = RunConfig(
            method=method, training_mode=mode,
            attack=AttackSpec(p="2", beta=beta),
            eval_attack=AttackSpec(p="2", beta=0.3),
            lr=0.001, seed=0, stop_grad_negative=stop_grad,
            dataset={"kind": "synthetic", "beta": 0.3, "n": 500},
        )
        m = run_experiment(cfg)["metrics"]
        print(f"{method:>7} {mode:>9} {m['auc']:>6.3f} {m['adv_auc']:>8.3f} "
              f"{m['acc']:>6.3f} {m['adv_acc']:>8.3f} {m['dcor_pa']:>8.3f} "
              f"{m['dcor_nd']:>8.3f} {m['dcor_dc']:>8.3f}")

    print()
    print("note: the full objective's negative term is unbounded and dominates "
          "carr training whether or not its gradient reaches the encoder "
          "(stop_grad_negative=True, used here, only slows the collapse); the "
          "divergence of that term, not the conditional prior, is what pulls "
          "carr's dcor_pa below base's")


if __name__ == "__main__":
    main()
