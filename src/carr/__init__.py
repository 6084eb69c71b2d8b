"""Causal representation learning workbench: mutual-information objectives,
counterfactual-vulnerability regularization, PGD perturbation, an SCM data
simulator, exact discrete information/PNS oracles, and finite-sample
generalization bounds.
"""

from .attack import AttackSpec, pgd_attack, project, random_ball
from .bounds import BoundInputs, bound_general, bound_ideal, min_samples
from .infometrics import (
    JointTable,
    acc,
    auc,
    check_lemma1,
    check_lemma2,
    distance_correlation,
    entropy,
    mutual_info,
    pns,
)
from .model import EncoderOutput, ModelParams, encode, init_params, predict
from .numkit import DenseLayer, Rng, dense_backward, dense_forward, elu, grad_check
from .objective import LossBreakdown, intervene, kl_gaussian, loss_and_grads
from .scm import (
    DiscreteSCM,
    SynthConfig,
    counterfactual_query,
    enumerate_joint,
    generate,
    kappa1,
    random_scm,
)
from .trainer import MetricsReport, RunConfig, evaluate, run_experiment, sweep, train

__version__ = "0.1.0"
