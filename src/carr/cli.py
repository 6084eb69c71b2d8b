"""Command-line entry point.

Subcommands: ``synth`` (write a synthetic CSV), ``train`` / ``sweep``
(experiment runs from a JSON config), ``audit`` (property suites over random
instances), ``bound`` (generalization-bound table).  Exit codes: 0 success,
1 runtime error, 2 usage or configuration error.  The ``CARR_SEED``
environment variable overrides the default seed everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

from . import bounds as bounds_mod
from . import dataio, infometrics, scm as scm_mod
from .model import init_params
from .numkit import ConfigurationError, Rng, grad_check
from .objective import loss_and_grads, loss_values
from .trainer import RunConfig, run_experiment, sweep

__all__ = ["main", "build_parser", "run_audit"]


def _default_seed() -> int:
    return int(os.environ.get("CARR_SEED", "0"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="carr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="write a synthetic dataset CSV")
    p_synth.add_argument("--beta", type=float, required=True)
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--out", required=True)
    p_synth.add_argument("--nc-cols", type=int, default=0)
    p_synth.add_argument("--shared-noise", action="store_true")

    for name in ("train", "sweep"):
        p = sub.add_parser(name, help=f"{name} from a JSON config")
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None,
                       help="report path (train) or directory (sweep)")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        if name == "sweep":
            p.add_argument("--seeds", type=int, default=5)

    p_audit = sub.add_parser("audit", help="run a property suite")
    p_audit.add_argument("--what", required=True,
                         choices=["dpi", "lemma1", "lemma2", "pns", "gradcheck"],
                         help="dpi (the data-processing inequality) and lemma2 (a "
                         "consequence of the chain rule) check theorems that hold "
                         "for every table, so they test mutual_info's arithmetic, "
                         "not a claim of the paper; lemma1 checks the paper's "
                         "Lemma 1 (it can fail on shape b), pns the PNS "
                         "decomposition, gradcheck the carr gradient")
    p_audit.add_argument("--trials", type=int, default=200)
    p_audit.add_argument("--seed", type=int, default=None)
    p_audit.add_argument("--shape", choices=["a", "b"], default="a",
                         help="causal shape for the lemma suites")

    p_bound = sub.add_parser("bound", help="print a generalization-bound table")
    p_bound.add_argument("--card-y", type=int, default=2)
    p_bound.add_argument("--card-z", type=int, default=64)
    p_bound.add_argument("--beta", type=float, default=0.3)
    p_bound.add_argument("--delta", type=float, default=0.05)
    p_bound.add_argument("--C", type=float, default=16.0)
    p_bound.add_argument("--m-grid", default="1e4,1e5,1e6,1e7",
                         help="comma-separated sample counts")
    return parser


def cmd_synth(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    cfg = scm_mod.SynthConfig(beta=args.beta, n=args.n, seed=seed,
                              nc_cols=args.nc_cols, shared_noise=args.shared_noise)
    data = scm_mod.generate(cfg)
    dataio.write_csv(data, args.out)
    print(f"wrote {len(data)} samples to {args.out} "
          f"(label rate {data.y.mean():.4f}, seed {seed})")
    return 0


def _load_config(path, seed_override) -> RunConfig:
    with open(path) as fh:
        doc = json.load(fh)
    cfg = RunConfig.from_dict(doc)
    if seed_override is not None:
        return replace(cfg, seed=seed_override)
    if "seed" not in doc and "CARR_SEED" in os.environ:
        return replace(cfg, seed=_default_seed())
    return cfg


def cmd_train(args) -> int:
    cfg = _load_config(args.config, args.seed)
    report = run_experiment(cfg)
    if args.out is not None:
        dataio.save_report(report, args.out)
    print(json.dumps(report["metrics"], indent=2, sort_keys=True))
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_config(args.config, args.seed)
    result = sweep(cfg, args.seeds, out_dir=args.out)
    print(json.dumps(result["summary"]["aggregate"], indent=2, sort_keys=True))
    return 0


def _worse(worst: float, margin: float) -> float:
    """The larger of two margins, or NaN once either is NaN."""
    return margin if margin > worst or margin != margin else worst


def run_audit(what: str, trials: int, seed: int, shape: str = "a"):
    """Run a named property suite; returns (failures, worst_margin)."""
    return _audit(what, trials, seed, shape)[:2]


def _audit(what: str, trials: int, seed: int, shape: str = "a"):
    """:func:`run_audit`, also returning how many trials were audited (a
    ``pns`` trial whose conditioning event has probability zero is skipped)
    and, for ``lemma2``, the worst margin of its second inequality alone,
    since its first holds for every table (None for the other suites)."""
    if trials < 0:
        raise ConfigurationError(f"trials must be >= 0, got {trials}")
    failures = 0
    worst = 0.0
    worst2 = 0.0 if what == "lemma2" else None
    skipped = 0
    if what == "dpi":
        for i in range(trials):
            table = infometrics.random_markov_chain(Rng(seed, stream=10 + i))
            lhs = infometrics.mutual_info(table, ("x",), ("z",))
            rhs = infometrics.mutual_info(table, ("x",), ("y",))
            margin = rhs - lhs
            worst = _worse(worst, margin)
            failures += 0 if margin <= 1e-10 else 1
    elif what in ("lemma1", "lemma2"):
        for i in range(trials):
            model = scm_mod.random_scm(Rng(seed, stream=10 + i), shape=shape)
            ineqs = ((infometrics.check_lemma1(model),) if what == "lemma1"
                     else infometrics.check_lemma2(model))
            for lhs, rhs, _ in ineqs:
                worst = _worse(worst, lhs - rhs)
            if what == "lemma2":
                worst2 = _worse(worst2, ineqs[1][0] - ineqs[1][1])
            failures += 0 if all(ok for _, _, ok in ineqs) else 1
    elif what == "pns":
        for i in range(trials):
            model = scm_mod.random_scm(Rng(seed, stream=10 + i), shape=shape)
            worlds = scm_mod._worlds(model)  # one build for both oracles
            try:
                suff, nec, combined, alt = infometrics.pns(
                    model, "pa", 0, "y", 0, z_alt=1, worlds=worlds
                )
            except infometrics.QueryError:
                skipped += 1
                continue
            joint = scm_mod.enumerate_joint(model, worlds).marginal(("pa", "y"))
            p_event = float(joint[0, 0])
            margin = abs((combined - alt) - p_event)
            worst = _worse(worst, max(margin, combined - 1.0, -combined))
            failures += 0 if margin <= 1e-10 and 0.0 <= combined <= 1.0 + 1e-10 else 1
    elif what == "gradcheck":
        for i in range(trials):
            rng = Rng(seed, stream=10 + i)
            params = init_params(rng, d_in=5, d_z=3)
            xb = rng.uniform(-1, 1, size=(4, 5))
            yb = rng.integers(0, 2, size=4)
            kw = dict(eps_std=rng.standard_normal(size=(4, 3)),
                      attack_delta=0.05 * rng.standard_normal(size=(4, 3)),
                      neg_delta=0.05 * rng.standard_normal(size=(4, 3)))
            _, analytic = loss_and_grads(params, xb, yb, "carr", **kw)
            err = grad_check(
                lambda vecs, changed: loss_values(params, vecs, xb, yb, "carr",
                                                  changed=changed, **kw),
                analytic, params.flat,
            )
            worst = _worse(worst, err)
            failures += 0 if err <= 1e-4 else 1
    else:
        raise ConfigurationError(f"unknown audit suite {what!r}")
    return failures, worst, trials - skipped, worst2


def cmd_audit(args) -> int:
    if args.trials == 0:  # run_audit rejects a negative count
        raise ConfigurationError("trials must be >= 1: an audit of 0 trials checks nothing")
    seed = args.seed if args.seed is not None else _default_seed()
    failures, worst, audited, worst2 = _audit(args.what, args.trials, seed, args.shape)
    skipped = args.trials - audited
    ok = failures == 0 and audited > 0  # a suite that audits nothing fails
    print(f"{args.what}: {audited - failures}/{audited} hold, "
          + (f"{skipped} skipped (zero-probability event), " if skipped else "")
          + f"worst margin {worst:.3e}"
          + (f", inequality 2 alone {worst2:.3e}" if worst2 is not None else "")
          + f" [{'ok' if ok else 'FAILED'}]")
    return 0 if ok else 1


def _sample_count(token: str) -> int:
    value = float(token)
    if not value.is_integer():  # also inf and NaN
        raise ConfigurationError(f"--m-grid entries must be whole numbers, got {token!r}")
    return int(value)


def cmd_bound(args) -> int:
    # every row's inputs and thresholds are checked before the header is printed
    rows = []
    for token in args.m_grid.split(","):
        inputs = bounds_mod.BoundInputs(m=_sample_count(token), card_y=args.card_y,
                                        card_z=args.card_z, beta=args.beta,
                                        delta=args.delta, C=args.C)
        rows.append((inputs, bounds_mod.min_samples("general", inputs),
                     bounds_mod.min_samples("ideal", inputs)))
    print(f"{'m':>12} {'threshold_gen':>14} {'threshold_ideal':>16} "
          f"{'bound_general':>14} {'bound_ideal':>12}")
    for inputs, t_gen, t_ideal in rows:
        bg = bounds_mod.bound_general(inputs) if inputs.m >= t_gen else float("nan")
        bi = bounds_mod.bound_ideal(inputs) if inputs.m >= t_ideal else float("nan")
        print(f"{inputs.m:>12d} {t_gen:>14d} {t_ideal:>16d} {bg:>14.6g} {bi:>12.6g}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {"synth": cmd_synth, "train": cmd_train, "sweep": cmd_sweep,
                "audit": cmd_audit, "bound": cmd_bound}
    try:
        return handlers[args.command](args)
    except infometrics.MetricError as exc:  # a ValueError, but a runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConfigurationError, ValueError, KeyError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
