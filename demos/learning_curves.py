"""Exact learning curves on finite SCMs: what learning from pa alone buys.

A plug-in rule predicts y from Z = pa, Z = (pa, nd) or Z = (pa, nd, dc) on
random pa/nd/y/dc models (``carr.scm.random_scm``, ``max_domain`` 4).  It
learns from m rows, drawn as one multinomial from the model's exact joint:
the majority label of each cell, and the sample's majority label in a cell
that no row reached.  It is then scored exactly, with no test sample: on
the joint it learned from (iid), and on the joint after dc's table is
redrawn, or nd's.  Each rule's excess risk is its Bayes accuracy on the iid
joint minus its iid accuracy.

Neither redraw touches P(pa, y), so the pa rule scores the same under both
shifts; the rules that read nd or dc learn a relation that the shift
breaks.  Shape "b" (pa -> dc as well) is printed beside shape "a".

Run:  python demos/learning_curves.py [--models N]
"""

import argparse

import numpy as np

from carr.numkit import Rng
from carr.scm import DiscreteSCM, enumerate_joint, random_scm

NAMES = ("pa", "nd", "y", "dc")  # the axes of enumerate_joint's table
SIZES = (10, 30, 100, 300, 1000, 3000)
RULES = {"pa": ("pa",), "pa, nd": ("pa", "nd"), "all": ("pa", "nd", "dc")}
SETTINGS = ("iid", "dc", "nd")  # the joint as drawn, then each table redrawn
DRAWS = 50  # samples of m rows per model and m


def redrawn(model: DiscreteSCM, node: str, rng) -> DiscreteSCM:
    """``model`` with ``node``'s table drawn afresh, in its shape and domain."""
    tables = dict(model.tables)
    tables[node] = rng.integers(0, model.domains[node], size=tables[node].shape)
    return DiscreteSCM(order=model.order, domains=model.domains,
                       parents=model.parents, tables=tables,
                       exo_dists=model.exo_dists)


def by_cell(a: np.ndarray, z: tuple) -> np.ndarray:
    """Sum ``a``, of shape (..., pa, nd, y, dc), to (..., cells of z, y)."""
    kept = [v for v in NAMES if v in z or v == "y"]
    a = a.sum(axis=tuple(i - len(NAMES) for i, v in enumerate(NAMES) if v not in kept))
    a = np.moveaxis(a, kept.index("y") - len(kept), -1)
    return a.reshape(*a.shape[:a.ndim - len(kept)], -1, a.shape[-1])


def curves(shape: str, models: int, draws: int = DRAWS, seed: int = 7):
    """Exact accuracies of each rule learned at each m in ``SIZES``.

    Returns ``(acc, bayes)``: ``acc[rule][setting]`` has shape (models,
    sizes, draws), and ``bayes[rule]`` (models,) is the rule's Bayes
    accuracy on the iid joint.  Model i comes from ``Rng(seed, stream=i)``,
    its redrawn dc and nd tables from seeds ``seed + 1`` and ``seed + 2``,
    and its samples from ``seed + 3``, each on stream i.
    """
    acc = {r: {s: np.empty((models, len(SIZES), draws)) for s in SETTINGS}
           for r in RULES}
    bayes = {r: np.empty(models) for r in RULES}
    for i in range(models):
        model = random_scm(Rng(seed, stream=i), shape=shape, max_domain=4)
        joints = {"iid": enumerate_joint(model).probs}
        for k, node in enumerate(SETTINGS[1:]):
            shifted = redrawn(model, node, Rng(seed + 1 + k, stream=i))
            joints[node] = enumerate_joint(shifted).probs
        cells = {r: {s: by_cell(p, z) for s, p in joints.items()}
                 for r, z in RULES.items()}
        for r in RULES:
            bayes[r][i] = cells[r]["iid"].max(axis=-1).sum()
        rng = Rng(seed + 3, stream=i)
        for j, m in enumerate(SIZES):
            rows = rng.multinomial(m, joints["iid"].ravel(), size=draws)
            rows = rows.reshape(draws, *joints["iid"].shape)
            for r, z in RULES.items():
                counts = by_cell(rows, z)  # (draws, cells, y)
                majority = counts.sum(axis=1).argmax(axis=-1)
                rule = np.where(counts.sum(axis=-1) > 0, counts.argmax(axis=-1),
                                majority[:, None])  # (draws, cells) -> label
                for s, p in cells[r].items():
                    acc[r][s][i, j] = p[np.arange(p.shape[0]), rule].sum(axis=1)
    return acc, bayes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--models", type=int, default=200)
    args = parser.parse_args(argv)
    for shape in "ab":
        acc, bayes = curves(shape, args.models)
        print(f"=== shape {shape}: {args.models} models, {DRAWS} samples per m; "
              "mean exact accuracy ===")
        print(f"{'rule':8s} {'scored on':10s}"
              + "".join(f"{'m=' + str(m):>8s}" for m in SIZES) + f"{'Bayes':>8s}")
        for r in RULES:
            for s in SETTINGS:
                means = acc[r][s].mean(axis=(0, 2))
                tail = f"{bayes[r].mean():8.3f}" if s == "iid" else ""
                label = "iid" if s == "iid" else f"{s} redrawn"
                print(f"{r:8s} {label:10s}" + "".join(f"{v:8.3f}" for v in means) + tail)
        print("excess risk (Bayes - iid accuracy):")
        for r in RULES:
            excess = bayes[r].mean() - acc[r]["iid"].mean(axis=(0, 2))
            print(f"{r:8s} {'':10s}" + "".join(f"{v:8.3f}" for v in excess))
        print()


if __name__ == "__main__":
    main()
