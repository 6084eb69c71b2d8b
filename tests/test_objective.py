"""Loss-term tests: KL closed form, intervention shift, each method's terms,
and end-to-end analytic gradients, also as a derandomized property test."""

import numpy as np
import pytest

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # in the `test` extra; only the property test needs it
    given = None

from carr.model import LOGVAR_CLAMP, encode, init_params, predictor_xent
from carr.numkit import ConfigurationError, Rng, grad_check
from carr.objective import (
    METHODS,
    encoded_loss_and_grads,
    intervene,
    kl_gaussian,
    loss_and_grads,
    loss_values,
)


def test_kl_gaussian_matching_prior_is_zero():
    mean = np.zeros((3, 4))
    assert kl_gaussian(mean, np.zeros_like(mean), np.zeros(4)) == 0.0


def test_kl_gaussian_unit_shift():
    # each shifted dimension contributes 1/2
    mean = np.ones((2, 4))
    assert abs(kl_gaussian(mean, np.zeros_like(mean), np.zeros(4)) - 2.0) < 1e-12


def test_kl_gaussian_variance_term():
    # var = 2: per dim 0.5 * (2 - 1 - ln 2)
    mean = np.zeros((1, 3))
    logvar = np.full((1, 3), np.log(2.0))
    expected = 3 * 0.5 * (1.0 - np.log(2.0))
    assert abs(kl_gaussian(mean, logvar, np.zeros(3)) - expected) < 1e-12


def test_kl_gaussian_shape_check():
    with pytest.raises(ConfigurationError):
        kl_gaussian(np.zeros((2, 3)), np.zeros((2, 4)), np.zeros(3))
    with pytest.raises(ConfigurationError):  # one sample is a (1, d) batch
        kl_gaussian(np.zeros(3), np.zeros(3), np.zeros(3))


def test_kl_gaussian_monte_carlo():
    # quick sanity version of the acceptance check
    rng = Rng(0)
    mean = rng.uniform(-1, 1, size=(1, 6))
    logvar = rng.uniform(-1, 1, size=(1, 6))
    prior = rng.uniform(-1, 1, size=6)
    closed = kl_gaussian(mean, logvar, prior)
    std = np.exp(0.5 * logvar)
    draws = mean + std * rng.normal(size=(20000, 6))
    log_q = (-0.5 * ((draws - mean) / std) ** 2 - 0.5 * logvar).sum(axis=1)
    log_p = (-0.5 * (draws - prior) ** 2).sum(axis=1)
    samples = log_q - log_p
    se = samples.std() / np.sqrt(samples.size)
    assert abs(samples.mean() - closed) < 4 * se


def test_intervene_shift():
    z = np.zeros((4, 3))
    y = np.array([0, 1, 0, 1])
    out = intervene(z, y, b=0.8)
    assert np.allclose(out[y == 0], 0.8)
    assert np.allclose(out[y == 1], -0.8)


def _batch(seed, n=4, d_in=5, d_z=3):
    rng = Rng(seed, stream=50)
    params = init_params(rng, d_in=d_in, d_z=d_z)
    x = rng.uniform(-1, 1, size=(n, d_in))
    y = rng.integers(0, 2, size=n)
    eps = rng.normal(size=(n, d_z))
    delta = 0.05 * rng.normal(size=(n, d_z))
    neg = 0.05 * rng.normal(size=(n, d_z))
    return params, x, y, eps, delta, neg


def _offsets(mode, eps, delta, neg):
    return dict(eps_std=eps,
                attack_delta=delta if mode in ("rcvae", "carr") else None,
                neg_delta=neg if mode == "carr" else None)


def _gradcheck(params, x, y, mode, **kw):
    _, analytic = loss_and_grads(params, x, y, mode, **kw)
    return grad_check(lambda vecs, changed: loss_values(params, vecs, x, y, mode,
                                                        changed=changed, **kw),
                      analytic, params.flat)


# the terms each method adds to -positive_ll, in the order they are added
_TERMS = {"base": (), "ib": ("kl",), "rcvae": ("kl",), "carr": ("kl", "negative_ll")}


@pytest.mark.parametrize("mode", METHODS)
def test_loss_total_adds_the_methods_terms(mode):
    params, x, y, eps, delta, neg = _batch(seed=4)
    weights = {"kl": 0.01, "negative_ll": 0.5}
    out, _ = loss_and_grads(params, x, y, mode, lam=weights["kl"],
                            neg_weight=weights["negative_ll"],
                            **_offsets(mode, eps, delta, neg))
    total = -out.positive_ll
    for term in ("kl", "negative_ll"):
        value = getattr(out, term)
        assert (value is not None) == (term in _TERMS[mode])
        if value is not None:
            total += weights[term] * value
    assert out.total == total  # bit for bit


def test_lambda_linearity():
    params, x, y, eps, *_ = _batch(seed=5)
    low, _ = loss_and_grads(params, x, y, "ib", eps_std=eps, lam=0.001)
    high, _ = loss_and_grads(params, x, y, "ib", eps_std=eps, lam=0.201)
    assert (high.positive_ll, high.kl) == (low.positive_ll, low.kl)
    assert abs((high.total - low.total) - 0.2 * low.kl) < 1e-12


def test_unknown_method_rejected():
    params, x, y, *_ = _batch(seed=6)
    with pytest.raises(ConfigurationError, match="unknown method 'vae'"):
        loss_and_grads(params, x, y, "vae")
    with pytest.raises(ConfigurationError, match="unknown method 'vae'"):
        loss_values(params, params.flat[None], x, y, "vae")


@pytest.mark.parametrize("mode", METHODS)
def test_loss_and_grads_finite_difference(mode):
    params, x, y, eps, delta, neg = _batch(seed=3)
    assert _gradcheck(params, x, y, mode, **_offsets(mode, eps, delta, neg)) < 1e-4


@pytest.mark.parametrize("n", [4, 20], ids=["d_in", "d_in-n20"])
@pytest.mark.parametrize("mode", METHODS)
def test_loss_values_equals_loss_and_grads_totals(n, mode):
    params, x, y, eps, delta, neg = _batch(1, n=n)
    kw = _offsets(mode, eps, delta, neg)
    vecs = params.flat + 0.01 * Rng(2).normal(size=(9, params.flat.size))
    totals = loss_values(params, vecs, x, y, mode, **kw)
    assert totals.shape == (9,)
    for vec, total in zip(vecs, totals):
        params.from_vector(vec)
        breakdown, _ = loss_and_grads(params, x, y, mode, **kw)
        assert type(breakdown.total) is float
        assert breakdown.total == total  # bit for bit


def _changed_cases(params):
    # ranges as a gradient check's chunks run: ending in the middle of each
    # parameter array, one before and at its end, and one after it (in the
    # next layer), each one and 56 coordinates wide and from 0
    size = params.flat.size
    stops = np.cumsum([a.size for layer in (params.enc_hidden, params.enc_head,
                                            params.pred_hidden, params.pred_out)
                       for a in (layer.weights, layer.bias)])
    ends = set()
    for start, stop in zip(np.r_[0, stops[:-1]], stops):
        ends |= {(start + stop) // 2, stop - 1, stop, stop + 1}
    return sorted({range(max(0, end - width), end) for end in ends if 0 < end <= size
                   for width in (1, 56, end)}, key=lambda r: (r.stop, r.start))


@pytest.mark.parametrize("n", [4, 20], ids=["d_in", "d_in-n20"])
@pytest.mark.parametrize("mode", METHODS)
def test_loss_values_unchanged_below_is_bit_identical(n, mode):
    # totals with changed are those of changed=None, byte for byte
    params, x, y, eps, delta, neg = _batch(8, n=n)
    kw = _offsets(mode, eps, delta, neg)
    for changed in _changed_cases(params):
        # every row equals params.flat outside changed, as grad_check promises
        vecs = np.tile(params.flat, (6, 1))
        vecs[:, changed.start:changed.stop] += 0.01 * Rng(changed.stop).normal(
            size=(6, len(changed)))
        want = loss_values(params, vecs, x, y, mode, **kw)
        got = loss_values(params, vecs, x, y, mode, changed=changed, **kw)
        assert got.shape == (6,)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("offset, shape", [
    ("eps_std", (4, 1)), ("eps_std", (3,)), ("attack_delta", (1, 3)),
    ("neg_delta", (4, 1)),
])
def test_loss_and_grads_rejects_wrong_shaped_offsets(offset, shape):
    # each of these would broadcast against the (4, 3) representation
    params, x, y, *_ = _batch(seed=7)
    with pytest.raises(ConfigurationError):
        loss_and_grads(params, x, y, "carr", **{offset: np.zeros(shape)})


def test_carr_zero_neg_weight_equals_rcvae():
    params, x, y, eps, delta, neg = _batch(seed=4)
    vec = params.to_vector()
    b1, g1 = loss_and_grads(params, x, y, "carr", eps_std=eps, attack_delta=delta,
                            neg_delta=neg, neg_weight=0.0)
    params.from_vector(vec)
    b2, g2 = loss_and_grads(params, x, y, "rcvae", eps_std=eps, attack_delta=delta)
    assert abs(b1.total - b2.total) < 1e-12  # negative term weighted to nothing
    assert np.allclose(g1, g2, atol=1e-15)


def test_stop_grad_negative_matches_rcvae_encoder_path():
    # with the negative branch detached from the encoder, the encoder slice
    # of the gradient must coincide with the rcvae gradient
    params, x, y, eps, delta, neg = _batch(seed=5)
    vec = params.to_vector()
    enc_size = (params.enc_hidden.weights.size + params.enc_hidden.bias.size
                + params.enc_head.weights.size + params.enc_head.bias.size)
    _, g_carr = loss_and_grads(params, x, y, "carr", eps_std=eps,
                               attack_delta=delta, neg_delta=neg,
                               stop_grad_negative=True)
    params.from_vector(vec)
    _, g_rcvae = loss_and_grads(params, x, y, "rcvae", eps_std=eps,
                                attack_delta=delta)
    assert np.allclose(g_carr[:enc_size], g_rcvae[:enc_size], atol=1e-15)
    assert not np.allclose(g_carr[enc_size:], g_rcvae[enc_size:])


def test_attack_delta_is_constant_offset():
    # shifting z by a constant changes the loss value, not the treatment of
    # the shift itself: gradients must still pass the finite-difference check
    params, x, y, eps, delta, _ = _batch(seed=6)
    b_clean, _ = loss_and_grads(params, x, y, "rcvae", eps_std=eps)
    b_shift, _ = loss_and_grads(params, x, y, "rcvae", eps_std=eps,
                                attack_delta=delta)
    assert b_clean.total != b_shift.total
    assert b_clean.kl == b_shift.kl  # KL sees the unshifted posterior


def _reference_step(params, x, y, mode, eps, lam=0.001, b=0.8, neg_weight=1.0,
                    attack_delta=None, neg_delta=None, stop_grad_negative=False):
    """The training step's formulas as first written, with nothing shared or
    written in place: np.clip, the KL over its own exp(logvar), a second
    exp(logvar) in the backward, and the head and flat gradients
    concatenated.  Returns the four breakdown numbers and the flat
    gradient."""
    d_z, n = params.d_z, len(y)
    enc = encode(params, x, eps)  # its forward layers; its own formulas below
    mean = enc.head[:, :d_z]
    logvar = np.clip(enc.head[:, d_z:], -LOGVAR_CLAMP, LOGVAR_CLAMP)
    std = np.exp(0.5 * logvar)
    z = mean + std * eps
    for got, want in ((enc.logvar, logvar), (enc.std, std), (enc.z, z)):
        assert got.tobytes() == want.tobytes()
    prior = y[:, None].astype(float)

    def xent_term(z_in, coeff):
        xent, cache = predictor_xent(params, z_in, y)
        _, _, hidden, hidden_neg, probs, _ = cache
        g = probs.copy()
        g[np.arange(n), y] -= 1.0
        g *= coeff / n
        g_hidden, grads = g @ params.pred_out.weights, [g.T @ hidden, g.sum(axis=0)]
        g = g_hidden * np.exp(hidden_neg)
        grads = [g.T @ z_in, g.sum(axis=0)] + grads
        return -float(xent.mean(axis=-1)), g @ params.pred_hidden.weights, grads

    z_pos = z if attack_delta is None else z + attack_delta
    positive_ll, g_z, pred = xent_term(z_pos, 1.0)
    kl = negative_ll = None
    total = -positive_ll
    if mode != "base":
        kl = float((0.5 * (np.exp(logvar) + (mean - prior) ** 2 - 1.0 - logvar)
                    .sum(-1)).mean(axis=-1))
        total += lam * kl
    if mode == "carr":
        z_bar = z + np.where(y == 0, b, -b)[:, None]
        negative_ll, g_z_neg, pred_neg = xent_term(
            z_bar if neg_delta is None else z_bar + neg_delta, -neg_weight)
        total += neg_weight * negative_ll
        if not stop_grad_negative:
            g_z = g_z + g_z_neg
        pred = [p + q for p, q in zip(pred, pred_neg)]

    g_mean = g_z.copy()
    g_logvar = g_z * eps * 0.5 * std
    if mode != "base":
        g_mean += lam * (mean - prior) / n
        g_logvar += lam * 0.5 * (np.exp(logvar) - 1.0) / n
    g_logvar *= (np.abs(enc.head[:, d_z:]) < LOGVAR_CLAMP).astype(float)
    g_head = np.concatenate([g_mean, g_logvar], axis=1)
    g = (g_head @ params.enc_head.weights) * np.exp(enc.hidden_neg)
    parts = [g.T @ enc.feats, g.sum(axis=0), g_head.T @ enc.hidden,
             g_head.sum(axis=0)] + pred
    grad = np.concatenate([part.ravel() for part in parts])
    return (positive_ll, kl, negative_ll, total), grad


def _step_cases():
    for mode in METHODS:
        for offsets in (False, True):
            for stop_grad_negative in (False, True):
                if stop_grad_negative and mode != "carr":
                    continue
                yield _batch, mode, offsets, stop_grad_negative


@pytest.mark.parametrize("make, mode, offsets, stop_grad_negative", list(_step_cases()))
def test_step_bytes_equal_reference(make, mode, offsets, stop_grad_negative):
    params, x, y, eps, delta, neg = make(11, n=12)
    d_z = params.d_z
    # unclamped log-variances: every row beyond the clamp in the first two
    # coordinates, one on either side, and half the rows beyond it in the third
    third = encode(params, x).head[:, d_z + 2]
    params.enc_head.bias[d_z:] += [14.0, -14.0, LOGVAR_CLAMP - np.median(third)]
    head = encode(params, x).head[:, d_z:]
    assert (np.abs(head[:, :2]) > LOGVAR_CLAMP).all()
    assert (head[:, 2] > LOGVAR_CLAMP).sum() == (head[:, 2] < LOGVAR_CLAMP).sum() > 0
    kw = dict(lam=0.7, b=0.5, neg_weight=1.3, stop_grad_negative=stop_grad_negative)
    if offsets:
        kw.update(attack_delta=delta, neg_delta=neg)
    want_terms, want = _reference_step(params, x, y, mode, eps, **kw)

    breakdown, grad = loss_and_grads(params, x, y, mode, eps_std=eps, **kw)
    # a reused buffer holding garbage: every entry must be written
    buffer = np.full_like(params.flat, np.nan)
    again, written = encoded_loss_and_grads(params, encode(params, x, eps), y, mode,
                                            out=params.over(buffer), **kw)
    assert written is buffer
    for got in (breakdown, again):
        got_terms = (got.positive_ll, got.kl, got.negative_ll, got.total)
        for got_term, want_term in zip(got_terms, want_terms):
            if want_term is None:
                assert got_term is None
            else:
                assert (np.float64(got_term).view(np.int64)
                        == np.float64(want_term).view(np.int64))
    for got in (grad, written):
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_inplace_momentum_equals_expression():
    # the trainer updates velocity in place: v *= m, then v -= (lr * g)
    rng = Rng(21)
    tiny = np.array([5e-324, -5e-324, 0.0, -0.0, 1e-310, 1e300, -1e300])
    v0, g0 = (np.concatenate([rng.normal(size=500) * 10.0 ** rng.integers(-8, 8, 500),
                              edges]) for edges in (tiny, tiny[::-1]))
    for m, lr in ((0.9, 0.01), (0.0, 1e-3), (0.95, 0.5)):
        want = m * v0 - lr * g0
        v, g = v0.copy(), g0.copy()
        v *= m
        v -= np.multiply(lr, g, out=g)
        assert np.array_equal(v.view(np.int64), want.view(np.int64))


_KINK_GAP = 1e-3  # least distance of an unclamped log-variance from the clamp


def _push_past_clamp(params, x, rng):
    """Shift each log-variance bias so that a drawn share of the rows (none,
    some or all) lies beyond +-LOGVAR_CLAMP, on a drawn side, and every row
    at least _KINK_GAP from it: central differences straddle no kink."""
    d_z = params.d_z
    head = encode(params, x).head[:, d_z:]
    for j in range(d_z):
        col = np.sort(head[:, j])
        wide = np.flatnonzero(np.diff(col) >= 2 * _KINK_GAP)
        # rows above the cut end up beyond +clamp, or those below beyond -clamp
        cuts = np.r_[col[0] - 1.0, (col[wide] + col[wide + 1]) / 2, col[-1] + 1.0]
        side = rng.integers(0, 2) * 2 - 1
        cut = cuts[rng.integers(0, cuts.size)]
        params.enc_head.bias[d_z + j] += side * LOGVAR_CLAMP - cut
    unclamped = np.abs(encode(params, x).head[:, d_z:])
    assert np.abs(unclamped - LOGVAR_CLAMP).min() >= 0.99 * _KINK_GAP


if given is not None:
    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(st.integers(0, 2 ** 20), st.sampled_from(METHODS), st.floats(0.0, 10.0),
           st.floats(0.0, 2.0), st.floats(0.0, 3.0), st.integers(1, 8),
           st.integers(1, 4), st.integers(1, 8), st.booleans())
    def test_gradients_match_finite_differences(seed, mode, lam, b, neg_weight,
                                                d_in, d_z, n, clamp):
        # stop_grad_negative is left at False: with it the analytic gradient
        # is by design not the gradient of the total
        rng = Rng(seed, stream=60)
        params = init_params(rng, d_in=d_in, d_z=d_z)
        x = rng.uniform(-1, 1, size=(n, d_in))
        y = rng.integers(0, 2, size=n)
        eps, delta, neg = (s * rng.normal(size=(n, d_z)) for s in (1.0, 0.05, 0.05))
        if clamp:
            _push_past_clamp(params, x, Rng(seed, stream=61))
        kw = _offsets(mode, eps, delta, neg)
        assert _gradcheck(params, x, y, mode, lam=lam, b=b, neg_weight=neg_weight,
                          **kw) < 1e-4
