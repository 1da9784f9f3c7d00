"""Reverse-mode engine: every op's gradient against central finite differences."""

import numpy as np
import pytest

from albumarc.essence import autodiff as ad
from albumarc.essence.autodiff import Tensor, backward


def numeric_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gf[i] = (hi - lo) / (2.0 * eps)
    return g


def check_op(build, x, atol=1e-7):
    """``build`` maps a Tensor to a scalar Tensor; compare grads to FD."""
    t = Tensor(np.array(x, dtype=np.float64))
    out = build(t)
    backward(out)

    def f(arr):
        return float(build(Tensor(arr)).data)

    np.testing.assert_allclose(t.grad, numeric_grad(f, np.array(x)), atol=atol)


rng = np.random.default_rng(99)
weights = {}


def scalarize(t):
    """Fixed random linear functional, so vector ops reduce to a scalar root."""
    key = t.data.shape
    if key not in weights:
        weights[key] = np.random.default_rng(hash(key) % (2**32)).standard_normal(key)
    return ad.tsum(ad.mul(t, weights[key]))


class TestElementwiseOps:
    def test_add_sub_mul_div(self):
        x = rng.standard_normal((3, 4))
        other = rng.standard_normal((3, 4)) + 3.0
        check_op(lambda t: scalarize(ad.add(t, other)), x)
        check_op(lambda t: scalarize(ad.sub(other, t)), x)
        check_op(lambda t: scalarize(ad.mul(t, other)), x)
        check_op(lambda t: scalarize(ad.div(t, other)), x)
        check_op(lambda t: scalarize(ad.div(other, ad.add(t, 5.0))), x)

    def test_unary_nonlinearities(self):
        x = rng.standard_normal((2, 5))
        check_op(lambda t: scalarize(ad.tanh(t)), x)
        check_op(lambda t: scalarize(ad.sigmoid(t)), x)
        check_op(lambda t: scalarize(ad.square(t)), x)
        xp = np.abs(x) + 0.5
        check_op(lambda t: scalarize(ad.sqrt(t)), xp)


class TestBroadcasting:
    def test_row_broadcast_gradients_sum(self):
        x = rng.standard_normal((1, 4))
        other = rng.standard_normal((3, 4))
        check_op(lambda t: scalarize(ad.add(t, other)), x)
        check_op(lambda t: scalarize(ad.mul(t, other)), x)

    def test_scalar_broadcast(self):
        other = rng.standard_normal((2, 3))
        check_op(lambda t: scalarize(ad.mul(t, other)), np.array(1.5))

    def test_broadcast_to_explicit(self):
        x = rng.standard_normal(4)
        check_op(lambda t: scalarize(ad.broadcast_to(t, (5, 4))), x)


class TestShapeOps:
    def test_matmul(self):
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((4, 2))
        check_op(lambda t: scalarize(ad.matmul(t, b)), a)
        check_op(lambda t: scalarize(ad.matmul(a, t)), b)

    def test_sum_mean_axes(self):
        x = rng.standard_normal((3, 4))
        check_op(lambda t: ad.tsum(t), x)
        check_op(lambda t: scalarize(ad.tsum(t, axis=0)), x)
        check_op(lambda t: scalarize(ad.tsum(t, axis=1, keepdims=True)), x)
        check_op(lambda t: ad.tmean(t), x)
        check_op(lambda t: scalarize(ad.tmean(t, axis=1)), x)

    def test_reshape_concat_narrow(self):
        x = rng.standard_normal((2, 6))
        check_op(lambda t: scalarize(ad.reshape(t, (3, 4))), x)
        other = rng.standard_normal((2, 6))
        check_op(lambda t: scalarize(ad.concat([t, other], axis=1)), x)
        check_op(lambda t: scalarize(ad.concat([other, t], axis=0)), x)
        check_op(lambda t: scalarize(ad.narrow(t, 1, 2, 3)), x)

    def test_gather_rows_accumulates_repeats(self):
        x = rng.standard_normal((4, 3))
        idx = np.array([0, 2, 0, 0, 3])
        check_op(lambda t: scalarize(ad.gather_rows(t, idx)), x)


class TestLogsumexp:
    def test_gradient(self):
        check_op(lambda t: ad.logsumexp(t), rng.standard_normal(8))

    def test_value_is_shift_stable(self):
        big = Tensor(np.array([1000.0, 1000.0 + np.log(2.0)]))
        out = ad.logsumexp(big)
        assert np.isfinite(out.data)
        assert float(out.data) == pytest.approx(1000.0 + np.log(3.0), abs=1e-9)

    def test_gradient_is_softmax(self):
        x = np.array([0.1, -0.4, 2.0])
        t = Tensor(x)
        backward(ad.logsumexp(t))
        soft = np.exp(x - x.max())
        soft /= soft.sum()
        np.testing.assert_allclose(t.grad, soft, atol=1e-12)


class TestGraphMechanics:
    def test_diamond_reuse_counts_both_paths(self):
        # y = x*x + x: reusing one node must accumulate, not overwrite.
        x = Tensor(np.array(3.0))
        y = ad.add(ad.mul(x, x), x)
        backward(y)
        assert float(x.grad) == pytest.approx(2 * 3.0 + 1.0, abs=1e-12)

    def test_deep_chain_does_not_recurse(self):
        # 20k chained adds would blow the recursion limit if backward recursed.
        x = Tensor(np.array(1.0))
        node = x
        for _ in range(20000):
            node = ad.add(node, 1.0)
        backward(node)
        assert float(x.grad) == 1.0

    def test_shared_subgraph_gradient_exact(self):
        x = np.array([0.3, -0.7])
        t = Tensor(x)
        shared = ad.tanh(t)
        out = ad.tsum(ad.add(ad.square(shared), ad.mul(shared, 2.0)))
        backward(out)
        expected = (2 * np.tanh(x) + 2.0) * (1 - np.tanh(x) ** 2)
        np.testing.assert_allclose(t.grad, expected, atol=1e-12)

    def test_backward_requires_scalar_root(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(Tensor(np.zeros(3)))

    def test_grad_none_until_backward(self):
        t = Tensor(np.array([1.0]))
        assert t.grad is None

    def test_constants_take_no_gradient(self):
        # Raw arrays and requires_grad=False leaves are constants: backward
        # skips them, and an op over constants alone needs no gradient.
        w = Tensor(np.array([[1.0, 2.0]]))
        c = Tensor(np.array([[3.0], [4.0]]), requires_grad=False)
        out = ad.tsum(ad.mul(ad.matmul(w, c), np.array([[5.0]])))
        assert out.requires_grad
        backward(out)
        np.testing.assert_array_equal(w.grad, [[15.0, 20.0]])
        assert c.grad is None
        assert not ad.add(c, 1.0).requires_grad
