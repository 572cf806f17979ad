import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brainpbpk.autodiff import NonFiniteGradient, Var, backward, grad


def fd_grad(f, x, eps=1e-6):
    """Central finite differences of a scalar function of one array."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    flat = out.ravel()
    xf = x.ravel()
    for i in range(x.size):
        xp = xf.copy(); xp[i] += eps
        xm = xf.copy(); xm[i] -= eps
        flat[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2 * eps)
    return out


def check_against_fd(build, x, tol=1e-7):
    """build(Var) -> scalar Var; compares reverse-mode grad with FD."""
    leaf = Var(x)
    loss = build(leaf)
    backward(loss)
    num = fd_grad(lambda v: float(build(Var(v)).value), x)
    scale = np.maximum(np.abs(num), 1.0)
    assert np.max(np.abs(leaf.grad - num) / scale) < tol


class TestElementaryOps:
    def test_add_mul(self):
        x = np.array([1.0, -2.0, 0.5])
        check_against_fd(lambda v: ((v * 3.0 + 1.0) * v).sum(), x)

    def test_sub_rmul(self):
        x = np.array([1.5, -0.5, 2.0])
        check_against_fd(lambda v: (2.0 * (v - 1.0) * (v - v * v)).sum(), x)

    def test_pow(self):
        x = np.array([1.2, 0.7])
        check_against_fd(lambda v: (v ** 3).sum(), x)
        with pytest.raises(TypeError):
            Var(x) ** Var(x)

    def test_matmul(self):
        rng = np.random.default_rng(0)
        W = rng.normal(size=(3, 4))
        x = rng.normal(size=(4, 2))
        check_against_fd(lambda v: (Var(W) @ v).sum(), x)
        check_against_fd(lambda v: (v @ Var(x)).sum(), W)

    def test_indexing(self):
        x = np.array([1.0, 2.0, 3.0])
        leaf = Var(x)
        backward(leaf[1] * 5.0)
        assert np.array_equal(leaf.grad, [0.0, 5.0, 0.0])

    def test_sum(self):
        leaf = Var(np.array([[2.0, 4.0], [6.0, 8.0]]))
        backward(leaf.sum())
        assert np.array_equal(leaf.grad, np.ones((2, 2)))

    def test_reflected_ops_with_ndarray(self):
        # ndarray on the left must still route through Var
        a = np.array([1.0, 2.0])
        leaf = Var(np.array([3.0, 4.0]))
        out = a * leaf + a
        assert isinstance(out, Var)
        backward(out.sum())
        assert np.array_equal(leaf.grad, a)

    def test_broadcast_adjoint_reduction(self):
        x = np.array([[1.0], [2.0]])     # (2, 1) against (2, 3)
        other = np.ones((2, 3))
        leaf = Var(x)
        backward((leaf * other).sum())
        assert leaf.grad.shape == (2, 1)
        assert np.allclose(leaf.grad, 3.0)


class TestBackwardSweep:
    def test_shared_subexpression_accumulates(self):
        # y = x*x + x*x must give dy/dx = 4x, visiting the shared node once
        leaf = Var(np.array([3.0]))
        sq = leaf * leaf
        backward((sq + sq).sum())
        assert np.allclose(leaf.grad, 12.0)

    def test_diamond_graph(self):
        leaf = Var(np.array([2.0]))
        a = leaf * 3.0
        b = leaf + 1.0
        backward((a * b).sum())
        # d/dx 3x(x+1) = 6x + 3
        assert np.allclose(leaf.grad, 15.0)

    def test_deep_chain_iterative(self):
        # 5000 chained ops would blow a recursive implementation's stack
        leaf = Var(np.array([1.0]))
        v = leaf
        for _ in range(5000):
            v = v * 1.0001
        backward(v.sum())
        assert np.isfinite(leaf.grad[0])

    def test_unreached_leaf_zero_grad(self):
        used = Var(np.array([1.0]))
        unused = Var(np.array([2.0]))
        gs = grad((used * 2.0).sum(), [used, unused])
        assert np.allclose(gs[0], 2.0)
        assert np.allclose(gs[1], 0.0)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError):
            backward(Var(np.array([1.0, 2.0])))

    def test_nonfinite_loss_raises(self):
        with pytest.raises(NonFiniteGradient):
            backward(Var(np.array(np.inf)))

    def test_nonfinite_adjoint_named(self):
        # d/dx x ** 0.5 = 0.5 / sqrt(x) is inf at 0; the loss is finite
        leaf = Var(np.array([0.0]))
        with np.errstate(divide="ignore"), \
                pytest.raises(NonFiniteGradient) as err:
            backward((leaf ** 0.5).sum())
        assert err.value.op == "pow"

    def test_nonfinite_adjoint_raised_in_one_sweep(self):
        # the node's backward runs once: no second sweep to name the node
        leaf = Var(np.array([1.0]))
        calls = []

        def back(g):
            calls.append(g)
            return (np.array([np.inf]),)
        node = Var(leaf.value, (leaf,), back, op="blow-up")
        with pytest.raises(NonFiniteGradient) as err:
            backward(node.sum())
        assert err.value.op == "blow-up" and len(calls) == 1

    def test_overflowing_sum_of_adjoints_named(self):
        # each of the two contributions to the leaf's adjoint is 1e308 and
        # finite; their sum, and so the gradient, is not
        leaf = Var(np.array([0.0]))
        with np.errstate(over="ignore"), \
                pytest.raises(NonFiniteGradient) as err:
            grad((leaf * 1e308).sum() + (leaf * 1e308).sum(), [leaf])
        assert err.value.op == "mul"


@given(st.integers(0, 2**31))
@settings(max_examples=20, deadline=None)
def test_random_expression_gradients(seed):
    # every tape op, ndarray and float on the left of * included, in one
    # expression
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.5, 1.5, size=(5, 2))
    w = rng.normal(size=(3, 5))
    c = rng.normal(size=(3, 1))

    def build(v):
        h = Var(w) @ v
        s = (h * h + 1.0) ** -1.5
        r = (v[:3] - 2.0 * h) * s - c * (v[2:] - h) ** 2
        return r.sum() + (v @ Var(x.T)).sum()

    check_against_fd(build, x, tol=1e-6)
