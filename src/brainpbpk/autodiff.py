"""Reverse-mode automatic differentiation on numpy arrays.

A minimal tape: every operation creates a ``Var`` holding its value, its
parents, and a closure that pushes the adjoint back to them. ``backward``
runs one reverse topological sweep. Values are scalars or ndarrays and
broadcasting follows numpy semantics (adjoints are sum-reduced back to the
parent's shape). The operators are the ones the PINN loss records: ``+``,
``-``, ``*`` (also with an ndarray or float on the left), ``**`` by a
constant, ``@`` of 2-D arrays, indexing and ``sum``.

Adjoints are allocated lazily: a node's ``.grad`` is None until its first
contribution arrives, which becomes the adjoint as is (later ones are
added out of place), and a node that never receives one is skipped. The
sweep does not test edges for NaN/Inf. Every backward closure is linear in
its adjoint, so a non-finite adjoint reaches a parentless node; finiteness
is checked once, on the adjoints of the parentless nodes, and only if that
check fails is the sweep rerun with every edge checked, to name the node
that produced the first non-finite adjoint (``NonFiniteGradient.op``).

The tape has no elementwise functions: a network's time derivative comes
from a forward pass on (value, tangent) pairs of Vars, and ``network``
records each layer's activation as two nodes with their adjoints written
out (the value f(z) and the tangent f'(z) zdot). The tangent is recorded
like any other node, so one reverse sweep differentiates through it,
giving exact parameter gradients of losses that involve dY/dt.
"""
from __future__ import annotations

import numpy as np


class NonFiniteGradient(Exception):
    """Raised when a NaN/Inf adjoint appears; names the offending node."""

    def __init__(self, op: str):
        self.op = op
        super().__init__(f"non-finite gradient at node '{op}'")


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum-reduce a broadcasted adjoint back to the original shape."""
    grad = np.asarray(grad)
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Var:
    """A node on the tape: value, parents, backward closure, adjoint."""

    __slots__ = ("value", "parents", "_backward", "grad", "op")

    # make ndarray * Var defer to Var.__rmul__
    __array_ufunc__ = None

    def __init__(self, value, parents=(), backward=None, op="leaf"):
        self.value = np.asarray(value, dtype=float)
        self.parents = parents
        self._backward = backward
        self.grad = None
        self.op = op

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _lift(x) -> "Var":
        return x if isinstance(x, Var) else Var(x, op="const")

    def __add__(self, other):
        o = Var._lift(other)
        out = Var(self.value + o.value, (self, o), op="add")

        def back(g):
            return _unbroadcast(g, self.shape), _unbroadcast(g, o.shape)
        out._backward = back
        return out

    def __sub__(self, other):
        o = Var._lift(other)
        out = Var(self.value - o.value, (self, o), op="sub")

        def back(g):
            return _unbroadcast(g, self.shape), _unbroadcast(-g, o.shape)
        out._backward = back
        return out

    def __mul__(self, other):
        o = Var._lift(other)
        out = Var(self.value * o.value, (self, o), op="mul")

        def back(g):
            return (_unbroadcast(g * o.value, self.shape),
                    _unbroadcast(g * self.value, o.shape))
        out._backward = back
        return out

    __rmul__ = __mul__

    def __pow__(self, p):
        if not isinstance(p, (int, float)):
            raise TypeError("only constant exponents are supported")
        out = Var(self.value ** p, (self,), op="pow")
        out._backward = lambda g: (g * p * self.value ** (p - 1),)
        return out

    def __matmul__(self, other):
        o = Var._lift(other)
        out = Var(self.value @ o.value, (self, o), op="matmul")

        def back(g):
            return g @ o.value.T, self.value.T @ g
        out._backward = back
        return out

    def __getitem__(self, idx):
        out = Var(self.value[idx], (self,), op="index")

        def back(g):
            full = np.zeros_like(self.value)
            full[idx] = g
            return (full,)
        out._backward = back
        return out

    def sum(self):
        out = Var(self.value.sum(), (self,), op="sum")
        out._backward = lambda g: (np.broadcast_to(g, self.shape).copy(),)
        return out


# -- reverse sweep -----------------------------------------------------------

def _topological_order(loss: Var) -> list[Var]:
    """Every node reachable from ``loss``, each after all of its parents."""
    order: list[Var] = []
    seen: set[int] = set()
    stack = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if id(p) not in seen:
                stack.append((p, False))
    return order


def _sweep(loss: Var, order: list[Var], checked: bool) -> None:
    """Reset the adjoints of ``order`` and push the loss's back through it.
    ``checked`` tests every edge and raises at the first non-finite one."""
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        g = node.grad
        if g is None or node._backward is None:
            continue
        for parent, pg in zip(node.parents, node._backward(g)):
            if checked and not np.all(np.isfinite(pg)):
                raise NonFiniteGradient(node.op)
            parent.grad = pg if parent.grad is None else parent.grad + pg


def backward(loss: Var) -> None:
    """Reverse-topological sweep from a scalar loss, populating .grad on
    every reachable node. Raises NonFiniteGradient on NaN/Inf adjoints,
    naming the first node (in sweep order) whose backward produced one."""
    if loss.value.size != 1:
        raise ValueError("backward requires a scalar loss")
    if not np.isfinite(loss.value):
        raise NonFiniteGradient(loss.op)
    order = _topological_order(loss)
    _sweep(loss, order, checked=False)
    # a non-finite adjoint propagates (every backward is linear in its
    # adjoint), so it reaches some parentless node
    if not all(np.isfinite(n.grad).all() for n in order
               if not n.parents and n.grad is not None):
        _sweep(loss, order, checked=True)


def grad(loss: Var, leaves) -> list[np.ndarray]:
    """Gradients of a scalar loss w.r.t. the given leaf Vars (zero for
    leaves that do not reach the loss)."""
    backward(loss)
    return [leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
            for leaf in leaves]
