"""Reverse-mode automatic differentiation on numpy arrays.

A minimal tape: every operation creates a ``Var`` holding its value, its
parents, and a closure that pushes the adjoint back to them. ``backward``
runs one reverse topological sweep. Values are scalars or ndarrays and
broadcasting follows numpy semantics (adjoints are sum-reduced back to the
parent's shape). The operators are ``+``, ``-``, ``*`` (also with an
ndarray or float on the left), ``**`` by a constant, ``@`` of 2-D arrays,
indexing and ``sum``: the training loss records none of them, and they
serve the per-op oracles in the tests, against which the loss and network
nodes are checked bit for bit.

Adjoints are allocated lazily: a node's ``.grad`` is None until its first
contribution arrives, which becomes the adjoint as is (later ones are
added out of place), and a node that never receives one is skipped. The
one sweep checks every adjoint it updates and stops at the first NaN/Inf,
naming the node whose backward pushed it (``NonFiniteGradient.op``).

The tape has no elementwise functions. A network's Y and dY/dt come from
one node that ``network.forward_dual_tape`` records for the whole dual
pass (op ``"network"``): its parent is the leaf of the network's flat
parameter vector, and its backward closure is the network's reverse pass
written out, returning the flat adjoint; the input time gets none. The
training loss is one more node on top of it (op ``"loss"``,
``training._composite_loss``), whose parents are the network node and the
leaf of the raw free values: four nodes in all. Both are swept like any
other node, so one reverse sweep differentiates through dY/dt, giving
exact parameter gradients of losses that involve it.
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


def backward(loss: Var) -> None:
    """Reverse-topological sweep from a scalar loss, populating .grad on
    every reachable node. Raises NonFiniteGradient at the first NaN/Inf
    adjoint, a sum of finite contributions that overflows included,
    naming the node whose backward pushed it."""
    if loss.value.size != 1:
        raise ValueError("backward requires a scalar loss")
    if not np.isfinite(loss.value):
        raise NonFiniteGradient(loss.op)
    order = _topological_order(loss)
    for node in order:
        node.grad = None
    loss.grad = np.ones_like(loss.value)
    for node in reversed(order):
        g = node.grad
        if g is None or node._backward is None:
            continue
        for parent, pg in zip(node.parents, node._backward(g)):
            if parent.grad is not None:
                pg = parent.grad + pg
            if not np.isfinite(pg).all():
                raise NonFiniteGradient(node.op)
            parent.grad = pg


def grad(loss: Var, leaves) -> list[np.ndarray]:
    """Gradients of a scalar loss w.r.t. the given leaf Vars (zero for
    leaves that do not reach the loss)."""
    backward(loss)
    return [leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
            for leaf in leaves]
