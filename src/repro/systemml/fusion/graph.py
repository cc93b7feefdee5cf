"""DAG indexing and shape inference for the fusion-plan optimizer.

The expression DAG (:mod:`repro.systemml.dag`) stores children only; plan
enumeration additionally needs consumer (parent) edges — a node consumed by
two operators cannot be an *interior* of a fused region, because its value
must be materialized for the outside consumer — and per-node result shapes,
so only vector-shaped regions are considered cell-wise fusable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...sparse.csr import CsrMatrix
from ..dag import (Add, EwMul, FusedPattern, Input, MatVec, Node, Smul,
                   Transpose)


@dataclass
class DagIndex:
    """Unique nodes (children before parents) plus consumer edges."""

    root: Node
    nodes: list[Node]                      # topological, children first
    parents: dict[int, list[Node]]         # id(node) -> consumer nodes


def index_dag(root: Node) -> DagIndex:
    """Build the consumer-edge index; each unique node appears once."""
    nodes: list[Node] = []
    seen: set[int] = set()
    parents: dict[int, list[Node]] = {id(root): []}

    def visit(nd: Node) -> None:
        if id(nd) in seen:
            return
        seen.add(id(nd))
        for child in nd.inputs:
            parents.setdefault(id(child), []).append(nd)
            visit(child)
        nodes.append(nd)

    visit(root)
    # a parent edge may have been recorded before its child was visited;
    # re-walk to add edges from revisited (shared) parents exactly once each
    parents = {id(root): []}
    for nd in nodes:
        parents.setdefault(id(nd), [])
        for child in nd.inputs:
            parents.setdefault(id(child), []).append(nd)
    return DagIndex(root, nodes, parents)


MAT = "mat"
VEC = "vec"


def infer_shapes(index: DagIndex, env: dict) -> dict[int, tuple]:
    """id(node) -> ``('mat', m, n)`` or ``('vec', k)``.

    Nodes whose shape cannot be derived (unbound inputs, malformed
    combinations) are simply absent — enumeration skips regions touching
    them rather than guessing.
    """
    shapes: dict[int, tuple] = {}
    for nd in index.nodes:                 # children first
        shape = _node_shape(nd, shapes, env)
        if shape is not None:
            shapes[id(nd)] = shape
    return shapes


def _value_shape(value) -> tuple | None:
    if isinstance(value, CsrMatrix):
        return (MAT, value.shape[0], value.shape[1])
    arr = np.asarray(value)
    if arr.ndim == 2:
        return (MAT, arr.shape[0], arr.shape[1])
    if arr.ndim == 1:
        return (VEC, arr.shape[0])
    return None


def _node_shape(nd: Node, shapes: dict[int, tuple], env: dict) \
        -> tuple | None:
    if isinstance(nd, Input):
        if nd.name not in env:
            return None
        return _value_shape(env[nd.name])
    if isinstance(nd, Transpose):
        s = shapes.get(id(nd.child))
        if s is not None and s[0] == MAT:
            return (MAT, s[2], s[1])
        return None
    if isinstance(nd, MatVec):
        sm = shapes.get(id(nd.mat))
        sv = shapes.get(id(nd.vec))
        if (sm is not None and sv is not None and sm[0] == MAT
                and sv[0] == VEC and sv[1] == sm[2]):
            return (VEC, sm[1])
        return None
    if isinstance(nd, (EwMul, Add)):
        sa = shapes.get(id(nd.a))
        sb = shapes.get(id(nd.b))
        if sa is not None and sa == sb and sa[0] == VEC:
            return sa
        return None
    if isinstance(nd, Smul):
        s = shapes.get(id(nd.x))
        return s if s is not None and s[0] == VEC else None
    if isinstance(nd, FusedPattern):
        sx = shapes.get(id(nd.X))
        if sx is not None and sx[0] == MAT:
            return (VEC, sx[2])
        return None
    return None
