"""Candidate fusion-plan enumeration over an expression DAG.

Three region shapes are discovered, mirroring the generalization of the
paper's single Eq.-1 pattern into enumerated fusion plans (Boehm et al.,
arXiv:1801.00829):

* ``eq1`` — the full ``alpha * X^T (v ⊙ (X y)) + beta * z`` family (every
  Table-1 instantiation), matched exactly like the hand-written rewriter
  but *non-mutating* and with an explicit member list;
* ``cellwise`` — maximal single-exit regions of vector ``{+, *, alpha*}``
  operators.  A node joins a region only when **all** of its consumers are
  already inside: a diamond (an interior value also consumed elsewhere)
  stops the region at that edge and the shared value becomes a region
  input, i.e. it is materialized for the outside consumer;
* ``rowagg`` — a cell-wise region absorbing one feeding matrix-vector
  product that has no consumer outside the region, folding the epilogue
  into the producing kernel.

Every candidate records the exact ``members`` its fusion would erase, so
the optimizer can reject overlapping selections and tests can execute each
candidate in isolation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...kernels.cellwise import CellwiseProgram
from ..dag import Add, EwMul, Input, MatVec, Node, Smul, Transpose
from ..rewriter import _references_matrix, _same_matrix, _strip_smul
from .graph import MAT, VEC, DagIndex

_CELL_OPS = (EwMul, Add, Smul)


@dataclass
class Candidate:
    """One fusable region: what it computes and which nodes it replaces."""

    kind: str                              # "eq1" | "cellwise" | "rowagg"
    root: Node
    members: tuple[Node, ...]              # nodes erased by the fusion
    label: str
    # eq1 bindings
    X: Input | None = None
    y: Node | None = None
    v: Node | None = None
    z: Node | None = None
    alpha: float = 1.0
    beta: float = 0.0
    inner: bool = True
    # cellwise / rowagg bindings
    program: CellwiseProgram | None = None
    operands: tuple[Node, ...] = ()        # region inputs, program order
    mv: MatVec | None = None               # rowagg: the absorbed matvec
    member_ids: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if not self.member_ids:
            self.member_ids = frozenset(id(m) for m in self.members)


def enumerate_candidates(index: DagIndex,
                         shapes: dict[int, tuple]) -> list[Candidate]:
    """All fusable candidate regions in the DAG, in discovery order."""
    out: list[Candidate] = []
    for nd in index.nodes:
        cand = _match_eq1(nd, index, shapes)
        if cand is not None:
            out.append(cand)
    out.extend(_cellwise_candidates(index, shapes))
    return out


# ------------------------------------------------------------------- eq1 --
@dataclass
class _CoreMatch:
    X: Input
    y: Node
    v: Node | None
    inner: bool
    members: list[Node]                    # MatVec core, Transpose, inner


def _match_eq1_core(node: Node) -> _CoreMatch | None:
    """``t(X) %*% <inner>`` with member tracking (rewriter's match, made
    non-mutating; the probe order over EwMul sides matches exactly)."""
    if not isinstance(node, MatVec) or not isinstance(node.mat, Transpose):
        return None
    xt = node.mat.child
    if not isinstance(xt, Input):
        return None
    inner = node.vec
    if isinstance(inner, EwMul):
        for v_node, mv in ((inner.a, inner.b), (inner.b, inner.a)):
            if (isinstance(mv, MatVec) and isinstance(mv.mat, Input)
                    and _same_matrix(mv.mat, xt)):
                return _CoreMatch(xt, mv.vec, v_node, True,
                                  [node, node.mat, inner, mv])
        return None
    if (isinstance(inner, MatVec) and isinstance(inner.mat, Input)
            and _same_matrix(inner.mat, xt)):
        return _CoreMatch(xt, inner.vec, None, True,
                          [node, node.mat, inner])
    return _CoreMatch(xt, inner, None, False, [node, node.mat])


def _smul_chain(top: Node, core: Node) -> list[Node]:
    """The Smul wrappers from ``top`` down to (excluding) ``core``."""
    chain = []
    nd = top
    while nd is not core:
        chain.append(nd)
        nd = nd.x                          # _strip_smul guarantees Smul
    return chain


def _eq1_shapes_ok(m: _CoreMatch, z: Node | None,
                   shapes: dict[int, tuple]) -> bool:
    sx = shapes.get(id(m.X))
    if sx is None or sx[0] != MAT:
        return False
    rows, cols = sx[1], sx[2]
    sy = shapes.get(id(m.y))
    if sy != (VEC, cols if m.inner else rows):
        return False
    if m.v is not None and shapes.get(id(m.v)) != (VEC, rows):
        return False
    if z is not None and shapes.get(id(z)) != (VEC, cols):
        return False
    return True


def _interior_guarded(members: list[Node], root: Node,
                      index: DagIndex) -> bool:
    """Every non-root member must be consumed only inside the region —
    fusing would otherwise erase a value an outside consumer needs."""
    mids = {id(m) for m in members}
    for m in members:
        if m is root:
            continue
        if any(id(p) not in mids for p in index.parents.get(id(m), [])):
            return False
    return True


def _match_eq1(nd: Node, index: DagIndex,
               shapes: dict[int, tuple]) -> Candidate | None:
    if isinstance(nd, Add):
        for core_side, z_side in ((nd.a, nd.b), (nd.b, nd.a)):
            alpha, core = _strip_smul(core_side)
            m = _match_eq1_core(core)
            if m is None:
                continue
            beta, z_node = _strip_smul(z_side)
            if beta == 0.0 or _references_matrix(z_node, m.X):
                continue
            if not _eq1_shapes_ok(m, z_node, shapes):
                continue
            members = ([nd] + _smul_chain(core_side, core)
                       + _smul_chain(z_side, z_node) + m.members)
            if not _interior_guarded(members, nd, index):
                return None
            return Candidate(
                kind="eq1", root=nd, members=tuple(members),
                label=_eq1_label(alpha, m, beta), X=m.X, y=m.y, v=m.v,
                z=z_node, alpha=alpha, beta=beta, inner=m.inner)
        return None
    alpha, core = _strip_smul(nd)
    m = _match_eq1_core(core)
    if m is None or not _eq1_shapes_ok(m, None, shapes):
        return None
    members = _smul_chain(nd, core) + m.members
    if not _interior_guarded(members, nd, index):
        return None
    return Candidate(kind="eq1", root=nd, members=tuple(members),
                     label=_eq1_label(alpha, m, 0.0), X=m.X, y=m.y, v=m.v,
                     alpha=alpha, inner=m.inner)


def _eq1_label(alpha: float, m: _CoreMatch, beta: float) -> str:
    core = ("t(X) %*% (v * (X %*% y))" if m.v is not None
            else "t(X) %*% (X %*% y)" if m.inner else "t(X) %*% y")
    parts = [core if alpha == 1.0 else f"{alpha:g} * {core}"]
    if beta != 0.0:
        parts.append(f"{beta:g} * z")
    return "eq1: " + " + ".join(parts)


# -------------------------------------------------------------- cellwise --
def _is_cell(nd: Node, shapes: dict[int, tuple]) -> bool:
    s = shapes.get(id(nd))
    return isinstance(nd, _CELL_OPS) and s is not None and s[0] == VEC


def _grow_region(root: Node, index: DagIndex,
                 shapes: dict[int, tuple]) -> list[Node]:
    """Maximal single-exit region: a node joins only when all its
    consumers are already members (the diamond-materialization rule)."""
    region = {id(root)}
    members = [root]
    changed = True
    while changed:
        changed = False
        for m in list(members):
            for child in m.inputs:
                if id(child) in region or not _is_cell(child, shapes):
                    continue
                if all(id(p) in region
                       for p in index.parents.get(id(child), [])):
                    region.add(id(child))
                    members.append(child)
                    changed = True
    return members


def _build_program(root: Node, region_ids: set[int]) \
        -> tuple[CellwiseProgram, list[Node]]:
    """Region expression tree + its operand nodes in first-use order.

    Operands are deduplicated by node identity: a region input consumed
    twice inside the region is read from memory once by the fused kernel.
    """
    operands: list[Node] = []
    op_index: dict[int, int] = {}

    def rec(nd: Node) -> tuple:
        if id(nd) not in region_ids:
            if id(nd) not in op_index:
                op_index[id(nd)] = len(operands)
                operands.append(nd)
            return ("in", op_index[id(nd)])
        if isinstance(nd, Smul):
            return ("smul", float(nd.alpha), rec(nd.x))
        if isinstance(nd, EwMul):
            return ("ewmul", rec(nd.a), rec(nd.b))
        if isinstance(nd, Add):
            return ("add", rec(nd.a), rec(nd.b))
        raise TypeError(f"non-cellwise member {type(nd).__name__}")

    expr = rec(root)
    return CellwiseProgram(expr, len(operands)), operands


def _cellwise_candidates(index: DagIndex,
                         shapes: dict[int, tuple]) -> list[Candidate]:
    out: list[Candidate] = []
    assigned: set[int] = set()
    for nd in reversed(index.nodes):       # parents before children
        if id(nd) in assigned or not _is_cell(nd, shapes):
            continue
        members = _grow_region(nd, index, shapes)
        assigned.update(id(m) for m in members)
        region_ids = {id(m) for m in members}
        program, operands = _build_program(nd, region_ids)
        if program.op_count >= 2:
            out.append(Candidate(
                kind="cellwise", root=nd, members=tuple(members),
                label=f"cellwise: {program.describe()}",
                program=program, operands=tuple(operands)))
        ra = _rowagg_from_region(nd, members, operands, region_ids,
                                 index, shapes)
        if ra is not None:
            out.append(ra)
    return out


def _rowagg_from_region(root: Node, members: list[Node],
                        operands: list[Node], region_ids: set[int],
                        index: DagIndex,
                        shapes: dict[int, tuple]) -> Candidate | None:
    """Absorb one feeding MatVec whose only consumers are in the region."""
    for mv in operands:
        if not isinstance(mv, MatVec):
            continue
        if not all(id(p) in region_ids
                   for p in index.parents.get(id(mv), [])):
            continue                       # materialized for an outsider
        mat = mv.mat
        if isinstance(mat, Transpose):
            base = mat.child
            # the Transpose node is erased too: it must feed only this mv
            if not isinstance(base, Input) or any(
                    p is not mv for p in index.parents.get(id(mat), [])):
                continue
        elif not isinstance(mat, Input):
            continue
        if shapes.get(id(mv), (None,))[0] != VEC:
            continue
        # rebuild the program with the matvec result as input 0
        order = [mv] + [o for o in operands if o is not mv]
        remap = {id(o): k for k, o in enumerate(order)}
        program, _ = _build_program(root, region_ids)
        expr = _remap_inputs(program.expr, operands, remap)
        new_program = CellwiseProgram(expr, len(order))
        ra_members = list(members) + [mv]
        if isinstance(mat, Transpose):
            ra_members.append(mat)
        op = "t(X) %*% ." if isinstance(mat, Transpose) else "X %*% ."
        return Candidate(
            kind="rowagg", root=root, members=tuple(ra_members),
            label=f"rowagg: {op} -> {new_program.describe()}",
            program=new_program, operands=tuple(order), mv=mv)
    return None


def _remap_inputs(expr: tuple, operands: list[Node],
                  remap: dict[int, int]) -> tuple:
    if expr[0] == "in":
        return ("in", remap[id(operands[expr[1]])])
    if expr[0] == "smul":
        return ("smul", expr[1], _remap_inputs(expr[2], operands, remap))
    return (expr[0], _remap_inputs(expr[1], operands, remap),
            _remap_inputs(expr[2], operands, remap))
