"""Code generation for the dense fused kernel (the paper's Listing 2).

CUDA only keeps arrays in registers when every index is a compile-time
constant, so the paper generates a specialized kernel per (n, VS, TL) with
the ``l_y``/``l_X``/``l_w`` loops fully unrolled into *named* registers
(``l_y1``, ``l_y2``, ...).  We reproduce that mechanism faithfully in the
simulation's host language: :func:`generate_source` emits Python source whose
per-thread-load block is unrolled into explicitly named locals, and
:func:`get_kernel` compiles and caches it per specialization key — the same
"generate at invocation time, negligible cost vs. compute" workflow the paper
describes.

The generated function computes ``alpha * X^T (v ⊙ (X y))`` for a dense,
VS-padded ``X`` with all rows processed batch-wise (the batch axis plays the
role of the grid of vectors; the unrolled column slices play the role of each
thread's registers).
"""

from __future__ import annotations

import math
import threading
from hashlib import blake2b
from typing import Callable

import numpy as np

from ..sparse.csr import CsrMatrix
from ..sparse.ops import SpmvPlan, check_vector

_KERNEL_CACHE: dict[tuple[int, int, int], object] = {}


def specialization_key(n: int, vs: int, tl: int) -> tuple[int, int, int]:
    """Cache key for one generated kernel (mirrors ``mtmvm_<n>_<VS>_<TL>``)."""
    return (int(n), int(vs), int(tl))


def generate_source(n: int, vs: int, tl: int) -> str:
    """Emit unrolled Python source for the ``mtmvm_{n}_{vs}_{tl}`` kernel.

    ``n`` must equal ``vs * tl`` (the padded column count); each of the ``tl``
    unroll steps owns one ``vs``-wide column slice, held in named locals.
    """
    if n != vs * tl:
        raise ValueError(f"padded n={n} must equal VS*TL={vs}*{tl}")
    if tl < 1 or vs < 1:
        raise ValueError("VS and TL must be positive")

    name = f"mtmvm_{n}_{vs}_{tl}"
    lines = [
        f"def {name}(X, y, v, alpha, out):",
        f'    """Generated fused kernel: n={n}, VS={vs}, TL={tl} '
        '(unrolled)."""',
    ]
    # --- load y into registers (Algorithm 3 lines 4-5, unrolled) ------------
    for i in range(1, tl + 1):
        lo, hi = (i - 1) * vs, i * vs
        lines.append(f"    l_y{i} = y[{lo}:{hi}]")
    # --- load X slices into registers (lines 11-12, unrolled) ---------------
    for i in range(1, tl + 1):
        lo, hi = (i - 1) * vs, i * vs
        lines.append(f"    l_X{i} = X[:, {lo}:{hi}]")
    # --- dot product with register accumulation (line 13, unrolled) ---------
    lines.append("    s = l_X1 @ l_y1")
    for i in range(2, tl + 1):
        lines.append(f"    s += l_X{i} @ l_y{i}")
    # --- the v ⊙ (.) step (line 20) ------------------------------------------
    lines.append("    if v is not None:")
    lines.append("        s = s * v")
    # --- scale rows and accumulate partial w (lines 23-24 + 26-27, unrolled) -
    for i in range(1, tl + 1):
        lines.append(f"    l_w{i} = l_X{i}.T @ s")
    for i in range(1, tl + 1):
        lo, hi = (i - 1) * vs, i * vs
        lines.append(f"    out[{lo}:{hi}] += alpha * l_w{i}")
    lines.append("    return out")
    return "\n".join(lines) + "\n"


def ensure_kernel(n: int, vs: int, tl: int) -> tuple[object, bool]:
    """Fetch (or compile) the specialized kernel; reports whether this call
    actually compiled it — session layers use the flag for accounting."""
    key = specialization_key(n, vs, tl)
    fn = _KERNEL_CACHE.get(key)
    if fn is not None:
        return fn, False
    src = generate_source(n, vs, tl)
    namespace: dict[str, object] = {}
    code = compile(src, filename=f"<generated mtmvm_{n}_{vs}_{tl}>",
                   mode="exec")
    exec(code, namespace)  # noqa: S102 - generated from trusted template
    fn = namespace[f"mtmvm_{n}_{vs}_{tl}"]
    _KERNEL_CACHE[key] = fn
    return fn, True


def get_kernel(n: int, vs: int, tl: int):
    """Compile (or fetch from cache) the specialized kernel function."""
    return ensure_kernel(n, vs, tl)[0]


def cache_size() -> int:
    return len(_KERNEL_CACHE)


def clear_cache() -> None:
    _KERNEL_CACHE.clear()


def pad_for_vector_size(n: int, vs: int) -> int:
    """Columns after zero-padding so VS divides n (at most VS-1 extra)."""
    return math.ceil(n / vs) * vs


# --------------------------------------------------------------------------
# Cell-wise fused kernels (optimizer-emitted regions)
# --------------------------------------------------------------------------

_CELLWISE_CACHE: dict[tuple, object] = {}


def generate_cellwise_source(n: int, vs: int, tl: int, program) -> str:
    """Emit unrolled source for a fused cell-wise kernel.

    ``program`` is a :class:`repro.kernels.cellwise.CellwiseProgram`.  The
    emitted ``cellwise_{n}_{vs}_{tl}(a0, ..., ak, out)`` follows the same
    Listing-2 register discipline as :func:`generate_source`: each of the
    ``tl`` unroll steps loads every operand's ``vs``-wide slice into named
    locals with compile-time-constant bounds, evaluates the region's whole
    expression in registers, and stores the result slice exactly once —
    the invariants :func:`repro.analyze.check_cellwise_source` enforces.
    """
    if n != vs * tl:
        raise ValueError(f"padded n={n} must equal VS*TL={vs}*{tl}")
    if tl < 1 or vs < 1:
        raise ValueError("VS and TL must be positive")

    name = f"cellwise_{n}_{vs}_{tl}"
    args = [f"a{k}" for k in range(program.n_inputs)]
    lines = [
        f"def {name}({', '.join(args)}, out):",
        f'    """Generated fused cell-wise kernel: '
        f'{program.describe()} (n={n}, VS={vs}, TL={tl})."""',
    ]
    for i in range(1, tl + 1):
        lo, hi = (i - 1) * vs, i * vs
        for k in range(program.n_inputs):
            lines.append(f"    l_a{k}s{i} = a{k}[{lo}:{hi}]")
        expr = program.render(
            [f"l_a{k}s{i}" for k in range(program.n_inputs)])
        lines.append(f"    out[{lo}:{hi}] = {expr}")
    lines.append("    return out")
    return "\n".join(lines) + "\n"


def ensure_cellwise_kernel(n: int, vs: int, tl: int,
                           program) -> tuple[object, bool]:
    """Fetch (or compile) a cell-wise specialization; flags compilation."""
    key = (program.expr, program.n_inputs, int(n), int(vs), int(tl))
    fn = _CELLWISE_CACHE.get(key)
    if fn is not None:
        return fn, False
    src = generate_cellwise_source(n, vs, tl, program)
    namespace: dict[str, object] = {}
    code = compile(src, filename=f"<generated cellwise_{n}_{vs}_{tl}>",
                   mode="exec")
    exec(code, namespace)  # noqa: S102 - generated from trusted template
    fn = namespace[f"cellwise_{n}_{vs}_{tl}"]
    _CELLWISE_CACHE[key] = fn
    return fn, True


# --------------------------------------------------------------------------
# Sparse fused family (ahead-of-time, structure-specialized)
# --------------------------------------------------------------------------
#
# The warm iterative path executes the same CSR kernels (Algorithm 1/2,
# csrmv, csrmv-scalar) on the same matrix hundreds of times.  Mirroring the
# Listing-2 workflow, each generator below emits *flat* Python source for
# one structure specialization: the segment boundaries of the cached
# :class:`~repro.sparse.ops.SpmvPlan` (``reduceat`` starts, non-empty-row
# mask, row-expansion index) and the matrix's value/index streams are bound
# into the function's namespace as uppercase constants, and every scalar the
# structure fixes — m, n, nnz, the §3.3 ``VS``/``C`` — is baked in as a
# literal.  Degenerate structures (``nnz == 0`` / ``m == 0``) bake their
# early-exit at generation time, so the emitted body is always straight-line
# code with no data-dependent branches.
#
# Each generated function performs *exactly* the NumPy operations of its
# interpreted twin in :class:`~repro.sparse.ops.SpmvPlan` /
# :func:`~repro.kernels.sparse_fused.fused_pattern_sparse`, in the same
# order on the same operands — results are bit-identical by construction
# (asserted over the parity sweep in ``tests/test_codegen_sparse.py``).

#: namespace constants every generated sparse kernel may reference
SPARSE_CONSTANTS = ("VALUES", "COL_IDX", "STARTS", "NONEMPTY", "ROW_EXPAND")

#: call-shape suffix for the fused entry point: (has_v, has_beta) -> name
FUSED_SUFFIX = {(False, False): "", (True, False): "_v",
                (False, True): "_b", (True, True): "_vb"}

_SPARSE_CODE_CACHE: dict[tuple, object] = {}
_SPARSE_CODE_LOCK = threading.Lock()


def sparse_structure_tag(X: CsrMatrix) -> str:
    """8-hex digest of the *structure* (shape + index arrays, not values).

    Two matrices with the same sparsity pattern share one tag — and
    therefore one set of compiled code objects; only the bound constants
    differ.  This is what makes value-only mutation recompile-free.
    """
    h = blake2b(digest_size=4)
    h.update(np.asarray(X.shape, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(X.col_idx))
    h.update(np.ascontiguousarray(X.row_off))
    return h.hexdigest()


def sparse_kernel_name(stage: str, tag: str, vs: int, c: int,
                       suffix: str = "") -> str:
    """``sparse_<stage>_<tag>_<VS>_<C>[_v|_b|_vb]`` naming scheme."""
    return f"sparse_{stage}_{tag}_{vs}_{c}{suffix}"


def generate_sparse_spmv_source(tag: str, vs: int, c: int,
                                m: int, n: int, nnz: int) -> str:
    """Emit flat source for the planned-SpMV stage (``X @ y``)."""
    name = sparse_kernel_name("spmv", tag, vs, c)
    lines = [
        f"def {name}(y, scratch):",
        f'    """Generated SpMV: structure {tag}, m={m}, n={n}, '
        f'nnz={nnz}, VS={vs}, C={c}."""',
    ]
    if nnz == 0 or m == 0:
        lines += [f"    out = np.zeros({m})"]
    else:
        lines += [
            "    np.take(y, COL_IDX, out=scratch)",
            "    np.multiply(VALUES, scratch, out=scratch)",
            f"    out = np.zeros({m})",
            "    out[NONEMPTY] = np.add.reduceat(scratch, STARTS)",
        ]
    lines.append("    return out")
    return "\n".join(lines) + "\n"


def generate_sparse_spmvt_source(tag: str, vs: int, c: int,
                                 m: int, n: int, nnz: int) -> str:
    """Emit flat source for the xt-accumulate stage (``X^T @ p``)."""
    name = sparse_kernel_name("spmvt", tag, vs, c)
    lines = [
        f"def {name}(p, scratch):",
        f'    """Generated transpose SpMV: structure {tag}, m={m}, n={n}, '
        f'nnz={nnz}, VS={vs}, C={c}."""',
    ]
    if nnz == 0:
        lines += [f"    out = np.zeros({n})"]
    else:
        lines += [
            "    np.take(p, ROW_EXPAND, out=scratch)",
            "    np.multiply(VALUES, scratch, out=scratch)",
            f"    out = np.bincount(COL_IDX, weights=scratch, "
            f"minlength={n})",
        ]
    lines.append("    return out")
    return "\n".join(lines) + "\n"


def generate_sparse_fused_source(tag: str, vs: int, c: int,
                                 m: int, n: int, nnz: int,
                                 with_v: bool, with_beta: bool) -> str:
    """Emit flat source for Algorithm 2 at one call shape.

    The four call shapes (``v`` present x ``beta != 0``) are distinct
    specializations — the interpreted kernel's runtime flag checks become
    generation-time decisions, so the emitted body contains the inter-vector
    and axpy stages only when the shape includes them.
    """
    sfx = FUSED_SUFFIX[(with_v, with_beta)]
    name = sparse_kernel_name("fused", tag, vs, c, sfx)
    shape = f"v={'yes' if with_v else 'no'}, beta={'yes' if with_beta else 'no'}"
    lines = [
        f"def {name}(y, v, z, alpha, beta, scratch):",
        f'    """Generated Algorithm 2 ({shape}): structure {tag}, '
        f'm={m}, n={n}, nnz={nnz}, VS={vs}, C={c}."""',
    ]
    degenerate = nnz == 0 or m == 0
    if degenerate:
        lines += [f"    p = np.zeros({m})"]
    else:
        lines += [
            "    np.take(y, COL_IDX, out=scratch)",
            "    np.multiply(VALUES, scratch, out=scratch)",
            f"    p = np.zeros({m})",
            "    p[NONEMPTY] = np.add.reduceat(scratch, STARTS)",
        ]
    if with_v:
        lines.append("    p = p * v")
    if degenerate:
        lines.append(f"    w = alpha * np.zeros({n})")
    else:
        lines += [
            "    np.take(p, ROW_EXPAND, out=scratch)",
            "    np.multiply(VALUES, scratch, out=scratch)",
            f"    w = alpha * np.bincount(COL_IDX, weights=scratch, "
            f"minlength={n})",
        ]
    if with_beta:
        lines.append("    w = w + beta * z")
    lines.append("    return w")
    return "\n".join(lines) + "\n"


def _sparse_code(name: str, source: str,
                 key: tuple) -> tuple[object, bool]:
    """Compile (or fetch) one generated source; flags a fresh compile.

    Code objects are cached per (name, shape) — the name carries the
    structure tag and specialization, so matrices sharing a sparsity
    pattern share compiled code and only rebind constants.
    """
    with _SPARSE_CODE_LOCK:
        code = _SPARSE_CODE_CACHE.get(key)
        if code is not None:
            return code, False
    code = compile(source, filename=f"<generated {name}>", mode="exec")
    with _SPARSE_CODE_LOCK:
        return _SPARSE_CODE_CACHE.setdefault(key, code), True


class CompiledSparseKernels:
    """AOT-compiled sparse kernel family for one matrix's structure+content.

    Built once per (structure fingerprint x specialization) and cached in
    the :class:`~repro.core.engine.PatternEngine` artifact LRU next to the
    kernel profile; the warm path of iterative solvers dispatches through
    these callables from iteration 2 onward.  Holds:

    * the six generated entry points (``spmv``, ``spmvt``, and the four
      fused call shapes), compiled from flat specialization-constant source;
    * the bound constants — views of the matrix arrays and the
      :class:`~repro.sparse.ops.SpmvPlan` inspector products, shared (not
      copied) with their owners;
    * the emitted sources, for the ``repro codegen`` inspection CLI and the
      ``repro check`` linter.

    The bundle is valid for the matrix content it was built from, exactly
    like every other fingerprint-keyed engine artifact.
    """

    def __init__(self, X: CsrMatrix, plan: SpmvPlan | None = None,
                 vs: int = 32, c: int = 1):
        if not isinstance(X, CsrMatrix):
            raise TypeError("CompiledSparseKernels requires a CsrMatrix")
        plan = plan if plan is not None else SpmvPlan(X)
        self.tag = sparse_structure_tag(X)
        self.vs, self.c = int(vs), int(c)
        self.m, self.n, self.nnz = X.m, X.n, X.nnz
        self.plan = plan
        self.sources: dict[str, str] = {}
        self.fresh_compiles = 0
        self._fns: dict[str, Callable] = {}

        dims = (self.m, self.n, self.nnz)
        specs: list[tuple[str, str, str]] = [
            ("spmv", sparse_kernel_name("spmv", self.tag, vs, c),
             generate_sparse_spmv_source(self.tag, vs, c, *dims)),
            ("spmvt", sparse_kernel_name("spmvt", self.tag, vs, c),
             generate_sparse_spmvt_source(self.tag, vs, c, *dims)),
        ]
        for flags, sfx in FUSED_SUFFIX.items():
            specs.append((
                f"fused{sfx}",
                sparse_kernel_name("fused", self.tag, vs, c, sfx),
                generate_sparse_fused_source(self.tag, vs, c, *dims, *flags),
            ))
        namespace: dict[str, object] = {"np": np}
        namespace.update(plan.codegen_constants())
        for stage_key, name, src in specs:
            code, fresh = _sparse_code(name, src, (name, *dims))
            exec(code, namespace)  # noqa: S102 - generated from trusted template
            self._fns[stage_key] = namespace[name]  # type: ignore[assignment]
            self.sources[name] = src
            self.fresh_compiles += int(fresh)

    @property
    def nbytes(self) -> int:
        """LRU footprint: source text + dispatch tables.  The bound array
        constants are shared views of the matrix and its cached SpmvPlan,
        both already charged to their own cache entries."""
        return sum(len(s) for s in self.sources.values()) + 512

    # ------------------------------------------------------------- dispatch --
    def spmv(self, y: np.ndarray) -> np.ndarray:
        """Compiled twin of :meth:`~repro.sparse.ops.SpmvPlan.spmv`."""
        y = check_vector(y, self.n, "y")
        return self._fns["spmv"](y, self.plan.scratch())

    def spmv_t(self, p: np.ndarray) -> np.ndarray:
        """Compiled twin of :meth:`~repro.sparse.ops.SpmvPlan.spmv_t`."""
        p = check_vector(p, self.m, "p")
        return self._fns["spmvt"](p, self.plan.scratch())

    def fused(self, y: np.ndarray, v: np.ndarray | None = None,
              z: np.ndarray | None = None, alpha: float = 1.0,
              beta: float = 0.0) -> np.ndarray:
        """Compiled twin of the interpreted Algorithm-2 dataflow."""
        y = check_vector(y, self.n, "y")
        if v is not None:
            v = check_vector(v, self.m, "v")
        if beta != 0.0:
            if z is None:
                raise ValueError("beta != 0 requires z")
            z = check_vector(z, self.n, "z")
        fn = self._fns["fused" + FUSED_SUFFIX[(v is not None, beta != 0.0)]]
        return fn(y, v, z, alpha, beta, self.plan.scratch())


def sparse_code_cache_size() -> int:
    with _SPARSE_CODE_LOCK:
        return len(_SPARSE_CODE_CACHE)


def clear_sparse_code_cache() -> None:
    with _SPARSE_CODE_LOCK:
        _SPARSE_CODE_CACHE.clear()
