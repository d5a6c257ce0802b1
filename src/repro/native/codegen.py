"""C source generation for compiled per-plan transpose kernels.

A cached :class:`~repro.core.plan.TransposePlan` executes three (or two)
decomposition passes as numpy gathers off precomputed ``O(mn)`` index maps.
That path is interpreter-bound: BENCH_ci.json puts it at ~20-36 ns/elem
against a ~0.2-0.6 ns/elem memcpy ceiling.  This module closes the gap the
way Section 4.4 of the paper does on the GPU — by *specializing the index
arithmetic at compile time*.  For a concrete ``(dec, algorithm, itemsize)``
it emits the gather/rotation passes as flat C loops in which every ``//``
and ``%`` by a decomposition constant is strength-reduced to the
fixed-point-reciprocal multiply of :mod:`repro.strength.magic`, with the
``(multiplier, shift)`` pairs inlined as integer literals.

The generated translation unit exports, with C linkage:

``int repro_pass_<k>(char *buf, int64_t lo, int64_t hi)``
    Pass ``k`` over the half-open range ``[lo, hi)`` of its parallel axis
    (column groups for rotations, rows for the row shuffle, columns for the
    column shuffle) — the same chunk geometry
    :mod:`repro.parallel.cpu` schedules, so the thread backend can drive a
    compiled kernel directly.  Returns 0, or 1 if scratch allocation failed
    *before any element moved* (the caller falls back to numpy).
``int repro_pass_<k>_batch(char *buf, int64_t k)``
    The same pass applied to ``k`` consecutive ``m x n`` tiles.
``int repro_pass_<k>_banded(char *buf, int64_t lo, int64_t hi,
int64_t rs, int64_t origin)``
    For the column-facing passes (rotation, column shuffle): the same
    chunk ``[lo, hi)`` in *global* coordinates, executed against a band
    buffer that holds only columns ``[origin, origin + width)`` of every
    row (column groups ``[origin, ...)`` for the rotation) at a row
    stride of ``rs`` elements.  The index arithmetic is untouched — the
    band variants share one static body with the full-width entry points
    (which are exactly ``rs = n, origin = 0``) — only the addressing is
    rebased, which is what lets the out-of-core banded executor run the
    compiled passes on its bounded-residency column buffer.  The row
    shuffle needs no variant: a row band keeps the full row stride, so
    the executor hands ``repro_pass_gather_cols`` a shifted base pointer.
``int repro_run(char *buf)`` / ``int repro_run_batch(char *buf, int64_t k)``
    All passes in plan order over one tile / ``k`` tiles.

Every pass allocates its scratch up front and returns 1 without touching
the matrix when the allocation fails, so a nonzero return never leaves a
half-permuted buffer.

Eligibility
-----------
The 31-bit reciprocals are exact for operands below ``2**31``; the largest
intermediate products are ``(a - 1)**2`` and ``(b - 1)**2`` (the modular
inverse multiplies of Eqs. 31/34).  :func:`ineligible_reason` therefore
requires ``m*n + m + n < 2**31``, ``max(a, b) <= MAX_AB`` and an itemsize
the generated element type can move (1, 2, 4, 8 or 16 bytes).  Ineligible
shapes simply fall back to the numpy plan path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.indexing import Decomposition
from ..core.numbertheory import mmi
from ..strength.magic import compute_magic

__all__ = [
    "PassInfo",
    "KernelSpec",
    "ineligible_reason",
    "generate_source",
    "banded_pass_symbol",
    "SUPPORTED_ITEMSIZES",
    "MAX_AB",
]

#: itemsizes the generated element type can represent
SUPPORTED_ITEMSIZES = (1, 2, 4, 8, 16)

#: largest a or b: keeps the modular-inverse products (a-1)^2 / (b-1)^2
#: below 2**31, the exactness bound of the 31-bit reciprocals (the same
#: bound :class:`repro.strength.reduced.ReducedEquations` enforces on b)
MAX_AB = 46_340

_ELEM_TYPES = {
    1: "uint8_t",
    2: "uint16_t",
    4: "uint32_t",
    8: "uint64_t",
    16: "repro_elem16_t",
}

#: scratch ceiling for the column-shuffle block (bytes); the block width
#: shrinks for tall matrices so the temp tile stays cache-resident
_COL_BLOCK_SCRATCH = 1 << 19


@dataclass(frozen=True)
class PassInfo:
    """One generated pass: its plan-step kind, the name the parallel
    transposer schedules it under, its parallel axis, and the axis extent."""

    kind: str  # plan-step kind: rotate_groups | gather_cols | gather_rows
    parallel_name: str  # pre_rotate | row_shuffle | column_shuffle | ...
    axis: str  # groups | rows | cols
    extent: int


@dataclass(frozen=True)
class KernelSpec:
    """A generated translation unit plus the metadata needed to drive it."""

    m: int
    n: int
    algorithm: str
    itemsize: int
    passes: tuple[PassInfo, ...]
    source: str


def ineligible_reason(dec: Decomposition, itemsize: int) -> str | None:
    """Why this shape cannot be compiled, or ``None`` when it can."""
    if itemsize not in SUPPORTED_ITEMSIZES:
        return f"itemsize {itemsize} not in {SUPPORTED_ITEMSIZES}"
    if dec.m * dec.n + dec.m + dec.n >= 2**31:
        return "m*n + m + n >= 2**31 exceeds the 31-bit reciprocal range"
    if max(dec.a, dec.b) > MAX_AB:
        return (
            f"max(a, b) = {max(dec.a, dec.b)} > {MAX_AB} overflows the "
            "modular-inverse product bound"
        )
    return None


def _magic_macros(dec: Decomposition) -> str:
    """``DIV_X``/``MOD_X`` macros with the reciprocals as literals."""
    lines = [
        "/* fixed-point reciprocals (Hacker's Delight round-up method,",
        "   repro.strength.magic.compute_magic, nbits=31): exact for",
        "   0 <= x < 2**31. */",
    ]
    for name, d in (
        ("M", dec.m), ("N", dec.n), ("A", dec.a), ("B", dec.b), ("C", dec.c)
    ):
        mg = compute_magic(d, nbits=31)
        lines.append(
            f"#define DIV_{name}(x) ((int64_t)(((uint64_t)(x) * "
            f"UINT64_C({mg.multiplier})) >> {mg.shift}))"
        )
        lines.append(
            f"#define MOD_{name}(x) ((int64_t)(x) - DIV_{name}(x) * "
            f"INT64_C({d}))"
        )
    return "\n".join(lines)


def _rotate_pass(dec: Decomposition, itemsize: int, *, inverse: bool) -> str:
    """Group rotation (Eq. 23 / Eq. 36): column group ``g`` rotates by
    ``g mod m`` rows — downward for C2R's pre-rotation, upward for R2C's
    post-rotation.  Both reduce to one left-rotation of the group's ``m``
    row segments."""
    # np.roll(V, -k): out[i] = in[(i+k) % m]  -> left-rotate by k (c2r pre)
    # np.roll(V, +k): out[i] = in[(i-k) % m]  -> left-rotate by m-k (r2c post)
    keff = "(INT64_C(%d) - k)" % dec.m if inverse else "k"
    if dec.b * itemsize >= 64:
        # Wide groups: rotate the m row segments with min(k, m-k) segments
        # of scratch and row-level memcpys (each segment is b contiguous
        # elements at stride rs — the full row n, or a band copy's width).
        body = """
static int rotate_group(elem_t *g0, int64_t k, elem_t *tmp, int64_t rs) {
  int64_t i;
  if (k <= M - k) {
    for (i = 0; i < k; ++i)
      memcpy(tmp + i * B, g0 + i * rs, (size_t)B * sizeof(elem_t));
    for (i = 0; i < M - k; ++i)
      memmove(g0 + i * rs, g0 + (i + k) * rs, (size_t)B * sizeof(elem_t));
    for (i = 0; i < k; ++i)
      memcpy(g0 + (M - k + i) * rs, tmp + i * B, (size_t)B * sizeof(elem_t));
  } else {
    int64_t r = M - k;
    for (i = 0; i < r; ++i)
      memcpy(tmp + i * B, g0 + (M - r + i) * rs, (size_t)B * sizeof(elem_t));
    for (i = M - r - 1; i >= 0; --i)
      memmove(g0 + (i + r) * rs, g0 + i * rs, (size_t)B * sizeof(elem_t));
    for (i = 0; i < r; ++i)
      memcpy(g0 + i * rs, tmp + i * B, (size_t)B * sizeof(elem_t));
  }
  return 0;
}
"""
        return body + f"""
static int repro_rotate_impl(char *bufc, int64_t glo, int64_t ghi,
                             int64_t rs, int64_t gband) {{
  elem_t *V = (elem_t *) bufc;
  elem_t *tmp;
  int64_t g;
  if (glo >= ghi) return 0;
  tmp = (elem_t *) malloc((size_t)(M / 2 + 1) * (size_t)B * sizeof(elem_t));
  if (tmp == NULL) return 1;
  for (g = glo; g < ghi; ++g) {{
    int64_t k = MOD_M(g);
    if (k == 0) continue;
    k = {keff};
    if (k == 0 || k == M) continue;
    rotate_group(V + (g - gband) * B, k, tmp, rs);
  }}
  free(tmp);
  return 0;
}}

int repro_pass_rotate(char *bufc, int64_t glo, int64_t ghi) {{
  int rc = repro_rotate_impl(bufc, glo, ghi, N, 0);
  return rc;
}}

int repro_pass_rotate_banded(char *bufc, int64_t glo, int64_t ghi,
                             int64_t rs, int64_t gband) {{
  int rc = repro_rotate_impl(bufc, glo, ghi, rs, gband);
  return rc;
}}
"""
    # Narrow groups (b * itemsize below a cache line): a per-group
    # column walk would stride by the full row (4 KiB for 512 f64
    # columns — one TLB miss and one cache-set conflict per element).
    # Instead, treat the whole pass as the gather it is — in source-row
    # space it is *regular*: group g reads row (i + g) mod m (C2R) or
    # (i - g) mod m (R2C), so along a block row the source address
    # advances by a fixed stride per group, b contiguous elements per
    # group, wrapping only every m groups.  The pass is blocked over
    # GBLK whole groups, and each block's column stripe is first staged
    # into scratch with row-contiguous copies (prefetcher-friendly,
    # bandwidth-bound) so the strided gather walks cache-resident
    # scratch and the permuted rows stream straight back to the array.
    gblk = max(
        1,
        min(64, _COL_BLOCK_SCRATCH // max(dec.m * itemsize, 1)) // dec.b,
    )
    if inverse:
        s_init = "int64_t s = i - k0; if (s < 0) s += M;"
        run_cap = "s + 1"
        step = "p -= wcols - B;"
        s_reset = "s = M - 1;"
    else:
        s_init = "int64_t s = i + k0; if (s >= M) s -= M;"
        run_cap = "M - s"
        step = "p += wcols + B;"
        s_reset = "s = 0;"
    return f"""
#define GBLK {gblk}

static int repro_rotate_impl(char *bufc, int64_t glo, int64_t ghi,
                             int64_t rs, int64_t gband) {{
  elem_t *V = (elem_t *) bufc;
  elem_t *stage;
  int64_t g0, i;
  if (glo >= ghi) return 0;
  stage = (elem_t *) malloc((size_t)M * GBLK * B * sizeof(elem_t));
  if (stage == NULL) return 1;
  for (g0 = glo; g0 < ghi; g0 += GBLK) {{
    int64_t gw = (g0 + GBLK <= ghi) ? GBLK : (ghi - g0);
    int64_t wcols = gw * B;
    int64_t k0 = MOD_M(g0);
    for (i = 0; i < M; ++i)
      memcpy(stage + i * wcols, V + i * rs + (g0 - gband) * B,
             (size_t)wcols * sizeof(elem_t));
    for (i = 0; i < M; ++i) {{
      elem_t *dst = V + i * rs + (g0 - gband) * B;
      {s_init}
      {{
        int64_t g = 0;
        while (g < gw) {{
          int64_t run = {run_cap};
          const elem_t *p = stage + s * wcols + g * B;
          elem_t *to = dst + g * B;
          int64_t gg, e;
          if (run > gw - g) run = gw - g;
          for (gg = 0; gg < run; ++gg) {{
            for (e = 0; e < B; ++e) to[e] = p[e];
            to += B;
            {step}
          }}
          g += run;
          {s_reset}
        }}
      }}
    }}
  }}
  free(stage);
  return 0;
}}

int repro_pass_rotate(char *bufc, int64_t glo, int64_t ghi) {{
  int rc = repro_rotate_impl(bufc, glo, ghi, N, 0);
  return rc;
}}

int repro_pass_rotate_banded(char *bufc, int64_t glo, int64_t ghi,
                             int64_t rs, int64_t gband) {{
  int rc = repro_rotate_impl(bufc, glo, ghi, rs, gband);
  return rc;
}}
"""


def _gather_cols_pass(dec: Decomposition, *, algorithm: str) -> str:
    """Row shuffle: each row gathers along axis 1 with ``d'^{-1}`` (Eq. 31,
    C2R) or ``d'`` (Eq. 24, R2C), through an n-element scratch row.

    The per-element index equation is folded into an n-entry lookup table
    built once per pass call (n increments of the Section 4.4 reduced
    counters).  Each row then decomposes into segments on which the
    correction term is constant and the table index advances by one, so
    the inner loops are pure sequential-index gathers — no loop-carried
    counters or per-element conditionals between a load and the next."""
    if algorithm == "c2r":
        # Eq. 31 depends on f = j + i*(n-1) + corr only through f mod n
        # (n = b*c, so f//c mod b and f mod c are both functions of the
        # residue): src = T[(j - i + corr) mod n], with T[r] =
        # (a^{-1} * (r//c)) mod b + (r mod c) * b, and corr = m exactly
        # when (j mod c) < i + c - m (the f-helper of Section 4.2).
        # Within each aligned c-block of j the condition is a prefix
        # (j mod c < th), so the block is two runs of consecutive table
        # indices; repro_gcseq copies one run, splitting at the mod-n wrap.
        a_inv = mmi(dec.a, dec.b)
        m_mod_n = dec.m % dec.n
        build_table = f"""
  {{
    int64_t u = 0, rb = 0, rc = 0, r;
    for (r = 0; r < N; ++r) {{
      T[r] = (int32_t)(u + rb);
      rb += B;
      if (++rc == C) {{
        rc = 0; rb = 0;
        u += INT64_C({a_inv});
        if (u >= B) u -= B;
      }}
    }}
  }}"""
        helper = """
static void repro_gcseq(elem_t *dst, const elem_t *row, const int32_t *T,
                        int64_t t, int64_t len) {
  while (len > 0) {
    int64_t run = N - t;
    const int32_t *tp = T + t;
    int64_t e;
    if (run > len) run = len;
    for (e = 0; e < run; ++e) dst[e] = row[tp[e]];
    dst += run;
    len -= run;
    t = 0;
  }
}
"""
        inner = f"""
    int64_t th = i + C - M;
    int64_t im = MOD_N(i);
    int64_t tB = (im == 0) ? 0 : (N - im);
    int64_t jb0;
    if (th < 0) th = 0;
    for (jb0 = 0; jb0 < N; jb0 += C) {{
      int64_t tA = tB + INT64_C({m_mod_n});
      int64_t tb2 = tB + th;
      if (tA >= N) tA -= N;
      if (tb2 >= N) tb2 -= N;
      repro_gcseq(tmp + jb0, row, T, tA, th);
      repro_gcseq(tmp + jb0 + th, row, T, tb2, C - th);
      tB += C;
      if (tB >= N) tB -= N;
    }}"""
    else:
        # Eq. 24: src = ((i + j//b) mod m + j*m) mod n.  The j-only part
        # S[j] = (j//b + j*m) mod n is tabulated; the mod-m clamp of
        # (i + j//b) fires exactly when j//b >= m - i, i.e. for the row
        # suffix j >= (m - i)*b, and adds NEG = (-m) mod n.  Each row is
        # therefore two segments of t = off + T[j] with off constant; the
        # remaining per-element mod-n subtract is data-dependent but not
        # loop-carried, so loads pipeline freely.
        m_mod_n = dec.m % dec.n
        neg = (dec.n - m_mod_n) % dec.n
        build_table = f"""
  {{
    int64_t jb = 0, jm = 0, bc = 0, t, j;
    for (j = 0; j < N; ++j) {{
      t = jb + jm;
      if (t >= N) t -= N;
      T[j] = (int32_t) t;
      jm += INT64_C({m_mod_n});
      if (jm >= N) jm -= N;
      if (++bc == B) {{ bc = 0; ++jb; }}
    }}
  }}"""
        helper = """
static void repro_gcoff(elem_t *dst, const elem_t *row, const int32_t *T,
                        int64_t off, int64_t len) {
  int64_t e;
  for (e = 0; e < len; ++e) {
    int64_t t = off + T[e];
    if (t >= N) t -= N;
    dst[e] = row[t];
  }
}
"""
        inner = f"""
    int64_t im = MOD_N(i);
    int64_t jsplit = (M - i) * B;  /* first j where the mod-m clamp fires */
    int64_t off2 = im + INT64_C({neg});
    if (jsplit > N) jsplit = N;
    if (off2 >= N) off2 -= N;
    repro_gcoff(tmp, row, T, im, jsplit);
    repro_gcoff(tmp + jsplit, row, T + jsplit, off2, N - jsplit);"""
    return f"""
{helper}
int repro_pass_gather_cols(char *bufc, int64_t lo, int64_t hi) {{
  elem_t *V = (elem_t *) bufc;
  elem_t *tmp;
  int32_t *T;
  int64_t i;
  if (lo >= hi) return 0;
  tmp = (elem_t *) malloc((size_t)N * sizeof(elem_t));
  if (tmp == NULL) return 1;
  T = (int32_t *) malloc((size_t)N * sizeof(int32_t));
  if (T == NULL) {{ free(tmp); return 1; }}
{build_table}
  for (i = lo; i < hi; ++i) {{
    elem_t *row = V + i * N;
{inner}
    memcpy(row, tmp, (size_t)N * sizeof(elem_t));
  }}
  free(T);
  free(tmp);
  return 0;
}}
"""


def _gather_rows_pass(dec: Decomposition, itemsize: int, *, algorithm: str) -> str:
    """Column shuffle: each column gathers along axis 0 with ``s'``
    (Eq. 26, C2R) or the fused ``q^{-1} . p^{-1}`` (Eqs. 34-35, R2C),
    blocked over ``COLBLK`` columns.  Each block's column stripe is
    staged into scratch with row-contiguous copies first, so the
    diagonal gather runs against cache-resident scratch and the permuted
    rows stream contiguously back to the array — both DRAM-facing loops
    are sequential."""
    colblk = max(1, min(64, _COL_BLOCK_SCRATCH // max(dec.m * itemsize, 1)))
    if algorithm == "c2r":
        # s'_j(i) = (j + i*n - i//a) mod m: for a fixed output row i the
        # source row walks the diagonal src, src+1, ... (mod m).  Splitting
        # the block row at the (at most one per m elements) wraparound
        # leaves runs of constant address stride w+1 in the staged slab —
        # branch-free, dependency-free loads the compiler can pipeline.
        row_loop = """
      int64_t s = MOD_M(i * N - DIV_A(i) + j0);
      int64_t jj = 0;
      while (jj < w) {
        int64_t run = M - s;
        const elem_t *p = stage + s * w + jj;
        int64_t e;
        if (run > w - jj) run = w - jj;
        for (e = 0; e < run; ++e) {
          dst[jj + e] = *p;
          p += w + 1;
        }
        jj += run;
        s = 0;
      }"""
    else:
        # Fused q^{-1} . p^{-1} (Eqs. 34-35): with x = (i - j) mod m the
        # source row is v + s2a where v = ((c-1+x)//c * b^{-1}) mod a and
        # s2a = ((c-1)*x mod c) * a.  Along a block row x decreases by 1,
        # so s2a advances by +a (the source walks rows at fixed stride
        # a*n + 1 in element space) until one of two period-c events
        # fires: s2a wraps at m = c*a, or the quotient decrements and
        # v -= b^{-1} (mod a).  Between events the loads are pure
        # fixed-stride runs; events cost O(1) and recur every ~c elements.
        c1 = dec.c - 1
        b_inv = mmi(dec.b, dec.a)
        kadj = -(-dec.n // dec.m) * dec.m  # multiple of m >= n: keeps i-j+KADJ >= 0
        row_loop = f"""
      int64_t x0 = MOD_M(i - j0 + INT64_C({kadj}));
      int64_t w0 = INT64_C({c1}) + x0;
      int64_t qd = DIV_C(w0);
      int64_t wr = w0 - qd * C;
      int64_t v = MOD_A(qd * INT64_C({b_inv}));
      int64_t s2a = MOD_C(INT64_C({c1}) * x0) * A;
      int64_t jj = 0;
      while (jj < w) {{
        int64_t run = wr + 1;
        int64_t run2 = DIV_A(M - s2a);  /* s2a is a multiple of a: exact */
        const elem_t *p = stage + (v + s2a) * w + jj;
        int64_t e;
        if (run2 < run) run = run2;
        if (w - jj < run) run = w - jj;
        for (e = 0; e < run; ++e) {{
          dst[jj + e] = *p;
          p += A * w + 1;
        }}
        jj += run;
        s2a += run * A;
        if (s2a == M) s2a = 0;
        wr -= run;
        if (wr < 0) {{
          wr += C;
          v -= INT64_C({b_inv});
          if (v < 0) v += A;
        }}
      }}"""
    return f"""
#define COLBLK {colblk}

static int repro_gather_rows_impl(char *bufc, int64_t lo, int64_t hi,
                                  int64_t rs, int64_t c0) {{
  elem_t *V = (elem_t *) bufc;
  elem_t *stage;
  int64_t j0, i;
  if (lo >= hi) return 0;
  stage = (elem_t *) malloc((size_t)M * COLBLK * sizeof(elem_t));
  if (stage == NULL) return 1;
  for (j0 = lo; j0 < hi; j0 += COLBLK) {{
    int64_t w = (j0 + COLBLK <= hi) ? COLBLK : (hi - j0);
    for (i = 0; i < M; ++i)
      memcpy(stage + i * w, V + i * rs + (j0 - c0), (size_t)w * sizeof(elem_t));
    for (i = 0; i < M; ++i) {{
      elem_t *dst = V + i * rs + (j0 - c0);
{row_loop}
    }}
  }}
  free(stage);
  return 0;
}}

int repro_pass_gather_rows(char *bufc, int64_t lo, int64_t hi) {{
  int rc = repro_gather_rows_impl(bufc, lo, hi, N, 0);
  return rc;
}}

int repro_pass_gather_rows_banded(char *bufc, int64_t lo, int64_t hi,
                                  int64_t rs, int64_t c0) {{
  int rc = repro_gather_rows_impl(bufc, lo, hi, rs, c0);
  return rc;
}}
"""


_PASS_SYMBOLS = {
    "rotate_groups": "repro_pass_rotate",
    "gather_cols": "repro_pass_gather_cols",
    "gather_rows": "repro_pass_gather_rows",
}

#: passes with a band-rebased entry point; gather_cols (the row shuffle)
#: has none because a row band keeps the full row stride and runs through
#: the plain symbol with a shifted base pointer
_BANDED_PASS_SYMBOLS = {
    "rotate_groups": "repro_pass_rotate_banded",
    "gather_rows": "repro_pass_gather_rows_banded",
}


def pass_symbol(kind: str) -> str:
    """The exported C symbol implementing a plan-step kind."""
    return _PASS_SYMBOLS[kind]


def banded_pass_symbol(kind: str) -> str | None:
    """The band-rebased C symbol for a plan-step kind, or ``None`` when the
    full-width symbol already serves band buffers (row-axis passes)."""
    return _BANDED_PASS_SYMBOLS.get(kind)


def _pass_layout(dec: Decomposition, algorithm: str) -> tuple[PassInfo, ...]:
    """Pass order and chunk axes, mirroring ``TransposePlan._build_*`` and
    the schedule names of :mod:`repro.parallel.cpu` one-to-one."""
    if algorithm == "c2r":
        passes = []
        if dec.c > 1:
            passes.append(PassInfo("rotate_groups", "pre_rotate", "groups", dec.c))
        passes.append(PassInfo("gather_cols", "row_shuffle", "rows", dec.m))
        passes.append(PassInfo("gather_rows", "column_shuffle", "cols", dec.n))
        return tuple(passes)
    passes = [
        PassInfo("gather_rows", "inverse_column_shuffle", "cols", dec.n),
        PassInfo("gather_cols", "row_shuffle_r2c", "rows", dec.m),
    ]
    if dec.c > 1:
        passes.append(PassInfo("rotate_groups", "post_rotate", "groups", dec.c))
    return tuple(passes)


def generate_source(
    dec: Decomposition, algorithm: str, itemsize: int
) -> KernelSpec:
    """Emit the full translation unit for one ``(dec, algorithm, itemsize)``.

    Raises :class:`ValueError` for shapes :func:`ineligible_reason` rejects;
    callers are expected to have checked eligibility and fallen back.
    """
    if algorithm not in ("c2r", "r2c"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    reason = ineligible_reason(dec, itemsize)
    if reason is not None:
        raise ValueError(f"shape not compilable: {reason}")

    passes = _pass_layout(dec, algorithm)
    elem = _ELEM_TYPES[itemsize]
    parts = [
        "/* generated by repro.native.codegen -- do not edit.",
        f" * plan: {algorithm} m={dec.m} n={dec.n} "
        f"(a={dec.a} b={dec.b} c={dec.c}) itemsize={itemsize}",
        " */",
        "#include <stdint.h>",
        "#include <stdlib.h>",
        "#include <string.h>",
        "",
        "typedef struct { uint64_t lo; uint64_t hi; } repro_elem16_t;",
        f"typedef {elem} elem_t;",
        "",
        f"#define M INT64_C({dec.m})",
        f"#define N INT64_C({dec.n})",
        f"#define A INT64_C({dec.a})",
        f"#define B INT64_C({dec.b})",
        f"#define C INT64_C({dec.c})",
        "",
        _magic_macros(dec),
    ]
    emitted: set[str] = set()
    for p in passes:
        if p.kind in emitted:
            continue
        emitted.add(p.kind)
        if p.kind == "rotate_groups":
            parts.append(_rotate_pass(dec, itemsize, inverse=(algorithm == "r2c")))
        elif p.kind == "gather_cols":
            parts.append(_gather_cols_pass(dec, algorithm=algorithm))
        else:
            parts.append(_gather_rows_pass(dec, itemsize, algorithm=algorithm))

    # Whole-plan drivers: all passes over their full extents, one tile or k
    # consecutive tiles.  Failure returns are *positional* so the caller can
    # resume with numpy exactly where the kernel stopped: repro_run returns
    # ``pass_index + 1``, the batch drivers ``tile * NPASSES + pass_index + 1``
    # (a nonzero return always means "this pass on this tile moved nothing").
    # Per-pass batch wrappers let the instrumented executors time each pass
    # across the whole batch; they return ``tile + 1`` on failure.
    npasses = len(passes)
    calls = "\n".join(
        f"  if ({pass_symbol(p.kind)}(bufc, 0, INT64_C({p.extent}))) "
        f"return {i + 1};"
        for i, p in enumerate(passes)
    )
    parts.append(f"""
#define NPASSES {npasses}

int repro_run(char *bufc) {{
{calls}
  return 0;
}}

int repro_run_batch(char *bufc, int64_t k) {{
  int64_t t;
  for (t = 0; t < k; ++t) {{
    int rc = repro_run(bufc + t * (M * N * (int64_t)sizeof(elem_t)));
    if (rc) return (int)(t * NPASSES) + rc;
  }}
  return 0;
}}
""")
    for kind in emitted:
        sym = pass_symbol(kind)
        extent = next(p.extent for p in passes if p.kind == kind)
        parts.append(f"""
int {sym}_batch(char *bufc, int64_t k) {{
  int64_t t;
  for (t = 0; t < k; ++t) {{
    if ({sym}(bufc + t * (M * N * (int64_t)sizeof(elem_t)),
              0, INT64_C({extent}))) return (int)(t + 1);
  }}
  return 0;
}}
""")
    return KernelSpec(
        m=dec.m,
        n=dec.n,
        algorithm=algorithm,
        itemsize=itemsize,
        passes=passes,
        source="\n".join(parts),
    )
