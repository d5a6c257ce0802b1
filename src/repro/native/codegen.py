"""C source generation for compiled per-plan transpose kernels.

A cached :class:`~repro.core.plan.TransposePlan` executes three (or two)
decomposition passes as numpy gathers off precomputed ``O(mn)`` index maps.
That path is gather-bound: on a 2-vCPU Xeon host it takes ~8-13 ns/elem
(median of 7 numpy executes of 1000x1200 f64, 2048x1536 f32 and 1200x1800
f32) against a ~0.3-0.7 ns/elem ``np.copyto`` ceiling on the same
buffers.  This module closes the gap the way Section 4.4 of the paper
does on the GPU — by *specializing the index arithmetic at compile
time*.  For a concrete ``(dec, algorithm, itemsize)``
it emits the gather/rotation passes as flat C loops in which every ``//``
and ``%`` by a decomposition constant is strength-reduced to the
fixed-point-reciprocal multiply of :mod:`repro.strength.magic`, with the
``(multiplier, shift)`` pairs inlined as integer literals.

The generated translation unit exports, with C linkage:

``void repro_pass_<k>(char *buf, int64_t lo, int64_t hi, char *scratch)``
    Pass ``k`` over the half-open range ``[lo, hi)`` of its parallel axis
    (column groups for rotations, rows for the row shuffle, columns for the
    column shuffle) — the same chunk geometry
    :mod:`repro.parallel.cpu` schedules, so the thread backend can drive a
    compiled kernel directly.
``void repro_pass_<k>_batch(char *buf, int64_t k, char *scratch)``
    The same pass applied to ``k`` consecutive ``m x n`` tiles.
``void repro_pass_<k>_load(char *map, char *band, int64_t lo, int64_t hi,
int64_t r0, int64_t r1, char *scratch)`` / ``..._store(...)``
    For the column-facing passes (rotation, column shuffle): the band
    copies of the out-of-core executor.  A load copies band ``[lo, hi)``
    (global column groups or columns) of mapped rows ``[r0, r1)`` from the
    full matrix ``map`` into ``band`` (all ``m`` rows at the band's own
    width), a store copies it back, and each applies its half of the
    pass on the way (see :func:`_copy_passes`), through the skew ring at
    the start of ``scratch``.  The row shuffle needs none: a row
    band keeps the full row stride, so the executor hands
    ``repro_pass_gather_cols`` a shifted base pointer.
``void repro_run(char *buf, char *scratch)`` / ``void repro_run_batch(char *buf, int64_t k, char *scratch)``
    All passes in plan order over one tile / ``k`` tiles.
``int64_t repro_scratch_bytes(void)``
    One worker's scratch: the largest of every pass's at full extent and
    the band copies' ring, sized by the macros beside the code that carves
    it up.

``scratch`` is one worker's block of ``repro_scratch_bytes()`` bytes,
allocated by the caller before the first pass runs.  No entry point
allocates, so none can fail once it has started: a failed allocation
happens in the caller while every buffer is still as it was.

The unit is one logical translation unit (what the verifier interprets),
marked so that :func:`split_units` can cut it into two that compile
concurrently: the passes and drivers, and the band copies, each with the
shared prelude of types, constants, reciprocals and the skew ring.

Every rotation whose amount rises by one per unit (Section 4.2, Eqs.
32-33) walks that one ring: the column shuffle's skew in units of one
column and the rotation of Eq. 23 / Eq. 36 in units of one ``b``-element
group, in place (``repro_skew``) and in the band copies
(``repro_skew_band``).  Groups of a cache line or more rotate by
whole-segment copies instead.

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
    "copy_symbol",
    "COPY_PHASES",
    "split_units",
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


def _wide_groups(dec: Decomposition, itemsize: int) -> bool:
    """Whether a column group's row segment is a cache line or more: such
    a group rotates by whole-segment copies, since its segment can be
    wider than a 512-byte ring stripe; narrower groups go through the
    skew ring in units of one group."""
    return dec.b * itemsize >= 64


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


def _skw(itemsize: int) -> int:
    """Columns of one skew stripe: 512 bytes, at most 128 elements."""
    return min(128, 512 // itemsize)


def _gskw(dec: Decomposition, itemsize: int) -> int:
    """Groups of one narrow-group stripe: 512 bytes of whole groups, at
    most ``SKW`` of them (the ring holds ``2 * SKW`` rows)."""
    return max(1, min(_skw(itemsize), 512 // (dec.b * itemsize)))


#: per algorithm, the ring's direction, written once for every ring walk
#: (DSTEP, GSTEP, NEAR, RING_SLOT, RING_RUN below): a diagonal climbs one
#: ring row per unit for C2R and descends for R2C, and NEAR is the view
#: (1 direct, -1 row-reversed) on which a rotation's offsets rise
_RING_DIRECTION = {
    "c2r": ("SKW + 1", "GSKW * B + B", 1, "(first) + (t)", "RING - (slot)"),
    "r2c": ("1 - SKW", "B - GSKW * B", -1, "(first) + RING - (t)", "(slot) + 1"),
}


def _ring_section(dec: Decomposition, itemsize: int, algorithm: str) -> str:
    """The skew ring: its constants, the diagonal copies and the in-place
    ring rotation ``repro_skew``, shared by the column shuffle (units of
    one column), the narrow-group rotation (units of one group) and the
    band copies.  A stripe of ``STRIPE(U)`` units (at most 512 bytes and
    at most ``SKW`` units) passes through a ``RING``-row ring of
    ``U * STRIPE(U)`` elements a row, whose diagonal climbs one ring row
    per unit for C2R and descends for R2C."""
    skw = _skw(itemsize)
    gskw = _gskw(dec, itemsize)
    ring = 2 * skw
    m = dec.m
    saverows = max(1, min(m, (m + skw) // 2))
    ringw = skw if _wide_groups(dec, itemsize) else max(skw, gskw * dec.b)
    dstep, gstep, near, slot, run = _RING_DIRECTION[algorithm]
    loads = "\n".join(f"    elem_t v{k} = p[{k} * DSTEP];" for k in range(8))
    stores = "\n".join(f"    o[{k}] = v{k};" for k in range(8))
    return f"""
#define SKW INT64_C({skw})
#define GSKW INT64_C({gskw})
#define RINGW INT64_C({ringw})
#define RING INT64_C({ring})
#define RMASK INT64_C({ring - 1})
#define RBIAS INT64_C({ring * (-(-2 * m // ring))})
#define SAVEROWS INT64_C({saverows})
#define PFSTEP INT64_C({max(1, 64 // itemsize)})
/* units of a stripe of units of U elements (U is 1 or B): one ring row */
#define STRIPE(U) ((U) == 1 ? SKW : GSKW)
#define DSTEP ({dstep})
#define GSTEP ({gstep})
#define NEAR INT64_C({near})
#define RING_SLOT(first, t) (({slot}) & RMASK)
#define RING_RUN(slot) ({run})

/* o[t] = p[t * DSTEP] for t < len: eight loads, then eight stores (a
   plain strided loop is SLP-vectorised through the stack). */
static void repro_diag(elem_t *o, const elem_t *p, int64_t len) {{
  while (len >= 8) {{
{loads}
{stores}
    o += 8;
    p += 8 * DSTEP;
    len -= 8;
  }}
  while (len > 0) {{
    o[0] = p[0];
    o += 1;
    p += DSTEP;
    len -= 1;
  }}
}}

/* Unit-wise diagonal copy: len units of U elements (U is 1 or B), unit k
   at p + k * (DSTEP or GSTEP), the ring diagonal's step. */
static void repro_diag_units(elem_t *o, const elem_t *p, int64_t len,
                             int64_t U) {{
  int64_t k;
  if (U == 1) {{
    repro_diag(o, p, len);
    return;
  }}
  for (k = 0; k < len; ++k)
    memcpy(o + k * B, p + k * GSTEP, (size_t)B * sizeof(elem_t));
}}

/* Rotate unit j of [lo, hi) (units of U elements, U is 1 or B) by j mod M
   rows in place: up for C2R (out[i] = in[i + j]), down for R2C.  The
   units run in stripes of at most STRIPE(U), cut where the rotation
   amount would reach M; then every offset has one sign either on the
   stripe or on its row-reversed view (rs < 0), and the side that saves
   fewer rows (at most (M + STRIPE(U)) / 2) is taken.  On the view at X,
   out[x][t] = in[(x + o_t) mod M] with o_t = d + t when the offsets rise
   (sg == NEAR), else d - t; every o_t >= 0, so the outputs ascend and
   only rows [0, omax) wrap.  They are saved first.  The segments stream
   through the ring 16 output rows at a time (virtual row v, v >= M
   reading saved row v - M, sits in slot (sg * v + RBIAS) & RMASK), each
   output row is one diagonal of it, and the segments 8 rows ahead are
   prefetched.  Inlined, so U is a constant in each caller: out of line,
   the column shuffle ran up to 12% slower. */
static inline __attribute__((always_inline)) void
repro_skew(elem_t *V, int64_t lo, int64_t hi, int64_t U, elem_t *ring,
           elem_t *save) {{
  int64_t rw = STRIPE(U) * U, j0, w, s, sg, rs, d, omax, nv, we;
  int64_t i, x, xe, k, t, first, slot, run;
  size_t bytes;
  elem_t *X;
  for (j0 = lo; j0 < hi; j0 += w) {{
    s = MOD_M(j0);
    w = hi - j0;
    if (w > STRIPE(U)) w = STRIPE(U);
    if (w > M - s) w = M - s;  /* the rotation amount stays below M */
    sg = (s + w - 1 <= M - s) ? NEAR : -NEAR;
    rs = sg * N;
    X = V + j0 * U + (sg > 0 ? 0 : (M - 1) * N);
    d = (sg == NEAR) ? s : M - s;
    omax = (sg == NEAR) ? d + w - 1 : d;
    nv = omax - w + 1;
    we = w * U;
    bytes = (size_t)we * sizeof(elem_t);
    for (i = 0; i < omax; ++i)
      memcpy(save + i * rw, X + i * rs, bytes);
    for (x = 0; x < M; x = xe) {{
      xe = x + 16;
      if (xe > M) xe = M;
      for (; nv < xe + omax; ++nv) {{
        const elem_t *src = (nv < M) ? X + nv * rs : save + (nv - M) * rw;
        if (nv + 8 < M)
          for (k = 0; k < we; k += PFSTEP) __builtin_prefetch(X + (nv + 8) * rs + k, 0, 3);
        memcpy(ring + ((sg * nv + RBIAS) & RMASK) * rw, src, bytes);
      }}
      for (i = x; i < xe; ++i) {{
        elem_t *o = X + i * rs;
        if (i + 8 < M)
          for (k = 0; k < we; k += PFSTEP) __builtin_prefetch(o + 8 * rs + k, 1, 3);
        first = (sg * (i + d) + RBIAS) & RMASK;
        for (t = 0; t < w; t += run) {{  /* at most two runs: the ring wraps once */
          slot = RING_SLOT(first, t);
          run = RING_RUN(slot);
          if (run > w - t) run = w - t;
          repro_diag_units(o + t * U, ring + slot * rw + t * U, run, U);
        }}
      }}
    }}
  }}
}}
"""


def _rotate_pass(dec: Decomposition, itemsize: int, *, inverse: bool) -> str:
    """Group rotation (Eq. 23 / Eq. 36): column group ``g`` rotates by
    ``g mod m`` rows — up for C2R's pre-rotation, down for R2C's
    post-rotation, the column shuffle's skew in units of one group.

    Narrow groups (a segment below a cache line) run through the ring's
    ``repro_skew`` with ``U = B``.  Wide groups rotate their ``m`` row
    segments one group at a time with whole-segment copies."""
    if not _wide_groups(dec, itemsize):
        # Narrow groups: the skew of the column shuffle, in units of one
        # group; only groups g < C exist, so at most C - 1 rows wrap
        gskw = _gskw(dec, itemsize)
        saved = max(1, min(dec.c - 1, (dec.m + gskw) // 2))
        return f"""
/* the ring and the saved rows */
#define ROT_SCRATCH ((RING + INT64_C({saved})) * RINGW * (int64_t)sizeof(elem_t))

void repro_pass_rotate(char *bufc, int64_t glo, int64_t ghi, char *scratch) {{
  elem_t *ring = (elem_t *) scratch;
  repro_skew((elem_t *) bufc, glo, ghi, B, ring, ring + RING * RINGW);
}}
"""
    # Wide groups: rotate the m row segments with min(k, m-k) segments
    # of scratch and row-level memcpys (each segment is b contiguous
    # elements at row stride rs).
    # np.roll(V, -k): out[i] = in[(i+k) % m]  -> left-rotate by k (c2r pre)
    # np.roll(V, +k): out[i] = in[(i-k) % m]  -> left-rotate by m-k (r2c post)
    keff = "(INT64_C(%d) - k)" % dec.m if inverse else "k"
    return """
/* group g < C saves min(k, M - k) <= min(C - 1, M / 2) row segments */
#define ROT_SAVED (C - 1 < M / 2 ? C - 1 : M / 2)
#define ROT_SCRATCH (ROT_SAVED * B * (int64_t)sizeof(elem_t))

static void rotate_group(elem_t *g0, int64_t k, elem_t *tmp, int64_t rs) {
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
}
""" + f"""
void repro_pass_rotate(char *bufc, int64_t glo, int64_t ghi, char *scratch) {{
  elem_t *V = (elem_t *) bufc;
  elem_t *tmp = (elem_t *) scratch;  /* ROT_SAVED row segments */
  int64_t g;
  for (g = glo; g < ghi; ++g) {{
    int64_t k = MOD_M(g);
    if (k == 0) continue;
    k = {keff};
    if (k == 0 || k == M) continue;
    rotate_group(V + g * B, k, tmp, N);
  }}
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
        if dec.c == 1:
            # coprime: th = i + 1 - M clamps to 0 on every row, so the
            # row is one run of N consecutive table indices from tB
            inner = """
    int64_t im = MOD_N(i);
    repro_gcseq(tmp, row, T, (im == 0) ? 0 : (N - im), N);"""
        else:
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
/* the scratch row, then the lookup table */
#define COLS_TABLE_OFF SCRATCH_ALIGN(N * (int64_t)sizeof(elem_t))
#define COLS_SCRATCH (COLS_TABLE_OFF + N * (int64_t)sizeof(int32_t))

void repro_pass_gather_cols(char *bufc, int64_t lo, int64_t hi, char *scratch) {{
  elem_t *V = (elem_t *) bufc;
  elem_t *tmp = (elem_t *) scratch;
  int32_t *T = (int32_t *)(scratch + COLS_TABLE_OFF);
  int64_t i;
  if (lo >= hi) return;
{build_table}
  for (i = lo; i < hi; ++i) {{
    elem_t *row = V + i * N;
{inner}
    memcpy(row, tmp, (size_t)N * sizeof(elem_t));
  }}
}}
"""


def _gather_rows_pass(dec: Decomposition, *, algorithm: str) -> str:
    """Column shuffle as the paper's two restricted operations (Section
    4.2, Eqs. 32-35): a per-column rotation (the *skew*) and one static
    row permutation that moves whole sub-rows.

    C2R gathers column ``j`` with ``s'_j(i) = q(i) + j (mod m)``: rotate
    column ``j`` up by ``j`` (Eq. 32), then gather rows with ``q(i) =
    (i*n - i//a) mod m`` (Eq. 33).  R2C inverts it: gather rows with
    ``q^{-1}`` (Eq. 34), then rotate column ``j`` down by ``j`` (Eq. 35).

    The skew is the ring's ``repro_skew`` in units of one column.  The
    row permutation follows the cycles of ``q`` (or ``q^{-1}``), computed
    on the fly, over the chunk's whole sub-rows with one scratch sub-row
    and a visited bitmap."""
    permute = "\n  repro_permute_rows(V + lo, N, hi - lo, tmp, seen);"
    if algorithm == "c2r":
        q_map = "MOD_M(k * N - DIV_A(k))"
        perm_before, perm_after = "", permute
    else:
        c1 = dec.c - 1
        b_inv = mmi(dec.b, dec.a)
        q_map = (
            f"MOD_A(DIV_C(k + INT64_C({c1})) * INT64_C({b_inv})) + "
            f"MOD_C(k * INT64_C({c1})) * A"
        )
        perm_before, perm_after = permute, ""
    return f"""
/* Gather whole sub-rows with the static row map (Eq. 33 / Eq. 34):
   row i of X becomes old row Q(i), following each cycle once. */
static void repro_permute_rows(elem_t *X, int64_t rs, int64_t wc,
                               elem_t *tmp, uint64_t *seen) {{
  int64_t i, k, nxt;
  size_t bytes = (size_t)wc * sizeof(elem_t);
  for (i = 0; i < (M + 63) / 64; ++i) seen[i] = 0;
  for (i = 0; i < M; ++i) {{
    if ((seen[i >> 6] >> (i & 63)) & 1) continue;
    k = i;
    nxt = {q_map};
    if (nxt == i) continue;
    memcpy(tmp, X + i * rs, bytes);
    while (nxt != i) {{
      memcpy(X + k * rs, X + nxt * rs, bytes);
      seen[k >> 6] = seen[k >> 6] | ((uint64_t)1 << (k & 63));
      k = nxt;
      nxt = {q_map};
    }}
    memcpy(X + k * rs, tmp, bytes);
    seen[k >> 6] = seen[k >> 6] | ((uint64_t)1 << (k & 63));
  }}
}}

/* the ring, the saved rows and a sub-row as wide as the whole matrix,
   then the visited bitmap */
#define ROWS_SEEN_OFF SCRATCH_ALIGN(((RING + SAVEROWS) * SKW + N) * (int64_t)sizeof(elem_t))
#define ROWS_SCRATCH (ROWS_SEEN_OFF + (M + 63) / 64 * (int64_t)sizeof(uint64_t))

void repro_pass_gather_rows(char *bufc, int64_t lo, int64_t hi, char *scratch) {{
  elem_t *V = (elem_t *) bufc;
  elem_t *ring = (elem_t *) scratch;
  elem_t *save = ring + RING * SKW;
  elem_t *tmp = save + SAVEROWS * SKW;
  uint64_t *seen = (uint64_t *)(scratch + ROWS_SEEN_OFF);
  if (lo >= hi) return;{perm_before}
  repro_skew(V, lo, hi, 1, ring, save);{perm_after}
}}
"""


_PASS_SYMBOLS = {
    "rotate_groups": "repro_pass_rotate",
    "gather_cols": "repro_pass_gather_cols",
    "gather_rows": "repro_pass_gather_rows",
}

#: the macro holding each pass's scratch bytes at full extent, defined
#: beside the carving it sizes
_SCRATCH_MACROS = {
    "rotate_groups": "ROT_SCRATCH",
    "gather_cols": "COLS_SCRATCH",
    "gather_rows": "ROWS_SCRATCH",
}

#: the band copy phases; a row band is permuted in the mapped pages
#: through the plain symbol, so gather_cols (the row shuffle) has none
COPY_PHASES = ("load", "store")


def pass_symbol(kind: str) -> str:
    """The exported C symbol implementing a plan-step kind."""
    return _PASS_SYMBOLS[kind]


def copy_symbol(kind: str, phase: str) -> str | None:
    """The C symbol of a column-facing pass's band ``load`` or ``store``,
    or ``None`` for the row-axis pass, which has no band copy."""
    if kind == "gather_cols":
        return None
    return f"{_PASS_SYMBOLS[kind]}_{phase}"


def _copy_passes(dec: Decomposition, itemsize: int, algorithm: str, kinds) -> str:
    """Band copies of the column-facing passes: the streamed executor's
    load (mapping -> band buffer) and store (band buffer -> mapping), with
    the pass applied on the way, out of place (Section 4.2: every column
    operation is a per-column rotation or one static permutation of whole
    sub-rows, and either can run while the data moves).

    ``repro_pass_<k>_load(map, band, lo, hi, r0, r1, scratch)`` and ``_store``
    copy band ``[lo, hi)`` (global column groups or columns) of mapped rows
    ``[r0, r1)`` only: a load reads exactly those mapped rows, a store
    writes exactly them, and the band buffer (``m`` rows of the band's
    width) is addressed through the pass's per-column row bijection, so
    workers that split the mapped rows write disjoint buffer elements.
    Source and destination differ, so no wrapped rows need saving.

    * C2R: the pre-rotation is a rotating load (buffer row ``i``, group
      ``g`` <- mapped row ``(i + g) mod m``) and a plain store; the column
      shuffle a skewing load (column ``j`` rotated up by ``j``, Eq. 32) and
      a store that gathers whole sub-rows by ``q`` (Eq. 33).
    * R2C mirrors both: the inverse column shuffle is a load that
      scatters sub-rows by ``q`` (the gather by ``q^-1``, Eq. 34) and a
      skewing store (column ``j`` rotated down by ``j``, Eq. 35); the
      post-rotation a rotating load and a plain store.

    Rotations and skews run through ``repro_skew_band``: the source
    segments of a stripe stream through the ring of :func:`_ring_section`
    in row order and each destination row is one diagonal of it (units
    of one element for the skew, of one ``B``-element group for a narrow
    rotation).  Wide groups (a cache line or more) are copied directly.
    Plain and permuting copies run through ``repro_rows_band``."""
    c2r = algorithm == "c2r"
    if c2r:
        # dst row y, unit u <- src row y + (d + u): the window of row y is
        # [y + d, y + d + nu) and its diagonal climbs the ring
        off, first = "d", "y + d + RBIAS"
        u_lo, u_hi = "v0 - y - d", "v1 - y - d"
        rot_row = "y = i - k;\n      if (y < 0) y += M;"
    else:
        # dst row y, unit u <- src row y - (d + u): the window of row y is
        # [y - d - nu + 1, y - d + 1) and its diagonal descends the ring
        off, first = "-(d + nu - 1)", "y - d + RBIAS"
        u_lo, u_hi = "y - d - v1 + 1", "y - d - v0 + 1"
        rot_row = "y = i + k;\n      if (y >= M) y -= M;"
    parts = [f"""
/* Whole sub-rows of band columns [c0, c0 + wb) between the matrix V and
   the band buffer W: mapped row i pairs with band row q(i) (Eq. 33) when
   perm, else row i.  A load copies V -> W, a store W -> V, for mapped
   rows [r0, r1) only. */
static void repro_rows_band(elem_t *V, elem_t *W, int64_t c0, int64_t wb,
                            int64_t r0, int64_t r1, int64_t perm,
                            int64_t load) {{
  size_t bytes = (size_t)wb * sizeof(elem_t);
  int64_t i, t;
  for (i = r0; i < r1; ++i) {{
    t = perm ? MOD_M(i * N - DIV_A(i)) : i;
    if (load)
      memcpy(W + t * wb, V + i * N + c0, bytes);
    else
      memcpy(V + i * N + c0, W + t * wb, bytes);
  }}
}}

/* Skew band [lo, hi) of units of U elements (U is 1 or B) between V and
   W: unit u of a dst row y takes unit u of src row y {'+' if c2r else '-'} (j mod M), j
   the unit's global index.  A load (V -> W) drives src rows [r0, r1),
   wherever their dst rows land; a store (W -> V) drives dst rows [r0, r1).
   Rows are reduced mod M when addressed.  The band runs in stripes of at
   most STRIPE(U) units, cut where the shift would reach M.  A stripe's src
   segments stream through the ring in row order, and each dst row takes
   its units from one diagonal of the ring (row v sits in slot
   (v + RBIAS) & RMASK); the segments 8 rows ahead on both sides are
   prefetched. */
static void repro_skew_band(elem_t *V, elem_t *W, int64_t lo, int64_t hi,
                            int64_t U, int64_t r0, int64_t r1, int64_t load,
                            elem_t *ring) {{
  int64_t wb = (hi - lo) * U, rw = STRIPE(U) * U;
  int64_t j0, nu, d, off, y0, y1, v0, v1, nv, w;
  int64_t drs = load ? wb : N, srs = load ? N : wb;
  int64_t y, ulo, uhi, u, k, first, slot, run;
  elem_t *dst, *o;
  const elem_t *src;
  for (j0 = lo; j0 < hi; j0 += nu) {{
    d = MOD_M(j0);
    nu = hi - j0;
    if (nu > STRIPE(U)) nu = STRIPE(U);
    if (nu > M - d) nu = M - d;
    dst = load ? W + (j0 - lo) * U : V + j0 * U;
    src = load ? V + j0 * U : W + (j0 - lo) * U;
    /* the src window of dst row y is [y + off, y + off + nu) */
    off = {off};
    y0 = load ? r0 - off - nu + 1 : r0;
    y1 = load ? r1 - off : r1;
    v0 = load ? r0 : r0 + off;
    v1 = load ? r1 : r1 + off + nu - 1;
    w = nu * U;
    nv = v0;
    for (y = y0; y < y1; ++y) {{
      /* the ring holds src rows up to the top of row y's window */
      for (; nv < y + off + nu && nv < v1; ++nv) {{
        if (nv + 8 < v1)
          for (k = 0; k < w; k += PFSTEP) __builtin_prefetch(src + MOD_M(nv + 8 + M) * srs + k, 0, 3);
        memcpy(ring + ((nv + RBIAS) & RMASK) * rw, src + MOD_M(nv + M) * srs,
               (size_t)w * sizeof(elem_t));
      }}
      ulo = {u_lo};
      uhi = {u_hi};
      if (ulo < 0) ulo = 0;
      if (uhi > nu) uhi = nu;
      if (y + 8 < y1)
        for (k = 0; k < w; k += PFSTEP) __builtin_prefetch(dst + MOD_M(y + 8 + M) * drs + k, 1, 3);
      o = dst + MOD_M(y + M) * drs;
      first = ({first}) & RMASK;
      for (u = ulo; u < uhi; u += run) {{
        slot = RING_SLOT(first, u);
        run = RING_RUN(slot);
        if (run > uhi - u) run = uhi - u;
        repro_diag_units(o + u * U, ring + slot * rw + u * U, run, U);
      }}
    }}
  }}
}}
"""]
    head = """(char *mapc, char *bandc, int64_t lo, int64_t hi,
    int64_t r0, int64_t r1, char *scratch) {
  elem_t *V = (elem_t *) mapc;
  elem_t *W = (elem_t *) bandc;
  elem_t *ring = (elem_t *) scratch;
  """
    if "gather_rows" in kinds:
        skew = "repro_skew_band(V, W, lo, hi, 1, r0, r1, %d, ring);"
        rows = "repro_rows_band(V, W, lo, hi - lo, r0, r1, 1, %d);"
        load, store = (skew % 1, rows % 0) if c2r else (rows % 1, skew % 0)
        parts.append(f"void repro_pass_gather_rows_load{head}{load}\n}}\n")
        parts.append(f"void repro_pass_gather_rows_store{head}{store}\n}}\n")
    if "rotate_groups" in kinds:
        if _wide_groups(dec, itemsize):
            # wide groups: each group's row segment is a cache line or more
            load = f"""int64_t wb = (hi - lo) * B, i, g, k, y;
  size_t bytes = (size_t)B * sizeof(elem_t);
  for (i = r0; i < r1; ++i) {{
    k = MOD_M(lo);
    for (g = lo; g < hi; ++g) {{
      {rot_row}
      memcpy(W + y * wb + (g - lo) * B, V + i * N + g * B, bytes);
      if (++k == M) k = 0;
    }}
  }}"""
        else:
            load = "repro_skew_band(V, W, lo, hi, B, r0, r1, 1, ring);"
        store = "repro_rows_band(V, W, lo * B, (hi - lo) * B, r0, r1, 0, 0);"
        parts.append(f"void repro_pass_rotate_load{head}{load}\n}}\n")
        parts.append(f"void repro_pass_rotate_store{head}{store}\n}}\n")
    return "\n".join(parts)


#: markers of the unit's two halves: everything up to _SHARED_END is the
#: prelude both need (types, constants, reciprocals, the ring), and the
#: band copies between _COPIES_BEGIN and _COPIES_END compile on their own
_SHARED_END = "/* -- end of the shared prelude -- */"
_COPIES_BEGIN = "/* -- band copies: a translation unit of their own -- */"
_COPIES_END = "/* -- end of the band copies -- */"


def split_units(source: str) -> tuple[str, str]:
    """The unit as two translation units that compile concurrently: the
    passes and drivers, and the band copies, each with the shared
    prelude.  Together they define exactly the symbols of ``source``."""
    i, j = source.index(_COPIES_BEGIN), source.index(_COPIES_END)
    prelude = source[: source.index(_SHARED_END)]
    return source[:i] + source[j:], prelude + source[i:j]


def _pass_layout(dec: Decomposition, algorithm: str) -> tuple[PassInfo, ...]:
    """Pass order and chunk axes, mirroring ``TransposePlan._build_maps``
    and the schedule names of :mod:`repro.parallel.cpu` one-to-one."""
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
        "",
        "/* scratch offsets round up to 8 bytes: every carved buffer is",
        "   aligned for int32_t and uint64_t */",
        "#define SCRATCH_ALIGN(x) (((x) + 7) / 8 * 8)",
    ]
    parts += [_ring_section(dec, itemsize, algorithm), _SHARED_END]
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
            parts.append(_gather_rows_pass(dec, algorithm=algorithm))
    parts += [_COPIES_BEGIN, _copy_passes(dec, itemsize, algorithm, emitted), _COPIES_END]

    # Whole-plan drivers (all passes over their full extents, one tile or
    # k consecutive tiles), per-pass batch wrappers that let the plans time
    # each pass across the whole batch, and one worker's scratch size.
    calls = "\n".join(
        f"  {pass_symbol(p.kind)}(bufc, 0, INT64_C({p.extent}), scratch);"
        for p in passes
    )
    sizes = "\n".join(
        f"  if ({_SCRATCH_MACROS[kind]} > bytes) bytes = {_SCRATCH_MACROS[kind]};"
        for kind in sorted(emitted)
    )
    parts.append(f"""
void repro_run(char *bufc, char *scratch) {{
{calls}
}}

void repro_run_batch(char *bufc, int64_t k, char *scratch) {{
  int64_t t;
  for (t = 0; t < k; ++t)
    repro_run(bufc + t * (M * N * (int64_t)sizeof(elem_t)), scratch);
}}

/* One worker's scratch: the largest pass's at full extent, or the
   band-copy ring. */
int64_t repro_scratch_bytes(void) {{
  int64_t bytes = RING * RINGW * (int64_t)sizeof(elem_t);
{sizes}
  return bytes;
}}
""")
    for kind in emitted:
        sym = pass_symbol(kind)
        extent = next(p.extent for p in passes if p.kind == kind)
        parts.append(f"""
void {sym}_batch(char *bufc, int64_t k, char *scratch) {{
  int64_t t;
  for (t = 0; t < k; ++t)
    {sym}(bufc + t * (M * N * (int64_t)sizeof(elem_t)), 0, INT64_C({extent}), scratch);
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
