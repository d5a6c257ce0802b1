"""Static verifier for the generated native kernels.

PR 2's algebra module proves the *Python* plan machinery implements the
paper's equations; the native backend then re-implements those passes as
generated C that none of that analysis sees.  This module closes the gap:
it takes the exact translation unit ``native.codegen`` emits for a
concrete ``(algorithm, m, n, itemsize)`` plan and proves, by abstract
interpretation (:mod:`repro.analysis.cinterp` — no compiler involved),
that the C does what the algebra says:

``parse`` / ``symbols`` / ``layout``
    The unit fits the checked C subset and exports every entry point the
    runtime binds (``repro_run``, ``repro_run_batch``,
    ``repro_scratch_bytes``, per-pass symbols and their ``_batch``
    wrappers).
``plan-constants``
    The inlined ``M/N/A/B/C`` literals match the decomposition.
``fastdiv-*``
    Each ``DIV_X``/``MOD_X`` macro is the canonical fixed-point-reciprocal
    form, its divisor literal matches the decomposition constant, and the
    inlined ``(multiplier, shift)`` pair computes exact ``//`` and ``%``
    over the full operand range the shape can generate — exhaustively (in
    the wrapping uint64 domain, exactly as compiled code evaluates it) up
    to 2**22 operands, above that by recomputation against
    ``compute_magic`` plus boundary probes near ``2**31 - 1``.  A handful
    of probes are additionally evaluated *through the interpreter* so the
    macro text that the pass bodies expand agrees with the extraction.
``pass*-exec`` / ``pass*-semantics``
    Running each pass over its full extent on an identity-initialised
    buffer faults nowhere (bounds, liveness, definedness — see
    ``cinterp``) and lands exactly the permutation the corresponding
    Eq. 23-36 plan step derives.  Every call here and below runs with a
    fresh undefined scratch block of exactly ``repro_scratch_bytes()``
    bytes, so a pass that overruns its scratch, or reads scratch it never
    wrote, faults.
``pass*-chunks-t<k>``
    Re-running the pass chunk-by-chunk over the ``balanced_chunks``
    schedule (the geometry ``ParallelTranspose`` dispatches) writes
    pairwise-disjoint element sets whose union equals the full-range
    write set, reads only inside each chunk's own rectangle, and composes
    to the same permutation — the property that lets a compiled kernel
    inherit the PR-2 racecheck guarantee.
``pass*-load`` / ``pass*-store``
    For the column-facing passes, the band copies the out-of-core
    ``BandedExecutor`` runs (``repro_pass_<k>_load`` / ``_store``): each
    band of a three-band split is loaded from the matrix into a buffer
    holding only that band and stored back, in mapped-row blocks split as
    two workers split them.  A load must read only its own mapped rows of
    the band's columns, write nothing in the matrix, and write band-buffer
    elements no earlier block wrote, each holding an element of its own
    rows; a store must read nothing in the matrix and write exactly its
    own mapped rows of the band's columns, disjoint from every other
    block.  The load buffers start undefined and are sized to the band,
    so a skipped element reads as undefined and any escaping address
    faults, and the stored bands compose to the pass's permutation.
``pass*-batch``
    The pass's ``_batch`` wrapper applies it to each of ``k`` consecutive
    tiles independently.
``plan-composition`` / ``algebra-equivalence``
    ``repro_run`` equals the composition of the verified passes, and that
    composition equals the closed-form transposition map
    (``transposition_source_map`` for C2R, its inverse for R2C — the R2C
    kernel runs on the swapped view, so composing it with the
    transposition of that view is the identity).
``batch-run``
    ``repro_run_batch`` applies the same permutation independently to
    each of ``k`` consecutive tiles.
``no-heap``
    Interpreting every pass, ``_batch`` wrapper, band copy and driver
    above made no ``malloc`` or ``free`` call: all scratch is the caller's,
    allocated before the first pass, so no entry point can fail midway.

Element values are provenance tokens, so "the buffer after the run" *is*
the gather map the C computed; every comparison above is exact, not
sampled.  The only sampled ingredient is the fastdiv probe set for shapes
whose operand range exceeds the exhaustive cap, as documented in
``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from ..core.indexing import Decomposition
from ..core.plan import TransposePlan
from ..native.codegen import (
    COPY_PHASES,
    copy_symbol,
    generate_source,
    ineligible_reason,
    pass_symbol,
)
from ..parallel.partition import balanced_chunks
from ..strength.magic import compute_magic
from .algebra import Check, transposition_source_map
from .cinterp import CInterp, CInterpError

__all__ = [
    "KernelReport",
    "NativeReport",
    "DEFAULT_CONFIGS",
    "verify_kernel",
    "verify_native",
]

#: curated CI verification set: the bench-smoke shapes (incl. F-order and
#: the non-square 500x1000), odd/prime and degenerate shapes, small
#: shapes covering every element width the codegen supports, 48x100
#: 16-byte, whose column shuffle runs full 32-column skew stripes (m > 32)
#: under bands and chunks that start off the stripe grid, the coprime
#: 40x57, whose C2R row shuffle takes the c = 1 form on rows longer than
#: a skew stripe, and 100x100 f64, whose narrow-group rotation (b = 1)
#: runs two ring stripes: the direct view at s = 0 and the row-reversed
#: one at s = 64.
DEFAULT_CONFIGS: tuple[tuple[int, int, str, int], ...] = (
    (256, 384, "C", 8),
    (256, 384, "F", 8),
    (384, 256, "C", 8),
    (512, 512, "C", 8),
    (500, 1000, "C", 8),
    (7, 13, "C", 8),
    (13, 7, "C", 8),
    (1, 17, "C", 8),
    (17, 1, "C", 8),
    (12, 18, "C", 1),
    (12, 18, "F", 2),
    (12, 96, "C", 16),
    (6, 4, "C", 4),
    (48, 100, "C", 16),
    (40, 57, "C", 4),
    (100, 100, "C", 8),
)

#: largest operand range checked exhaustively for fastdiv exactness;
#: larger shapes fall back to recomputation + boundary probes.
FASTDIV_EXHAUSTIVE_CAP = 1 << 22

#: batch verification is skipped above this element count per tile (the
#: batch driver is a loop over verified single-tile runs; re-proving it on
#: the biggest shapes buys nothing for the wall-clock it costs).
BATCH_ELEMS_CAP = 256 * 384


@dataclass
class KernelReport:
    """Every certificate for one generated kernel."""

    m: int
    n: int
    order: str
    algorithm: str
    itemsize: int
    passes: tuple[str, ...] = ()
    seconds: float = 0.0
    checks: list[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "order": self.order,
            "algorithm": self.algorithm,
            "itemsize": self.itemsize,
            "passes": list(self.passes),
            "ok": self.ok,
            "checks": len(self.checks),
            "seconds": round(self.seconds, 3),
            "failures": [c.as_dict() for c in self.failures],
        }


@dataclass
class NativeReport:
    """Aggregate of a kernel-verification sweep."""

    kernels: list[KernelReport] = field(default_factory=list)
    skipped: list[dict] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(k.ok for k in self.kernels)

    @property
    def checks(self) -> int:
        return sum(len(k.checks) for k in self.kernels)

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "kernels": len(self.kernels),
            "checks": self.checks,
            "seconds": round(self.seconds, 3),
            "skipped": self.skipped,
            "reports": [k.as_dict() for k in self.kernels],
        }


# --------------------------------------------------------------------------
# fastdiv macro verification

_DIV_RE = re.compile(
    r"^#\s*define\s+DIV_([MNABC])\(x\)\s*"
    r"\(\(int64_t\)\(\(\(uint64_t\)\(x\)\s*\*\s*"
    r"UINT64_C\((\d+)\)\)\s*>>\s*(\d+)\)\)\s*$"
)
_MOD_RE = re.compile(
    r"^#\s*define\s+MOD_([MNABC])\(x\)\s*"
    r"\(\(int64_t\)\(x\)\s*-\s*DIV_([MNABC])\(x\)\s*\*\s*"
    r"INT64_C\((\d+)\)\)\s*$"
)
_CONST_RE = re.compile(r"^#\s*define\s+([MNABC])\s+INT64_C\((\d+)\)\s*$")


def _fastdiv_probes(d: int, hi: int) -> np.ndarray:
    """Deterministic operands stressing quotient boundaries of ``d``."""
    pts = {0, 1, 2, d - 1, d, d + 1, 2 * d - 1, 2 * d, hi - 1, hi // 2}
    for mult in (hi // d if d else 0, (1 << 31) // max(d, 1)):
        for delta in (-1, 0, 1):
            pts.add(mult * d + delta)
    pts.update(range((1 << 31) - 8, 1 << 31))
    arr = np.array(sorted(p for p in pts if 0 <= p < (1 << 31)), dtype=np.int64)
    return arr


def _check_fastdiv(
    checks: list[Check],
    macros,
    dec: Decomposition,
    probe_interp: CInterp | None,
) -> None:
    hi = dec.m * dec.n + dec.m + dec.n
    for name, d in (
        ("M", dec.m), ("N", dec.n), ("A", dec.a), ("B", dec.b), ("C", dec.c)
    ):
        label = f"fastdiv-{name}"
        div = macros.get(f"DIV_{name}")
        mod = macros.get(f"MOD_{name}")
        if div is None or mod is None:
            checks.append(Check(label, False, "DIV/MOD macro missing"))
            continue
        dmo = _DIV_RE.match(div.raw)
        mmo = _MOD_RE.match(mod.raw)
        if dmo is None or mmo is None:
            bad = div.raw if dmo is None else mod.raw
            checks.append(
                Check(label, False, f"non-canonical macro form: {bad!r}")
            )
            continue
        mult, shift = int(dmo.group(2)), int(dmo.group(3))
        if mmo.group(2) != name:
            checks.append(
                Check(label, False, f"MOD_{name} built on DIV_{mmo.group(2)}")
            )
            continue
        if int(mmo.group(3)) != d:
            checks.append(
                Check(
                    label, False,
                    f"MOD_{name} divisor literal {mmo.group(3)} != {d}",
                )
            )
            continue
        # exact //-agreement in the wrapping uint64 domain compiled code
        # evaluates the macro in
        if hi <= FASTDIV_EXHAUSTIVE_CAP:
            x = np.arange(hi, dtype=np.uint64)
            mode = f"exhaustive over [0, {hi})"
        else:
            mg = compute_magic(d, nbits=31)
            if (mg.multiplier, mg.shift) != (mult, shift):
                checks.append(
                    Check(
                        label, False,
                        f"literals ({mult}, {shift}) != compute_magic "
                        f"({mg.multiplier}, {mg.shift})",
                    )
                )
                continue
            x = _fastdiv_probes(d, hi).astype(np.uint64)
            mode = f"recomputed + {x.size} boundary probes"
        with np.errstate(over="ignore"):
            q = ((x * np.uint64(mult)) >> np.uint64(shift)).astype(np.int64)
        exact = (x.astype(np.int64) // d).astype(np.int64)
        bad = np.nonzero(q != exact)[0]
        if bad.size:
            i = int(bad[0])
            checks.append(
                Check(
                    label, False,
                    f"x={int(x[i])}: magic gives {int(q[i])}, exact //{d} "
                    f"is {int(exact[i])} ({mode})",
                )
            )
            continue
        # and through the interpreter, so the macro the pass bodies expand
        # agrees with what the regex extracted
        detail = mode
        if probe_interp is not None:
            probes = [p for p in (0, 1, d - 1, d, d + 1, hi - 1) if p >= 0]
            ok = True
            for p in probes:
                try:
                    got_q = probe_interp.call(f"__probe_div_{name}", p)
                    got_r = probe_interp.call(f"__probe_mod_{name}", p)
                except CInterpError as exc:
                    checks.append(Check(label, False, f"probe fault: {exc}"))
                    ok = False
                    break
                if got_q != p // d or got_r != p % d:
                    checks.append(
                        Check(
                            label, False,
                            f"interpreted macro at x={p}: ({got_q}, {got_r})"
                            f" != ({p // d}, {p % d})",
                        )
                    )
                    ok = False
                    break
            if not ok:
                continue
            detail += ", interpreter probes agree"
        checks.append(Check(label, True, detail))


def _probe_suffix() -> str:
    lines = []
    for name in "MNABC":
        lines.append(
            f"int64_t __probe_div_{name}(int64_t x) {{ return DIV_{name}(x); }}"
        )
        lines.append(
            f"int64_t __probe_mod_{name}(int64_t x) {{ return MOD_{name}(x); }}"
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# pass / schedule verification


def _axis_cols(axis: str, lo: int, hi: int, dec: Decomposition):
    """Column interval a chunk of the given parallel axis may touch, or
    ``None`` when the chunk owns whole rows."""
    if axis == "groups":
        return lo * dec.b, hi * dec.b
    if axis == "cols":
        return lo, hi
    return None  # rows: element interval [lo*n, hi*n)


def _contained(elems: set[int], axis: str, lo: int, hi: int,
               dec: Decomposition) -> str | None:
    """``None`` if every element index lies in the chunk's rectangle, else
    a description of the first escape."""
    if not elems:
        return None
    arr = np.fromiter(elems, dtype=np.int64, count=len(elems))
    mn = dec.m * dec.n
    oob = arr[(arr < 0) | (arr >= mn)]
    if oob.size:
        return f"element {int(oob[0])} outside the {dec.m}x{dec.n} matrix"
    span = _axis_cols(axis, lo, hi, dec)
    if span is None:
        bad = arr[(arr < lo * dec.n) | (arr >= hi * dec.n)]
        if bad.size:
            e = int(bad[0])
            return (
                f"element {e} (row {e // dec.n}) outside row chunk "
                f"[{lo}, {hi})"
            )
        return None
    c0, c1 = span
    cols = arr % dec.n
    bad = arr[(cols < c0) | (cols >= c1)]
    if bad.size:
        e = int(bad[0])
        return (
            f"element {e} (col {e % dec.n}) outside column span "
            f"[{c0}, {c1}) of {axis} chunk [{lo}, {hi})"
        )
    return None


def _seeded_buffer(interp: CInterp, state: np.ndarray):
    buf = interp.new_buffer(state.size, init="undef")
    buf.obj.cells = dict(enumerate(state.tolist()))
    return buf


def _copy_blocks(m: int) -> list[tuple[int, int]]:
    """Mapped-row blocks as two workers walk them: each worker's share of
    the rows, split in two."""
    out = []
    for share in balanced_chunks(m, 2):
        for blk in balanced_chunks(share.stop - share.start, 2):
            out.append((share.start + blk.start, share.start + blk.stop))
    return out


def _outside(elems: set[int], r0: int, r1: int, c0: int, c1: int, n: int):
    """The first element of ``elems`` outside rows ``[r0, r1)`` x columns
    ``[c0, c1)`` of a row-major matrix with ``n`` columns, or ``None``."""
    if not elems:
        return None
    arr = np.fromiter(elems, dtype=np.int64, count=len(elems))
    rows, cols = arr // n, arr % n
    bad = arr[(rows < r0) | (rows >= r1) | (cols < c0) | (cols >= c1)]
    return int(bad.min()) if bad.size else None


def _check_copies(interp, pinfo, dec, state, expected, checks, tag, scratch) -> bool:
    """The ``load`` and ``store`` certificates of one column-facing pass;
    returns True when either failed."""
    m, n = dec.m, dec.n
    unit = dec.b if pinfo.axis == "groups" else 1
    blocks = _copy_blocks(m)
    work = state.copy().reshape(m, n)
    fails = {"load": None, "store": None}
    for bnd in balanced_chunks(pinfo.extent, min(3, pinfo.extent)):
        c0, c1 = bnd.start * unit, bnd.stop * unit
        width = c1 - c0
        where = f"band [{bnd.start}, {bnd.stop})"
        # token -> mapped row, for the provenance of loaded elements
        row_of = np.empty(m * n, dtype=np.int64)
        row_of[work.ravel()] = np.arange(m * n) // n
        mapped = _seeded_buffer(interp, work.ravel())
        band = interp.new_buffer(m * width, init="undef", track=False, tag="band")
        cells = band.obj.cells
        for phase in COPY_PHASES:
            sym = copy_symbol(pinfo.kind, phase)
            written: set[int] = set()
            for r0, r1 in blocks:
                what = f"{where} rows [{r0}, {r1})"
                before = dict(cells)
                try:
                    interp.call(sym, mapped, band, bnd.start, bnd.stop, r0, r1, scratch())
                except CInterpError as exc:
                    fails[phase] = f"{what}: {exc}"
                    break
                if phase == "load":
                    e = _outside(interp.reads, r0, r1, c0, c1, n)
                    if interp.writes:
                        fails[phase] = f"{what} writes the matrix at {min(interp.writes)}"
                    elif e is not None:
                        fails[phase] = (
                            f"{what} reads element {e} (row {e // n}, col "
                            f"{e % n}) outside its own mapped rows"
                        )
                    else:
                        for k, v in cells.items():
                            if k in before:
                                if before[k] != v:
                                    fails[phase] = f"{what} rewrites band element {k}"
                                    break
                            elif not r0 <= row_of[v] < r1:
                                fails[phase] = (
                                    f"{what} loads band element {k} from "
                                    f"mapped row {int(row_of[v])}"
                                )
                                break
                else:
                    e = _outside(interp.writes, r0, r1, c0, c1, n)
                    if interp.reads:
                        fails[phase] = f"{what} reads the matrix at {min(interp.reads)}"
                    elif e is not None:
                        fails[phase] = (
                            f"{what} writes element {e} (row {e // n}, col "
                            f"{e % n}) outside its own mapped rows"
                        )
                    elif interp.writes & written:
                        fails[phase] = f"{what} rewrites element {min(interp.writes & written)}"
                    written |= interp.writes
                if fails[phase]:
                    break
            if fails[phase]:
                break
            if phase == "load" and len(cells) != m * width:
                fails[phase] = f"{where}: load leaves {m * width - len(cells)} band elements unwritten"
                break
            if phase == "store" and len(written) != m * width:
                fails[phase] = f"{where}: store writes {len(written)} of {m * width} elements"
                break
        if any(fails.values()):
            break
        got = np.asarray(mapped.values(), dtype=np.int64).reshape(m, n)
        work[:, c0:c1] = got[:, c0:c1]
    if not any(fails.values()):
        bad = np.nonzero(work.ravel() != expected)[0]
        if bad.size:
            e = int(bad[0])
            fails["store"] = (
                f"loaded and stored bands diverge at element {e}: "
                f"{int(work.ravel()[e])} != {int(expected[e])}"
            )
    for phase in COPY_PHASES:
        checks.append(Check(f"{tag}-{phase}", fails[phase] is None, fails[phase] or ""))
        if fails[phase]:
            return True
    return False


def _check_tiles(interp, sym, state, expected, tiles, scratch, budget) -> str | None:
    """Run the batch entry point ``sym`` over ``tiles`` consecutive copies
    of ``state`` (each tile's tokens offset by its base); ``None`` when
    every tile lands ``expected``, else the first failure."""
    mn = state.size
    buf = _seeded_buffer(
        interp, np.concatenate([state + t * mn for t in range(tiles)])
    )
    try:
        interp.call(sym, buf, tiles, scratch, budget=budget * tiles)
    except CInterpError as exc:
        return str(exc)
    got = np.asarray(buf.values(), dtype=np.int64)
    want = np.concatenate([expected + t * mn for t in range(tiles)])
    bad = np.nonzero(got != want)[0]
    if bad.size:
        e = int(bad[0])
        return f"tile {e // mn} element {e % mn}: {got[e]} != {want[e]}"
    return None


def verify_kernel(
    m: int,
    n: int,
    *,
    order: str = "C",
    algorithm: str = "auto",
    itemsize: int = 8,
    source: str | None = None,
    thread_counts: tuple[int, ...] = (2, 4),
    batch_tiles: int = 2,
    check_batch: bool | None = None,
) -> KernelReport:
    """Verify one generated kernel end to end.

    ``source`` overrides the translation unit (the mutation harness passes
    a deliberately corrupted one); by default the kernel is generated
    fresh from the plan's decomposition, exactly as the runtime would.
    """
    start = perf_counter()
    plan = TransposePlan(m, n, order=order, algorithm=algorithm)
    dec = plan.dec
    report = KernelReport(
        m=m, n=n, order=order, algorithm=plan.algorithm, itemsize=itemsize
    )
    checks = report.checks
    try:
        reason = ineligible_reason(dec, itemsize)
        if reason is not None:
            checks.append(Check("eligible", False, reason))
            return report
        spec = generate_source(dec, plan.algorithm, itemsize)
        if source is None:
            source = spec.source
        report.passes = tuple(p.parallel_name for p in spec.passes)
        mn = dec.m * dec.n
        budget = 1_000_000 + 48 * mn

        try:
            interp = CInterp(source, itemsize=itemsize, budget=budget)
        except CInterpError as exc:
            checks.append(Check("parse", False, str(exc)))
            return report
        checks.append(Check("parse", True))

        needed = {"repro_run", "repro_run_batch", "repro_scratch_bytes"}
        for p in spec.passes:
            needed.add(pass_symbol(p.kind))
            needed.add(pass_symbol(p.kind) + "_batch")
            for phase in COPY_PHASES:
                csym = copy_symbol(p.kind, phase)
                if csym is not None:
                    needed.add(csym)
        missing = sorted(needed - interp.functions.keys())
        checks.append(
            Check(
                "symbols",
                not missing,
                f"missing: {', '.join(missing)}" if missing else "",
            )
        )
        if missing:
            return report

        if len(spec.passes) != len(plan._steps) or any(
            p.kind != kind for p, (kind, _) in zip(spec.passes, plan._steps)
        ):
            checks.append(
                Check(
                    "layout", False,
                    f"codegen passes {[p.kind for p in spec.passes]} != "
                    f"plan steps {[k for k, _ in plan._steps]}",
                )
            )
            return report
        checks.append(Check("layout", True))

        # inlined decomposition constants
        const_fail = None
        for cname, want in (
            ("M", dec.m), ("N", dec.n), ("A", dec.a), ("B", dec.b),
            ("C", dec.c),
        ):
            mac = interp.macros.get(cname)
            mo = _CONST_RE.match(mac.raw) if mac is not None else None
            if mo is None or int(mo.group(2)) != want:
                const_fail = f"#define {cname} != {want}"
                break
        checks.append(Check("plan-constants", const_fail is None,
                            const_fail or ""))

        try:
            probe_interp = CInterp(
                source + "\n" + _probe_suffix(), itemsize=itemsize
            )
        except CInterpError:
            probe_interp = None
        _check_fastdiv(checks, interp.macros, dec, probe_interp)

        try:
            nbytes = interp.call("repro_scratch_bytes")
        except CInterpError as exc:
            checks.append(Check("scratch-size", False, str(exc)))
            return report

        def scratch():
            """A fresh undefined block of one worker's scratch."""
            return interp.new_scratch(nbytes)

        if check_batch is None:
            check_batch = mn <= BATCH_ELEMS_CAP
        check_batch = check_batch and batch_tiles > 1

        # -- per-pass execution, semantics, and chunk schedule ------------
        state = np.arange(mn, dtype=np.int64)
        for i, (pinfo, (kind, payload)) in enumerate(
            zip(spec.passes, plan._steps)
        ):
            tag = f"pass{i}-{pinfo.parallel_name}"
            sym = pass_symbol(pinfo.kind)
            expected = state.copy()
            TransposePlan._apply_step(expected.reshape(1, -1), payload)

            buf = _seeded_buffer(interp, state)
            try:
                interp.call(sym, buf, 0, pinfo.extent, scratch())
            except CInterpError as exc:
                checks.append(Check(f"{tag}-exec", False, str(exc)))
                return report
            full_writes = set(interp.writes)
            escape = _contained(
                full_writes | interp.reads, pinfo.axis, 0, pinfo.extent, dec
            )
            checks.append(Check(f"{tag}-exec", escape is None, escape or ""))
            got = np.asarray(buf.values(), dtype=np.int64)
            bad = np.nonzero(got != expected)[0]
            checks.append(
                Check(
                    f"{tag}-semantics",
                    bad.size == 0,
                    ""
                    if bad.size == 0
                    else (
                        f"element {int(bad[0])}: kernel gathered "
                        f"{int(got[bad[0]])}, Eq. step says "
                        f"{int(expected[bad[0]])} ({bad.size} mismatches)"
                    ),
                )
            )
            if bad.size:
                return report

            for t in thread_counts:
                fail = None
                buf = _seeded_buffer(interp, state)
                seen: set[int] = set()
                union: set[int] = set()
                for ch in balanced_chunks(pinfo.extent, t):
                    try:
                        interp.call(sym, buf, ch.start, ch.stop, scratch())
                    except CInterpError as exc:
                        fail = f"chunk [{ch.start}, {ch.stop}): {exc}"
                        break
                    w = interp.writes
                    clash = seen & w
                    if clash:
                        fail = (
                            f"chunk [{ch.start}, {ch.stop}) rewrites element "
                            f"{min(clash)} already written by an earlier chunk"
                        )
                        break
                    escape = _contained(
                        w | interp.reads, pinfo.axis, ch.start, ch.stop, dec
                    )
                    if escape is not None:
                        fail = f"chunk [{ch.start}, {ch.stop}): {escape}"
                        break
                    seen |= w
                    union |= w
                if fail is None and union != full_writes:
                    d = len(full_writes - union) or len(union - full_writes)
                    fail = (
                        f"chunk union misses {d} elements of the full-range "
                        "write set"
                    )
                if fail is None:
                    got = np.asarray(buf.values(), dtype=np.int64)
                    bad = np.nonzero(got != expected)[0]
                    if bad.size:
                        fail = (
                            f"chunked result diverges at element "
                            f"{int(bad[0])}"
                        )
                checks.append(
                    Check(f"{tag}-chunks-t{t}", fail is None, fail or "")
                )
                if fail is not None:
                    return report

            if copy_symbol(pinfo.kind, "load") is not None:
                fail = _check_copies(
                    interp, pinfo, dec, state, expected, checks, tag, scratch
                )
                if fail:
                    return report

            if check_batch:
                fail = _check_tiles(
                    interp, f"{sym}_batch", state, expected, batch_tiles,
                    scratch(), budget,
                )
                checks.append(Check(
                    f"{tag}-batch", fail is None,
                    fail or f"{batch_tiles} tiles, per-tile map verified",
                ))
                if fail is not None:
                    return report
            state = expected

        # -- whole-plan drivers -------------------------------------------
        buf = interp.new_buffer(mn)
        try:
            interp.call("repro_run", buf, scratch())
        except CInterpError as exc:
            checks.append(Check("plan-composition", False, str(exc)))
            return report
        got = np.asarray(buf.values(), dtype=np.int64)
        ok = np.array_equal(got, state)
        checks.append(
            Check(
                "plan-composition",
                ok,
                "" if ok else "repro_run != composed passes",
            )
        )
        if not ok:
            return report

        tsm = transposition_source_map(dec.m, dec.n)
        if plan.algorithm == "c2r":
            algebra_map = tsm
            rel = "transposition_source_map(dec.m, dec.n)"
        else:
            algebra_map = np.empty_like(tsm)
            algebra_map[tsm] = np.arange(mn, dtype=tsm.dtype)
            rel = "inverse of transposition_source_map(dec.m, dec.n)"
        bad = np.nonzero(got != algebra_map)[0]
        checks.append(
            Check(
                "algebra-equivalence",
                bad.size == 0,
                f"matches {rel}"
                if bad.size == 0
                else (
                    f"element {int(bad[0])}: kernel {int(got[bad[0]])} != "
                    f"algebra {int(algebra_map[bad[0]])} ({rel})"
                ),
            )
        )
        if bad.size:
            return report

        # -- batched driver -----------------------------------------------
        if check_batch:
            fail = _check_tiles(
                interp, "repro_run_batch", np.arange(mn, dtype=np.int64),
                state, batch_tiles, scratch(), budget,
            )
            checks.append(
                Check(
                    "batch-run", fail is None,
                    fail or f"{batch_tiles} tiles, per-tile map verified",
                )
            )
            if fail is not None:
                return report

        calls = interp.heap_calls
        checks.append(Check(
            "no-heap", calls == 0,
            f"{calls} malloc/free calls" if calls else
            "no entry point allocates: all scratch is the caller's",
        ))
    finally:
        report.seconds = perf_counter() - start
    return report


def verify_native(
    configs=None,
    *,
    thread_counts: tuple[int, ...] = (2, 4),
    batch_tiles: int = 2,
    algorithms: tuple[str, ...] = ("c2r", "r2c"),
    progress=None,
) -> NativeReport:
    """Verify every kernel in a ``(m, n, order, itemsize)`` config sweep,
    for each algorithm, and aggregate the certificates."""
    start = perf_counter()
    if configs is None:
        configs = DEFAULT_CONFIGS
    out = NativeReport()
    for cfg in configs:
        m, n, order, itemsize = cfg
        for algorithm in algorithms:
            dec = (
                Decomposition.of(m, n)
                if (algorithm == "c2r") == (order == "C")
                else Decomposition.of(n, m)
            )
            reason = ineligible_reason(dec, itemsize)
            if reason is not None:
                out.skipped.append(
                    {
                        "m": m, "n": n, "order": order,
                        "itemsize": itemsize, "algorithm": algorithm,
                        "reason": reason,
                    }
                )
                continue
            rep = verify_kernel(
                m, n, order=order, algorithm=algorithm, itemsize=itemsize,
                thread_counts=thread_counts, batch_tiles=batch_tiles,
            )
            out.kernels.append(rep)
            if progress is not None:
                status = "ok" if rep.ok else "FAIL"
                progress(
                    f"kernelcheck {m}x{n} {order} {algorithm} "
                    f"itemsize={itemsize}: {len(rep.checks)} checks "
                    f"{status} ({rep.seconds:.1f}s)"
                )
    out.seconds = perf_counter() - start
    return out
