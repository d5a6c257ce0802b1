"""Mutation-testing harness for the kernel verifier.

A verifier that never fails proves nothing.  This module demonstrates
that :mod:`repro.analysis.kernelcheck` has teeth: it takes the clean
translation units ``native.codegen`` emits, injects one deliberate fault
at a time — the fault classes below are the bug taxonomy of hand-written
index kernels (off-by-one loop bounds, wrong strength-reduction
constants, swapped bounds, undersized scratch, short copies, wrong pass
order) — and asserts the verifier flags **every** applied mutant while
the clean kernels pass.

Each fault class is a textual transform over the generated C.  A class
that finds no anchor in a particular kernel variant (e.g. the wide-rotate
copy fault in a narrow-rotate kernel) is *skipped* for that config, but
the harness fails unless at least :data:`MIN_CLASSES` distinct classes
were actually applied somewhere and every applied mutant was killed.

Fault constants are chosen to be genuinely wrong, not merely different:
a magic multiplier off by one can still lie inside the valid
Hacker's Delight multiplier window (the window width for ``nbits=31``
round-up constants is 1-2), which would make the mutant a correct
program no verifier should flag — so the multiplier fault doubles the
literal and the shift fault halves the effective denominator instead.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from time import perf_counter

from ..core.plan import TransposePlan
from ..native.codegen import generate_source
from .kernelcheck import verify_kernel

__all__ = [
    "FaultClass",
    "MutantResult",
    "MutationReport",
    "FAULT_CLASSES",
    "MUTATION_CONFIGS",
    "MIN_CLASSES",
    "run_mutation_harness",
]

#: the harness fails unless at least this many distinct fault classes
#: were applied (the acceptance bar for "the verifier has teeth")
MIN_CLASSES = 8

#: (m, n, order, algorithm, itemsize) kernel variants to mutate: both
#: algorithms, and both rotate code paths (narrow-group staged gather at
#: b*itemsize < 64, wide-group memcpy/memmove rotation at >= 64).
MUTATION_CONFIGS: tuple[tuple[int, int, str, str, int], ...] = (
    (12, 18, "C", "c2r", 8),
    (12, 18, "C", "r2c", 8),
    (12, 96, "C", "c2r", 8),
    (12, 96, "C", "r2c", 8),
)


def _sub_first(pattern: str, repl, source: str) -> str | None:
    """Apply ``pattern`` once; ``None`` when it finds no anchor."""
    out, count = re.subn(pattern, repl, source, count=1)
    if count == 0 or out == source:
        return None
    return out


def _bump(group: int, delta: int):
    def repl(mo: re.Match) -> str:
        parts = list(mo.groups())
        parts[group - 1] = str(int(parts[group - 1]) + delta)
        return "".join(parts)

    return repl


def _scale(group: int, factor: int, offset: int):
    def repl(mo: re.Match) -> str:
        parts = list(mo.groups())
        parts[group - 1] = str(int(parts[group - 1]) * factor + offset)
        return "".join(parts)

    return repl


def _swap_pass_order(source: str) -> str | None:
    """Swap the first two pass invocations inside ``repro_run``."""
    lines = source.split("\n")
    idx = [
        i for i, line in enumerate(lines)
        if line.startswith("  if (repro_pass_")
    ]
    if len(idx) < 2:
        return None
    a, b = idx[0], idx[1]
    lines[a], lines[b] = lines[b], lines[a]
    return "\n".join(lines)


def _shorten_driver_extent(source: str) -> str | None:
    """``repro_run``'s first pass call loses the last unit of its extent."""
    return _sub_first(
        r"(\(bufc, 0, INT64_C\()(\d+)(\)\)\) return 1;)",
        _bump(2, -1),
        source,
    )


def _shift_row_map(source: str) -> str | None:
    """Add one inside the first ``MOD_`` of the row-permutation map, at
    both places the cycle follower evaluates it: C2R's ``q`` becomes
    ``q + 1 (mod m)``, R2C's ``q^{-1}`` moves its ``mod a`` digit by one."""
    mo = re.search(r"nxt = MOD_[A-Z]\(", source)
    if mo is None:
        return None
    end = source.index(";", mo.start())
    close, depth = mo.end(), 1
    while depth:  # the ``)`` that closes the first MOD_
        depth += {"(": 1, ")": -1}.get(source[close], 0)
        close += 1
    expr = source[mo.start():end]
    shifted = source[mo.start():close - 1] + " + 1" + source[close - 1:end]
    return source.replace(expr + ";", shifted + ";")


@dataclass(frozen=True)
class FaultClass:
    """One injectable fault: a name, what it models, and the transform."""

    name: str
    description: str
    apply: object  # Callable[[str], str | None]


FAULT_CLASSES: tuple[FaultClass, ...] = (
    FaultClass(
        "loop-bound-off-by-one",
        "row loop runs one row past its upper bound (< becomes <=)",
        lambda src: _sub_first(
            r"for \(i = lo; i < hi; \+\+i\)",
            "for (i = lo; i <= hi; ++i)",
            src,
        ),
    ),
    FaultClass(
        "loop-start-off-by-one",
        "row loop skips its first row (lo becomes lo + 1)",
        lambda src: _sub_first(
            r"for \(i = lo; i < hi; \+\+i\)",
            "for (i = lo + 1; i < hi; ++i)",
            src,
        ),
    ),
    FaultClass(
        "wrong-magic-multiplier",
        "DIV_M's inlined reciprocal multiplier is a wrong literal",
        lambda src: _sub_first(
            r"(#define DIV_M\(x\) \(\(int64_t\)\(\(\(uint64_t\)\(x\) \* "
            r"UINT64_C\()(\d+)(\)\))",
            _scale(2, 2, 1),
            src,
        ),
    ),
    FaultClass(
        "wrong-magic-shift",
        "DIV_N's inlined reciprocal shift is one too small",
        lambda src: _sub_first(
            r"(#define DIV_N\(x\).*>> )(\d+)",
            _bump(2, -1),
            src,
        ),
    ),
    FaultClass(
        "wrong-mod-divisor",
        "MOD_C multiplies the quotient by the wrong divisor literal",
        lambda src: _sub_first(
            r"(#define MOD_C\(x\).*INT64_C\()(\d+)(\)\))",
            _bump(2, 1),
            src,
        ),
    ),
    FaultClass(
        "wrong-plan-constant",
        "the inlined B (group width) constant is off by one",
        lambda src: _sub_first(
            r"(#define B INT64_C\()(\d+)(\))",
            _bump(2, 1),
            src,
        ),
    ),
    FaultClass(
        "swapped-loop-bounds",
        "rotation group loop bounds swapped (runs zero iterations)",
        lambda src: (
            _sub_first(
                r"\(g = glo; g < ghi; \+\+g\)",
                "(g = ghi; g < glo; ++g)",
                src,
            )
            or _sub_first(
                r"\(g0 = glo; g0 < ghi; g0 \+= GBLK\)",
                "(g0 = ghi; g0 < glo; g0 += GBLK)",
                src,
            )
        ),
    ),
    FaultClass(
        "base-offset-off-by-one",
        "row base pointer shifted by one element",
        lambda src: _sub_first(
            r"elem_t \*row = V \+ i \* N;",
            "elem_t *row = V + i * N + 1;",
            src,
        ),
    ),
    FaultClass(
        "scratch-undersize",
        "row-shuffle scratch allocated one element short",
        lambda src: _sub_first(
            r"tmp = \(elem_t \*\) malloc\(\(size_t\)N \* sizeof\(elem_t\)\);",
            "tmp = (elem_t *) malloc((size_t)(N - 1) * sizeof(elem_t));",
            src,
        ),
    ),
    FaultClass(
        "gather-stride-off-by-one",
        "skew diagonal stride drops its one-column step (reads one column)",
        lambda src: _sub_first(
            r"#define DSTEP \((SKW \+ 1|1 - SKW)\)",
            lambda mo: "#define DSTEP (SKW)"
            if mo.group(1) == "SKW + 1"
            else "#define DSTEP (-SKW)",
            src,
        ),
    ),
    FaultClass(
        "table-entry-off-by-one",
        "gather lookup table entries shifted by one",
        lambda src: (
            _sub_first(
                r"T\[r\] = \(int32_t\)\(u \+ rb\);",
                "T[r] = (int32_t)(u + rb + 1);",
                src,
            )
            or _sub_first(
                r"T\[j\] = \(int32_t\) t;",
                "T[j] = (int32_t) (t + 1);",
                src,
            )
        ),
    ),
    FaultClass(
        "short-copy",
        "wide-rotate staging copies B bytes instead of B elements",
        lambda src: _sub_first(
            r"memcpy\(tmp \+ i \* B, g0 \+ i \* rs, "
            r"\(size_t\)B \* sizeof\(elem_t\)\);",
            "memcpy(tmp + i * B, g0 + i * rs, (size_t)B * sizeof(char));",
            src,
        ),
    ),
    FaultClass(
        "band-origin-ignored",
        "banded addressing drops the band-origin rebase (the full-width "
        "wrappers pass origin 0, so only the banded certificate sees it)",
        lambda src: (
            _sub_first(r"X = V \+ \(lo - c0\);", "X = V + lo;", src)
            or _sub_first(
                r"elem_t \*dst = V \+ i \* rs \+ \(g0 - gband\) \* B;",
                "elem_t *dst = V + i * rs + g0 * B;",
                src,
            )
            or _sub_first(
                r"rotate_group\(V \+ \(g - gband\) \* B",
                "rotate_group(V + g * B",
                src,
            )
        ),
    ),
    FaultClass(
        "wrong-row-permutation",
        "the static row map q (q^{-1} for R2C) is off by one row, in both "
        "of its evaluations (still a permutation, so the cycles close)",
        _shift_row_map,
    ),
    FaultClass(
        "skipped-cycle-close",
        "cycle following never writes the saved first row back at the "
        "cycle's end",
        lambda src: _sub_first(
            r"\n    memcpy\(X \+ k \* rs, tmp, bytes\);", "", src
        ),
    ),
    FaultClass(
        "skew-offset-off-by-one",
        "the skew reads each output row's diagonal one ring row late",
        lambda src: _sub_first(
            r"first = \(sg \* \(i \+ d\) \+ RBIAS\)",
            "first = (sg * (i + d + 1) + RBIAS)",
            src,
        ),
    ),
    FaultClass(
        "driver-extent-short",
        "repro_run drives its first pass one unit short",
        _shorten_driver_extent,
    ),
    FaultClass(
        "swapped-pass-order",
        "repro_run executes the first two passes in the wrong order",
        _swap_pass_order,
    ),
)


@dataclass
class MutantResult:
    """Outcome of one (fault class, kernel config) injection."""

    fault: str
    m: int
    n: int
    order: str
    algorithm: str
    itemsize: int
    killed: bool
    failed_checks: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "fault": self.fault,
            "m": self.m,
            "n": self.n,
            "order": self.order,
            "algorithm": self.algorithm,
            "itemsize": self.itemsize,
            "killed": self.killed,
            "failed_checks": self.failed_checks,
        }


@dataclass
class MutationReport:
    """Aggregate of a full harness run."""

    mutants: list[MutantResult] = field(default_factory=list)
    clean_failures: list[dict] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def applied(self) -> int:
        return len(self.mutants)

    @property
    def killed(self) -> int:
        return sum(1 for r in self.mutants if r.killed)

    @property
    def survivors(self) -> list[MutantResult]:
        return [r for r in self.mutants if not r.killed]

    @property
    def classes_applied(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.mutants:
            seen.setdefault(r.fault)
        return list(seen)

    @property
    def ok(self) -> bool:
        return (
            not self.clean_failures
            and not self.survivors
            and len(self.classes_applied) >= MIN_CLASSES
        )

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "applied": self.applied,
            "killed": self.killed,
            "classes_applied": self.classes_applied,
            "min_classes": MIN_CLASSES,
            "clean_failures": self.clean_failures,
            "survivors": [r.as_dict() for r in self.survivors],
            "seconds": round(self.seconds, 3),
        }


def run_mutation_harness(
    configs=None,
    *,
    fault_classes: tuple[FaultClass, ...] = FAULT_CLASSES,
    thread_counts: tuple[int, ...] = (2,),
    progress=None,
) -> MutationReport:
    """Inject every applicable fault into every config's kernel and check
    the verifier kills each mutant (and passes each clean kernel)."""
    start = perf_counter()
    if configs is None:
        configs = MUTATION_CONFIGS
    out = MutationReport()
    for m, n, order, algorithm, itemsize in configs:
        plan = TransposePlan(m, n, order=order, algorithm=algorithm)
        spec = generate_source(plan.dec, plan.algorithm, itemsize)
        clean = verify_kernel(
            m, n, order=order, algorithm=algorithm, itemsize=itemsize,
            source=spec.source, thread_counts=thread_counts,
        )
        if not clean.ok:
            out.clean_failures.append(
                {
                    "m": m, "n": n, "order": order,
                    "algorithm": algorithm, "itemsize": itemsize,
                    "failures": [c.as_dict() for c in clean.failures],
                }
            )
            continue
        for fc in fault_classes:
            mutated = fc.apply(spec.source)
            if mutated is None:
                continue
            rep = verify_kernel(
                m, n, order=order, algorithm=algorithm, itemsize=itemsize,
                source=mutated, thread_counts=thread_counts,
            )
            res = MutantResult(
                fault=fc.name,
                m=m, n=n, order=order, algorithm=plan.algorithm,
                itemsize=itemsize,
                killed=not rep.ok,
                failed_checks=[c.name for c in rep.failures],
            )
            out.mutants.append(res)
            if progress is not None:
                verdict = "killed" if res.killed else "SURVIVED"
                progress(
                    f"mutant {fc.name} on {m}x{n} {plan.algorithm}: {verdict}"
                    + (
                        f" by {', '.join(res.failed_checks)}"
                        if res.failed_checks
                        else ""
                    )
                )
    out.seconds = perf_counter() - start
    return out
