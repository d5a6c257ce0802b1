"""The checking C interpreter: faithful arithmetic, every fault class in
the checked memory model, budgets, macros, and footprint tracking."""

from __future__ import annotations

import textwrap

import pytest

from repro.analysis.cinterp import (
    CBudgetExceeded,
    CInterp,
    CInterpError,
    CMemoryFault,
    CParseError,
    preprocess,
)


def interp(src: str, **kw) -> CInterp:
    return CInterp(textwrap.dedent(src), **kw)


class TestArithmetic:
    def test_basic_expressions_and_calls(self):
        it = interp(
            """\
            int64_t f(int64_t a, int64_t b) {
              return a * b + (a - b);
            }
            """
        )
        assert it.call("f", 7, 3) == 25

    def test_inline_and_attributes_are_compiler_advice(self):
        it = interp(
            """\
            static inline __attribute__((always_inline)) int64_t
            twice(int64_t a) { return 2 * a; }
            int64_t f(int64_t a) { return twice(a) + 1; }
            """
        )
        assert it.call("f", 20) == 41

    def test_division_truncates_toward_zero(self):
        it = interp(
            """\
            int64_t q(int64_t a, int64_t b) { return a / b; }
            int64_t r(int64_t a, int64_t b) { return a % b; }
            """
        )
        # C truncation, not Python floor: -7/2 == -3, -7%2 == -1
        assert it.call("q", -7, 2) == -3
        assert it.call("r", -7, 2) == -1
        assert it.call("q", 7, -2) == -3
        assert it.call("r", 7, -2) == 1

    def test_division_by_zero_faults(self):
        it = interp("int64_t q(int64_t a, int64_t b) { return a / b; }\n")
        with pytest.raises(CInterpError) as ei:
            it.call("q", 1, 0)
        assert ei.value.kind == "div-by-zero"

    def test_uint64_multiplication_wraps(self):
        it = interp(
            """\
            int64_t f(int64_t x) {
              return (int64_t)(((uint64_t)(x) * UINT64_C(6148914691236517206)) >> 1);
            }
            """
        )
        x = 123456789
        want = ((x * 6148914691236517206) & ((1 << 64) - 1)) >> 1
        if want >= 1 << 63:
            want -= 1 << 64
        assert it.call("f", x) == want

    def test_loops_accumulate(self):
        it = interp(
            """\
            int64_t tri(int64_t n) {
              int64_t s = 0;
              int64_t i;
              for (i = 0; i < n; ++i) {
                s += i;
              }
              return s;
            }
            """
        )
        assert it.call("tri", 100) == 4950


class TestMacros:
    def test_function_macro_expansion(self):
        it = interp(
            """\
            #define TWICE(x) ((x) + (x))
            int64_t f(int64_t a) { return TWICE(a + 1); }
            """
        )
        assert it.call("f", 5) == 12
        assert "TWICE" in it.macros
        assert it.macros["TWICE"].raw.startswith("#define TWICE")

    def test_object_macro_expansion(self):
        it = interp(
            """\
            #define K INT64_C(42)
            int64_t f(int64_t a) { return a + K; }
            """
        )
        assert it.call("f", 1) == 43

    def test_preprocess_rejects_unknown_directive(self):
        with pytest.raises(CParseError):
            preprocess("#pragma once\nint64_t f(int64_t a) { return a; }\n")

    def test_includes_are_ignored(self):
        tokens, macros = preprocess(
            "#include <stdint.h>\n#define Z 1\nint64_t x;\n"
        )
        assert "Z" in macros and "int64_t" in tokens


class TestMemoryFaults:
    def test_out_of_bounds_store(self):
        it = interp(
            """\
            int64_t f(char *buf) {
              int64_t *V = (int64_t *) buf;
              V[4] = V[0];
              return 0;
            }
            """
        )
        buf = it.new_buffer(4)
        with pytest.raises(CMemoryFault) as ei:
            it.call("f", buf)
        assert ei.value.kind == "oob"

    def test_out_of_bounds_load(self):
        it = interp(
            """\
            int64_t f(char *buf, int64_t i) {
              int64_t *V = (int64_t *) buf;
              return V[i];
            }
            """
        )
        buf = it.new_buffer(4)
        assert it.call("f", buf, 3) == 3
        with pytest.raises(CMemoryFault) as ei:
            it.call("f", buf, -1)
        assert ei.value.kind == "oob"

    def test_undef_read(self):
        it = interp(
            """\
            int64_t f(char *buf) {
              int64_t *V = (int64_t *) buf;
              return V[1];
            }
            """
        )
        buf = it.new_buffer(4, init="undef")
        with pytest.raises(CMemoryFault) as ei:
            it.call("f", buf)
        assert ei.value.kind == "undef-read"

    def test_use_after_free(self):
        it = interp(
            """\
            int64_t f(int64_t n) {
              int64_t *t = (int64_t *) malloc((size_t)n * sizeof(int64_t));
              if (!t) return 1;
              t[0] = 7;
              free(t);
              return t[0];
            }
            """
        )
        with pytest.raises(CMemoryFault) as ei:
            it.call("f", 4)
        assert ei.value.kind == "use-after-free"

    def test_double_free(self):
        it = interp(
            """\
            int64_t f(int64_t n) {
              int64_t *t = (int64_t *) malloc((size_t)n * sizeof(int64_t));
              if (!t) return 1;
              free(t);
              free(t);
              return 0;
            }
            """
        )
        with pytest.raises(CMemoryFault) as ei:
            it.call("f", 4)
        assert ei.value.kind == "double-free"

    def test_leak_detected_at_return(self):
        it = interp(
            """\
            int64_t f(int64_t n) {
              int64_t *t = (int64_t *) malloc((size_t)n * sizeof(int64_t));
              if (!t) return 1;
              t[0] = 0;
              return 0;
            }
            """
        )
        with pytest.raises(CMemoryFault) as ei:
            it.call("f", 4)
        assert ei.value.kind == "leak"

    def test_balanced_malloc_free_is_clean(self):
        it = interp(
            """\
            int64_t f(int64_t n) {
              int64_t i;
              int64_t s = 0;
              int64_t *t = (int64_t *) malloc((size_t)n * sizeof(int64_t));
              if (!t) return 1;
              for (i = 0; i < n; ++i) t[i] = i;
              for (i = 0; i < n; ++i) s += t[i];
              free(t);
              return s;
            }
            """
        )
        assert it.call("f", 10) == 45

    def test_memcpy_overlap_faults_memmove_does_not(self):
        src = """\
        int64_t f(char *buf) {{
          int64_t *V = (int64_t *) buf;
          {fn}(V + 1, V, (size_t)3 * sizeof(int64_t));
          return 0;
        }}
        """
        it = interp(src.format(fn="memcpy"))
        with pytest.raises(CMemoryFault) as ei:
            it.call("f", it.new_buffer(8))
        assert ei.value.kind == "overlap"

        it = interp(src.format(fn="memmove"))
        buf = it.new_buffer(8)
        assert it.call("f", buf) == 0
        assert buf.values() == [0, 0, 1, 2, 4, 5, 6, 7]


class TestBudget:
    def test_runaway_loop_hits_budget(self):
        it = interp(
            """\
            int64_t f(int64_t n) {
              int64_t i;
              int64_t s = 0;
              for (i = 0; i < n; ++i) s += 1;
              return s;
            }
            """,
            budget=100,
        )
        with pytest.raises(CBudgetExceeded):
            it.call("f", 1_000_000)
        # per-call override lifts the default
        assert it.call("f", 1000, budget=10_000) == 1000

    def test_budget_resets_between_calls(self):
        it = interp(
            """\
            int64_t f(int64_t n) {
              int64_t i;
              int64_t s = 0;
              for (i = 0; i < n; ++i) s += 1;
              return s;
            }
            """,
            budget=150,
        )
        assert it.call("f", 100) == 100
        assert it.call("f", 100) == 100


class TestBuffersAndFootprints:
    def test_identity_seed_and_values(self):
        it = interp("int64_t f(char *b) { return 0; }\n")
        buf = it.new_buffer(5)
        assert buf.values() == [0, 1, 2, 3, 4]
        undef = it.new_buffer(3, init="undef")
        assert undef.values() == [None, None, None]

    def test_read_write_footprints_are_per_call(self):
        it = interp(
            """\
            int64_t f(char *buf, int64_t i, int64_t j) {
              int64_t *V = (int64_t *) buf;
              V[j] = V[i];
              return 0;
            }
            """
        )
        buf = it.new_buffer(8)
        it.call("f", buf, 2, 5)
        assert it.reads == {2}
        assert it.writes == {5}
        it.call("f", buf, 0, 1)
        assert it.reads == {0}
        assert it.writes == {1}

    def test_unknown_function_is_a_link_error(self):
        it = interp("int64_t f(int64_t a) { return a; }\n")
        with pytest.raises(CInterpError) as ei:
            it.call("nope")
        assert ei.value.kind == "link"
        with pytest.raises(CInterpError) as ei:
            it.call("f")
        assert ei.value.kind == "link"

    def test_prefetch_is_a_no_op(self):
        # a cache hint touches no memory: no read footprint, no fault even
        # for an address past the buffer's end, and its arguments still run
        it = interp(
            """\
            int64_t f(char *buf, int64_t i) {
              int64_t *V = (int64_t *) buf;
              int64_t k = 0;
              __builtin_prefetch(V + i + 64, 0, 3);
              __builtin_prefetch(V + (k = 3), 1, 3);
              __builtin_prefetch(V);
              V[0] = V[1];
              return k;
            }
            """
        )
        buf = it.new_buffer(4)
        assert it.call("f", buf, 2) == 3
        assert it.reads == {1}
        assert it.writes == {0}
        with pytest.raises(CParseError):
            interp("int64_t g(char *b) { __builtin_prefetch(); return 0; }\n")
