"""A checking interpreter for the C subset emitted by ``native.codegen``.

The native backend compiles generated C with a real toolchain and runs it
at memory speed — which is precisely when a bounds or fastdiv bug would
corrupt user data with no shadow-memory hook in the way.  This module
closes that gap *statically*: it parses the generated translation unit and
executes it abstractly, with every load and store routed through a checked
memory model.  No compiler is involved, so the same analysis runs on the
no-toolchain CI leg.

What the model checks on every memory operation:

- **Bounds**: each access must fall inside its backing allocation.
- **Liveness**: access after ``free`` and double ``free`` are faults.
- **Definedness**: reading a slot never written (or copied from one) is a
  fault — this is what catches "skipped a stripe" scheduling bugs.
- **Granularity**: each allocation is accessed at one element size, and
  accesses must be aligned to it; a mutated base offset that shears an
  element boundary faults instead of silently reinterpreting bytes.
- **Overlap**: ``memcpy`` with overlapping ranges is a fault (``memmove``
  is exempt, matching C).
- **Leaks**: scratch allocated during a call must be freed before it
  returns.
- **Termination**: a per-call step budget bounds loop iterations, so a
  mutant that turns a loop infinite is reported instead of hanging the
  analyzer.

Integer semantics are C-faithful where it matters: values cast to
``uint64_t``/``size_t`` live in a 64-bit wrapping domain (so a wrong magic
multiplier fails through genuine modular arithmetic, exactly as compiled
code would), signed casts wrap to their width, and ``/`` and ``%``
truncate toward zero.  Uncast signed arithmetic is exact — sound, because
the generated kernels keep signed intermediates below 2**63 by
construction and the 64-bit paths are all behind explicit casts.

Element *values* are opaque: buffers store provenance tokens (ints), and
the interpreter never does arithmetic on them.  Initialising a buffer with
the identity permutation therefore makes the final buffer contents *be*
the gather map the kernel computed — which is how
:mod:`repro.analysis.kernelcheck` compares compiled-C behaviour against
the Eq. 23-36 algebra.

Per-call element read/write footprints are recorded for buffers created
with ``track=True``; the kernel checker uses them to prove ``run_pass``
chunk rectangles disjoint.
"""

from __future__ import annotations

import re

__all__ = [
    "CInterp",
    "CBuffer",
    "MacroDef",
    "CInterpError",
    "CParseError",
    "CMemoryFault",
    "CBudgetExceeded",
    "DEFAULT_BUDGET",
]

#: default per-call step budget (loop iterations); generous for real
#: kernels over CI-sized shapes, small enough that a mutant-induced
#: infinite loop is reported in seconds.
DEFAULT_BUDGET = 100_000_000

_M64 = (1 << 64) - 1


class CInterpError(Exception):
    """Base class for every fault the interpreter can raise."""

    kind = "generic"

    def __init__(self, kind: str, message: str):
        super().__init__(f"{kind}: {message}")
        self.kind = kind
        self.detail = message


class CParseError(CInterpError):
    """The source does not fit the supported C subset."""

    def __init__(self, message: str):
        super().__init__("parse", message)


class CMemoryFault(CInterpError):
    """A checked memory operation failed (oob, undef read, uaf, ...)."""


class CBudgetExceeded(CInterpError):
    """The per-call step budget ran out (non-terminating loop)."""

    def __init__(self, message: str):
        super().__init__("budget", message)


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Continue(Exception):
    pass


class _Break(Exception):
    pass


_UNINIT = object()
_UNDEF = object()


class UInt:
    """A value in the wrapping 64-bit unsigned domain."""

    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v & _M64

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"UInt({self.v})"


def _uval(x) -> int:
    if x.__class__ is UInt:
        return x.v
    if x.__class__ is int:
        return x & _M64
    raise CInterpError("type", f"cannot convert {x!r} to unsigned")


def _ival(x) -> int:
    """Plain integer value of an arithmetic operand."""
    if x.__class__ is int:
        return x
    if x.__class__ is UInt:
        return x.v
    raise CInterpError("type", f"expected integer, got {x!r}")


class MemObject:
    """One allocation: a run of bytes accessed at a fixed granularity."""

    __slots__ = ("tag", "nbytes", "slot_size", "cells", "freed", "track")

    def __init__(self, tag: str, nbytes: int, *, slot_size=None, track=False):
        self.tag = tag
        self.nbytes = nbytes
        self.slot_size = slot_size
        self.cells: dict[int, object] = {}
        self.freed = False
        self.track = track


class Pointer:
    """A typed pointer: allocation + byte offset + element size."""

    __slots__ = ("obj", "off", "esize")

    def __init__(self, obj: MemObject, off: int, esize: int):
        self.obj = obj
        self.off = off
        self.esize = esize

    def shift(self, k: int) -> "Pointer":
        return Pointer(self.obj, self.off + k * self.esize, self.esize)

    def retag(self, esize: int) -> "Pointer":
        return Pointer(self.obj, self.off, esize)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{self.obj.tag}+{self.off} /{self.esize}>"


class CBuffer:
    """User-facing handle on an interpreter buffer."""

    def __init__(self, obj: MemObject, esize: int):
        self.obj = obj
        self.esize = esize

    @property
    def n_elems(self) -> int:
        return self.obj.nbytes // self.esize

    def ptr(self) -> Pointer:
        """A ``char *`` to the start (what the kernel entry points take)."""
        return Pointer(self.obj, 0, 1)

    def values(self) -> list:
        """Element values in order; ``None`` where never written."""
        cells = self.obj.cells
        return [
            None if (v := cells.get(i, _UNDEF)) is _UNDEF else v
            for i in range(self.n_elems)
        ]

    def fill_identity(self) -> None:
        self.obj.cells = {i: i for i in range(self.n_elems)}


class MacroDef:
    """A ``#define``: object-like (``params is None``) or function-like."""

    __slots__ = ("name", "params", "body", "raw")

    def __init__(self, name, params, body, raw):
        self.name = name
        self.params = params
        self.body = body
        self.raw = raw


# --------------------------------------------------------------------------
# lexing + preprocessing


_TOKEN_RE = re.compile(
    r"[A-Za-z_]\w*"
    r"|0[xX][0-9a-fA-F]+|\d+"
    r"|<<=|>>=|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|"
    r"|\+=|-=|\*=|/=|%=|&=|\|=|\^=|->"
    r"|[-+*/%(){}\[\];,?:<>=!&|^~.]"
    r"|\S"
)

_COMMENT_RE = re.compile(r"/\*.*?\*/|//[^\n]*", re.DOTALL)


def _tokenize(text: str) -> list[str]:
    toks = []
    pos = 0
    for mo in _TOKEN_RE.finditer(text):
        gap = text[pos : mo.start()]
        if gap.strip():
            raise CParseError(f"unexpected character(s) {gap.strip()!r}")
        pos = mo.end()
        toks.append(mo.group(0))
    # filter whitespace survivors (the regex only yields non-space)
    bad = [t for t in toks if not t.strip()]
    if bad:
        raise CParseError(f"bad tokens {bad!r}")
    return toks


def preprocess(source: str) -> tuple[list[str], dict[str, MacroDef]]:
    """Strip comments, collect ``#define`` macros, expand them, and return
    the expanded token stream plus the (unexpanded) macro table."""
    text = _COMMENT_RE.sub(" ", source)
    macros: dict[str, MacroDef] = {
        "NULL": MacroDef("NULL", None, ["0"], "#define NULL 0"),
        "INT64_C": MacroDef(
            "INT64_C", ["x"],
            ["(", "(", "int64_t", ")", "(", "x", ")", ")"],
            "#define INT64_C(x) ((int64_t)(x))",
        ),
        "UINT64_C": MacroDef(
            "UINT64_C", ["x"],
            ["(", "(", "uint64_t", ")", "(", "x", ")", ")"],
            "#define UINT64_C(x) ((uint64_t)(x))",
        ),
    }
    code_lines = []
    for line in text.splitlines():
        stripped = line.lstrip()
        if not stripped.startswith("#"):
            code_lines.append(line)
            continue
        body = stripped[1:].lstrip()
        if body.startswith("include"):
            continue
        if not body.startswith("define"):
            raise CParseError(f"unsupported directive {stripped.split()[0]!r}")
        rest = body[len("define"):].lstrip()
        mo = re.match(r"[A-Za-z_]\w*", rest)
        if mo is None:
            raise CParseError(f"malformed #define: {line!r}")
        name = mo.group(0)
        after = rest[mo.end():]
        if after.startswith("("):
            close = after.index(")")
            params = [p.strip() for p in after[1:close].split(",") if p.strip()]
            body_toks = _tokenize(after[close + 1:])
        else:
            params = None
            body_toks = _tokenize(after)
        macros[name] = MacroDef(name, params, body_toks, stripped)
    tokens = _tokenize("\n".join(code_lines))
    return _expand(tokens, macros, 0), macros


def _collect_args(tokens: list[str], i: int) -> tuple[list[list[str]], int]:
    """Parse macro-call arguments starting just past ``(``; returns the
    argument token lists and the index past the closing ``)``."""
    args: list[list[str]] = []
    cur: list[str] = []
    depth = 0
    while i < len(tokens):
        t = tokens[i]
        if t == "(":
            depth += 1
            cur.append(t)
        elif t == ")":
            if depth == 0:
                if cur or args:
                    args.append(cur)
                return args, i + 1
            depth -= 1
            cur.append(t)
        elif t == "," and depth == 0:
            args.append(cur)
            cur = []
        else:
            cur.append(t)
        i += 1
    raise CParseError("unterminated macro argument list")


def _expand(tokens: list[str], macros: dict[str, MacroDef], depth: int) -> list[str]:
    if depth > 40:
        raise CParseError("macro recursion too deep")
    out: list[str] = []
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        m = macros.get(t)
        if m is None:
            out.append(t)
            i += 1
            continue
        if m.params is None:
            out.extend(_expand(m.body, macros, depth + 1))
            i += 1
            continue
        if i + 1 >= n or tokens[i + 1] != "(":
            out.append(t)
            i += 1
            continue
        args, j = _collect_args(tokens, i + 2)
        if len(args) != len(m.params):
            raise CParseError(
                f"macro {t} expects {len(m.params)} args, got {len(args)}"
            )
        sub_map = dict(zip(m.params, args))
        sub: list[str] = []
        for bt in m.body:
            arg = sub_map.get(bt)
            if arg is None:
                sub.append(bt)
            else:
                sub.extend(arg)
        out.extend(_expand(sub, macros, depth + 1))
        i = j
    return out


# --------------------------------------------------------------------------
# types

_BASE_SIZES = {
    "char": 1,
    "int8_t": 1,
    "uint8_t": 1,
    "int16_t": 2,
    "uint16_t": 2,
    "int": 4,
    "int32_t": 4,
    "uint32_t": 4,
    "int64_t": 8,
    "uint64_t": 8,
    "size_t": 8,
    "void": 1,
}

_UNSIGNED_TYPES = {"uint8_t", "uint16_t", "uint32_t", "uint64_t", "size_t"}
_QUALIFIERS = {"const", "static", "signed", "unsigned", "volatile", "register"}


def _wrap_signed(v: int, bits: int) -> int:
    mask = (1 << bits) - 1
    v &= mask
    if v >= 1 << (bits - 1):
        v -= 1 << bits
    return v


def _cdiv(a: int, b: int) -> int:
    if b == 0:
        raise CInterpError("div-by-zero", "integer division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _cmod(a: int, b: int) -> int:
    return a - _cdiv(a, b) * b


# --------------------------------------------------------------------------
# the interpreter


class _CFunc:
    __slots__ = ("name", "params", "body", "returns_value")

    def __init__(self, name, params, body, returns_value):
        self.name = name
        self.params = params
        self.body = body
        self.returns_value = returns_value


class CInterp:
    """Parse a generated translation unit and execute it abstractly.

    Parameters
    ----------
    source:
        The C text (e.g. ``KernelSpec.source``).
    itemsize:
        ``sizeof(elem_t)`` — the typedef the generated kernels key element
        motion on.
    budget:
        Default per-call loop-iteration budget; individual ``call``\\ s may
        override it.
    """

    def __init__(self, source: str, *, itemsize: int = 8,
                 budget: int = DEFAULT_BUDGET):
        self.sizes = dict(_BASE_SIZES)
        self.sizes["elem_t"] = itemsize
        self.sizes["repro_elem16_t"] = 16
        self.itemsize = itemsize
        self.default_budget = budget
        self.functions: dict[str, _CFunc] = {}
        self._steps = 0
        self._budget = budget
        self._live_allocs: dict[int, MemObject] = {}
        self._alloc_seq = 0
        self.reads: set[int] = set()
        self.writes: set[int] = set()
        tokens, self.macros = preprocess(source)
        _Parser(self, tokens).parse_translation_unit()

    # -- memory ------------------------------------------------------------

    def _fault(self, kind: str, message: str):
        raise CMemoryFault(kind, message)

    def new_buffer(self, n_elems: int, *, esize: int | None = None,
                   init: str = "identity", track: bool = True,
                   tag: str = "buffer") -> CBuffer:
        if esize is None:
            esize = self.itemsize
        obj = MemObject(tag, n_elems * esize, slot_size=esize, track=track)
        buf = CBuffer(obj, esize)
        if init == "identity":
            buf.fill_identity()
        elif init != "undef":
            raise ValueError(f"unknown init {init!r}")
        return buf

    def _malloc(self, size) -> Pointer:
        nbytes = _ival(size)
        if nbytes < 0:
            self._fault("oob", f"malloc of negative size {nbytes}")
        self._alloc_seq += 1
        obj = MemObject(f"malloc#{self._alloc_seq}", nbytes)
        self._live_allocs[id(obj)] = obj
        return Pointer(obj, 0, 1)

    def _free(self, ptr) -> None:
        if ptr.__class__ is not Pointer:
            if ptr == 0:  # free(NULL) is a no-op in C
                return
            self._fault("type", f"free of non-pointer {ptr!r}")
        if ptr.off != 0:
            self._fault("bad-free", f"free of interior pointer {ptr!r}")
        obj = ptr.obj
        if obj.freed:
            self._fault("double-free", f"double free of {obj.tag}")
        if id(obj) not in self._live_allocs:
            self._fault("bad-free", f"free of non-malloc object {obj.tag}")
        obj.freed = True
        del self._live_allocs[id(obj)]

    def _read_elem(self, ptr, idx):
        if ptr.__class__ is not Pointer:
            self._fault("type", f"load through non-pointer {ptr!r}")
        if idx.__class__ is not int:
            idx = _ival(idx)
        obj = ptr.obj
        esize = ptr.esize
        off = ptr.off + idx * esize
        if obj.freed:
            self._fault("use-after-free", f"load from freed {obj.tag}")
        if off < 0 or off + esize > obj.nbytes:
            self._fault(
                "oob",
                f"load at byte {off} (size {esize}) outside {obj.tag} "
                f"[0, {obj.nbytes})",
            )
        ss = obj.slot_size
        if ss is None or ss != esize or off % ss:
            if ss is None:
                self._fault("undef-read", f"load from unwritten {obj.tag}")
            self._fault(
                "misaligned",
                f"load of {esize}B at byte {off} from {obj.tag} written "
                f"at {ss}B granularity",
            )
        slot = off // ss
        v = obj.cells.get(slot, _UNDEF)
        if v is _UNDEF:
            self._fault(
                "undef-read",
                f"load of uninitialised element {slot} of {obj.tag}",
            )
        if obj.track:
            self.reads.add(slot)
        return v

    def _write_elem(self, ptr, idx, value):
        if ptr.__class__ is not Pointer:
            self._fault("type", f"store through non-pointer {ptr!r}")
        if idx.__class__ is not int:
            idx = _ival(idx)
        obj = ptr.obj
        esize = ptr.esize
        off = ptr.off + idx * esize
        if obj.freed:
            self._fault("use-after-free", f"store to freed {obj.tag}")
        if off < 0 or off + esize > obj.nbytes:
            self._fault(
                "oob",
                f"store at byte {off} (size {esize}) outside {obj.tag} "
                f"[0, {obj.nbytes})",
            )
        ss = obj.slot_size
        if ss is None:
            ss = obj.slot_size = esize
        if ss != esize or off % ss:
            self._fault(
                "misaligned",
                f"store of {esize}B at byte {off} to {obj.tag} accessed "
                f"at {ss}B granularity",
            )
        slot = off // ss
        obj.cells[slot] = value
        if obj.track:
            self.writes.add(slot)

    def _copy(self, dst, src, nbytes, *, allow_overlap: bool, what: str):
        if dst.__class__ is not Pointer or src.__class__ is not Pointer:
            self._fault("type", f"{what} with non-pointer argument")
        n = _ival(nbytes)
        if n < 0:
            self._fault("oob", f"{what} of negative size {n}")
        if n == 0:
            return
        sobj, soff = src.obj, src.off
        dobj, doff = dst.obj, dst.off
        for obj, off, mode in ((sobj, soff, "source"), (dobj, doff, "dest")):
            if obj.freed:
                self._fault("use-after-free", f"{what} {mode} {obj.tag} freed")
            if off < 0 or off + n > obj.nbytes:
                self._fault(
                    "oob",
                    f"{what} {mode} range [{off}, {off + n}) outside "
                    f"{obj.tag} [0, {obj.nbytes})",
                )
        ss = sobj.slot_size
        if ss is None:
            self._fault("undef-read", f"{what} from unwritten {sobj.tag}")
        if soff % ss or n % ss:
            self._fault(
                "misaligned",
                f"{what} of {n}B at byte {soff} shears {sobj.tag}'s "
                f"{ss}B elements",
            )
        if dobj.slot_size is None:
            dobj.slot_size = ss
        if dobj.slot_size != ss or doff % ss:
            self._fault(
                "misaligned",
                f"{what} of {ss}B elements at byte {doff} into {dobj.tag} "
                f"accessed at {dobj.slot_size}B granularity",
            )
        if (
            not allow_overlap
            and dobj is sobj
            and soff < doff + n
            and doff < soff + n
        ):
            self._fault(
                "overlap",
                f"memcpy ranges [{soff}, {soff + n}) and [{doff}, "
                f"{doff + n}) of {sobj.tag} overlap",
            )
        count = n // ss
        si = soff // ss
        di = doff // ss
        scells = sobj.cells
        vals = []
        for k in range(count):
            v = scells.get(si + k, _UNDEF)
            if v is _UNDEF:
                self._fault(
                    "undef-read",
                    f"{what} reads uninitialised element {si + k} of "
                    f"{sobj.tag}",
                )
            vals.append(v)
        dcells = dobj.cells
        for k in range(count):
            dcells[di + k] = vals[k]
        if sobj.track:
            self.reads.update(range(si, si + count))
        if dobj.track:
            self.writes.update(range(di, di + count))

    # -- execution ---------------------------------------------------------

    def _tick(self):
        self._steps += 1
        if self._steps > self._budget:
            raise CBudgetExceeded(
                f"step budget of {self._budget} loop iterations exceeded "
                "(non-terminating loop?)"
            )

    def call(self, name: str, *args, budget: int | None = None):
        """Run exported function ``name``; returns its value (or ``None``).

        Resets the step counter and footprint sets, and checks that every
        allocation made during the call was freed before it returned.
        ``CBuffer`` arguments are passed as ``char *`` to the buffer start.
        """
        fn = self.functions.get(name)
        if fn is None:
            raise CInterpError("link", f"no function named {name!r}")
        if len(args) != len(fn.params):
            raise CInterpError(
                "link",
                f"{name} takes {len(fn.params)} args, got {len(args)}",
            )
        self._steps = 0
        self._budget = self.default_budget if budget is None else budget
        self.reads = set()
        self.writes = set()
        before = dict(self._live_allocs)
        cargs = [a.ptr() if isinstance(a, CBuffer) else a for a in args]
        value = self._invoke(fn, cargs)
        leaked = [o for i, o in self._live_allocs.items() if i not in before]
        if leaked:
            tags = ", ".join(o.tag for o in leaked)
            self._fault("leak", f"{name} returned without freeing {tags}")
        return value

    def _invoke(self, fn: _CFunc, args):
        env = dict(zip(fn.params, args))
        try:
            fn.body(env)
        except _Return as r:
            return r.value
        if fn.returns_value:
            raise CInterpError(
                "type", f"{fn.name} fell off the end without returning"
            )
        return None


# --------------------------------------------------------------------------
# parsing straight to closures


_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%="}


class _Parser:
    def __init__(self, interp: CInterp, tokens: list[str]):
        self.it = interp
        self.toks = tokens
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0):
        i = self.pos + ahead
        return self.toks[i] if i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise CParseError("unexpected end of input")
        self.pos += 1
        return t

    def expect(self, tok: str):
        t = self.next()
        if t != tok:
            ctx = " ".join(self.toks[max(0, self.pos - 6): self.pos + 4])
            raise CParseError(f"expected {tok!r}, got {t!r} near ...{ctx}...")
        return t

    def _is_type_token(self, t) -> bool:
        return t is not None and (t in self.it.sizes or t in _QUALIFIERS)

    # -- top level ---------------------------------------------------------

    def parse_translation_unit(self):
        while self.peek() is not None:
            t = self.peek()
            if t == ";":
                self.next()
                continue
            if t == "typedef":
                self._skip_typedef()
                continue
            self._parse_function()

    def _skip_typedef(self):
        # ``typedef <anything, possibly with braces> name ;`` — the name is
        # registered so later declarations recognise it; struct bodies are
        # skipped wholesale and sized by the declared typedef target if
        # known, else conservatively by the last base type seen.
        self.expect("typedef")
        depth = 0
        toks = []
        while True:
            t = self.next()
            if t == "{":
                depth += 1
            elif t == "}":
                depth -= 1
            elif t == ";" and depth == 0:
                break
            toks.append(t)
        if not toks:
            raise CParseError("empty typedef")
        name = toks[-1]
        if name not in self.it.sizes:
            base = next((t for t in toks if t in self.it.sizes), None)
            if "{" in toks:
                # struct typedef: size = sum of member base sizes (fields
                # in the generated code are scalar members)
                size = sum(self.it.sizes[t] for t in toks if t in self.it.sizes)
                self.it.sizes[name] = max(1, size)
            elif base is not None:
                self.it.sizes[name] = self.it.sizes[base]
            else:
                raise CParseError(f"cannot size typedef {name!r}")

    def _parse_function(self):
        while self.peek() in _QUALIFIERS:
            self.next()
        ret = self.next()
        if ret not in self.it.sizes:
            raise CParseError(f"unknown return type {ret!r}")
        while self.peek() == "*":
            self.next()
        name = self.next()
        if not name[0].isalpha() and name[0] != "_":
            raise CParseError(f"bad function name {name!r}")
        self.expect("(")
        params = []
        if self.peek() == "void" and self.peek(1) == ")":
            self.next()
        while self.peek() != ")":
            while self.peek() in _QUALIFIERS:
                self.next()
            ptype = self.next()
            if ptype not in self.it.sizes:
                raise CParseError(f"unknown parameter type {ptype!r}")
            while self.peek() in _QUALIFIERS:
                self.next()
            while self.peek() == "*":
                self.next()
            params.append(self.next())
            if self.peek() == ",":
                self.next()
        self.expect(")")
        body = self._parse_block()
        self.it.functions[name] = _CFunc(name, params, body, ret != "void")

    # -- statements --------------------------------------------------------

    def _parse_block(self):
        self.expect("{")
        stmts = []
        while self.peek() != "}":
            stmts.append(self._parse_statement())
        self.expect("}")

        def run(env, _stmts=stmts):
            for s in _stmts:
                s(env)

        return run

    def _parse_statement(self):
        t = self.peek()
        if t == "{":
            return self._parse_block()
        if t == ";":
            self.next()
            return lambda env: None
        if t == "if":
            return self._parse_if()
        if t == "for":
            return self._parse_for()
        if t == "while":
            return self._parse_while()
        if t == "return":
            self.next()
            if self.peek() == ";":
                self.next()

                def ret_void(env):
                    raise _Return(None)

                return ret_void
            get, _ = self._parse_assign()
            self.expect(";")

            def ret(env, _g=get):
                raise _Return(_g(env))

            return ret
        if t == "continue":
            self.next()
            self.expect(";")

            def cont(env):
                raise _Continue

            return cont
        if t == "break":
            self.next()
            self.expect(";")

            def brk(env):
                raise _Break

            return brk
        if self._is_type_token(t) and not (
            t in self.it.sizes and self.peek(1) == "("
        ):
            return self._parse_declaration()
        get, _ = self._parse_assign()
        self.expect(";")

        def expr_stmt(env, _g=get):
            _g(env)

        return expr_stmt

    def _parse_declaration(self):
        while self.peek() in _QUALIFIERS:
            self.next()
        base = self.next()
        if base not in self.it.sizes:
            raise CParseError(f"unknown type {base!r} in declaration")
        setters = []
        while True:
            while self.peek() in _QUALIFIERS:
                self.next()
            while self.peek() == "*":
                self.next()
            name = self.next()
            if self.peek() == "=":
                self.next()
                init, _ = self._parse_assign()
                setters.append((name, init))
            else:
                setters.append((name, None))
            if self.peek() == ",":
                self.next()
                continue
            break
        self.expect(";")

        def run(env, _s=setters):
            for name, init in _s:
                env[name] = _UNINIT if init is None else init(env)

        return run

    def _parse_if(self):
        self.expect("if")
        self.expect("(")
        cond, _ = self._parse_assign()
        self.expect(")")
        then = self._parse_statement()
        if self.peek() == "else":
            self.next()
            other = self._parse_statement()
        else:
            other = None

        def run(env, _c=cond, _t=then, _e=other):
            if _truth(_c(env)):
                _t(env)
            elif _e is not None:
                _e(env)

        return run

    def _parse_for(self):
        self.expect("for")
        self.expect("(")
        if self.peek() == ";":
            init = None
            self.next()
        elif self._is_type_token(self.peek()):
            init = self._parse_declaration()  # consumes ';'
        else:
            init, _ = self._parse_assign()
            self.expect(";")
            init = (lambda env, _g=init: _g(env))
        if self.peek() == ";":
            cond = None
        else:
            cond, _ = self._parse_assign()
        self.expect(";")
        if self.peek() == ")":
            update = None
        else:
            update, _ = self._parse_assign()
        self.expect(")")
        body = self._parse_statement()
        tick = self.it._tick

        def run(env, _i=init, _c=cond, _u=update, _b=body, _t=tick):
            if _i is not None:
                _i(env)
            while _c is None or _truth(_c(env)):
                _t()
                try:
                    _b(env)
                except _Continue:
                    pass
                except _Break:
                    return
                if _u is not None:
                    _u(env)

        return run

    def _parse_while(self):
        self.expect("while")
        self.expect("(")
        cond, _ = self._parse_assign()
        self.expect(")")
        body = self._parse_statement()
        tick = self.it._tick

        def run(env, _c=cond, _b=body, _t=tick):
            while _truth(_c(env)):
                _t()
                try:
                    _b(env)
                except _Continue:
                    pass
                except _Break:
                    return

        return run

    # -- expressions -------------------------------------------------------
    # Each parse method returns ``(getter, setter-or-None)``.

    def _parse_assign(self):
        get, set_ = self._parse_ternary()
        t = self.peek()
        if t in _ASSIGN_OPS:
            if set_ is None:
                raise CParseError(f"left side of {t!r} is not assignable")
            self.next()
            rget, _ = self._parse_assign()
            if t == "=":

                def run(env, _s=set_, _r=rget):
                    v = _r(env)
                    _s(env, v)
                    return v

            else:
                op = _BINOPS[t[0]]

                def run(env, _g=get, _s=set_, _r=rget, _op=op):
                    v = _op(_g(env), _r(env))
                    _s(env, v)
                    return v

            return run, None
        return get, set_

    def _parse_ternary(self):
        cond, set_ = self._parse_binary(1)
        if self.peek() != "?":
            return cond, set_
        self.next()
        a, _ = self._parse_assign()
        self.expect(":")
        b, _ = self._parse_ternary()

        def run(env, _c=cond, _a=a, _b=b):
            return _a(env) if _truth(_c(env)) else _b(env)

        return run, None

    def _parse_binary(self, min_prec: int):
        get, set_ = self._parse_unary()
        while True:
            t = self.peek()
            prec = _PRECEDENCE.get(t, 0)
            if prec < min_prec:
                return get, set_
            self.next()
            if t == "&&":
                rhs, _ = self._parse_binary(prec + 1)

                def run(env, _l=get, _r=rhs):
                    return 1 if _truth(_l(env)) and _truth(_r(env)) else 0

            elif t == "||":
                rhs, _ = self._parse_binary(prec + 1)

                def run(env, _l=get, _r=rhs):
                    return 1 if _truth(_l(env)) or _truth(_r(env)) else 0

            else:
                rhs, _ = self._parse_binary(prec + 1)
                op = _BINOPS[t]

                def run(env, _l=get, _r=rhs, _op=op):
                    return _op(_l(env), _r(env))

            get, set_ = run, None

    def _parse_unary(self):
        t = self.peek()
        if t == "-":
            self.next()
            get, _ = self._parse_unary()

            def neg(env, _g=get):
                v = _g(env)
                if v.__class__ is UInt:
                    return UInt(-v.v)
                return -v

            return neg, None
        if t == "!":
            self.next()
            get, _ = self._parse_unary()
            return (lambda env, _g=get: 0 if _truth(_g(env)) else 1), None
        if t == "~":
            self.next()
            get, _ = self._parse_unary()

            def inv(env, _g=get):
                v = _g(env)
                if v.__class__ is UInt:
                    return UInt(~v.v)
                return ~v

            return inv, None
        if t == "*":
            self.next()
            get, _ = self._parse_unary()
            read = self.it._read_elem
            write = self.it._write_elem
            return (
                lambda env, _g=get, _r=read: _r(_g(env), 0),
                lambda env, val, _g=get, _w=write: _w(_g(env), 0, val),
            )
        if t in ("++", "--"):
            self.next()
            get, set_ = self._parse_unary()
            if set_ is None:
                raise CParseError(f"operand of {t} is not assignable")
            delta = 1 if t == "++" else -1

            def run(env, _g=get, _s=set_, _d=delta):
                v = _BINOPS["+"](_g(env), _d)
                _s(env, v)
                return v

            return run, None
        if t == "sizeof":
            self.next()
            self.expect("(")
            while self.peek() in _QUALIFIERS:
                self.next()
            tname = self.next()
            size = self.it.sizes.get(tname)
            if size is None:
                raise CParseError(f"sizeof of unknown type {tname!r}")
            while self.peek() == "*":
                self.next()
                size = 8
            self.expect(")")
            const = UInt(size)
            return (lambda env, _c=const: _c), None
        if t == "(" and self._is_type_token(self.peek(1)):
            return self._parse_cast()
        return self._parse_postfix()

    def _parse_cast(self):
        self.expect("(")
        while self.peek() in _QUALIFIERS:
            self.next()
        tname = self.next()
        if tname not in self.it.sizes:
            raise CParseError(f"cast to unknown type {tname!r}")
        stars = 0
        while self.peek() == "*":
            self.next()
            stars += 1
        self.expect(")")
        get, _ = self._parse_unary()
        if stars:
            esize = self.it.sizes[tname] if stars == 1 else 8

            def run(env, _g=get, _e=esize):
                v = _g(env)
                if v.__class__ is Pointer:
                    return v.retag(_e)
                if v == 0:
                    return 0  # null pointer constant
                raise CInterpError(
                    "type", f"cast of integer {v!r} to pointer"
                )

            return run, None
        size = self.it.sizes[tname]
        if tname in _UNSIGNED_TYPES:
            if size == 8:

                def run(env, _g=get):
                    return UInt(_uval(_g(env)))

            else:
                mask = (1 << (8 * size)) - 1

                def run(env, _g=get, _m=mask):
                    return _uval(_g(env)) & _m

        else:
            bits = 8 * size

            def run(env, _g=get, _b=bits):
                v = _g(env)
                if v.__class__ is UInt:
                    v = v.v
                elif v.__class__ is not int:
                    raise CInterpError(
                        "type", f"cast of {v!r} to integer"
                    )
                return _wrap_signed(v, _b)

        return run, None

    def _parse_postfix(self):
        get, set_ = self._parse_primary()
        while True:
            t = self.peek()
            if t == "[":
                self.next()
                idx, _ = self._parse_assign()
                self.expect("]")
                read = self.it._read_elem
                write = self.it._write_elem
                get, set_ = (
                    lambda env, _g=get, _i=idx, _r=read: _r(_g(env), _i(env)),
                    lambda env, val, _g=get, _i=idx, _w=write: _w(
                        _g(env), _i(env), val
                    ),
                )
            elif t in ("++", "--"):
                self.next()
                if set_ is None:
                    raise CParseError(f"operand of postfix {t} not assignable")
                delta = 1 if t == "++" else -1

                def run(env, _g=get, _s=set_, _d=delta):
                    v = _g(env)
                    _s(env, _BINOPS["+"](v, _d))
                    return v

                get, set_ = run, None
            else:
                return get, set_

    def _parse_primary(self):
        t = self.next()
        if t == "(":
            get, set_ = self._parse_assign()
            self.expect(")")
            return get, set_
        if t[0].isdigit():
            value = int(t, 0)
            return (lambda env, _v=value: _v), None
        if not (t[0].isalpha() or t[0] == "_"):
            raise CParseError(f"unexpected token {t!r}")
        if self.peek() == "(":
            return self._parse_call(t)
        name = t

        def get(env, _n=name):
            try:
                v = env[_n]
            except KeyError:
                raise CInterpError(
                    "unknown-identifier", f"use of undeclared {_n!r}"
                ) from None
            if v is _UNINIT:
                raise CInterpError(
                    "uninitialized", f"read of uninitialised {_n!r}"
                )
            return v

        def set_(env, val, _n=name):
            if _n not in env:
                raise CInterpError(
                    "unknown-identifier", f"assignment to undeclared {_n!r}"
                )
            env[_n] = val

        return get, set_

    def _parse_call(self, name: str):
        self.expect("(")
        args = []
        while self.peek() != ")":
            a, _ = self._parse_assign()
            args.append(a)
            if self.peek() == ",":
                self.next()
        self.expect(")")
        it = self.it
        if name == "malloc":
            if len(args) != 1:
                raise CParseError("malloc takes one argument")
            return (lambda env, _a=args[0]: it._malloc(_a(env))), None
        if name == "free":
            if len(args) != 1:
                raise CParseError("free takes one argument")

            def run_free(env, _a=args[0]):
                it._free(_a(env))
                return None

            return run_free, None
        if name in ("memcpy", "memmove"):
            if len(args) != 3:
                raise CParseError(f"{name} takes three arguments")
            overlap_ok = name == "memmove"

            def run_copy(env, _a=args, _o=overlap_ok, _n=name):
                dst = _a[0](env)
                it._copy(dst, _a[1](env), _a[2](env),
                         allow_overlap=_o, what=_n)
                return dst

            return run_copy, None
        if name == "__builtin_prefetch":
            # a cache hint: the arguments are evaluated, memory is not
            # touched, so a prefetch never counts as a read or faults
            if not 1 <= len(args) <= 3:
                raise CParseError("__builtin_prefetch takes one to three arguments")

            def run_prefetch(env, _a=args):
                for a in _a:
                    a(env)
                return None

            return run_prefetch, None

        def run_call(env, _n=name, _a=args):
            fn = it.functions.get(_n)
            if fn is None:
                raise CInterpError("link", f"call to undefined {_n!r}")
            if len(_a) != len(fn.params):
                raise CInterpError(
                    "link",
                    f"{_n} takes {len(fn.params)} args, got {len(_a)}",
                )
            return it._invoke(fn, [g(env) for g in _a])

        return run_call, None


# --------------------------------------------------------------------------
# operator semantics


def _truth(v) -> bool:
    cls = v.__class__
    if cls is int:
        return v != 0
    if cls is UInt:
        return v.v != 0
    if cls is Pointer:
        return True
    raise CInterpError("type", f"{v!r} used in boolean context")


def _op_add(a, b):
    ca, cb = a.__class__, b.__class__
    if ca is int and cb is int:
        return a + b
    if ca is Pointer:
        return a.shift(_ival(b))
    if cb is Pointer:
        return b.shift(_ival(a))
    return UInt(_uval(a) + _uval(b))


def _op_sub(a, b):
    ca, cb = a.__class__, b.__class__
    if ca is int and cb is int:
        return a - b
    if ca is Pointer:
        if cb is Pointer:
            if a.obj is not b.obj or a.esize != b.esize:
                raise CInterpError(
                    "type", "difference of unrelated pointers"
                )
            return (a.off - b.off) // a.esize
        return a.shift(-_ival(b))
    return UInt(_uval(a) - _uval(b))


def _op_mul(a, b):
    if a.__class__ is int and b.__class__ is int:
        return a * b
    return UInt(_uval(a) * _uval(b))


def _op_div(a, b):
    if a.__class__ is int and b.__class__ is int:
        return _cdiv(a, b)
    bb = _uval(b)
    if bb == 0:
        raise CInterpError("div-by-zero", "unsigned division by zero")
    return UInt(_uval(a) // bb)


def _op_mod(a, b):
    if a.__class__ is int and b.__class__ is int:
        if b == 0:
            raise CInterpError("div-by-zero", "modulo by zero")
        return _cmod(a, b)
    bb = _uval(b)
    if bb == 0:
        raise CInterpError("div-by-zero", "unsigned modulo by zero")
    return UInt(_uval(a) % bb)


def _op_shl(a, b):
    sh = _ival(b)
    if sh < 0 or sh > 63:
        raise CInterpError("shift", f"shift amount {sh} out of range")
    if a.__class__ is UInt:
        return UInt(a.v << sh)
    return a << sh


def _op_shr(a, b):
    sh = _ival(b)
    if sh < 0 or sh > 63:
        raise CInterpError("shift", f"shift amount {sh} out of range")
    if a.__class__ is UInt:
        return UInt(a.v >> sh)
    return a >> sh


def _cmp(a, b):
    """Three-way compare under C's usual arithmetic conversions."""
    ca, cb = a.__class__, b.__class__
    if ca is Pointer or cb is Pointer:
        # only pointer-vs-null and same-object comparisons occur
        if ca is Pointer and cb is Pointer:
            if a.obj is not b.obj:
                raise CInterpError("type", "comparison of unrelated pointers")
            return (a.off > b.off) - (a.off < b.off)
        ptr, other = (a, b) if ca is Pointer else (b, a)
        if _ival(other) != 0:
            raise CInterpError("type", "pointer compared to non-null int")
        return 1 if ca is Pointer else -1  # a live pointer is never NULL
    if ca is UInt or cb is UInt:
        av, bv = _uval(a), _uval(b)
    else:
        av, bv = a, b
    return (av > bv) - (av < bv)


def _op_eq(a, b):
    return 1 if _cmp(a, b) == 0 else 0


def _op_ne(a, b):
    return 1 if _cmp(a, b) != 0 else 0


def _op_lt(a, b):
    return 1 if _cmp(a, b) < 0 else 0


def _op_gt(a, b):
    return 1 if _cmp(a, b) > 0 else 0


def _op_le(a, b):
    return 1 if _cmp(a, b) <= 0 else 0


def _op_ge(a, b):
    return 1 if _cmp(a, b) >= 0 else 0


def _op_band(a, b):
    if a.__class__ is int and b.__class__ is int:
        return a & b
    return UInt(_uval(a) & _uval(b))


def _op_bor(a, b):
    if a.__class__ is int and b.__class__ is int:
        return a | b
    return UInt(_uval(a) | _uval(b))


def _op_bxor(a, b):
    if a.__class__ is int and b.__class__ is int:
        return a ^ b
    return UInt(_uval(a) ^ _uval(b))


_BINOPS = {
    "+": _op_add,
    "-": _op_sub,
    "*": _op_mul,
    "/": _op_div,
    "%": _op_mod,
    "<<": _op_shl,
    ">>": _op_shr,
    "==": _op_eq,
    "!=": _op_ne,
    "<": _op_lt,
    ">": _op_gt,
    "<=": _op_le,
    ">=": _op_ge,
    "&": _op_band,
    "|": _op_bor,
    "^": _op_bxor,
}

_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}
