"""Synthetic analogs of the paper's benchmark suite.

The paper measures the Fortran subset of SPECfp92 plus 030.matrix300.  SPEC
sources cannot be redistributed, so each benchmark is a deterministic
synthetic program assembled from *patterns*, each contributing a known
quantity to the paper's metrics:

``literal_pairs``
    a procedure called once with two immediate constants — arguments counted
    by IMM, FI, and FS; both formals constant under every method.
``varying_sites``
    a procedure called from two sites with different immediates — constant
    *arguments* but a varying formal.
``local_const``
    an argument that is a local variable holding a constant, used twice in
    the callee — found by any method with an intraprocedural component
    (FS; INTRA/PASS-THROUGH/POLYNOMIAL jump functions) but invisible to the
    flow-insensitive method.  Drives the FI < POLYNOMIAL gap of Table 5.
``local_const_varying`` (int or float variant)
    a local-constant argument whose formal also receives a *different* value
    from a second site — a flow-sensitive argument win with no formal win
    (the SPICE/DODUC shape).  The float variant vanishes when floating-point
    propagation is disabled (the paper's "12 constant fp arguments").
``fs_branch``
    the paper's Figure 1 pattern, with the selector itself passed as a local
    constant: only the flow-sensitive method (which evaluates branch
    feasibility under entry constants) finds the inner argument and both
    formals.  Drives the POLYNOMIAL < FS gap of Table 5.
``pt_imm``
    pass-through of an immediate — the only way the FI argument count
    exceeds IMM (the paper's WAVE5 +2 effect).
``filler_drivers``
    loop-carried non-constant values fanned into three call sites of a
    three-argument worker — arguments and formals no method should find.
``deep_chains``
    a five-stage call chain fed loop-varying values — deep, constant-free
    call paths matching real programs' call-graph depth.
``array_kernels``
    constant array values initialized and passed as arguments — the paper's
    acknowledged blind spot ("at least one benchmark would benefit from the
    propagation of constant array values"); no method finds them.
``plain_procs``
    a chain of zero-argument procedures (the SWM256 shape).
``fi_float_globals``
    block-data float constants never modified — FI program constants
    (the paper notes *all* its FI globals are floats).  Readers are fanned
    out; even-indexed instances are also referenced in ``main`` (visible),
    odd ones are not.
``killed_globals``
    block-data constants that are assigned somewhere — FI candidates that
    propagate nowhere (the WAVE5 74-candidates/0-constants shape).
``fs_int_globals`` / ``fs_float_globals``
    a global assigned a constant and then referenced in the same procedure's
    call sites — invisible to FI, found by FS, visible in the caller.
``invisible_globals``
    a constant global passed *through* a middle procedure that never
    mentions it — counted by the FS call-site metric but not by VIS.
``rec_self_const`` / ``rec_self_vary`` / ``rec_mutual`` / ``rec_blowup``
    the recursion-heavy patterns of :data:`RECURSION_SUITE` (not used by
    the paper-table profiles): self-recursion carrying a local constant
    through the cycle, self-recursion on a descending counter, a mutually
    recursive pair threading a constant, and an abstractly unbounded
    ascent that only the value-contexts blowup guard terminates.  They
    measure the ``context_mode`` precision/cost tradeoff — the one-pass
    traversal degrades every cycle to the FI fallback (ICP006), while
    value-context tabulation resolves them.

Counts per benchmark are chosen so each program reproduces the *shape* of
its paper row (who wins, roughly by what factor) at roughly 1/8 scale; the
paper's absolute numbers are attached to every profile so harnesses print
them side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from repro.lang import ast
from repro.lang.parser import parse_program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports bench users)
    from repro.core.config import ICPConfig


@dataclass(frozen=True)
class PaperTable1Row:
    """A Table 1/3 row of the paper (call-site constant candidates)."""

    args: int
    imm: int
    fi: int
    fs: int
    g_fi: int
    g_fs: int
    g_vis: int


@dataclass(frozen=True)
class PaperTable2Row:
    """A Table 2/4 row of the paper (propagated constants at entry)."""

    fp: int
    fi: int
    fs: int
    procs: int
    g_fi: int
    g_fs: int


@dataclass(frozen=True)
class BenchmarkProfile:
    """Pattern counts plus the paper's reported numbers for one benchmark."""

    name: str
    literal_pairs: int = 0
    varying_sites: int = 0
    local_const: int = 0
    lcv_int: int = 0
    lcv_float: int = 0
    fs_branch: int = 0
    pt_imm: int = 0
    filler_drivers: int = 0
    deep_chains: int = 0
    array_kernels: int = 0
    plain_procs: int = 0
    fi_float_globals: int = 0
    global_fanout: int = 1
    killed_globals: int = 0
    fs_int_globals: int = 0
    fs_float_globals: int = 0
    invisible_globals: int = 0
    rec_self_const: int = 0
    rec_self_vary: int = 0
    rec_mutual: int = 0
    rec_blowup: int = 0
    paper_t1: Optional[PaperTable1Row] = None
    paper_t2: Optional[PaperTable2Row] = None
    paper_t3: Optional[PaperTable1Row] = None
    paper_t4: Optional[PaperTable2Row] = None


class _SuiteEmitter:
    """Assembles MiniF source from pattern instances."""

    def __init__(self) -> None:
        self.globals: List[str] = []
        self.inits: List[str] = []
        self.procs: List[str] = []
        self.main_stmts: List[str] = []

    def emit(self) -> str:
        parts: List[str] = []
        if self.globals:
            parts.append("global " + ", ".join(self.globals) + ";")
        if self.inits:
            parts.append("init {")
            parts.extend(f"    {line}" for line in self.inits)
            parts.append("}")
        parts.append("proc main() {")
        parts.extend(f"    {line}" for line in self.main_stmts)
        parts.append("}")
        parts.extend(self.procs)
        return "\n".join(parts) + "\n"

    # -- argument/formal patterns -----------------------------------------

    def literal_pair(self, k: int) -> None:
        # ARG+2 IMM+2 FI+2 FS+2 | FP+2, constant under every method.
        self.procs.append("proc li%d(a, b) { t = a + b; print(t); }" % k)
        self.main_stmts.append(f"call li{k}({k % 9 + 3}, 7);")

    def varying_site(self, k: int) -> None:
        # ARG+2 IMM+2 FI+2 FS+2 | FP+1, never constant.
        self.procs.append("proc va%d(a) { print(a); }" % k)
        self.main_stmts.append(f"call va{k}({k % 9});")
        self.main_stmts.append(f"call va{k}({k % 9 + 1});")

    def local_const(self, k: int) -> None:
        # ARG+1 FS+1 | FP+1 FS-and-jump-function constant, FI blind.
        # Two uses in the callee widen the Table 5 FI < POLYNOMIAL gap.
        self.procs.append(
            f"proc lc{k}() {{ w = {k % 9 + 1}; call lcs{k}(w); }}\n"
            f"proc lcs{k}(c) {{ print(c + c); }}"
        )
        self.main_stmts.append(f"call lc{k}();")

    def local_const_varying(self, k: int, float_value: bool) -> None:
        # ARG+4 IMM+3 FI+3 FS+4 | FP+2, no formal constants anywhere.
        value = f"{k % 4}.5" if float_value else str(k % 9 + 5)
        other = str(k % 9 + 6)  # int literal: IMM must not shift with floats off
        tag = "lvf" if float_value else "lvi"
        self.procs.append(
            f"proc {tag}{k}() {{ w = {value}; call {tag}s{k}(w, 1); }}\n"
            f"proc {tag}s{k}(c, d) {{ print(c + d); }}"
        )
        self.main_stmts.append(f"call {tag}{k}();")
        self.main_stmts.append(f"call {tag}s{k}({other}, 2);")

    def fs_branch(self, k: int) -> None:
        # Figure 1 in miniature with a local-constant selector:
        # ARG+2 FS+2 | FP+2 constant only under the flow-sensitive method.
        # Three uses of the inner formal widen the Table 5 POLY < FS gap.
        self.procs.append(
            f"proc fb{k}(sel) {{\n"
            f"    if (sel != 0) {{ y = {k % 5 + 1}; }} else {{ y = {k % 7 + 2}; }}\n"
            f"    call fbs{k}(y);\n"
            f"}}\n"
            f"proc fbs{k}(w) {{ t = w + w * w; print(t + w); }}"
        )
        self.main_stmts.append(f"z{k} = 0;")
        self.main_stmts.append(f"call fb{k}(z{k});")

    def pt_imm(self, k: int) -> None:
        # ARG+2 IMM+1 FI+2 FS+2 | FP+2 constant under FI and FS
        # (the only pattern where FI args exceed IMM — the WAVE5 effect).
        self.procs.append(
            f"proc pt{k}(a) {{ call pts{k}(a); }}\n"
            f"proc pts{k}(b) {{ print(b); }}"
        )
        self.main_stmts.append(f"call pt{k}({k % 11 + 1});")

    def filler_driver(self, k: int) -> None:
        # ARG+9 over three call sites | FP+3, nothing constant.
        self.procs.append(
            f"proc fd{k}() {{\n"
            f"    i = 3;\n"
            f"    s = 0;\n"
            f"    while (i > 0) {{\n"
            f"        s = s + i;\n"
            f"        call fw{k}(s, i * 2, s + i);\n"
            f"        call fw{k}(i, s - 1, s * i);\n"
            f"        i = i - 1;\n"
            f"    }}\n"
            f"    call fw{k}(s, s + 2, s - 2);\n"
            f"}}\n"
            f"proc fw{k}(h1, h2, h3) {{ t = h1 + h2 * h3; print(t); }}"
        )
        self.main_stmts.append(f"call fd{k}();")

    def deep_chain(self, k: int, depth: int = 5) -> None:
        # A call chain of `depth` one-argument stages fed loop-varying
        # values: ARG+depth / FP+depth, nothing constant, PCG depth+depth.
        self.procs.append(
            f"proc dcd{k}() {{\n"
            f"    i = 2;\n"
            f"    while (i > 0) {{ call dc{k}_0(i * 3); i = i - 1; }}\n"
            f"}}"
        )
        for level in range(depth):
            if level + 1 < depth:
                body = f"call dc{k}_{level + 1}(h + {level + 1});"
            else:
                body = "print(h);"
            self.procs.append(f"proc dc{k}_{level}(h) {{ {body} }}")
        self.main_stmts.append(f"call dcd{k}();")

    def array_kernel(self, k: int) -> None:
        # The paper's acknowledged blind spot: constant array values are
        # initialized and passed, and no method propagates them.
        # ARG+2 / FP+2, nothing constant anywhere.
        self.procs.append(
            f"proc ak{k}() {{\n"
            f"    t[0] = {k % 7 + 1};\n"
            f"    t[1] = {k % 5 + 2};\n"
            f"    call aks{k}(t[0], t[1]);\n"
            f"}}\n"
            f"proc aks{k}(v, n) {{ print(v * n); }}"
        )
        self.main_stmts.append(f"call ak{k}();")

    def plain_proc_chain(self, count: int) -> None:
        for k in range(count):
            body = f"call pp{k + 1}();" if k + 1 < count else "print(1);"
            self.procs.append(f"proc pp{k}() {{ {body} }}")
        if count:
            self.main_stmts.append("call pp0();")

    # -- global patterns ----------------------------------------------------

    def fi_float_global(self, k: int, fanout: int) -> None:
        # Block-data float constant, never modified: an FI program constant
        # referenced by `fanout` readers.  Even instances are also read in
        # main, making their call sites *visible*.
        name = f"cf{k}"
        self.globals.append(name)
        self.inits.append(f"{name} = {k}.5;")
        if k % 2 == 0:
            self.main_stmts.append(f"print({name});")
        for j in range(max(1, fanout)):
            self.procs.append(f"proc cfr{k}_{j}() {{ print({name}); }}")
            self.main_stmts.append(f"call cfr{k}_{j}();")

    def killed_global(self, k: int) -> None:
        # Block-data candidate destroyed by a later assignment.
        name = f"kg{k}"
        self.globals.append(name)
        self.inits.append(f"{name} = {k}.25;")
        self.procs.append(
            f"proc kgw{k}() {{ {name} = {name} + 1.0; print({name}); }}"
        )
        self.main_stmts.append(f"call kgw{k}();")

    def fs_global(self, k: int, value: str, tag: str) -> None:
        # Assigned a constant, then referenced at two call sites in the same
        # procedure: FS-only, and visible (the setter reads it too).
        name = f"s{tag}{k}"
        self.globals.append(name)
        self.procs.append(
            f"proc {tag}set{k}() {{\n"
            f"    {name} = {value};\n"
            f"    print({name});\n"
            f"    call {tag}use{k}();\n"
            f"    call {tag}use{k}();\n"
            f"}}\n"
            f"proc {tag}use{k}() {{ print({name}); }}"
        )
        self.main_stmts.append(f"call {tag}set{k}();")

    def invisible_global(self, k: int) -> None:
        # Constant global threaded through a middle procedure that never
        # mentions it: FS counts the sites, VIS does not.
        name = f"ig{k}"
        self.globals.append(name)
        self.procs.append(
            f"proc igm{k}() {{ call igl{k}(); }}\n"
            f"proc igl{k}() {{ print({name}); }}"
        )
        self.main_stmts.append(f"{name} = {k % 13 + 1};")
        self.main_stmts.append(f"call igm{k}();")

    # -- recursion patterns (RECURSION_SUITE) -------------------------------

    def rec_self_const(self, k: int) -> None:
        # Self-recursion threading a local constant through the cycle.
        # The FI fallback sees a local argument (BOTTOM), so the one-pass
        # traversal loses formal `c` on the back edge; value-context
        # tabulation keeps Const in every context and wins the formal.
        value = k % 9 + 2
        self.procs.append(
            f"proc rsc{k}(n, c) {{\n"
            f"    m = {value};\n"
            f"    if (n > 0) {{ call rsc{k}(n - 1, m); }}\n"
            f"    print(n + c);\n"
            f"}}"
        )
        self.main_stmts.append(f"call rsc{k}({k % 3 + 2}, {value});")

    def rec_self_vary(self, k: int) -> None:
        # Descending-counter self-recursion: no constants to win, but the
        # cycle terminates on the base case and tabulation resolves every
        # call edge (no retained fallback, hence no ICP006).
        self.procs.append(
            f"proc rsv{k}(n) {{\n"
            f"    if (n > 0) {{ call rsv{k}(n - 1); }}\n"
            f"    print(n);\n"
            f"}}"
        )
        self.main_stmts.append(f"call rsv{k}({k % 4 + 2});")

    def rec_mutual(self, k: int) -> None:
        # A mutually recursive pair threading a constant held in a caller
        # local: both entries degrade to BOTTOM under the one-pass
        # traversal (the cycle's fallback poisons the forward edge too);
        # tabulation keeps Const on both formals.
        value = k % 7 + 3
        self.procs.append(
            f"proc rma{k}(n, c) {{\n"
            f"    if (n > 0) {{ call rmb{k}(n - 1, c); }}\n"
            f"    print(c);\n"
            f"}}\n"
            f"proc rmb{k}(n, c) {{\n"
            f"    if (n > 0) {{ call rma{k}(n - 1, c); }}\n"
            f"    print(c);\n"
            f"}}"
        )
        self.main_stmts.append(f"w{k} = {value};")
        self.main_stmts.append(f"call rma{k}({k % 3 + 2}, w{k});")

    def rec_blowup(self, k: int) -> None:
        # Abstractly unbounded ascent: the bound is a non-constant global,
        # so the recursive branch never goes dead and each call requests a
        # fresh context — only the ``context_max_per_proc`` guard stops
        # the tabulation, degrading the site to the FI fallback (the one
        # recursion shape where ICP006 survives under value contexts).
        name = f"rb{k}"
        self.globals.append(name)
        self.inits.append(f"{name} = {k % 5 + 3};")
        self.procs.append(
            f"proc rbu{k}(n) {{\n"
            f"    if (n < {name}) {{ call rbu{k}(n + 1); }}\n"
            f"    print(n);\n"
            f"}}"
        )
        self.main_stmts.append(f"i{k} = 2;")
        self.main_stmts.append(
            f"while (i{k} > 0) {{ {name} = {name} + i{k}; i{k} = i{k} - 1; }}"
        )
        self.main_stmts.append(f"call rbu{k}(0);")


def build_benchmark(profile: BenchmarkProfile, scale: int = 1) -> ast.Program:
    """Assemble and parse the synthetic program for ``profile``.

    ``scale`` multiplies every pattern count: the metric *ratios* of a
    profile are scale-invariant by construction, which
    ``benchmarks/test_scale_robustness.py`` verifies.
    """
    return parse_program(build_benchmark_source(profile, scale))


def build_benchmark_source(profile: BenchmarkProfile, scale: int = 1) -> str:
    """Assemble the MiniF source text for ``profile`` (see build_benchmark)."""
    emitter = _SuiteEmitter()
    for k in range(scale * profile.literal_pairs):
        emitter.literal_pair(k)
    for k in range(scale * profile.varying_sites):
        emitter.varying_site(k)
    for k in range(scale * profile.local_const):
        emitter.local_const(k)
    for k in range(scale * profile.lcv_int):
        emitter.local_const_varying(k, float_value=False)
    for k in range(scale * profile.lcv_float):
        emitter.local_const_varying(k + 1000, float_value=True)
    for k in range(scale * profile.fs_branch):
        emitter.fs_branch(k)
    for k in range(scale * profile.pt_imm):
        emitter.pt_imm(k)
    for k in range(scale * profile.filler_drivers):
        emitter.filler_driver(k)
    for k in range(scale * profile.deep_chains):
        emitter.deep_chain(k)
    for k in range(scale * profile.array_kernels):
        emitter.array_kernel(k)
    emitter.plain_proc_chain(scale * profile.plain_procs)
    for k in range(scale * profile.fi_float_globals):
        emitter.fi_float_global(k, profile.global_fanout)
    for k in range(scale * profile.killed_globals):
        emitter.killed_global(k)
    for k in range(scale * profile.fs_int_globals):
        emitter.fs_global(k, str(k % 9 + 2), "gi")
    for k in range(scale * profile.fs_float_globals):
        emitter.fs_global(k, f"{k % 4}.75", "gf")
    for k in range(scale * profile.invisible_globals):
        emitter.invisible_global(k)
    for k in range(scale * profile.rec_self_const):
        emitter.rec_self_const(k)
    for k in range(scale * profile.rec_self_vary):
        emitter.rec_self_vary(k)
    for k in range(scale * profile.rec_mutual):
        emitter.rec_mutual(k)
    for k in range(scale * profile.rec_blowup):
        emitter.rec_blowup(k)
    return emitter.emit()


#: The twelve benchmarks of the paper's Tables 1 and 2, at roughly 1/8 scale.
SUITE: Dict[str, BenchmarkProfile] = {}


def _add(profile: BenchmarkProfile) -> None:
    SUITE[profile.name] = profile


_add(
    BenchmarkProfile(
        name="013.spice2g6",
        literal_pairs=2,
        varying_sites=12,
        lcv_int=10,
        lcv_float=1,
        filler_drivers=30,
        deep_chains=5,
        fs_int_globals=5,
        fs_float_globals=5,
        invisible_globals=8,
        paper_t1=PaperTable1Row(2983, 384, 384, 430, 0, 533, 302),
        paper_t2=PaperTable2Row(307, 4, 4, 120, 0, 45),
    )
)
_add(
    BenchmarkProfile(
        name="015.doduc",
        literal_pairs=1,
        varying_sites=5,
        lcv_float=4,
        filler_drivers=18,
        deep_chains=3,
        fs_float_globals=1,
        paper_t1=PaperTable1Row(483, 39, 39, 43, 0, 1, 1),
        paper_t2=PaperTable2Row(133, 2, 2, 41, 0, 1),
        paper_t3=PaperTable1Row(483, 39, 39, 39, 0, 0, 0),
        paper_t4=PaperTable2Row(133, 2, 2, 41, 0, 0),
    )
)
_add(
    BenchmarkProfile(
        name="030.matrix300",
        literal_pairs=1,
        varying_sites=2,
        local_const=1,
        fs_branch=7,
        filler_drivers=2,
        array_kernels=2,
        paper_t1=PaperTable1Row(178, 25, 25, 110, 0, 0, 0),
        paper_t2=PaperTable2Row(32, 2, 15, 5, 0, 0),
        paper_t3=PaperTable1Row(178, 25, 25, 110, 0, 0, 0),
        paper_t4=PaperTable2Row(32, 2, 15, 5, 0, 0),
    )
)
_add(
    BenchmarkProfile(
        name="034.mdljdp2",
        literal_pairs=1,
        varying_sites=2,
        filler_drivers=7,
        fi_float_globals=4,
        global_fanout=3,
        fs_int_globals=1,
        paper_t1=PaperTable1Row(195, 11, 11, 11, 16, 69, 38),
        paper_t2=PaperTable2Row(40, 3, 3, 36, 38, 40),
    )
)
_add(
    BenchmarkProfile(
        name="039.wave5",
        literal_pairs=1,
        varying_sites=4,
        local_const=1,
        lcv_int=2,
        lcv_float=1,
        fs_branch=1,
        pt_imm=2,
        filler_drivers=28,
        deep_chains=4,
        array_kernels=1,
        killed_globals=10,
        fs_int_globals=4,
        fs_float_globals=4,
        invisible_globals=2,
        paper_t1=PaperTable1Row(676, 30, 32, 49, 74, 249, 231),
        paper_t2=PaperTable2Row(258, 5, 9, 79, 0, 61),
    )
)
_add(
    BenchmarkProfile(
        name="048.ora",
        plain_procs=2,
        fi_float_globals=3,
        global_fanout=2,
        fs_int_globals=1,
        paper_t1=PaperTable1Row(0, 0, 0, 0, 0, 0, 0),
        paper_t2=PaperTable2Row(0, 0, 0, 3, 18, 23),
    )
)
_add(
    BenchmarkProfile(
        name="077.mdljsp2",
        literal_pairs=1,
        varying_sites=2,
        filler_drivers=7,
        paper_t1=PaperTable1Row(195, 11, 11, 11, 0, 0, 0),
        paper_t2=PaperTable2Row(40, 3, 3, 35, 0, 0),
    )
)
_add(
    BenchmarkProfile(
        name="078.swm256",
        plain_procs=8,
        paper_t1=PaperTable1Row(0, 0, 0, 0, 0, 0, 0),
        paper_t2=PaperTable2Row(0, 0, 0, 8, 0, 0),
    )
)
_add(
    BenchmarkProfile(
        name="089.su2cor",
        literal_pairs=2,
        varying_sites=10,
        filler_drivers=14,
        deep_chains=3,
        array_kernels=2,
        paper_t1=PaperTable1Row(644, 110, 110, 110, 0, 0, 0),
        paper_t2=PaperTable2Row(57, 4, 4, 25, 0, 0),
    )
)
_add(
    BenchmarkProfile(
        name="090.hydro2d",
        literal_pairs=3,
        varying_sites=3,
        filler_drivers=5,
        paper_t1=PaperTable1Row(197, 28, 28, 28, 0, 1, 1),
        paper_t2=PaperTable2Row(42, 7, 7, 40, 0, 0),
    )
)
_add(
    BenchmarkProfile(
        name="093.nasa7",
        literal_pairs=7,
        varying_sites=2,
        local_const=1,
        lcv_int=1,
        fs_branch=3,
        filler_drivers=3,
        paper_t1=PaperTable1Row(104, 33, 33, 45, 0, 3, 3),
        paper_t2=PaperTable2Row(64, 15, 22, 23, 0, 0),
        paper_t3=PaperTable1Row(97, 33, 33, 42, 0, 0, 0),
        paper_t4=PaperTable2Row(57, 15, 19, 17, 0, 0),
    )
)
_add(
    BenchmarkProfile(
        name="094.fpppp",
        literal_pairs=2,
        varying_sites=2,
        local_const=1,
        fs_branch=1,
        filler_drivers=5,
        fs_int_globals=1,
        fs_float_globals=1,
        invisible_globals=2,
        paper_t1=PaperTable1Row(103, 17, 17, 21, 0, 8, 4),
        paper_t2=PaperTable2Row(70, 4, 7, 13, 0, 2),
        paper_t3=PaperTable1Row(103, 17, 17, 21, 0, 8, 4),
        paper_t4=PaperTable2Row(70, 4, 7, 13, 0, 2),
    )
)

#: The Grove–Torczon comparison subset of Tables 3–5 (first-release SPEC;
#: the paper's 020.NASA7 and 042.FPPPP are earlier versions of the same
#: programs — the analog profiles are reused, a documented substitution).
GT_SUBSET: Tuple[str, ...] = (
    "015.doduc",
    "093.nasa7",
    "030.matrix300",
    "094.fpppp",
)

#: Paper Table 5 (intraprocedural substitutions, no-return configuration).
PAPER_TABLE5: Dict[str, Tuple[int, int, int]] = {
    # name -> (polynomial, FI, FS)
    "015.doduc": (287, 288, 288),
    "093.nasa7": (336, 205, 344),
    "030.matrix300": (138, 14, 250),
    "094.fpppp": (56, 25, 79),
}


# ----------------------------------------------------------------------
# Recursion-heavy profiles (context-mode comparison).
# ----------------------------------------------------------------------

#: Recursion-heavy profiles measuring the ``context_mode`` tradeoff.  Not
#: part of the paper tables (the paper's Fortran suite is recursion-free);
#: :func:`compare_context_modes` runs them, and ``repro-icp tables
#: contexts`` prints the comparison.
RECURSION_SUITE: Dict[str, BenchmarkProfile] = {}


def _add_recursion(profile: BenchmarkProfile) -> None:
    RECURSION_SUITE[profile.name] = profile


_add_recursion(
    BenchmarkProfile(
        name="rec.self",
        rec_self_const=4,
        rec_self_vary=3,
        literal_pairs=2,
    )
)
_add_recursion(
    BenchmarkProfile(
        name="rec.mutual",
        rec_mutual=3,
        rec_self_vary=2,
        varying_sites=2,
    )
)
_add_recursion(
    BenchmarkProfile(
        name="rec.mixed",
        rec_self_const=2,
        rec_mutual=2,
        local_const=2,
    )
)
_add_recursion(
    BenchmarkProfile(
        # The guard-exercise profile: its unbounded ascents degrade to the
        # FI fallback under value contexts, so — unlike the other recursion
        # profiles — it retains ICP006 notes in both modes by design.
        name="rec.blowup",
        rec_blowup=2,
        rec_self_vary=1,
    )
)

#: The recursion profiles that value-context tabulation fully resolves
#: (zero retained fallback edges, hence zero ICP006 notes).
RECURSION_RESOLVED: Tuple[str, ...] = ("rec.self", "rec.mutual", "rec.mixed")


def compare_context_modes(
    names: Optional[Iterable[str]] = None,
    config: "Optional[ICPConfig]" = None,
    scale: int = 1,
) -> Dict[str, Dict[str, Dict[str, object]]]:
    """Run profiles under both ``context_mode`` settings and compare.

    Returns ``{benchmark: {mode: row}}`` where each row reports the
    precision of that mode: retained fallback edges (one ICP006 note
    each), constant formals and entry globals found, and — under value
    contexts — the tabulation statistics (contexts, rounds, widenings,
    degraded requests, per-procedure table sizes).  Each mode runs its
    profiles through one pipeline.  Defaults to the
    :data:`RECURSION_SUITE` profiles; :data:`SUITE` names are accepted
    too.
    """
    from repro.core.config import ICPConfig
    from repro.core.driver import CompilationPipeline

    profiles = {**SUITE, **RECURSION_SUITE}
    requested = list(names) if names is not None else list(RECURSION_SUITE)
    base = (config or ICPConfig()).to_dict()
    comparison: Dict[str, Dict[str, Dict[str, object]]] = {}
    for mode in ("carini-hind", "value-contexts"):
        pipeline = CompilationPipeline(
            ICPConfig.from_dict({**base, "context_mode": mode})
        )
        for name in requested:
            result = pipeline.run(build_benchmark(profiles[name], scale))
            row: Dict[str, object] = {
                "fallback_edges": len(result.fs.fallback_edges),
                "constant_formals": len(result.fs.constant_formals()),
                "constant_entry_globals": sum(
                    1
                    for value in result.fs.entry_globals.values()
                    if value.is_const
                ),
            }
            if result.fs.contexts is not None:
                row["contexts"] = result.fs.contexts.to_dict()
            comparison.setdefault(name, {})[mode] = row
    return comparison
