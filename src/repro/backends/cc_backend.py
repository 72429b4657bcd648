"""The ``cc`` backend: the NumPy cores' arithmetic, compiled from C.

The NumPy cores (:meth:`BsplineBatched._numpy_v_core` /
``_numpy_vgh_core``) gather a ``(chunk, 64, N)`` temporary and make ~10
einsum passes over it.  This backend compiles (once, cached on disk) one
C routine per kernel that walks the ghost-padded table directly: per
position it reads the 16 stencil rows once (prefetching the next
position's while it computes) and keeps every partial sum in an
L1-sized ``9 x N`` scratch, with no gather temporary and no
intermediate slabs.

It claims the **exact** tier because it performs the einsum cores'
floating-point operations in their order, element for element:

* each of the three contractions (z, then y, then x) is a sequential
  multiply-then-add from zero over the reduced index, which is what
  NumPy's einsum does for a spline axis of length >= 2 (its inner loop
  runs over the spline axis, so every output element accumulates the
  reduced index in order);
* the Laplacian is ``(hxx + hyy) + hzz`` of the finished x sums;
* the build flags keep each ``+`` and ``*`` a separately rounded IEEE
  operation (``-ffp-contract=off``: no fused multiply-add; nothing like
  ``-ffast-math`` that would reassociate).  Vectorising the spline axis
  is exact, since its elements never mix.

Two cases are handed to the NumPy cores instead:

* a single-spline table (``N == 1``): einsum then reduces over a
  contiguous length-4 axis with a different (pairwise, dtype-dependent)
  summation order, so for such tables :meth:`CcBackend.make_cores`
  returns NumPy's cores;
* a chunk whose stencil base rows fall outside the padded table (a
  non-finite position: ``locate_batch`` casts NaN to ``-2**63``).  The C
  routines check every base row before reading any, and report the
  chunk back; it then runs on the NumPy core, which raises exactly what
  the NumPy backend raises (``IndexError``) or returns its bits.

The registry proves all of this once per process: the lazy conformance
gate (:mod:`repro.backends.conformance`) compares every stream with the
oracle's bit for bit, the sign of every zero included, before the
backend serves a kernel, so a compiler or NumPy build that breaks the
order is refused and the default falls back to NumPy.

Toolchain: ``cc`` on ``PATH`` (override with ``REPRO_CC``), flags
:data:`_CFLAGS`.  Shared objects are cached in ``$REPRO_CC_CACHE_DIR``,
else ``$XDG_CACHE_HOME/repro/ccbackend``, else
``~/.cache/repro/ccbackend``, keyed by a hash of the source, compiler,
flags and the CPU ``-march=native`` targets, so every later process
(spawned fleet workers included) loads the first one's build.  Any
failure to build or load (no compiler, an unusable cache directory, a
compile error, a library that does not load) raises
:class:`~repro.backends.base.BackendUnavailable` naming the path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.backends.base import (
    BackendCapability,
    BackendCores,
    BackendUnavailable,
    KernelBackend,
)

__all__ = ["CcBackend"]

# One routine per (kernel, dtype); {REAL}/{SUFFIX} are templated below.
# Every accumulator starts at zero and adds one rounded product per
# reduced index, in index order: tz over c (z), then u over b (y), then
# the outputs over a (x) -- the einsum cores' order.  `w` is the engine's
# (axis, order, ns, 4) weight block.  A base row that would put the
# stencil outside the table's `rows` rows returns 2 before any read.
_C_TEMPLATE = r"""
#define W(axis, order) (w + ((int64_t)(3 * (axis) + (order)) * ns + s) * 4)

static int in_table_{SUFFIX}(const int64_t *restrict base, int64_t ns,
                             int64_t last)
{{
    for (int64_t s = 0; s < ns; ++s)
        if (base[s] < 0 || base[s] > last) return 0;
    return 1;
}}

/* Ask for the next position's 16 stencil rows while this one computes:
 * the table is far larger than cache and each position lands at random. */
static void prefetch_{SUFFIX}(const {REAL} *table, int64_t base, int64_t sy,
                              int64_t sz, int64_t N)
{{
    for (int a = 0; a < 4; ++a)
        for (int b = 0; b < 4; ++b) {{
            const char *row = (const char *)(table + (base + a * sy + b * sz) * N);
            for (size_t k = 0; k < 4 * (size_t)N * sizeof({REAL}); k += 64)
                __builtin_prefetch(row + k);
        }}
}}

/* One stencil row (4 z-points x N splines) into the y sums; a function of
 * its own so that GCC sees the restrict pointers and vectorizes over n. */
static void v_row_{SUFFIX}(
    const {REAL} *restrict row, int64_t N, const {REAL} *restrict z,
    {REAL} yb, {REAL} *restrict ty)
{{
    const {REAL} z0 = z[0], z1 = z[1], z2 = z[2], z3 = z[3];
    for (int64_t n = 0; n < N; ++n) {{
        {REAL} tz = 0;
        tz += row[n] * z0;
        tz += row[N + n] * z1;
        tz += row[2 * N + n] * z2;
        tz += row[3 * N + n] * z3;
        ty[n] += tz * yb;
    }}
}}

static void v_fold_{SUFFIX}(
    int64_t N, {REAL} xa, const {REAL} *restrict ty, {REAL} *restrict vs)
{{
    for (int64_t n = 0; n < N; ++n) vs[n] += ty[n] * xa;
}}

static void vgh_row_{SUFFIX}(
    const {REAL} *restrict row, int64_t N, const {REAL} *restrict z,
    const {REAL} *restrict dz, const {REAL} *restrict ez,
    {REAL} yb, {REAL} dyb, {REAL} d2yb,
    {REAL} *restrict u00, {REAL} *restrict u10, {REAL} *restrict u20,
    {REAL} *restrict u01, {REAL} *restrict u11, {REAL} *restrict u02)
{{
    const {REAL} z0 = z[0], z1 = z[1], z2 = z[2], z3 = z[3];
    const {REAL} dz0 = dz[0], dz1 = dz[1], dz2 = dz[2], dz3 = dz[3];
    const {REAL} ez0 = ez[0], ez1 = ez[1], ez2 = ez[2], ez3 = ez[3];
    for (int64_t n = 0; n < N; ++n) {{
        const {REAL} c0 = row[n], c1 = row[N + n],
                     c2 = row[2 * N + n], c3 = row[3 * N + n];
        {REAL} tz0 = 0, tz1 = 0, tz2 = 0;
        tz0 += c0 * z0;
        tz0 += c1 * z1;
        tz0 += c2 * z2;
        tz0 += c3 * z3;
        tz1 += c0 * dz0;
        tz1 += c1 * dz1;
        tz1 += c2 * dz2;
        tz1 += c3 * dz3;
        tz2 += c0 * ez0;
        tz2 += c1 * ez1;
        tz2 += c2 * ez2;
        tz2 += c3 * ez3;
        u00[n] += tz0 * yb;
        u10[n] += tz0 * dyb;
        u20[n] += tz0 * d2yb;
        u01[n] += tz1 * yb;
        u11[n] += tz1 * dyb;
        u02[n] += tz2 * yb;
    }}
}}

/* One x index a into the outputs; h's off-diagonals in x_fold_h. */
static void x_fold_{SUFFIX}(
    int64_t N, {REAL} xa, {REAL} dxa, {REAL} d2xa,
    const {REAL} *restrict u00, const {REAL} *restrict u10,
    const {REAL} *restrict u20, const {REAL} *restrict u01,
    const {REAL} *restrict u02,
    {REAL} *restrict vs, {REAL} *restrict gx, {REAL} *restrict gy,
    {REAL} *restrict gz, {REAL} *restrict hxx, {REAL} *restrict hyy,
    {REAL} *restrict hzz)
{{
    for (int64_t n = 0; n < N; ++n) {{
        vs[n] += u00[n] * xa;
        gx[n] += u00[n] * dxa;
        gy[n] += u10[n] * xa;
        gz[n] += u01[n] * xa;
        hxx[n] += u00[n] * d2xa;
        hyy[n] += u20[n] * xa;
        hzz[n] += u02[n] * xa;
    }}
}}

static void x_fold_h_{SUFFIX}(
    int64_t N, {REAL} xa, {REAL} dxa,
    const {REAL} *restrict u10, const {REAL} *restrict u01,
    const {REAL} *restrict u11,
    {REAL} *restrict hxy, {REAL} *restrict hxz, {REAL} *restrict hyz)
{{
    for (int64_t n = 0; n < N; ++n) {{
        hxy[n] += u10[n] * dxa;
        hxz[n] += u01[n] * dxa;
        hyz[n] += u11[n] * xa;
    }}
}}

static void laplacian_{SUFFIX}(
    int64_t N, const {REAL} *restrict hxx, const {REAL} *restrict hyy,
    const {REAL} *restrict hzz, {REAL} *restrict ls)
{{
    for (int64_t n = 0; n < N; ++n) ls[n] = (hxx[n] + hyy[n]) + hzz[n];
}}

int repro_v_{SUFFIX}(
    const {REAL} *restrict table, int64_t rows, const int64_t *restrict base,
    int64_t sy, int64_t sz, int64_t ns, int64_t N,
    const {REAL} *restrict w, {REAL} *restrict v)
{{
    if (!in_table_{SUFFIX}(base, ns, rows - 1 - 3 * (sy + sz + 1))) return 2;
    {REAL} *restrict ty = ({REAL} *) malloc((size_t)N * sizeof({REAL}));
    if (!ty) return 1;
    for (int64_t s = 0; s < ns; ++s) {{
        if (s + 1 < ns) prefetch_{SUFFIX}(table, base[s + 1], sy, sz, N);
        const {REAL} *ax = W(0, 0), *ay = W(1, 0), *az = W(2, 0);
        {REAL} *restrict vs = v + s * N;
        memset(vs, 0, (size_t)N * sizeof({REAL}));
        for (int a = 0; a < 4; ++a) {{
            memset(ty, 0, (size_t)N * sizeof({REAL}));
            for (int b = 0; b < 4; ++b)
                v_row_{SUFFIX}(table + (base[s] + a * sy + b * sz) * N, N,
                               az, ay[b], ty);
            v_fold_{SUFFIX}(N, ax[a], ty, vs);
        }}
    }}
    free(ty);
    return 0;
}}

int repro_vgh_{SUFFIX}(
    const {REAL} *restrict table, int64_t rows, const int64_t *restrict base,
    int64_t sy, int64_t sz, int64_t ns, int64_t N,
    const {REAL} *restrict w, {REAL} *restrict v, {REAL} *restrict g,
    {REAL} *restrict l, {REAL} *restrict h)
{{
    if (!in_table_{SUFFIX}(base, ns, rows - 1 - 3 * (sy + sz + 1))) return 2;
    /* u00 u10 u20 u01 u11 u02 (y sums), then hxx hyy hzz when h is NULL */
    {REAL} *scratch = ({REAL} *) malloc((size_t)(9 * N) * sizeof({REAL}));
    if (!scratch) return 1;
    {REAL} *restrict u00 = scratch,         *restrict u10 = scratch + N,
           *restrict u20 = scratch + 2 * N, *restrict u01 = scratch + 3 * N,
           *restrict u11 = scratch + 4 * N, *restrict u02 = scratch + 5 * N;
    for (int64_t s = 0; s < ns; ++s) {{
        if (s + 1 < ns) prefetch_{SUFFIX}(table, base[s + 1], sy, sz, N);
        const {REAL} *ax = W(0, 0), *dax = W(0, 1), *d2ax = W(0, 2);
        const {REAL} *ay = W(1, 0), *day = W(1, 1), *d2ay = W(1, 2);
        const {REAL} *az = W(2, 0), *daz = W(2, 1), *d2az = W(2, 2);
        {REAL} *restrict vs = v + s * N;
        {REAL} *restrict gx = g + s * 3 * N;
        {REAL} *restrict gy = gx + N;
        {REAL} *restrict gz = gx + 2 * N;
        {REAL} *restrict ls = l + s * N;
        {REAL} *restrict hxx, *restrict hxy = NULL, *restrict hxz = NULL,
               *restrict hyy, *restrict hyz = NULL, *restrict hzz;
        if (h) {{
            hxx = h + s * 6 * N;
            hxy = hxx + N;
            hxz = hxx + 2 * N;
            hyy = hxx + 3 * N;
            hyz = hxx + 4 * N;
            hzz = hxx + 5 * N;
        }} else {{
            hxx = scratch + 6 * N;
            hyy = scratch + 7 * N;
            hzz = scratch + 8 * N;
        }}
        const size_t bytes = (size_t)N * sizeof({REAL});
        memset(vs, 0, bytes);
        memset(gx, 0, 3 * bytes);
        memset(hxx, 0, bytes);
        memset(hyy, 0, bytes);
        memset(hzz, 0, bytes);
        if (h) {{
            memset(hxy, 0, 2 * bytes);
            memset(hyz, 0, bytes);
        }}
        for (int a = 0; a < 4; ++a) {{
            memset(scratch, 0, 6 * bytes);
            for (int b = 0; b < 4; ++b)
                vgh_row_{SUFFIX}(table + (base[s] + a * sy + b * sz) * N, N,
                                 az, daz, d2az, ay[b], day[b], d2ay[b],
                                 u00, u10, u20, u01, u11, u02);
            x_fold_{SUFFIX}(N, ax[a], dax[a], d2ax[a], u00, u10, u20, u01,
                            u02, vs, gx, gy, gz, hxx, hyy, hzz);
            if (h)
                x_fold_h_{SUFFIX}(N, ax[a], dax[a], u10, u01, u11,
                                  hxy, hxz, hyz);
        }}
        laplacian_{SUFFIX}(N, hxx, hyy, hzz, ls);
    }}
    free(scratch);
    return 0;
}}

#undef W
"""

#: No flag may let the compiler fuse or reassociate: the exact tier
#: depends on each ``+`` and ``*`` rounding on its own.
_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")

_LIB = None  # process-wide cache of the loaded shared object

_SKIPPED = 2  # C return status: a base row outside the table, nothing read


def _compiler() -> str | None:
    return shutil.which(os.environ.get("REPRO_CC", "cc"))


def _no_compiler() -> str:
    return (
        f"backend 'cc' needs a C compiler, and "
        f"{os.environ.get('REPRO_CC', 'cc')!r} is not one on PATH (set "
        f"REPRO_CC to choose another). {CcBackend.capability.install_hint}"
    )


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_CC_CACHE_DIR")
    if override:
        return Path(override)
    xdg = os.environ.get("XDG_CACHE_HOME")
    root = Path(xdg) if xdg else Path.home() / ".cache"
    return root / "repro" / "ccbackend"


def _cpu_tag(cpuinfo: str | None = None) -> str:
    """The instruction-set extensions ``-march=native`` compiles for, so
    a cache shared between hosts never hands one CPU another's
    instructions.

    That is the first ``flags`` line of ``/proc/cpuinfo`` (``Features``
    on ARM), wherever it stands: x86 lists ``model name`` first, and
    one model name (a generic hypervisor CPU model, say) covers CPUs
    with different extensions.  The model name, then the platform,
    stand in only where neither line exists.
    """
    def scan(lines) -> str | None:
        model = None
        for line in lines:
            key = line.partition(":")[0].strip()
            if key in ("flags", "Features"):
                return line.rstrip("\n")
            if key == "model name" and model is None:
                model = line.rstrip("\n")
        return model

    if cpuinfo is not None:
        tag = scan(cpuinfo.splitlines())
    else:
        try:
            with open("/proc/cpuinfo") as info:
                tag = scan(info)
        except OSError:
            tag = None
    return tag or f"{platform.machine()} {platform.processor()}"


def _source() -> str:
    header = "#include <stdint.h>\n#include <stdlib.h>\n#include <string.h>\n"
    return header + "".join(
        _C_TEMPLATE.format(REAL=real, SUFFIX=suffix)
        for real, suffix in (("double", "f64"), ("float", "f32"))
    )


def _build(cc: str, source: str, lib_path: Path) -> None:
    """Compile ``source`` into ``lib_path`` through a private directory,
    then rename: concurrent builders each leave a whole library."""
    cache = lib_path.parent
    cache.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=cache, prefix=".build-"))
    try:
        src_path = work / "kernels.c"
        out_path = work / "kernels.so"
        src_path.write_text(source)
        proc = subprocess.run(
            [cc, *_CFLAGS, "-o", str(out_path), str(src_path)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            raise BackendUnavailable(
                f"backend 'cc' failed to compile its kernels with {cc!r} "
                f"into {lib_path}:\n{proc.stderr.strip()}"
            )
        os.replace(out_path, lib_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _load_library() -> ctypes.CDLL:
    """Compile (or reuse the cached build of) the kernel library.

    Every way this can fail raises :class:`BackendUnavailable`, so the
    default resolution falls back to NumPy rather than crash.
    """
    global _LIB
    if _LIB is not None:
        return _LIB
    cc = _compiler()
    if cc is None:
        raise BackendUnavailable(_no_compiler())
    source = _source()
    key = hashlib.sha256(
        "\0".join((source, cc, " ".join(_CFLAGS), _cpu_tag())).encode()
    ).hexdigest()[:16]
    lib_path = _cache_dir() / f"repro_kernels_{key}.so"
    try:
        if not lib_path.exists():
            _build(cc, source, lib_path)
        lib = ctypes.CDLL(str(lib_path))
        i64, ptr = ctypes.c_int64, ctypes.c_void_p
        for suffix in ("f64", "f32"):
            fn_v = getattr(lib, f"repro_v_{suffix}")
            fn_v.restype = ctypes.c_int
            fn_v.argtypes = [ptr, i64, ptr, i64, i64, i64, i64, ptr, ptr]
            fn_vgh = getattr(lib, f"repro_vgh_{suffix}")
            fn_vgh.restype = ctypes.c_int
            fn_vgh.argtypes = [ptr, i64, ptr, i64, i64, i64, i64] + [ptr] * 5
    except (OSError, AttributeError) as exc:
        raise BackendUnavailable(
            f"backend 'cc' could not build or load its kernel library "
            f"{lib_path}: {exc}"
        ) from exc
    _LIB = lib
    return lib


class CcBackend(KernelBackend):
    """The exact-tier cores compiled from C, built on first use and cached."""

    capability = BackendCapability(
        name="cc",
        tier="exact",
        requires=(),
        install_hint=(
            "Install a C toolchain (e.g. gcc) or point REPRO_CC at one."
        ),
        description=(
            "the einsum cores' arithmetic compiled from C via the host "
            "toolchain (exact tier; the default when a compiler is present)"
        ),
    )

    def availability_error(self) -> str | None:
        return _no_compiler() if _compiler() is None else None

    def make_cores(self, engine) -> BackendCores:
        self._check_engine(engine)
        if engine.n_splines == 1:
            # einsum sums a length-1 spline axis in another order.
            return BackendCores(v=engine._numpy_v_core, vgh=engine._numpy_vgh_core)
        lib = _load_library()
        suffix = "f64" if engine.dtype == np.float64 else "f32"
        fn_v = getattr(lib, f"repro_v_{suffix}")
        fn_vgh = getattr(lib, f"repro_vgh_{suffix}")
        flat = np.ascontiguousarray(engine._flat)
        rows, n = flat.shape
        sy, sz = engine._row_strides

        def v_core(positions, v):
            base, block = engine._locate_block(positions)
            status = fn_v(
                flat.ctypes.data, rows, base.ctypes.data, sy, sz, len(positions), n,
                block.ctypes.data, v.ctypes.data,
            )
            if status == _SKIPPED:
                engine._numpy_v_core(positions, v)
            elif status:
                raise MemoryError("cc backend could not allocate its scratch")

        def vgh_core(positions, v, g, l, h):
            base, block = engine._locate_block(positions)
            status = fn_vgh(
                flat.ctypes.data, rows, base.ctypes.data, sy, sz, len(positions), n,
                block.ctypes.data, v.ctypes.data, g.ctypes.data,
                l.ctypes.data, None if h is None else h.ctypes.data,
            )
            if status == _SKIPPED:
                engine._numpy_vgh_core(positions, v, g, l, h)
            elif status:
                raise MemoryError("cc backend could not allocate its scratch")

        return BackendCores(v=v_core, vgh=vgh_core)
