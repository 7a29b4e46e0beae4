"""The Q-learning episode kernel.

All randomness is pre-drawn by the caller, so a fixed seed reproduces every
result bit for bit. The episode loop is C (`_qloop.c`): it reads each step's
explore, action and price draws from the chunk's uniforms, walks the price
digits itself and updates `q` and `visits` in place. Its float operations
and their order are those of a plain scalar loop over the arrays, which
`tests/test_solver.py` keeps as the reference.

The C source is compiled with the system's `cc` on first use into
`${XDG_CACHE_HOME:-~/.cache}/outageplan/`, under a name keyed by the source's
sha256 and the platform, and loaded through ctypes at the first `train` call.
A case-study episode, uniform draws included, takes 0.65-0.8 µs on a 2-vCPU
Intel Xeon VM with numpy 2.4 and gcc 12; compiling takes about 0.1 s, once.
Islanding dispatch is vectorised numpy in `outageplan.simulate.dispatch_spans`.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from outageplan.errors import BuildError

# Names the implementation that ran the kernel in the train command's
# output and in benchmark results.
ACTIVE_BACKEND = "c"

COMPILER = "cc"
# No FMA contraction and no fast-math: every float op rounds as in the
# scalar reference loop.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_loop = None


def _build_library() -> Path:
    """Path of the compiled episode loop, compiling it into the cache first
    if no library for this source and platform is there yet."""
    import subprocess
    import tempfile

    source = resources.files(__package__).joinpath("_qloop.c").read_bytes()
    key = hashlib.sha256(source + " ".join(CFLAGS).encode()).hexdigest()[:16]
    folder = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "outageplan"
    target = folder / f"qloop-{key}-{sys.platform}-{platform.machine()}.so"
    if target.is_file():
        return target
    try:
        folder.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=folder, prefix=".qloop-", suffix=".so")
        os.close(fd)
    except OSError as exc:
        raise BuildError(
            f"cannot write the compiled-kernel cache {folder} ({exc.strerror or exc}); "
            "point XDG_CACHE_HOME at a writable directory"
        ) from exc
    try:
        try:
            proc = subprocess.run(
                [COMPILER, *CFLAGS, "-x", "c", "-", "-lm", "-o", tmp],
                input=source, capture_output=True,
            )
        except OSError as exc:
            raise BuildError(
                f"cannot run the C compiler {COMPILER!r} ({exc.strerror or exc}); it builds the "
                f"Q-learning loop into {folder}"
            ) from exc
        if proc.returncode != 0:
            tail = " | ".join(proc.stderr.decode(errors="replace").strip().splitlines()[-5:])
            raise BuildError(
                f"the C compiler {COMPILER!r} failed (exit {proc.returncode}) building the "
                f"Q-learning loop into {folder}: {tail}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _episode_loop():
    """The C episode loop, built and loaded on first use."""
    global _loop
    if _loop is None:
        import ctypes

        path = _build_library()
        try:
            fn = ctypes.CDLL(str(path)).qlearn_episodes
        except (OSError, AttributeError) as exc:
            raise BuildError(f"cannot load the compiled Q-learning loop {path}: {exc}; delete it to rebuild") from exc
        i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        fn.argtypes = [
            ptr, ptr, i64, i64, i64, i64, ptr, ptr, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr,
            f64, f64, ptr, ptr,
        ]
        fn.restype = None
        _loop = fn
    return _loop


def qlearn_chunk(q, visits, tables, gamma, uniforms, alphas, epsilons):
    """One chunk of epsilon-greedy Q-learning episodes, updating `q`
    (float64) and `visits` (int32) in place; returns (largest |update|,
    summed return, number of Q-values that left [q_lower, 0]). An episode
    adds at most one visit to a pair, so int32 counts hold 2^31 - 1
    episodes.

    Per step the stream supplies: explore uniform, action uniform (drawn
    whether or not the step explores), then one uniform per unit for the
    price walk, so a fixed seed always yields the same trajectory.
    """
    # carray: C-contiguous, aligned and writable, as the C loop needs (a
    # loaded Q-table is a read-only, possibly unaligned view of its file)
    if q.dtype != np.float64 or visits.dtype != np.int32 or not (q.flags.carray and visits.flags.carray):
        raise ValueError("q and visits must be C-contiguous, aligned, writable float64 and int32 arrays")
    rows = (tables.state_codes.shape[0], tables.n_actions)
    if q.shape != rows or visits.shape != rows:
        raise ValueError(f"q and visits must have shape {rows}")
    # the C loop reads these by episode, period and unit with no bounds checks
    n_units = len(tables.ladder_sizes)
    steps = uniforms.shape[:1] + (tables.horizon, 2 + n_units)
    if uniforms.dtype != np.float64 or not (uniforms.flags.c_contiguous and uniforms.flags.aligned) or uniforms.shape != steps:
        raise ValueError(f"uniforms must be a C-contiguous, aligned float64 array of shape (episodes, {steps[1]}, {steps[2]})")
    if np.shape(alphas) != steps[:1] or np.shape(epsilons) != steps[:1]:
        raise ValueError("alphas and epsilons must hold one entry per episode of uniforms")
    loop = _episode_loop()

    alphas = np.ascontiguousarray(alphas, np.float64)
    epsilons = np.ascontiguousarray(epsilons, np.float64)
    row_base = np.ascontiguousarray(tables.row_base, np.int64)
    tops = np.ascontiguousarray(tables.ladder_sizes - 1, np.int64)
    strides = np.ascontiguousarray(tables.price_strides, np.int64)
    advance_prob = np.ascontiguousarray(tables.advance_prob, np.float64)
    cap_next = np.ascontiguousarray(tables.cap_next, np.int64)
    invest = np.ascontiguousarray(tables.invest, np.float64)
    cost_of_cap = np.ascontiguousarray(tables.cost_of_cap, np.float64)
    out, violations = np.zeros(2), np.zeros(1, np.int64)
    loop(
        q.ctypes.data, visits.ctypes.data, tables.n_actions, steps[0], tables.horizon, n_units,
        uniforms.ctypes.data, alphas.ctypes.data, epsilons.ctypes.data, row_base.ctypes.data,
        tables.p_full, tops.ctypes.data, strides.ctypes.data, advance_prob.ctypes.data,
        cap_next.ctypes.data, invest.ctypes.data, cost_of_cap.ctypes.data,
        float(gamma), float(tables.q_lower), out.ctypes.data, violations.ctypes.data,
    )
    return float(out[0]), float(out[1]), int(violations[0])
