"""The four compiled kernels: the Q-learning episode loop, islanding
dispatch, the greedy row scan and one period of the exact solver's backward
induction.

The episode loop is C (`_kernels.c`): it draws each step's explore, action
and price uniforms from the package's PCG64 stream (`outageplan.pcg64`),
stepping the generator's state in place, so a fixed seed reproduces every
result bit for bit; it walks the price digits itself and updates the stored
Q-table rows in place, appending a state's row to the store at its first
update. Dispatch walks each outage span's hours and, per hour, every
portfolio's units and load classes. The row scan takes each row's first
maximum with the same strict `>` scan the episode loop uses. The backward
period scores every action, or a fixed policy's one action, of each stored
state of a period against the next period's price expectation. The float
operations of each kernel and their order are those of a plain scalar loop
or numpy expression over the arrays, which `tests/test_solver.py` and
`tests/test_simulate.py` keep as the references.

The C source is compiled with the system's `cc` on first use into
`${XDG_CACHE_HOME:-~/.cache}/outageplan/`, under a name keyed by the source's
sha256 and the platform, and loaded through ctypes at the first kernel call.
The C code indexes without bounds checks, so each wrapper here refuses
arrays of the wrong dtype, layout or size before it passes a pointer.
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
from outageplan.outage import HOURS_PER_YEAR

# Names the implementation that ran the kernel in the train command's
# output and in benchmark results.
ACTIVE_BACKEND = "c"

COMPILER = "cc"
# No FMA contraction and no fast-math: every float op rounds as in the
# scalar reference loop.
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

_lib = None


def _build_library() -> Path:
    """Path of the compiled kernels, compiling them into the cache first if
    no library for this source and platform is there yet."""
    import subprocess
    import tempfile

    source = resources.files(__package__).joinpath("_kernels.c").read_bytes()
    key = hashlib.sha256(source + " ".join(CFLAGS).encode()).hexdigest()[:16]
    folder = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "outageplan"
    target = folder / f"kernels-{key}-{sys.platform}-{platform.machine()}.so"
    if target.is_file():
        return target
    try:
        folder.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=folder, prefix=".kernels-", suffix=".so")
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
                f"compiled kernels into {folder}"
            ) from exc
        if proc.returncode != 0:
            tail = " | ".join(proc.stderr.decode(errors="replace").strip().splitlines()[-5:])
            raise BuildError(
                f"the C compiler {COMPILER!r} failed (exit {proc.returncode}) building the "
                f"compiled kernels into {folder}: {tail}"
            )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return target


def _library():
    """The compiled kernels, built and loaded on first use, with every
    function's argument and result types declared."""
    global _lib
    if _lib is None:
        import ctypes

        path = _build_library()
        i64, f64, ptr = ctypes.c_int64, ctypes.c_double, ctypes.c_void_p
        signatures = {
            "qlearn_episodes": (
                [ptr, ptr, ptr, ptr, i64, i64, i64, i64, ptr, ptr, ptr, ptr, i64, ptr, ptr, ptr, ptr, ptr, ptr,
                 f64, f64, ptr, ptr],
                None,
            ),
            "dispatch_spans": ([i64, ptr, ptr, i64, i64, i64, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr, ptr], None),
            "greedy_rows": ([ptr, i64, i64, ptr], i64),
            "backward_period": ([i64, ptr, i64, i64, ptr, ptr, ptr, ptr, ptr, i64, f64, ptr, ptr], None),
        }
        try:
            lib = ctypes.CDLL(str(path))
            for name, (argtypes, restype) in signatures.items():
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = argtypes, restype
        except (OSError, AttributeError) as exc:
            raise BuildError(f"cannot load the compiled kernels {path}: {exc}; delete it to rebuild") from exc
        _lib = lib
    return _lib


def qlearn_chunk(q, visits, slots, n_used, tables, gamma, stream, alphas, epsilons):
    """One chunk of epsilon-greedy Q-learning episodes, one per entry of
    `alphas` and `epsilons`, over a store of the Q-table rows that exist,
    updating `q` (float64) and `visits` (int32), both (store rows,
    n_actions), and the int32 slot map `slots` in place. `slots[s]` is the
    store row of Q-table row s, or -1 while s has never been updated; the
    first `n_used` store rows are in use and the rest must be zero. Returns
    (largest |update|, summed return, number of Q-values that left
    [q_lower, 0], number of pairs first visited in the chunk, store rows in
    use after it). An episode adds at most one visit to a pair, so int32
    counts hold 2^31 - 1 episodes.

    `stream` is a PCG64 generator's `words()`: a writable uint64 array of
    the state and the odd increment, (state low, state high, increment low,
    increment high), which the chunk advances in place. Per step the loop
    draws the explore uniform, the action uniform (whether or not the step
    explores), then one uniform per unit for the price walk, so a fixed
    seed always yields the same trajectory.
    """
    # carray: C-contiguous, aligned and writable, as the C loop needs (a
    # loaded Q-table is a read-only, possibly unaligned view of its file)
    if q.dtype != np.float64 or visits.dtype != np.int32 or not (q.flags.carray and visits.flags.carray):
        raise ValueError("q and visits must be C-contiguous, aligned, writable float64 and int32 arrays")
    if q.ndim != 2 or q.shape[1] != tables.n_actions or visits.shape != q.shape:
        raise ValueError(f"q and visits must have shape (store rows, {tables.n_actions})")
    # the C loop indexes the store through the slot map with no bounds checks
    rows = tables.state_codes.shape[0]
    if slots.dtype != np.int32 or not slots.flags.carray or slots.shape != (rows,):
        raise ValueError(f"slots must be a C-contiguous, aligned, writable int32 array of shape ({rows},)")
    if not 0 <= n_used <= len(q):
        raise ValueError(f"n_used {n_used} is outside [0, {len(q)}], the store's row count")
    if slots.min() < -1 or slots.max() >= n_used:
        bad = np.flatnonzero((slots < -1) | (slots >= n_used))[0]
        raise ValueError(f"slot {slots[bad]} of row {bad} is outside [-1, {n_used})")
    if not (_is_buffer(stream, (4,), np.uint64) and stream.flags.writeable):
        raise ValueError("stream must be a C-contiguous, aligned, writable array of 4 uint64 words: "
                         "state low, state high, increment low, increment high")
    if not stream[2] & 1:
        raise ValueError("the stream's increment must be odd")
    n_episodes = len(alphas) if np.ndim(alphas) == 1 else -1
    if n_episodes < 0 or np.shape(epsilons) != (n_episodes,):
        raise ValueError("alphas and epsilons must be 1-D arrays of one entry per episode")
    needed = min(rows - n_used, n_episodes * tables.horizon)
    if len(q) - n_used < needed:
        raise ValueError(f"the store has {len(q) - n_used} free rows; this chunk may append {needed}")
    loop = _library().qlearn_episodes

    alphas = np.ascontiguousarray(alphas, np.float64)
    epsilons = np.ascontiguousarray(epsilons, np.float64)
    row_base = np.ascontiguousarray(tables.row_base, np.int64)
    tops = np.ascontiguousarray(tables.ladder_sizes - 1, np.int64)
    strides = np.ascontiguousarray(tables.price_strides, np.int64)
    advance_prob = np.ascontiguousarray(tables.advance_prob, np.float64)
    cap_next = np.ascontiguousarray(tables.cap_next, np.int64)
    invest = np.ascontiguousarray(tables.invest, np.float64)
    cost_of_cap = np.ascontiguousarray(tables.cost_of_cap, np.float64)
    out, counts, used = np.zeros(2), np.zeros(2, np.int64), np.array([n_used], np.int64)
    loop(
        q.ctypes.data, visits.ctypes.data, slots.ctypes.data, used.ctypes.data, tables.n_actions, n_episodes,
        tables.horizon, len(tables.ladder_sizes), stream.ctypes.data, alphas.ctypes.data, epsilons.ctypes.data,
        row_base.ctypes.data, tables.p_full, tops.ctypes.data, strides.ctypes.data, advance_prob.ctypes.data,
        cap_next.ctypes.data, invest.ctypes.data, cost_of_cap.ctypes.data,
        float(gamma), float(tables.q_lower), out.ctypes.data, counts.ctypes.data,
    )
    return float(out[0]), float(out[1]), int(counts[0]), int(counts[1]), int(used[0])


def _is_buffer(a, shape, dtype=np.float64) -> bool:
    """Whether `a` is a C-contiguous, aligned ndarray of `shape` and `dtype`,
    writable or not."""
    return (isinstance(a, np.ndarray) and a.dtype == dtype and a.shape == shape
            and a.flags.c_contiguous and a.flags.aligned)


def dispatch(starts, lengths, deliverable, power_cap, demand, pv, class_order, voll, left, cost, unserved=None):
    """Islanding dispatch of every (span, portfolio) pair into `cost`, and
    into `unserved` unless it is None; see `outageplan.simulate.dispatch_spans`.

    Spans are int64 start hours in [0, 8760) and lengths >= 0. `deliverable`
    (finite) and `power_cap` (not NaN) are (portfolios, units) float64,
    `left` a float64 work buffer of the same shape, `demand` (classes, 8760)
    and `pv` (8760,) finite float64, `class_order` an int64 permutation of
    the classes in dispatch order, `voll` one float64 per class, `cost`
    (spans, portfolios) and `unserved` (classes, spans, portfolios) float64.
    Every array must be C-contiguous and aligned, `left`, `cost` and
    `unserved` writable; ValueError otherwise, before the C kernel runs."""
    n_spans = len(starts) if np.ndim(starts) == 1 else -1
    if not (_is_buffer(starts, (n_spans,), np.int64) and _is_buffer(lengths, (n_spans,), np.int64)):
        raise ValueError("starts and lengths must be C-contiguous, aligned int64 arrays of one length")
    if n_spans and not (starts.min() >= 0 and starts.max() < HOURS_PER_YEAR and lengths.min() >= 0):
        raise ValueError(f"span starts must lie in [0, {HOURS_PER_YEAR}) and span lengths be >= 0")
    pairs = np.shape(deliverable) if np.ndim(deliverable) == 2 else (-1, -1)
    if not (_is_buffer(deliverable, pairs) and _is_buffer(power_cap, pairs)):
        raise ValueError(
            "deliverable and power_cap must be C-contiguous, aligned float64 arrays of one (portfolios, units) shape"
        )
    # the kernel's minimum is numpy's only while no NaN can arise in it
    if not (np.isfinite(deliverable).all() and not np.isnan(power_cap).any()):
        raise ValueError("deliverable must be finite and power_cap not NaN")
    n_classes = len(demand) if np.ndim(demand) == 2 else -1
    if not _is_buffer(demand, (n_classes, HOURS_PER_YEAR)):
        raise ValueError(f"demand must be a C-contiguous, aligned float64 array of shape (classes, {HOURS_PER_YEAR})")
    if not _is_buffer(pv, (HOURS_PER_YEAR,)):
        raise ValueError(f"pv must be a C-contiguous, aligned float64 array of shape ({HOURS_PER_YEAR},)")
    if not (np.isfinite(demand).all() and np.isfinite(pv).all()):
        raise ValueError("demand and pv must be finite")
    if not (_is_buffer(class_order, (n_classes,), np.int64)
            and np.array_equal(np.sort(class_order), np.arange(n_classes))):
        raise ValueError(f"class_order must be an int64 permutation of the {n_classes} classes")
    if not _is_buffer(voll, (n_classes,)):
        raise ValueError(f"voll must be a C-contiguous, aligned float64 array of one value per class ({n_classes})")
    outputs = {"left": (left, pairs), "cost": (cost, (n_spans, pairs[0]))}
    if unserved is not None:
        outputs["unserved"] = (unserved, (n_classes, n_spans, pairs[0]))
    for name, (array, shape) in outputs.items():
        if not (_is_buffer(array, shape) and array.flags.writeable):
            raise ValueError(f"{name} must be a C-contiguous, aligned, writable float64 array of shape {shape}")
    _library().dispatch_spans(
        n_spans, starts.ctypes.data, lengths.ctypes.data, pairs[0], pairs[1], n_classes,
        deliverable.ctypes.data, power_cap.ctypes.data, demand.ctypes.data, pv.ctypes.data,
        class_order.ctypes.data, voll.ctypes.data, left.ctypes.data, cost.ctypes.data,
        None if unserved is None else unserved.ctypes.data,
    )


def greedy_rows(values, policy) -> int:
    """The first-maximum action of each row of `values`, a C-contiguous
    (rows, actions) float64 table at any alignment, written into `policy`,
    a writable C-contiguous int64 array of one entry per row. Returns the
    index of the first row whose maximum is not finite (a NaN anywhere, a
    +inf maximum or all -inf), where the scan stopped, or the row count."""
    if not (isinstance(values, np.ndarray) and values.ndim == 2 and values.dtype == np.float64
            and values.flags.c_contiguous and values.shape[1] > 0):
        raise ValueError("values must be a C-contiguous float64 array of shape (rows, actions >= 1)")
    if not (_is_buffer(policy, values.shape[:1], np.int64) and policy.flags.writeable):
        raise ValueError(f"policy must be a C-contiguous, aligned, writable int64 array of shape ({len(values)},)")
    return _library().greedy_rows(values.ctypes.data, len(values), values.shape[1], policy.ctypes.data)


def backward_period(combos, cap_next, invest, cost_of_cap, expectation, gamma, v_next, values=None, policy=None):
    """One period of backward induction over its stored states, the price
    combos `combos` times the capacities c < C_t, C_t being `v_next`'s
    width; see `outageplan.solver._backward`.

    Exactly one of `values` and `policy` is given. With `values`, a writable
    (states, actions) float64 array of the period's rows, every action is
    scored into it and `v_next[p, c]` is its row's first maximum, or NaN
    if the row holds one, as numpy's max; with
    `policy`, int64 actions in [0, actions) for the period's rows,
    `v_next[p, c]` is that action's value. `combos` is int64 in [0, p_full),
    `invest` (p_full, actions) and `cost_of_cap` 1-D float64, `cap_next` an
    int64 (>= C_t, actions) table whose first C_t rows lie in
    [0, len(cost_of_cap)) and within `expectation`'s width, and
    `expectation` the next period's (p_full, width) float64 expectation, or
    None at the last period. `v_next` is (p_full, C_t) float64 and writable;
    rows of combos outside `combos` are left as they are. Every array must
    be C-contiguous and aligned; ValueError otherwise, before the C kernel
    runs."""
    shape = np.shape(invest) if np.ndim(invest) == 2 else (-1, -1)
    if not (_is_buffer(invest, shape) and shape[1] > 0):
        raise ValueError("invest must be a C-contiguous, aligned float64 array of shape (p_full, actions >= 1)")
    p_full, n_actions = shape
    c_count = np.shape(v_next)[1] if np.ndim(v_next) == 2 else -1
    if not (_is_buffer(v_next, (p_full, c_count)) and v_next.flags.writeable):
        raise ValueError(f"v_next must be a C-contiguous, aligned, writable float64 array of shape ({p_full}, C_t)")
    n_combos = len(combos) if np.ndim(combos) == 1 else -1
    if not _is_buffer(combos, (n_combos,), np.int64):
        raise ValueError("combos must be a C-contiguous, aligned 1-D int64 array")
    if n_combos and not (combos.min() >= 0 and combos.max() < p_full):
        raise ValueError(f"combos must lie in [0, {p_full}), the price combos of invest")
    if not _is_buffer(cost_of_cap, (len(cost_of_cap) if np.ndim(cost_of_cap) == 1 else -1,)):
        raise ValueError("cost_of_cap must be a C-contiguous, aligned 1-D float64 array")
    bound, width = len(cost_of_cap), 0
    if expectation is not None:
        width = np.shape(expectation)[1] if np.ndim(expectation) == 2 else -1
        if not _is_buffer(expectation, (p_full, width)):
            raise ValueError(f"expectation must be a C-contiguous, aligned float64 array of shape ({p_full}, width)")
        bound = min(bound, width)
    rows = len(cap_next) if np.ndim(cap_next) == 2 else -1
    if not (_is_buffer(cap_next, (rows, n_actions), np.int64) and rows >= c_count):
        raise ValueError(f"cap_next must be a C-contiguous, aligned int64 array of shape (>= {c_count}, {n_actions})")
    grown = cap_next[:c_count]
    if c_count and not (grown.min() >= 0 and grown.max() < bound):
        raise ValueError(f"cap_next's first {c_count} rows must lie in [0, {bound}), the capacities that "
                         "cost_of_cap and the expectation cover")
    states = n_combos * c_count
    if (values is None) == (policy is None):
        raise ValueError("give exactly one of values and policy")
    if values is not None and not (_is_buffer(values, (states, n_actions)) and values.flags.writeable):
        raise ValueError(f"values must be a C-contiguous, aligned, writable float64 array of shape ({states}, {n_actions})")
    if policy is not None:
        if not _is_buffer(policy, (states,), np.int64):
            raise ValueError(f"policy must be a C-contiguous, aligned int64 array of shape ({states},)")
        if states and not (policy.min() >= 0 and policy.max() < n_actions):
            raise ValueError(f"policy actions must lie in [0, {n_actions})")
    _library().backward_period(
        n_combos, combos.ctypes.data, c_count, n_actions, None if policy is None else policy.ctypes.data,
        cap_next.ctypes.data, invest.ctypes.data, cost_of_cap.ctypes.data,
        None if expectation is None else expectation.ctypes.data, width, float(gamma),
        None if values is None else values.ctypes.data, v_next.ctypes.data,
    )
