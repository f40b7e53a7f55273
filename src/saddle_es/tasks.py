"""Task streams and the worker processes of the grid and trial pipelines.

Grid pipelines derive one independent stream per task with ``task_rng``: the
master seed seeds a numpy ``SeedSequence`` spawned at key (stage id, *task
index).  Streams of different tasks, stages and master seeds are independent,
and reruns with the same master seed are bit-identical regardless of
scheduling.  Grid row w_i reads the one stream ``task_rng(master_seed, "row",
i)``.  Its draws serve every sigma~_j of the row (common random numbers along
sigma~), so the constants pipeline takes the success rate, the V drift and the
W drift of a point from one set of draws, and the row's sigma~40 from one
replay of the same stream.  Escape trials take their streams from
``_TaskStreams``, a lazy sequence whose slices come from ``_task_rngs``, which
computes the ``SeedSequence`` hashing of a range of indices in one numpy pass
and returns the same generators as ``task_rng``; ``task_rng`` stays the
single-task path and the reference for it.

``_map_tasks`` runs a pipeline's tasks, grid rows or trial ranges, in order on
forked workers, each of which sends its share's results back pickled over a
pipe, so only results need to pickle.  Every task reads only its own streams,
so the worker count changes wall time but never a result.  ``_usable_cpus`` is
the worker count the command line defaults to.
"""

from __future__ import annotations

import functools
import operator
import os
import pickle
import signal

import numpy as np

# Spawn-key stage ids of the task streams.  Renumbering a stage changes every
# output seeded through it.  Ids 0 to 3 are retired (0 and 2 seeded the V and
# Phi maps, 1 the grid points and 3 the sigma~40 bisection of earlier versions)
# and must not be reused.
_STAGES = {"trial": 4, "pairing": 5, "row": 6}


def task_rng(master_seed: int, stage: str, *index: int) -> np.random.Generator:
    """Stream of one task: ``SeedSequence(master_seed)`` spawned at key
    (stage id, *index); see the module docstring.  ``stage`` is one of
    trial, pairing, row."""
    return np.random.default_rng(
        np.random.SeedSequence(master_seed, spawn_key=(_STAGES[stage], *index)))


def _replay_hint(master_seed: int, stage: str, *index: int) -> str:
    """The words a failure message uses to name a task's stream."""
    key = ", ".join(map(str, (master_seed, f'"{stage}"', *index)))
    return f"replay its stream with task_rng({key})"


_MASK32 = 0xFFFFFFFF


@functools.cache
def _seed_words():
    """Class of a task's precomputed ``SeedSequence.generate_state(4, uint64)``
    words, PCG64's seed sequence: a true ``ISeedSequence`` subclass (a registered
    one costs an ABC check per PCG64), made on first use so importing this
    module does not load ``numpy.random``."""
    from numpy.random.bit_generator import ISeedSequence

    class _SeedWords(ISeedSequence):
        __slots__ = ("words",)

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return _SeedWords


def _task_rngs(master_seed: int, stage: str, lo: int, hi: int) -> list:
    """``[task_rng(master_seed, stage, k) for k in range(lo, hi)]``: the same
    generators, seeded from one vectorized pass of ``SeedSequence``'s hashing
    (O'Neill's seed_seq: uint32 multiply, xor and shift steps) over the
    indices.  Only the last entropy word, k, differs between the tasks, so the
    pool is mixed on Python ints up to it and on a uint32 array from there.
    Indices must fit one uint32 word: ``0 <= lo <= hi <= 2**32``."""
    from numpy.random import PCG64, Generator

    master_seed = operator.index(master_seed)
    if master_seed < 0:
        raise ValueError("expected non-negative integer")
    if not 0 <= lo <= hi <= 1 << 32:
        raise ValueError("task indices must lie in [0, 2**32)")
    words = [master_seed >> s & _MASK32 for s in range(0, max(master_seed.bit_length(), 1), 32)]
    # SeedSequence pads the run entropy to the pool size when a spawn key follows
    entropy = words + [0] * (4 - len(words)) + [_STAGES[stage], np.arange(lo, hi, dtype=np.uint32)]
    hash_a = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_a
        value = value ^ hash_a
        hash_a = hash_a * 0x931E8875 & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        r = ((0xCA01F9DD * x & _MASK32) - (0x4973F715 * y & _MASK32)) & _MASK32
        return r ^ r >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight uint32 words, paired little-endian
    state = np.empty((hi - lo, 8), dtype=np.uint32)
    hash_b = 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_b
        hash_b = hash_b * 0x58F38DED & _MASK32
        value = value * hash_b & _MASK32
        state[:, i] = value ^ value >> 16
    seeds = state.astype("<u4").view("<u8").astype(np.uint64)
    seed_words = _seed_words()
    return [Generator(PCG64(seed_words(row))) for row in seeds]


class _TaskStreams:
    """``[task_rng(master_seed, stage, k) for k in range(lo, hi)]`` as a lazy
    sequence read in contiguous slices: a slice derives only its own
    generators, in one ``_task_rngs`` pass, so a reader that takes a slice at a
    time never holds every stream."""

    __slots__ = ("master_seed", "stage", "indices")

    def __init__(self, master_seed: int, stage: str, lo: int, hi: int):
        self.master_seed, self.stage, self.indices = master_seed, stage, range(lo, hi)

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, key: slice) -> list:
        ks = self.indices[key]
        if not isinstance(ks, range) or ks.step != 1:
            raise TypeError("task streams are read in contiguous slices")
        return _task_rngs(self.master_seed, self.stage, ks.start, ks.start + len(ks))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one, else
    the machine's CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _map_tasks(fn, args_list, threads: int):
    """``[fn(args) for args in args_list]``; with ``threads`` > 1 and more than
    one task, on ``min(threads, len(args_list))`` forked workers, worker w
    running tasks w, w + workers, ... in order.  Only the results must pickle:
    each worker sends its share's results back over a pipe, so the pipelines
    map a ``functools.partial`` over a ``range`` of task indices.  Results come in
    task order; an exception raised by a task is raised here, the lowest task
    index's if several fail, and a worker that ends without sending anything
    raises a ``RuntimeError`` that names it.  No worker outlives the call."""
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if threads == 1 or len(args_list) <= 1:
        return [fn(args) for args in args_list]
    workers = min(threads, len(args_list))
    pids, reads = [], []
    try:
        for w in range(workers):
            read_fd, write_fd = os.pipe()
            reads.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_share(fn, args_list, w, workers, write_fd, reads)
            finally:
                os.close(write_fd)
            pids.append(pid)
        results, failures = [None] * len(args_list), []
        for w in range(workers):
            with open(reads[w], "rb") as pipe:
                reads[w] = None
                data = pipe.read()
            _, status = os.waitpid(pids[w], 0)
            pids[w] = None
            if status != 0:
                code = os.waitstatus_to_exitcode(status)
                how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
                raise RuntimeError(f"task worker {w} of {workers} ended without a result ({how})")
            ok, share = pickle.loads(data)
            if ok:
                results[w::workers] = share
            else:
                failures.append(share)
        if failures:
            raise min(failures, key=operator.itemgetter(0))[1]
        return results
    finally:
        for fd in reads:
            if fd is not None:
                os.close(fd)
        for pid in pids:
            if pid is not None:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_share(fn, args_list, first: int, step: int, write_fd: int, read_fds: list):
    """A ``_map_tasks`` worker: run tasks first, first + step, ... in order,
    write one pickled ``(True, results)``, or ``(False, (task index,
    exception))`` at the first task that raises, to ``write_fd`` and exit.
    An exception that does not survive pickling is sent as a ``RuntimeError``
    carrying its repr.  Never returns."""
    status = 1
    try:
        # with no read end left but the parent's, a worker whose parent died
        # gets an error from its write instead of blocking on a full pipe
        for fd in read_fds:
            os.close(fd)
        k, results = first, []
        try:
            for k in range(first, len(args_list), step):
                results.append(fn(args_list[k]))
            # protocol 5 writes numpy arrays' buffers without copying them first
            data = pickle.dumps((True, results), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            # even an interrupt or exit goes to the parent, which raises it;
            # a worker never unwinds into its caller's frames
            try:
                data = pickle.dumps((False, (k, exc)))
                pickle.loads(data)
            except Exception:
                data = pickle.dumps((False, (k, RuntimeError(repr(exc)))))
        with open(write_fd, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)
