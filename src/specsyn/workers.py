"""An ordered map that spreads its items over forked worker processes.

`ordered_map(fn, items, min_per_worker)` returns `[fn(item) for item in
items]`, the same list the serial loop gives, but computes it with one
forked worker per extra CPU the process may run on. The items are cut into
blocks of consecutive items, about BLOCKS_PER_WORKER per process, and the
parent and its workers each claim the next unclaimed block until none is
left, so a process that a busy host slows down takes fewer blocks. Each
worker is pinned to a CPU other than the parent's, sends its blocks'
results back pickled through a pipe, and the parent puts every result in
its item's place.

Processes, not threads: `fn` is Python and numpy at small shapes, where
a second thread only contends for the interpreter lock, and BLAS threads
slow the encoder down as soon as another process holds a core. A forked
worker starts with the parent's memory, so `fn` may be a closure and
nothing but results is pickled. Forking a process that runs threads is
unsafe, so the map forks only on Linux and only from a process that runs
a single thread; numpy's OpenBLAS starts its threads at import unless
OPENBLAS_NUM_THREADS is 1, so a process whose BLAS runs several threads
stays serial, and the map never adds processes to threads.

`fn` must depend on its item alone: what it changes in a worker's memory
is lost, and an item whose result is missing (it raised, or its worker
died) is run again in the parent, in index order, after every worker has
been reaped. So an error is raised by the parent's own call, the same
exception the serial loop raises first.
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import sys

# Blocks per process: the last block is what the other processes may wait
# for, and each block costs a read from the claims pipe.
BLOCKS_PER_WORKER = 32
_CLAIM_BYTES = 4
_MISSING = object()


def _cpus() -> int:
    return len(os.sched_getaffinity(0))


def _current_cpu() -> int | None:
    """The CPU this process last ran on (field 39 of /proc/self/stat)."""
    try:
        with open("/proc/self/stat", "rb") as stat:
            return int(stat.read().rsplit(b")", 1)[1].split()[36])
    except (OSError, IndexError, ValueError):
        return None


def _place(k: int, parent_cpu: int | None) -> None:
    """Pin worker k to a CPU of its own, other than the parent's: a kernel
    may otherwise leave a new worker beside its parent on one CPU for the
    whole map while another CPU idles."""
    others = sorted(os.sched_getaffinity(0) - {parent_cpu})
    if parent_cpu is None or not others:
        return
    try:
        os.sched_setaffinity(0, {others[(k - 1) % len(others)]})
    except OSError:
        pass  # a placement hint only


def _single_threaded() -> bool:
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:
        return False


def worker_count(n_items: int, min_per_worker: int) -> int:
    """Processes `ordered_map` would use, the parent included: one per CPU
    this process may run on, at most one per `min_per_worker` items, and 1
    unless this is a single-threaded process on Linux."""
    if n_items < 2 * min_per_worker or not sys.platform.startswith("linux"):
        return 1
    if not _single_threaded():
        return 1
    return max(1, min(_cpus(), n_items // min_per_worker))


def _work(fn, items, size: int, claims_fd: int, done: list) -> None:
    """Claim blocks of `size` items and append (first index, results) for
    each to `done` until no block is left; stops at an item that raises."""
    while claim := os.read(claims_fd, _CLAIM_BYTES):
        start = int.from_bytes(claim, "little") * size
        results = []
        done.append((start, results))
        for index in range(start, min(start + size, len(items))):
            results.append(fn(items[index]))


def _serve(fn, items, size: int, claims_fd: int, pipe_fd: int,
           unused_fds: list, k: int, parent_cpu: int | None) -> None:
    """Worker k's whole life after the fork: `_work`, then its results
    pickled to the pipe. It never returns."""
    status = 1
    try:
        for fd in unused_fds:
            os.close(fd)
        _place(k, parent_cpu)
        done = []
        try:
            _work(fn, items, size, claims_fd, done)
        except Exception:
            pass  # the parent runs this item again and raises its error in order
        data = memoryview(pickle.dumps(done, pickle.HIGHEST_PROTOCOL))
        while data:
            data = data[os.write(pipe_fd, data):]
        status = 0
    finally:
        os._exit(status)


def _receive(pipe_fd: int) -> list:
    """A worker's results; empty if it died before it sent them all."""
    with open(pipe_fd, "rb") as pipe:
        data = pipe.read()
    try:
        return pickle.loads(data)
    except (pickle.UnpicklingError, EOFError):
        return []


def ordered_map(fn, items, min_per_worker: int) -> list:
    """`[fn(item) for item in items]` over `worker_count(len(items),
    min_per_worker)` processes; see the module docstring. `items` is a
    sequence. Every worker is reaped before this returns or raises."""
    n = worker_count(len(items), min_per_worker)
    if n == 1:
        return [fn(item) for item in items]
    # every claim fits one write to an empty pipe, which cannot block
    size = -(-len(items) // min(n * BLOCKS_PER_WORKER, select.PIPE_BUF // _CLAIM_BYTES))
    blocks = -(-len(items) // size)
    results = [_MISSING] * len(items)
    done = []  # (first index, results) of every block run
    children = []  # (pid, read end of its pipe), the read end None once read
    claims_fd, claims_end = os.pipe()
    try:
        try:
            os.write(claims_end, b"".join(
                block.to_bytes(_CLAIM_BYTES, "little") for block in range(blocks)))
        finally:
            os.close(claims_end)  # so a read past the last claim returns b""
        parent_cpu = _current_cpu()
        for k in range(1, n):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no more processes: the others take every block
                os.close(read_fd)
                os.close(write_fd)
                break
            if pid == 0:
                unused = [read_fd, *(fd for _, fd in children)]
                _serve(fn, items, size, claims_fd, write_fd, unused, k, parent_cpu)
            os.close(write_fd)
            children.append((pid, read_fd))
        try:
            _work(fn, items, size, claims_fd, done)
        except Exception:
            pass  # run again below, after the workers' results are in
        for k, (pid, read_fd) in enumerate(children):
            children[k] = (pid, None)
            done += _receive(read_fd)
    except BaseException:  # interrupted: the workers' results are not wanted
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(claims_fd)
        for pid, read_fd in children:
            if read_fd is not None:
                os.close(read_fd)
            os.waitpid(pid, 0)
    for start, block in done:
        results[start:start + len(block)] = block
    for index, result in enumerate(results):
        if result is _MISSING:
            results[index] = fn(items[index])
    return results
