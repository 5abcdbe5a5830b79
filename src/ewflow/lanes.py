"""The one lane runner: a piece of work split over threads of this process.

numpy releases the interpreter lock inside BLAS calls and elementwise loops,
so threads that each run numpy on their own rows, batches or layers use
separate cores.  The callers allocate every buffer their lanes write before
the lanes start, so those buffers come from the calling thread's heap and
not from a worker thread's malloc arena.
"""

from __future__ import annotations

import threading

__all__ = ["Lanes", "blocks"]


def blocks(n: int, lanes: int, align: int = 1) -> list[tuple[int, int]]:
    """At most `lanes` contiguous (lo, hi) blocks covering range(n), as equal
    as they can be with every boundary a multiple of align; one (0, 0) for n = 0."""
    step = max(1, -(-n // lanes))
    step += -step % align
    return [(lo, min(lo + step, n)) for lo in range(0, max(n, 1), step)]


class Lanes:
    """`count` lanes: lane 0 is the calling thread, each other one a worker
    thread that `with` starts and joins on the way out, error or not.

    Workers wait between runs, so a run costs one hand-over per worker
    instead of a thread start: about 25 us against 85 us on a 2-core Xeon
    VM.  One lane starts no thread and needs no `with`.
    """

    def __init__(self, count: int):
        self.count = count
        self._go = [threading.Event() for _ in range(count)]
        self._done = [threading.Event() for _ in range(count)]
        self._tasks: list = [None] * count
        self._errors: list = [None] * count
        self._workers: list = []

    def __enter__(self) -> "Lanes":
        try:
            for j in range(1, self.count):
                worker = threading.Thread(target=self._serve, args=(j,))
                worker.start()
                self._workers.append(worker)
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc) -> None:
        for j in range(1, len(self._workers) + 1):
            self._tasks[j] = None
            self._go[j].set()
        for worker in self._workers:
            worker.join()
        self._workers = []

    def _serve(self, j: int) -> None:
        while True:
            self._go[j].wait()
            self._go[j].clear()
            task = self._tasks[j]
            if task is None:
                return
            try:
                task()
            except BaseException as err:  # re-raised by run, on the calling thread
                self._errors[j] = err
            finally:
                # hold no task, nor the buffers it refers to, between runs
                task = self._tasks[j] = None
                self._done[j].set()

    def run(self, tasks) -> None:
        """Run the no-argument callables at once, at most one per lane: the
        first on the calling thread, the others on the workers.

        Returns or raises only once every task has ended.  A task's exception
        is re-raised on the calling thread, the first task's in list order
        when several raised, so a caller that deals out work in order (rows,
        batches) sees the error its serial loop would have raised first.
        """
        if len(tasks) == 1:
            tasks[0]()
            return
        if len(tasks) > 1 + len(self._workers):
            raise ValueError(f"{len(tasks)} tasks for {1 + len(self._workers)} running lanes")
        handed = range(1, len(tasks))
        for j in handed:
            self._tasks[j] = tasks[j]
            self._go[j].set()
        try:
            tasks[0]()
        finally:
            for j in handed:
                self._done[j].wait()
                self._done[j].clear()
            errors = [self._errors[j] for j in handed]
            self._errors = [None] * self.count
        for err in errors:
            if err is not None:
                raise err
