"""Asynchronous Batched Messages (ABM) over SimMPI.

Section 4.2: *"To avoid stalls during non-local data access, we
effectively do explicit 'context switching' using a software queue to
keep track of which computations have been put aside waiting for
messages to arrive.  In order to manage the complexities of the
required asynchronous message traffic, we have developed a paradigm
called 'asynchronous batched messages (ABM)' built from primitive
send/recv functions whose interface is modeled after that of active
messages."*

The reproduction keeps both halves of that design — per-destination
request *batching* and a *deferral queue* of computations parked on
missing data — but drives the message traffic in bulk-synchronous
rounds (an alltoall of request batches, serve, an alltoall of reply
batches).  Rounds make the simulation deterministic while preserving
the communication volume and batching granularity that determine
performance; DESIGN.md records this as the one structural divergence
from the original's fully asynchronous traffic.

Usage, inside a SimMPI rank program::

    abm = ABMChannel(comm, serve_fn)
    abm.request(dest, item)         # queue, no traffic yet
    replies = yield from abm.exchange()   # one batched round
    done = yield from abm.globally_done(n_local_pending)
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from ..simmpi import patterns as mpi_patterns
from ..simmpi.api import Comm

__all__ = ["ABMChannel"]

ServeFn = Callable[[int, list[Any]], list[Any]]


class ABMChannel:
    """Batched request/reply channel for one communicator.

    Parameters
    ----------
    comm:
        The rank's :class:`~repro.simmpi.api.Comm`.
    serve:
        ``serve(requester_rank, items) -> replies`` called once per
        incoming batch; must return one reply per item (any sized
        sequence; see :func:`~repro.simmpi.patterns.wire_nbytes`).
    """

    def __init__(self, comm: Comm, serve: ServeFn):
        self.comm = comm
        self.serve = serve
        self._outgoing: list[list[Any]] = [[] for _ in range(comm.size)]
        self.rounds = 0
        self.requests_sent = 0
        self.requests_served = 0

    def request(self, dest: int, item: Any) -> None:
        """Queue one request item for ``dest`` (sent at next exchange)."""
        if not 0 <= dest < self.comm.size:
            raise ValueError(f"destination {dest} out of range")
        if dest == self.comm.rank:
            raise ValueError("local data should be served locally, not requested")
        self._outgoing[dest].append(item)
        self.requests_sent += 1

    @property
    def pending_requests(self) -> int:
        return sum(len(batch) for batch in self._outgoing)

    def exchange(self) -> Generator:
        """One batched round; returns ``replies`` keyed like the requests.

        The return value is a list with one entry per destination rank:
        ``replies[d][i]`` answers the ``i``-th item queued for rank
        ``d`` since the previous exchange.
        """
        outgoing = self._outgoing
        self._outgoing = [[] for _ in range(self.comm.size)]
        incoming = yield self.comm.alltoall(outgoing)
        reply_batches: list[list[Any]] = []
        for src, items in enumerate(incoming):
            if items:
                replies = self.serve(src, list(items))
                if len(replies) != len(items):
                    raise RuntimeError(
                        f"serve returned {len(replies)} replies for {len(items)} requests"
                    )
                self.requests_served += len(items)
            else:
                replies = []
            reply_batches.append(replies)
        # Same size as the payload_nbytes walk of the batch list, but
        # batches that size themselves (cell rows) are not walked.
        answered = yield self.comm.alltoall(
            reply_batches,
            nbytes=sum(mpi_patterns.wire_nbytes(b) + 8 for b in reply_batches),
        )
        self.rounds += 1
        return list(answered)

    def globally_done(self, local_pending: int) -> Generator:
        """True when *no* rank still has work (allreduce of counters).

        Routed through the size-selecting collective wrapper: the flat
        engine primitive below :data:`~repro.simmpi.patterns.FLAT_COLLECTIVE_MAX`
        ranks, the binomial tree above it."""
        total = yield from mpi_patterns.allreduce(
            self.comm, int(local_pending) + self.pending_requests
        )
        return total == 0
