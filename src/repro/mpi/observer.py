"""The endpoint's event vocabulary, modelled on MPI's PMPI layer and
MPI-4's MPI_T events.

A tool (the runtime verifier, the race sanitizer, telemetry, a
``TraceLog``) subclasses :class:`Observer`, overrides the events it
needs and joins with ``endpoint.attach(tool)``.  Each event fires from
the one place its docstring names, on the thread that causes it, and
calls only the tools that override it (``endpoint.hooks``): with none,
a site costs one truthiness test.  :meth:`Observer.on_wait` is the one
event a tool may take over — the verifier blocks in it, watching for
deadlock.
"""

from __future__ import annotations


class Observer:
    """Base for seam tools: every event is a no-op until overridden."""

    def on_post(self, request, source_world, tag, context) -> None:
        """``Comm.irecv_bytes`` posted a receive (sender's world rank or
        None)."""

    def on_send(self, src_world, dst_world, env) -> None:
        """``Comm.isend_bytes`` sent a message (world ranks on both ends)."""

    def on_deliver(self, env, matched, queue_depth) -> None:
        """``MatchingEngine.deliver``: a message completed a posted receive,
        or joined the unexpected queue (then ``queue_depth`` long)."""

    def on_match_queued(self, env) -> None:
        """``MatchingEngine.post_recv`` matched a queued message."""

    def on_wait(self, request, timeout) -> None:
        """``RecvRequest.wait`` is about to block; may wait it out itself."""

    def on_recv_wait(self, t0_ns, dur_ns, source, tag) -> None:
        """``Comm.recv_bytes`` finished a blocking wait of ``dur_ns``."""

    def on_request_done(self, request) -> None:
        """:func:`repro.mpi.request.completed`: a request completed at
        wait/test, or a blocking collective released its buffer."""

    def on_coll_enter(self, context, name, root, op, tag) -> None:
        """``Comm._collective`` entered ``name`` (reduce-op name or None)."""

    def on_coll_exit(self, context, name, root, op, tag) -> None:
        """``Comm._collective``: the collective returned or raised."""

    def on_coll_message(self, nbytes) -> None:
        """``collectives.schedule.drive`` sent one message."""

    def on_access(self, spec, op, write) -> None:
        """Bindings ``Comm._access``: blocking call ``op`` touches ``spec``."""

    def on_pin(self, request, buf, op) -> None:
        """:func:`repro.mpi.request.pin`: ``request`` owns ``buf`` until its
        :meth:`on_request_done`."""

    def on_recv_count(self, received, expected, source, tag) -> None:
        """Bindings ``_received``: a buffer receive's byte count."""

    def on_rank_failed(self, rank, reason) -> None:
        """``FailureDetector._declare``: a peer died (must not raise)."""


class Hooks:
    """Per event, the bound handlers of the observers that override it."""

    __slots__ = tuple(n for n in vars(Observer) if n.startswith("on_"))

    def __init__(self, observers=()) -> None:
        for event in self.__slots__:
            noop = getattr(Observer, event)
            setattr(self, event, tuple(
                getattr(o, event) for o in observers
                if getattr(type(o), event, noop) is not noop
            ))


class _Unobserved:
    """The seam of a standalone engine or request: nobody is watching."""

    hooks = Hooks()


UNOBSERVED = _Unobserved()
