"""The mpi4py-workalike communicator API.

Wraps a runtime :class:`repro.mpi.comm.Comm` with the two method families
mpi4py exposes:

* **upper-case** buffer methods (``Send``, ``Recv``, ``Bcast``, ``Reduce``,
  ``Allreduce``, ``Gather``, ``Scatter``, ``Allgather``, ``Alltoall``,
  ``Reduce_scatter``, ``Scan``, plus the vector variants ``Gatherv``,
  ``Scatterv``, ``Allgatherv``, ``Alltoallv``) — near-zero-copy
  communication of buffer-provider or CUDA-array-interface objects;
* **lower-case** pickle methods (``send``, ``recv``, ``bcast``, ``reduce``,
  ``allreduce``, ``gather``, ``scatter``, ``allgather``, ``alltoall``) —
  arbitrary Python objects, with serialization cost.

As in mpi4py, initialization defaults to ``THREAD_MULTIPLE``.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..mpi import constants as C
from ..mpi import ops as mpi_ops
from ..mpi.comm import Comm as RuntimeComm
from ..mpi.exceptions import CountError
from ..mpi.ops import Op
from ..mpi.request import RecvRequest, Request, completed, pin
from ..mpi.status import Status
from ..mpi.world import World
from ..mpi.world import init as runtime_init
from .buffers import BufferSpec, resolve_buffer
from .pickle_codec import PickleCodec

ANY_SOURCE = C.ANY_SOURCE
ANY_TAG = C.ANY_TAG
SUM = mpi_ops.SUM
MAX = mpi_ops.MAX
MIN = mpi_ops.MIN
PROD = mpi_ops.PROD


class PickleRecvFuture:
    """Request-like handle returned by :meth:`Comm.irecv`."""

    def __init__(self, req: RecvRequest, codec: PickleCodec) -> None:
        self._req = req
        self._codec = codec

    def wait(self, timeout: float | None = None) -> Any:
        self._req.wait(timeout)
        return self._codec.loads(self._req.payload())

    def test(self) -> tuple[bool, Any | None]:
        done, _st = self._req.test()
        if not done:
            return False, None
        return True, self._codec.loads(self._req.payload())


def _received(endpoint, spec: BufferSpec, st: Status) -> None:
    """A buffer receive completed: report its byte count to the observers.

    Oversized messages already raise TruncationError in the matching
    engine; this lets the verifier catch the *undersized* half — a sender
    whose count or datatype disagrees with the posted receive buffer.
    """
    for hook in endpoint.hooks.on_recv_count:
        hook(st.count_bytes, spec.nbytes, st.source, st.tag)


class BufferRecvRequest:
    """Request-like handle returned by :meth:`Comm.Irecv`.

    The runtime request completes (releasing the buffer it was handed at
    post time) before the payload is written back, so a user mutation of
    the posted buffer is caught while the legitimate receive fill is not.
    """

    def __init__(self, req: RecvRequest, spec: BufferSpec, endpoint) -> None:
        self._req = req
        self._spec = spec
        self._endpoint = endpoint

    def Wait(self, status: Status | None = None) -> None:
        st = self._req.wait()
        _received(self._endpoint, self._spec, st)
        self._spec.write(self._req.payload())
        if status is not None:
            status._fill(st.source, st.tag, st.count_bytes)

    wait = Wait

    def Test(self) -> bool:
        done, st = self._req.test()
        if done:
            assert st is not None
            _received(self._endpoint, self._spec, st)
            self._spec.write(self._req.payload())
        return done


class Comm:
    """mpi4py-style communicator."""

    def __init__(self, runtime: RuntimeComm, codec: PickleCodec | None = None):
        self._rt = runtime
        self.pickle = codec or PickleCodec()

    # -- identity -----------------------------------------------------------
    @property
    def rank(self) -> int:
        return self._rt.rank

    @property
    def size(self) -> int:
        return self._rt.size

    def Get_rank(self) -> int:
        return self._rt.rank

    def Get_size(self) -> int:
        return self._rt.size

    @property
    def runtime(self) -> RuntimeComm:
        """The underlying runtime communicator (native-path escape hatch)."""
        return self._rt

    # -- communicator management ---------------------------------------------
    def Dup(self) -> "Comm":
        return Comm(self._rt.Dup(), self.pickle)

    def Split(self, color: int, key: int = 0) -> "Comm | None":
        sub = self._rt.Split(color, key)
        return Comm(sub, self.pickle) if sub is not None else None

    def Free(self) -> None:
        self._rt.Free()

    def Barrier(self) -> None:
        self._rt.barrier()

    barrier = Barrier

    # -- fault tolerance (ULFM extensions) ---------------------------------
    def Revoke(self) -> None:
        """Revoke the communicator after a failure (MPIX_Comm_revoke)."""
        self._rt.revoke()

    def Shrink(self, timeout: float | None = None) -> "Comm":
        """Return a survivors-only communicator (MPIX_Comm_shrink)."""
        return Comm(self._rt.shrink(timeout=timeout), self.pickle)

    def Agree(self, flag: bool = True, timeout: float | None = None) -> bool:
        """Fault-tolerant AND over live members (MPIX_Comm_agree)."""
        return self._rt.agree(flag, timeout=timeout)

    def Is_revoked(self) -> bool:
        return self._rt.is_revoked()

    def Get_failed(self) -> list[int]:
        """Communicator-local ranks known to have failed."""
        return sorted(self._rt.failed_ranks())

    # ======================================================================
    # Upper-case: direct buffer methods
    # ======================================================================
    def _access(self, spec: BufferSpec, op: str, write: bool = False) -> None:
        """Declare that blocking call ``op`` reads (or writes) ``spec``; the
        race sanitizer checks it against every buffer a pending
        non-blocking operation on this rank owns."""
        for hook in self._rt.endpoint.hooks.on_access:
            hook(spec, op, write)

    def Send(self, buf: Any, dest: int, tag: int = 0) -> None:
        spec = resolve_buffer(buf)
        self._access(spec, "Send")
        self._rt.send_bytes(spec.read(), dest, tag)

    def Recv(
        self,
        buf: Any,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
    ) -> None:
        spec = resolve_buffer(buf, writable=True)
        self._access(spec, "Recv", write=True)
        payload, st = self._rt.recv_bytes(source, tag, spec.nbytes)
        _received(self._rt.endpoint, spec, st)
        spec.write(payload)
        if status is not None:
            status._fill(st.source, st.tag, st.count_bytes)

    def Isend(self, buf: Any, dest: int, tag: int = 0) -> Request:
        spec = resolve_buffer(buf)
        # The buffer is the request's until wait/test completes it.
        req = self._rt.isend_bytes(spec.read(), dest, tag)
        pin(self._rt.endpoint, req, spec, "Isend")
        return req

    def Irecv(
        self, buf: Any, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> BufferRecvRequest:
        spec = resolve_buffer(buf, writable=True)
        req = self._rt.irecv_bytes(source, tag, spec.nbytes)
        pin(self._rt.endpoint, req, spec, "Irecv")
        return BufferRecvRequest(req, spec, self._rt.endpoint)

    def Sendrecv(
        self,
        sendbuf: Any,
        dest: int,
        sendtag: int = 0,
        recvbuf: Any = None,
        source: int = ANY_SOURCE,
        recvtag: int = ANY_TAG,
        status: Status | None = None,
    ) -> None:
        sspec = resolve_buffer(sendbuf)
        rspec = resolve_buffer(recvbuf, writable=True)
        self._access(sspec, "Sendrecv")
        self._access(rspec, "Sendrecv", write=True)
        payload, st = self._rt.sendrecv_bytes(
            sspec.read(), dest, sendtag, source, recvtag, rspec.nbytes
        )
        _received(self._rt.endpoint, rspec, st)
        rspec.write(payload)
        if status is not None:
            status._fill(st.source, st.tag, st.count_bytes)

    def Bcast(self, buf: Any, root: int = 0) -> None:
        spec = resolve_buffer(buf, writable=True)
        endpoint = self._rt.endpoint
        self._access(spec, "Bcast", write=self.rank != root)
        # The broadcast owns every rank's buffer while it runs (the spec
        # stands for the operation): it must stay untouched until the
        # collective returns — the legitimate non-root fill comes after.
        pin(endpoint, spec, spec, f"bcast(root={root})")
        data = self._rt.bcast_bytes(
            spec.read() if self.rank == root else None, root
        )
        completed(endpoint, spec)
        if self.rank != root:
            spec.write(data)

    def Reduce(
        self,
        sendbuf: Any,
        recvbuf: Any = None,
        op: Op = SUM,
        root: int = 0,
    ) -> None:
        sspec = resolve_buffer(sendbuf)
        self._access(sspec, "Reduce")
        result = self._rt.reduce_array(sspec.as_array(), op, root)
        if self.rank == root:
            rspec = resolve_buffer(recvbuf, writable=True)
            self._access(rspec, "Reduce", write=True)
            rspec.write(np.ascontiguousarray(result).tobytes())

    def Allreduce(self, sendbuf: Any, recvbuf: Any, op: Op = SUM) -> None:
        sspec = resolve_buffer(sendbuf)
        rspec = resolve_buffer(recvbuf, writable=True)
        self._access(sspec, "Allreduce")
        self._access(rspec, "Allreduce", write=True)
        result = self._rt.allreduce_array(sspec.as_array(), op)
        rspec.write(np.ascontiguousarray(result).tobytes())

    def Gather(self, sendbuf: Any, recvbuf: Any = None, root: int = 0) -> None:
        sspec = resolve_buffer(sendbuf)
        self._access(sspec, "Gather")
        blocks = self._rt.gather_bytes(sspec.read(), root)
        if self.rank == root:
            rspec = resolve_buffer(recvbuf, writable=True)
            self._access(rspec, "Gather", write=True)
            self._write_blocks(rspec, blocks)

    def Scatter(self, sendbuf: Any = None, recvbuf: Any = None, root: int = 0) -> None:
        rspec = resolve_buffer(recvbuf, writable=True)
        self._access(rspec, "Scatter", write=True)
        blocks = None
        if self.rank == root:
            sspec = resolve_buffer(sendbuf)
            self._access(sspec, "Scatter")
            blocks = self._split_blocks(sspec, self.size)
        data = self._rt.scatter_bytes(blocks, root)
        rspec.write(data)

    def Allgather(self, sendbuf: Any, recvbuf: Any) -> None:
        sspec = resolve_buffer(sendbuf)
        rspec = resolve_buffer(recvbuf, writable=True)
        self._access(sspec, "Allgather")
        self._access(rspec, "Allgather", write=True)
        blocks = self._rt.allgather_bytes(sspec.read())
        self._write_blocks(rspec, blocks)

    def Alltoall(self, sendbuf: Any, recvbuf: Any) -> None:
        sspec = resolve_buffer(sendbuf)
        rspec = resolve_buffer(recvbuf, writable=True)
        self._access(sspec, "Alltoall")
        self._access(rspec, "Alltoall", write=True)
        blocks = self._rt.alltoall_bytes(self._split_blocks(sspec, self.size))
        self._write_blocks(rspec, blocks)

    def Reduce_scatter(
        self,
        sendbuf: Any,
        recvbuf: Any,
        recvcounts: Sequence[int] | None = None,
        op: Op = SUM,
    ) -> None:
        sspec = resolve_buffer(sendbuf)
        rspec = resolve_buffer(recvbuf, writable=True)
        if recvcounts is None:
            total = sspec.count
            if total % self.size != 0:
                raise CountError(
                    f"send count {total} not divisible by {self.size} "
                    "(pass explicit recvcounts)"
                )
            recvcounts = [total // self.size] * self.size
        self._access(sspec, "Reduce_scatter")
        self._access(rspec, "Reduce_scatter", write=True)
        result = self._rt.reduce_scatter_array(
            sspec.as_array(), recvcounts, op
        )
        rspec.write(np.ascontiguousarray(result).tobytes())

    def Scan(self, sendbuf: Any, recvbuf: Any, op: Op = SUM) -> None:
        sspec = resolve_buffer(sendbuf)
        rspec = resolve_buffer(recvbuf, writable=True)
        self._access(sspec, "Scan")
        self._access(rspec, "Scan", write=True)
        result = self._rt.scan_array(sspec.as_array(), op)
        rspec.write(np.ascontiguousarray(result).tobytes())

    # -- vector variants --------------------------------------------------------
    def Gatherv(
        self,
        sendbuf: Any,
        recvspec: Any = None,
        root: int = 0,
    ) -> None:
        """Gather variable-size blocks; ``recvspec`` = [buf, counts] at root.

        Counts are element counts of the receive buffer's datatype;
        displacements are the running sums (contiguous packing).
        """
        sspec = resolve_buffer(sendbuf)
        byte_counts = None
        rspec = None
        if self.rank == root:
            rspec, counts = self._split_vspec(recvspec)
            byte_counts = [c * rspec.datatype.size for c in counts]
        blocks = self._rt.gatherv_bytes(sspec.read(), byte_counts, root)
        if self.rank == root:
            assert rspec is not None and blocks is not None
            self._write_ragged(rspec, blocks)

    def Scatterv(
        self,
        sendspec: Any = None,
        recvbuf: Any = None,
        root: int = 0,
    ) -> None:
        """Scatter variable-size blocks; ``sendspec`` = [buf, counts] at root."""
        rspec = resolve_buffer(recvbuf, writable=True)
        blocks = None
        if self.rank == root:
            sspec, counts = self._split_vspec(sendspec)
            blocks = self._split_ragged(sspec, counts)
        data = self._rt.scatterv_bytes(blocks, root)
        rspec.write(data)

    def Allgatherv(self, sendbuf: Any, recvspec: Any) -> None:
        """Allgather variable-size blocks; ``recvspec`` = [buf, counts]."""
        sspec = resolve_buffer(sendbuf)
        rspec, counts = self._split_vspec(recvspec)
        byte_counts = [c * rspec.datatype.size for c in counts]
        blocks = self._rt.allgatherv_bytes(sspec.read(), byte_counts)
        self._write_ragged(rspec, blocks)

    def Alltoallv(self, sendspec: Any, recvspec: Any) -> None:
        """Personalized exchange of variable blocks; specs = [buf, counts]."""
        sspec, scounts = self._split_vspec(sendspec)
        rspec, _rcounts = self._split_vspec(recvspec)
        blocks = self._rt.alltoallv_bytes(self._split_ragged(sspec, scounts))
        self._write_ragged(rspec, blocks)

    # -- block plumbing ------------------------------------------------------
    @staticmethod
    def _split_blocks(spec: BufferSpec, parts: int) -> list[bytes]:
        if spec.nbytes % parts != 0:
            raise CountError(
                f"buffer of {spec.nbytes} bytes does not split into "
                f"{parts} equal blocks"
            )
        block = spec.nbytes // parts
        data = spec.read()
        return [data[i * block:(i + 1) * block] for i in range(parts)]

    @staticmethod
    def _write_blocks(spec: BufferSpec, blocks: Sequence[bytes]) -> None:
        offset = 0
        for b in blocks:
            spec.write(b, offset)
            offset += len(b)

    def _split_vspec(self, vspec: Any) -> tuple[BufferSpec, list[int]]:
        if not (isinstance(vspec, (list, tuple)) and len(vspec) == 2):
            raise CountError(
                "vector collective needs a [buffer, counts] pair"
            )
        buf, counts = vspec
        spec = resolve_buffer(buf, writable=True)
        counts = [int(c) for c in counts]
        if len(counts) != self.size:
            raise CountError(
                f"counts has {len(counts)} entries for {self.size} ranks"
            )
        return spec, counts

    @staticmethod
    def _split_ragged(spec: BufferSpec, counts: Sequence[int]) -> list[bytes]:
        data = spec.read()
        esize = spec.datatype.size
        out = []
        offset = 0
        for c in counts:
            out.append(data[offset:offset + c * esize])
            offset += c * esize
        return out

    @staticmethod
    def _write_ragged(spec: BufferSpec, blocks: Sequence[bytes]) -> None:
        offset = 0
        for b in blocks:
            spec.write(b, offset)
            offset += len(b)

    # ======================================================================
    # Lower-case: pickle methods
    # ======================================================================
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        self._rt.send_bytes(self.pickle.dumps(obj), dest, tag)

    def recv(
        self,
        source: int = ANY_SOURCE,
        tag: int = ANY_TAG,
        status: Status | None = None,
    ) -> Any:
        payload, st = self._rt.recv_bytes(source, tag, 1 << 62)
        if status is not None:
            status._fill(st.source, st.tag, st.count_bytes)
        return self.pickle.loads(payload)

    def isend(self, obj: Any, dest: int, tag: int = 0) -> Request:
        return self._rt.isend_bytes(self.pickle.dumps(obj), dest, tag)

    def irecv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG
    ) -> PickleRecvFuture:
        req = self._rt.irecv_bytes(source, tag, 1 << 62)
        return PickleRecvFuture(req, self.pickle)

    def sendrecv(
        self, obj: Any, dest: int, sendtag: int = 0,
        source: int = ANY_SOURCE, recvtag: int = ANY_TAG,
    ) -> Any:
        payload, _st = self._rt.sendrecv_bytes(
            self.pickle.dumps(obj), dest, sendtag, source, recvtag, 1 << 62
        )
        return self.pickle.loads(payload)

    def bcast(self, obj: Any = None, root: int = 0) -> Any:
        data = self._rt.bcast_bytes(
            self.pickle.dumps(obj) if self.rank == root else None, root
        )
        return self.pickle.loads(data)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        blocks = self._rt.gatherv_bytes(self.pickle.dumps(obj), None, root)
        if blocks is None:
            return None
        return [self.pickle.loads(b) for b in blocks]

    def scatter(self, objs: Sequence[Any] | None = None, root: int = 0) -> Any:
        blocks = None
        if self.rank == root:
            if objs is None or len(objs) != self.size:
                raise CountError(
                    f"scatter needs exactly {self.size} objects at the root"
                )
            blocks = [self.pickle.dumps(o) for o in objs]
        data = self._rt.scatterv_bytes(blocks, root)
        return self.pickle.loads(data)

    def allgather(self, obj: Any) -> list[Any]:
        mine = self.pickle.dumps(obj)
        counts = [
            int(np.frombuffer(b, dtype="<i8")[0])
            for b in self._rt.allgather_bytes(
                np.int64(len(mine)).tobytes()
            )
        ]
        blocks = self._rt.allgatherv_bytes(mine, counts)
        return [self.pickle.loads(b) for b in blocks]

    def alltoall(self, objs: Sequence[Any]) -> list[Any]:
        if len(objs) != self.size:
            raise CountError(
                f"alltoall needs exactly {self.size} objects per rank"
            )
        blocks = self._rt.alltoallv_bytes(
            [self.pickle.dumps(o) for o in objs]
        )
        return [self.pickle.loads(b) for b in blocks]

    def reduce(self, obj: Any, op: Op = SUM, root: int = 0) -> Any:
        """Object reduce: gather + rank-ordered fold at the root."""
        items = self.gather(obj, root)
        if items is None:
            return None
        acc = items[0]
        for item in items[1:]:
            acc = op.fn(acc, item)
        return acc

    def allreduce(self, obj: Any, op: Op = SUM) -> Any:
        result = self.reduce(obj, op, root=0)
        return self.bcast(result, root=0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"bindings.Comm(rank={self.rank}, size={self.size})"


class CommWorld(Comm):
    """COMM_WORLD with lifecycle management for the owning world."""

    def __init__(self, world: World) -> None:
        super().__init__(world.comm)
        self._world = world

    def finalize(self) -> None:
        self._world.finalize()

    def __enter__(self) -> "CommWorld":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.finalize()


def init(thread_level: int = C.THREAD_MULTIPLE) -> CommWorld:
    """Initialize MPI for this process and return COMM_WORLD.

    Defaults to ``THREAD_MULTIPLE``, matching mpi4py — the behaviour the
    paper identifies as the source of the full-subscription Allreduce
    degradation (OMB's C benchmarks initialize ``THREAD_SINGLE``).
    """
    return CommWorld(runtime_init(thread_level))
