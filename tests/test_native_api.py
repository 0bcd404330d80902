"""Native (bindings-free) path tests."""

import numpy as np

from repro.mpi import ops
from repro.mpi.world import run_on_threads
from repro.native import NativeComm, RegisteredBuffer


class TestRegisteredBuffer:
    def test_from_bytearray(self):
        buf = RegisteredBuffer(bytearray(b"abcd"))
        assert buf.nbytes == 4
        assert buf.snapshot() == b"abcd"
        assert buf.snapshot(2) == b"ab"

    def test_from_numpy(self):
        arr = np.arange(4, dtype="i4")
        buf = RegisteredBuffer(arr)
        assert buf.nbytes == 16
        assert buf.array is not None

    def test_fill_from(self):
        ba = bytearray(4)
        buf = RegisteredBuffer(ba)
        buf.fill_from(b"zz", offset=1)
        assert bytes(ba) == b"\x00zz\x00"

    def test_fill_reflects_in_numpy_view(self):
        arr = np.zeros(2, dtype="u1")
        buf = RegisteredBuffer(arr)
        buf.fill_from(b"\x05\x06")
        assert arr.tolist() == [5, 6]


class TestNativeComm:
    def test_ping_pong(self):
        def work(rt):
            nat = NativeComm(rt)
            s = RegisteredBuffer(bytearray(b"1234"))
            r = RegisteredBuffer(bytearray(4))
            if nat.rank == 0:
                nat.send(s, 4, 1, 1)
                nat.recv(r, 4, 1, 2)
                assert r.snapshot() == b"1234"
            elif nat.rank == 1:
                nat.recv(r, 4, 0, 1)
                nat.send(r, 4, 0, 2)
        run_on_threads(2, work)

    def test_isend_irecv_with_sink(self):
        def work(rt):
            nat = NativeComm(rt)
            if nat.rank == 0:
                nat.isend(RegisteredBuffer(bytearray(b"xy")), 2, 1, 1).wait()
            elif nat.rank == 1:
                r = RegisteredBuffer(bytearray(2))
                req = nat.irecv(r, 2, 0, 1)
                req.wait()
                assert r.snapshot() == b"xy"
        run_on_threads(2, work)

    def test_collectives(self):
        def work(rt):
            nat = NativeComm(rt)
            p, r = nat.size, nat.rank
            # bcast
            buf = RegisteredBuffer(
                bytearray(b"data" if r == 0 else b"\x00" * 4)
            )
            nat.bcast(buf, 4, 0)
            assert buf.snapshot() == b"data"
            # allreduce
            send = np.full(8, float(r + 1))
            recv = np.zeros(8)
            # Native-API allreduce is buffer-based despite the lower-case name.
            nat.allreduce(send, recv, 8, ops.SUM)  # ombpy-lint: ignore[OMB001]
            assert np.allclose(recv, sum(range(1, p + 1)))
            # reduce
            recv2 = np.zeros(8)
            nat.reduce(send, recv2, 8, ops.SUM, 0)
            if r == 0:
                assert np.allclose(recv2, sum(range(1, p + 1)))
            # allgather
            sb = RegisteredBuffer(bytearray([r] * 2))
            rb = RegisteredBuffer(bytearray(2 * p))
            nat.allgather(sb, rb, 2)
            assert rb.snapshot() == bytes(
                b for i in range(p) for b in (i, i)
            )
            # gather
            rb2 = RegisteredBuffer(bytearray(2 * p))
            nat.gather(sb, rb2, 2, 0)
            if r == 0:
                assert rb2.snapshot() == rb.snapshot()
            # scatter
            src = (
                RegisteredBuffer(bytearray(range(p))) if r == 0 else None
            )
            dst = RegisteredBuffer(bytearray(1))
            nat.scatter(src, dst, 1, 0)
            assert dst.snapshot() == bytes([r])
            # alltoall
            sa = RegisteredBuffer(bytearray([r * 16 + j for j in range(p)]))
            ra = RegisteredBuffer(bytearray(p))
            nat.alltoall(sa, ra, 1)
            assert ra.snapshot() == bytes([i * 16 + r for i in range(p)])
            # reduce_scatter
            rs_send = np.ones(p * 2)
            rs_recv = np.zeros(2)
            nat.reduce_scatter(rs_send, rs_recv, [2] * p, ops.SUM)
            assert np.allclose(rs_recv, p)
            nat.barrier()
        run_on_threads(4, work)

    def test_native_faster_than_bindings_on_average(self):
        """The whole point of the native path: lower per-call overhead."""
        import time

        from repro.bindings import Comm

        def work(rt):
            nat = NativeComm(rt)
            bc = Comm(rt)
            n, blocks, per_block = 8, 12, 25
            s = RegisteredBuffer(bytearray(n))
            r = RegisteredBuffer(bytearray(n))
            sb, rb = bytearray(n), bytearray(n)
            other = 1 - rt.rank

            def pingpong_native():
                if rt.rank == 0:
                    nat.send(s, n, 1, 1)
                    nat.recv(r, n, 1, 1)
                else:
                    nat.recv(r, n, 0, 1)
                    nat.send(s, n, 0, 1)

            def pingpong_bindings():
                if rt.rank == 0:
                    bc.Send(sb, 1, 2)
                    bc.Recv(rb, 1, 2)
                else:
                    bc.Recv(rb, 0, 2)
                    bc.Send(sb, 0, 2)

            for _ in range(20):
                pingpong_native()
                pingpong_bindings()

            def timed(pingpong):
                rt.barrier()
                t0 = time.perf_counter()
                for _ in range(per_block):
                    pingpong()
                return time.perf_counter() - t0

            # Alternate short blocks of each side: a host speed change
            # then lands on both sides alike, not between two long runs.
            t_native = t_bind = 0.0
            for _ in range(blocks):
                t_native += timed(pingpong_native)
                t_bind += timed(pingpong_bindings)
            return t_native, t_bind

        results = run_on_threads(2, work, timeout=120)
        t_native, t_bind = results[0]
        # Bindings do strictly more per-call work; allow generous noise
        # margin but the native path must not be slower by 50%+.
        assert t_native < t_bind * 1.5
