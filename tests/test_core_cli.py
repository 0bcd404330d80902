"""ombpy CLI driver tests."""

import pytest

from repro.core.cli import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "osu_latency" in out
        assert "osu_allreduce" in out

    def test_unknown_benchmark(self, capsys):
        assert main(["osu_quantum", "--threads", "2"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err

    def test_invalid_option_combo(self, capsys):
        rc = main(["osu_latency", "--threads", "2", "-d", "cpu",
                   "-b", "cupy"])
        assert rc == 2
        assert "requires" in capsys.readouterr().err

    def test_threads_run_prints_table(self, capsys):
        rc = main([
            "osu_latency", "--threads", "2", "-m", "1:16",
            "-i", "3", "-x", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# OMB-Py" in out
        assert "Latency (us)" in out

    def test_threads_collective(self, capsys):
        rc = main([
            "osu_bcast", "--threads", "3", "-m", "1:8", "-i", "2",
            "-x", "0",
        ])
        assert rc == 0
        assert "Bcast" in capsys.readouterr().out

    def test_full_stats_flag(self, capsys):
        rc = main([
            "osu_latency", "--threads", "2", "-m", "1:4", "-i", "2",
            "-x", "0", "-f",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Min" in out and "Max" in out

    def test_gpu_buffer_run(self, capsys):
        rc = main([
            "osu_latency", "--threads", "2", "-d", "gpu", "-b", "numba",
            "-m", "1:4", "-i", "2", "-x", "0",
        ])
        assert rc == 0
        assert "numba" in capsys.readouterr().out

    def test_output_csv(self, capsys, tmp_path):
        out = tmp_path / "lat.csv"
        rc = main([
            "osu_latency", "--threads", "2", "-m", "1:8", "-i", "2",
            "-x", "0", "--output", str(out),
        ])
        assert rc == 0
        text = out.read_text()
        assert text.startswith("size,latency_us")
        assert len(text.splitlines()) == 5  # header + sizes 1,2,4,8

    def test_output_json(self, capsys, tmp_path):
        out = tmp_path / "lat.json"
        rc = main([
            "osu_latency", "--threads", "2", "-m", "1:4", "-i", "2",
            "-x", "0", "--output", str(out),
        ])
        assert rc == 0
        import json

        data = json.loads(out.read_text())
        assert data["benchmark"] == "osu_latency"
        assert len(data["rows"]) == 3

    def test_simulate_latency(self, capsys):
        rc = main(["osu_latency", "--simulate", "Frontera", "-m", "1:64"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Latency (us)" in out
        assert out.count("\n") >= 7

    def test_simulate_collective_layout(self, capsys):
        rc = main([
            "osu_allreduce", "--simulate", "RI2", "--simulate-nodes", "4",
            "--simulate-ppn", "28", "-m", "4:64",
        ])
        assert rc == 0
        assert "ranks: 112" in capsys.readouterr().out

    def test_simulate_bandwidth_and_bibw_doubles(self, capsys):
        rc = main(["osu_bw", "--simulate", "Frontera", "-m", "1024:1024"])
        assert rc == 0
        bw = float(capsys.readouterr().out.splitlines()[-1].split()[-1])
        rc = main(["osu_bibw", "--simulate", "Frontera", "-m", "1024:1024"])
        assert rc == 0
        bibw = float(capsys.readouterr().out.splitlines()[-1].split()[-1])
        assert bibw == pytest.approx(2 * bw)

    def test_simulate_unknown_cluster(self, capsys):
        rc = main(["osu_latency", "--simulate", "Summit"])
        assert rc == 2
        assert "unknown cluster" in capsys.readouterr().err

    def test_simulate_unmapped_benchmark(self, capsys):
        rc = main(["osu_multi_lat", "--simulate", "Frontera"])
        assert rc == 2
        assert "no simulation mapping" in capsys.readouterr().err

    def test_singleton_world_runs_barrier(self, capsys, monkeypatch):
        from repro.knobs import ENV_RANK

        monkeypatch.delenv(ENV_RANK, raising=False)
        # osu_barrier needs >= 2 ranks; expect clean error (exception is
        # raised inside run, so use a 1-rank-legal invalid benchmark call).
        with pytest.raises(ValueError, match="at least 2"):
            main(["osu_barrier", "-i", "2", "-x", "0"])
