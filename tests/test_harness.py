import json
import shlex
from pathlib import Path

import pytest

from wsnlife import cli, harness
from wsnlife.lpsolver import SimplexError
from wsnlife.numerics import ConvergenceError
from wsnlife.routing import build_links, solve_lifetime_lp


class TestUnits:
    def test_dbm_conversion(self):
        assert harness.dbm_to_watts(10.0) == pytest.approx(0.01, rel=1e-12)
        assert harness.dbm_to_watts(-70.0) == pytest.approx(1e-10, rel=1e-12)
        assert harness.dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)

    def test_db_conversion(self):
        assert harness.db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
        assert harness.db_to_linear(0.0) == 1.0

    def test_default_phy_hop_range(self):
        # (P / (noise * snr)) ** (1/4) = (1e7) ** 0.25
        assert harness.default_phy().hop_range() == pytest.approx(10.0**1.75, rel=1e-12)


class TestTopology:
    def test_counts_and_rates(self):
        nodes = harness.generate_topology(6, 50.0, seed=1)
        assert len(nodes) == 6
        sinks = [n for n in nodes if n.rate < 0]
        assert len(sinks) == 1 and sinks[0].rate == -5.0
        assert all(n.rate == 1.0 and n.energy == 1.0 for n in nodes if n is not sinks[0])

    def test_seed_determinism(self):
        a = harness.generate_topology(10, 100.0, seed=7)
        b = harness.generate_topology(10, 100.0, seed=7)
        assert [(n.x, n.y) for n in a] == [(n.x, n.y) for n in b]

    def test_roundtrip_file(self, tmp_path):
        nodes = harness.generate_topology(5, 100.0, seed=3)
        path = tmp_path / "topo.json"
        harness.save_topology(nodes, str(path))
        loaded = harness.load_topology(str(path))
        assert loaded == nodes

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ([{"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 0, "x": 1, "y": 0}], "duplicate node ids"),
            ([{"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 1, "x": 1}], "node 1 lacks y"),
            ([{"x": 0, "y": 0, "rate": -1}], "node 0 lacks id"),
            ([{"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 1, "x": "NaN", "y": 0}], "non-finite"),
            ([{"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 1, "x": 1e999, "y": 0}], "non-finite"),
            ([{"id": 0, "x": 0, "y": None, "rate": -1}], "node 0"),
            ([{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}], "no sink"),
            ([5], "node 0 is not an object"),
        ],
    )
    def test_malformed_file_rejected(self, tmp_path, capsys, nodes, message):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({"nodes": nodes}))
        with pytest.raises(ValueError, match=message):
            harness.load_topology(str(path))
        assert cli.main(["lp", "--topology", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1

    def test_missing_node_list_rejected(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(json.dumps([{"id": 0, "x": 0, "y": 0}]))
        with pytest.raises(ValueError, match="'nodes' list"):
            harness.load_topology(str(path))


class TestResultTable:
    def test_csv_shape(self):
        t = harness.ResultTable(columns=["a", "b"], metadata={"seed": 1})
        t.add(1, 2.5)
        text = t.to_csv()
        assert text.splitlines() == ["# seed=1", "a,b", "1,2.5"]

    def test_row_width_checked(self):
        t = harness.ResultTable(columns=["a", "b"])
        with pytest.raises(ValueError):
            t.add(1)


class TestRunGain:
    def test_single_node_sweep(self):
        table = harness.run_gain(
            harness.default_phy(), kind="ct", n=1, radii=(10.0, 20.0), trials=10, seed=0
        )
        for row in table.rows:
            assert row[4] == 1.0 and row[5] == 1.0

    def test_csv_numbers_parse(self):
        table = harness.run_gain(harness.default_phy(), radii=(10.0, 30.0), trials=100, seed=1)
        lines = [l for l in table.to_csv().splitlines() if not l.startswith("#")]
        assert lines[0] == ",".join(table.columns)
        for line, row in zip(lines[1:], table.rows):
            fields = line.split(",")
            assert fields[0] == "ct"
            assert [float(f) for f in fields[1:]] == [float(v) for v in row[1:]]

    def test_repeatable(self):
        phy = harness.default_phy()
        a = harness.run_gain(phy, radii=(30.0,), trials=500, seed=4).to_csv()
        b = harness.run_gain(phy, radii=(30.0,), trials=500, seed=4).to_csv()
        assert a == b


class TestRunDisk:
    def test_forwarding_curve_is_npf(self):
        curves, summary = harness.run_disk(b0_over_a0=(3.0,), grid=50)
        # joint optimum never exceeds the forwarding peak
        assert summary.rows[0][2] <= summary.rows[0][3]
        peak_joint = max(row[4] for row in curves.rows)
        peak_pf = max(row[3] for row in curves.rows)
        assert peak_joint <= peak_pf + 1e-9

    def test_pure_flag(self):
        curves, _ = harness.run_disk(b0_over_a0=(2.0,), grid=20, pure=True)
        assert all(row[2] == 1.0 for row in curves.rows)


class TestRunCompare:
    def test_dominance_columns(self):
        table = harness.run_compare(counts=(8,), instances=5, seed=2)
        for (_n, _i, sp, lp_plain, lp_coop) in table.rows:
            assert lp_coop >= lp_plain - 1e-9 >= sp - 2e-9

    def test_worker_count_invariance(self):
        kwargs = dict(counts=(8, 10), instances=4, seed=3)
        serial = harness.run_compare(workers=1, **kwargs).to_csv()
        parallel = harness.run_compare(workers=3, **kwargs).to_csv()
        assert serial == parallel


class TestCli:
    def test_lp_subcommand(self, tmp_path, snapshot_nodes):
        topo = tmp_path / "topo.json"
        out = tmp_path / "flow.json"
        harness.save_topology(snapshot_nodes, str(topo))
        rc = cli.main(["--out", str(out), "lp", "--topology", str(topo)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["lifetime"] == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_lp_no_coop(self, tmp_path, snapshot_nodes):
        topo = tmp_path / "topo.json"
        out = tmp_path / "flow.json"
        harness.save_topology(snapshot_nodes, str(topo))
        rc = cli.main(["--out", str(out), "lp", "--topology", str(topo), "--no-coop"])
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["lifetime"] == pytest.approx(0.2, abs=1e-6)

    def test_disk_summary(self, capsys):
        rc = cli.main(["disk", "--b0", "2", "--grid", "20", "--summary-only"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        header = [l for l in lines if not l.startswith("#")][0]
        assert header.split(",")[0] == "b0_over_a0"

    def test_gain_csv(self, capsys):
        rc = cli.main(["--seed", "1", "gain", "ct", "--radius", "30", "120", "--trials", "100"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        header, *rows = [l.split(",") for l in lines if not l.startswith("#")]
        closed_form = float(rows[1][header.index("closed_form")])
        assert closed_form == pytest.approx(2.10365, rel=1e-5)

    def test_config_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": 50, "radius": [20.0]}))
        rc = cli.main(["--config", str(cfg), "gain", "ct", "--trials", "999"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "# trials=50" in out

    def test_config_values_use_flag_types(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"trials": "100", "radius": [30]}))
        assert cli.main(["--config", str(cfg), "gain", "ct"]) == 0
        assert "# trials=100" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "override, message",
        [
            ({"trials": "many"}, "config key 'trials': invalid value 'many'"),
            ({"trials": 2.5}, "config key 'trials': invalid value 2.5"),
            ({"kind": "xx"}, "config key 'kind': 'xx' is not one of ['cb', 'ct']"),
            ({"radius": 20}, "config key 'radius' expects a list, got 20"),
            ({"radius": []}, "config key 'radius' expects a list, got []"),
            ({"n": [3]}, "config key 'n' expects one value, got [3]"),
            ({"command": "disk"}, "unknown config key 'command'"),
        ],
    )
    def test_bad_config_value_is_a_usage_error(self, tmp_path, capsys, override, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(cfg), "gain", "ct"])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == f"wsnlife: error: {message}"

    def test_readme_examples_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        commands = [shlex.split(line) for line in readme.splitlines() if line.startswith("wsnlife ")]
        assert len(commands) == 8 and sum("--out" in c for c in commands) == 5
        parser = cli.build_parser()
        for command in commands:
            parser.parse_args(command[1:])

    def test_readme_form_with_global_out(self, tmp_path):
        out = tmp_path / "disk.csv"
        assert cli.main(["--out", str(out), "disk", "--b0", "2", "--grid", "20"]) == 0
        assert "saving_percent" in out.read_text()

    def test_bad_topology_path(self):
        rc = cli.main(["lp", "--topology", "/nonexistent/x.json"])
        assert rc == 1

    @pytest.mark.parametrize("error", [SimplexError, ConvergenceError])
    def test_solver_error_is_one_line(self, tmp_path, snapshot_nodes, monkeypatch, capsys, error):
        topo = tmp_path / "topo.json"
        harness.save_topology(snapshot_nodes, str(topo))

        def fail(*args, **kwargs):
            raise error("solver gave up")

        monkeypatch.setattr(cli, "solve_lifetime_lp", fail)
        rc = cli.main(["lp", "--topology", str(topo)])
        assert rc == 1
        assert capsys.readouterr().err == "error: solver gave up\n"

    def test_simulate_subcommand(self, tmp_path, snapshot_nodes):
        topo = tmp_path / "topo.json"
        harness.save_topology(snapshot_nodes, str(topo))
        out = tmp_path / "sim.json"
        rc = cli.main(["--out", str(out), "simulate", "--topology", str(topo)])
        assert rc == 0
        assert json.loads(out.read_text())["lifetime_rounds"] >= 0.0

    def test_metadata_reproduces_table(self):
        # re-running with the parameters echoed in the metadata gives
        # the identical table
        phy = harness.default_phy()
        first = harness.run_gain(phy, radii=(40.0,), trials=200, seed=11)
        meta = first.metadata
        second = harness.run_gain(
            phy,
            kind=meta["kind"],
            n=meta["n"],
            dist=meta["dist"],
            radii=(40.0,),
            trials=meta["trials"],
            seed=meta["seed"],
        )
        assert first.to_csv() == second.to_csv()

    def test_solution_json_round_trip(self, snapshot_nodes):
        phy = harness.default_phy()
        links = build_links(snapshot_nodes, phy)
        sol = solve_lifetime_lp(snapshot_nodes, links)
        data = json.loads(harness.flow_solution_to_json(sol))
        assert data["status"] == "optimal"
        assert {e["src"] for e in data["qhat"]} <= {n.id for n in snapshot_nodes}
