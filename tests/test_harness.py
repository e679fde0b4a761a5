import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from wsnlife import cli, harness
from wsnlife.gainmodels import db_to_linear, dbm_to_watts
from wsnlife.lpsolver import SimplexError
from wsnlife.numerics import ConvergenceError
from wsnlife.routing import SensorNode, build_links, solve_lifetime_lp


class TestUnits:
    def test_dbm_conversion(self):
        assert dbm_to_watts(10.0) == pytest.approx(0.01, rel=1e-12)
        assert dbm_to_watts(-70.0) == pytest.approx(1e-10, rel=1e-12)
        assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-12)

    def test_db_conversion(self):
        assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-12)
        assert db_to_linear(0.0) == 1.0

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
            ([{"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 1, "x": math.nan, "y": 0}], "non-finite"),
            ([{"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 1, "x": 1e999, "y": 0}], "non-finite"),
            ([{"id": 0, "x": 0, "y": None, "rate": -1}], "node 0"),
            ([{"id": 0, "x": 0, "y": 0}, {"id": 1, "x": 1, "y": 0}], "no sink"),
            ([5], "node 0 is not an object"),
            ([{"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 1, "x": 1, "y": 0, "rate": 0}],
             "no sensor with a positive rate"),
            ([{"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 1.7, "x": 1, "y": 0}],
             "node 1: id must be an integer, got 1.7"),
            ([{"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": "2", "x": 1, "y": 0}],
             'node 1: id must be an integer, got "2"'),
            ([{"id": True, "x": 0, "y": 0, "rate": -1}], "node 0: id must be an integer, got true"),
            ([{"id": 0, "x": "0", "y": 0, "rate": -1}], 'node 0: x must be a number, got "0"'),
            ([{"id": 0, "x": 0, "y": False, "rate": -1}], "node 0: y must be a number, got false"),
            ([{"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 1, "x": 1, "y": 0, "energy": True}],
             "node 1: energy must be a number, got true"),
            ([{"id": 0, "x": 0, "y": 0, "rate": "-1"}], 'node 0: rate must be a number, got "-1"'),
            ([{"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 1, "x": 10**400, "y": 0}],
             "node 1: int too large to convert to float"),
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

    def test_unlisted_keys_take_sensor_node_defaults(self, tmp_path):
        # SensorNode holds the one default energy and rate
        path = tmp_path / "topo.json"
        path.write_text(json.dumps({"nodes": [{"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 1, "x": 1, "y": 0}]}))
        sink, sensor = harness.load_topology(str(path))
        assert sensor == SensorNode(id=1, x=1.0, y=0.0)
        assert sink == SensorNode(id=0, x=0.0, y=0.0, rate=-1.0)

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

    @pytest.mark.parametrize("radii", [(), (10.0,)])
    def test_rejects_unknown_kind(self, radii):
        with pytest.raises(ValueError, match="unknown gain kind 'bogus'"):
            harness.run_gain(harness.default_phy(), kind="bogus", radii=radii, trials=10)

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

    @pytest.mark.parametrize("b0", [["0.5"], ["2", "0.99"], ["nan"]])
    def test_disk_radius_below_one_hop_is_an_error(self, capsys, b0):
        assert cli.main(["disk", "--b0", *b0, "--grid", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --b0 ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("pure", [False, True])
    def test_disk_ct_defaults_mark_unreachable_rings(self, tmp_path, pure):
        # the CT model cannot reach the gain the rings of b0/a0 = 10 from
        # 8.7 out need; they are marked with cluster size 0 and forward
        out = tmp_path / "ct.csv"
        assert cli.main(["--out", str(out), "disk", "--mode", "ct"] + ["--pure"] * pure) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if l[:1].isdigit()]
        curves = [[float(v) for v in r] for r in rows if len(r) == 6]
        marked = [r for r in curves if r[5] == 0]
        assert [r[1] for r in marked] == [r[1] for r in curves if r[0] == 10.0 and r[1] > 8.65]
        assert all(r[2] == 0.0 and r[4] == r[3] for r in marked)
        if pure:
            assert all(r[2] == 1.0 for r in curves if r[5] > 0)

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

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["gain", "ct", "--radius", "nan"], "disk radius must be positive and finite, got nan"),
            (["gain", "ct", "--radius", "inf"], "disk radius must be positive and finite, got inf"),
            (["gain", "ct", "--dist", "nan"], "destination must lie outside the cluster disk"),
            (["gain", "ct", "--alpha", "nan"], "path-loss exponent must be at least 2"),
            (["gain", "ct", "--power-dbm", "nan"], "power, noise and c0 must be positive"),
            (["disk", "--b0", "inf"], "disk radius inf and hop range 1.0 must be positive and finite"),
            (["disk", "--a0", "nan"], "disk radius nan and hop range nan must be positive and finite"),
            (["compare", "--field", "nan"], "field size must be positive and finite, got nan"),
            (["compare", "--field", "-5"], "field size must be positive and finite, got -5.0"),
            (["compare", "--instances", "0"], "need at least one instance per node count, got 0"),
            (["compare", "--instances", "-3"], "need at least one instance per node count, got -3"),
            (["compare", "--workers", "0"], "need at least one worker, got 0"),
            (["simulate", "--beta1", "nan"], "cost exponents must be positive"),
            (["gain", "ct", "--power-dbm", "inf"], "power, noise and c0 must be positive and finite"),
            (["gain", "cb", "--wavelength", "inf"], "wavelength and density must be positive and finite"),
            (["disk", "--alpha", "inf"], "path-loss exponent must be at least 2 and finite"),
            (
                ["disk", "--density", "inf", "--mode", "ct"],
                "wavelength and density must be positive and finite",
            ),
            (["gain", "ct", "--alpha", "400"], "path-loss exponent must be at most 8, got 400"),
            (["gain", "ct", "--alpha", "1e6"], "path-loss exponent must be at most 8, got 1e+06"),
            (["disk", "--alpha", "1000"], "path-loss exponent must be at most 8, got 1000"),
            # R^alpha past the float range
            (["gain", "ct", "--radius", "1e100", "--dist", "1e200"], "noise*R^alpha/(4P) = inf > 1"),
        ],
    )
    def test_bad_input_is_one_error_line(self, tmp_path, snapshot_nodes, capsys, argv, message):
        topo = tmp_path / "topo.json"
        harness.save_topology(snapshot_nodes, str(topo))
        if argv[0] == "simulate":
            argv = argv + ["--topology", str(topo)]
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv, forwarded",
        [
            (["gain", "ct"], {"kind": "ct"}),
            (["gain", "ct", "--trials", "7"], {"kind": "ct", "trials": 7}),
            (
                ["--seed", "3", "gain", "cb", "--radius", "20", "40"],
                {"kind": "cb", "seed": 3, "radii": [20.0, 40.0]},
            ),
            (["disk"], {}),
            (
                ["--seed", "3", "disk", "--b0", "4", "--pure", "--summary-only"],
                {"b0_over_a0": [4.0], "pure": True},
            ),
            (["compare"], {}),
            (["compare", "--field", "50", "--workers", "2"], {"field_size": 50.0, "workers": 2}),
            (["simulate"], {}),
            (["--seed", "5", "simulate"], {}),
        ],
    )
    def test_forwards_only_the_flags_given(
        self, tmp_path, snapshot_nodes, monkeypatch, argv, forwarded
    ):
        calls = []

        def record(result):
            def fake(*args, **kwargs):
                calls.append(kwargs)
                return result
            return fake

        table = harness.ResultTable(columns=["x"])
        monkeypatch.setattr(harness, "run_gain", record(table))
        monkeypatch.setattr(harness, "run_disk", record((table, table)))
        monkeypatch.setattr(harness, "run_compare", record(table))
        monkeypatch.setattr(cli, "simulate_dynamic", record(1.0))
        topo = tmp_path / "topo.json"
        harness.save_topology(snapshot_nodes, str(topo))
        if "simulate" in argv:
            argv = argv + ["--topology", str(topo)]
        assert cli.main(argv) == 0
        if "simulate" in argv:
            assert calls == [forwarded]
        else:
            assert calls == [{**forwarded, "phy": harness.PhyParams()}]

    def test_gain_output_is_the_library_table(self, capsys):
        assert cli.main(["gain", "ct", "--radius", "30", "--trials", "200"]) == 0
        expected = harness.run_gain(harness.PhyParams(), "ct", radii=(30.0,), trials=200).to_csv()
        assert capsys.readouterr().out == expected

    def test_simulate_subcommand(self, tmp_path, snapshot_nodes):
        topo = tmp_path / "topo.json"
        harness.save_topology(snapshot_nodes, str(topo))
        out = tmp_path / "sim.json"
        rc = cli.main(["--out", str(out), "simulate", "--topology", str(topo)])
        assert rc == 0
        assert json.loads(out.read_text())["lifetime_rounds"] >= 0.0

    @pytest.mark.parametrize(
        "rate, message",
        [(0.0, "no sensor with a positive rate"), (0.4, "no sensor emits a packet per round")],
    )
    def test_simulate_zero_traffic_is_an_error(self, tmp_path, capsys, rate, message):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"nodes": [
            {"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 1, "x": 10, "y": 0, "rate": rate},
        ]}))
        assert cli.main(["simulate", "--topology", str(topo)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.err.count("\n") == 1

    def test_simulate_energy_past_2_53_is_an_error(self, tmp_path):
        # Taking one unit off 2**54 leaves 2**54, so the run would never
        # end; a subprocess with a timeout makes a regression fail
        # instead of hang.
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"nodes": [
            {"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 1, "x": 30, "y": 0, "energy": 2**54},
        ]}))
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "wsnlife.cli", "simulate", "--topology", str(topo)],
            capture_output=True, text=True, timeout=60, env=env,
        )
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr.startswith("error: ") and "2**53" in proc.stderr
        assert proc.stderr.count("\n") == 1

    def test_id_past_64_bits_is_an_error(self, tmp_path, capsys):
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"nodes": [
            {"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 2**63, "x": 30, "y": 0},
        ]}))
        for command in ("lp", "simulate"):
            assert cli.main([command, "--topology", str(topo)]) == 1
            assert capsys.readouterr().err == "error: node ids must fit in 64 bits\n"

    @pytest.mark.parametrize("field, k", [("energy", 39), ("energy", 40), ("rate", 40)])
    @pytest.mark.parametrize("flags", [[], ["--no-coop"]])
    def test_lp_plan_off_its_rows_is_an_error(self, tmp_path, capsys, field, k, flags):
        # topo12 with sensor 1's battery or rate times 2^k, so that the
        # other sensors' batteries or rates are about 1e-12 in the
        # solver's units, where solve_lp reads an x below 1e-12 as 0.
        # Unchecked, the plans read: lifetime 40.0 where 100/3 is right
        # (battery 2^39); 40.0 with at most one flow (battery 2^40); the
        # right lifetime in a plan of two flows (rate 2^40).  solve_lp
        # finds a row that the plan misses at that row's own scale.
        topo = json.loads((Path(__file__).parent / "golden" / "topo12.json").read_text())
        node = next(v for v in topo["nodes"] if v["id"] == 1)
        node[field] = math.ldexp(node[field], k)
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(topo))
        assert cli.main(["lp", "--topology", str(path), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: final basis violates row ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("k", [41, 59])
    @pytest.mark.parametrize("flags", [[], ["--no-coop"]])
    def test_lp_below_the_tree_is_an_error(self, tmp_path, capsys, k, flags):
        # topo12 with sensor 1's battery times 2^k: the LP's optimum
        # reads 0.0 with an empty plan, below the load-balanced min-hop
        # tree's lifetime; solve_lp refuses it first, as the other
        # batteries' rows lie below its resolution and read 0
        topo = json.loads((Path(__file__).parent / "golden" / "topo12.json").read_text())
        node = next(v for v in topo["nodes"] if v["id"] == 1)
        node["energy"] = math.ldexp(node["energy"], k)
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(topo))
        assert cli.main(["lp", "--topology", str(path), *flags]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: final basis violates row ")
        assert captured.err.count("\n") == 1

    def test_fractional_rate_lp(self, tmp_path, capsys):
        # rate 0.4 is valid traffic for the LP: one hop, lifetime E / rate.
        topo = tmp_path / "topo.json"
        topo.write_text(json.dumps({"nodes": [
            {"id": 0, "x": 0, "y": 0, "rate": -1}, {"id": 1, "x": 10, "y": 0, "rate": 0.4},
        ]}))
        assert cli.main(["lp", "--topology", str(topo)]) == 0
        assert json.loads(capsys.readouterr().out)["lifetime"] == pytest.approx(2.5, rel=1e-12)

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
