import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import capnet as cp
from capnet import cli, equilibria, hydraulics, sim


def write_cfg(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def linear_cfg(out_dir=None, **ctrl_extra):
    ctrl = {"mode": "decentralized", "kP": 2.0, "kI": 1.0, "kA": 0.4}
    ctrl.update(ctrl_extra)
    cfg = {
        "schema_version": 1,
        "system": {"type": "linear", "B": [[1.0, -0.25], [-0.25, 1.0]],
                   "bounds": {"lower": [-1.0, -1.0], "upper": [1.0, 1.0]}},
        "agents": {"a": [1.0, 1.0], "w": [-2.0, -1.0]},
        "controller": ctrl,
        "sim": {"t_span": [0.0, 30.0], "output_dt": 1.0},
    }
    if out_dir is not None:
        cfg["outputs"] = {"directory": str(out_dir), "prefix": "t"}
    return cfg


def small_dhn_cfg():
    """A two-consumer DHN scenario on one pipe, with default buildings."""
    return {
        "schema_version": 1,
        "system": {"type": "dhn", "building": {},
                   "network": {"root": "P", "pump_dp": 0.6e6,
                               "edges": [{"parent": "P", "child": "A", "s": 0.9}],
                               "consumers": [{"node": "A"}, {"node": "A"}]}},
        "agents": {"w": [-1.0, -2.0]},
        "controller": {"mode": "decentralized", "kP": 1.0, "kI": 1.0, "kA": 1.0,
                       "force": True},
        "sim": {"t_span": [0.0, 1.0], "output_dt": 0.5},
    }


class TestConfig:
    def test_round_trip(self, tmp_path):
        path = write_cfg(tmp_path, linear_cfg())
        data = cli.load_config(path)
        text = cli.serialize_config(data)
        assert json.loads(text) == data
        # serialize(parse(serialize(...))) is a fixed point
        assert cli.serialize_config(json.loads(text)) == text

    def test_unknown_key_rejected(self, tmp_path):
        cfg = linear_cfg()
        cfg["controller"]["kX"] = 1.0
        path = write_cfg(tmp_path, cfg)
        with pytest.raises(cp.ConfigError, match="controller"):
            cli.load_config(path)

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema_version": 1,\n  "oops"\n}', encoding="utf-8")
        with pytest.raises(cp.ConfigError, match="line"):
            cli.load_config(path)

    def test_wrong_schema_version(self, tmp_path):
        cfg = linear_cfg()
        cfg["schema_version"] = 99
        with pytest.raises(cp.ConfigError, match="schema_version"):
            cli.load_config(write_cfg(tmp_path, cfg))

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_schema_version_must_be_the_integer(self, tmp_path, capsys, version):
        # true == 1 and 1.0 == 1 in Python, so the version's type is checked
        cfg = linear_cfg()
        cfg["schema_version"] = version
        assert cli.main(["simulate", str(write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith("config error: unsupported schema_version")

    @pytest.mark.parametrize("force", ["false", "true", 0, 1, None, [True]])
    def test_non_boolean_force_exit_2(self, tmp_path, capsys, force):
        # kP*kA = 2 breaks the decentralized rule, which only a JSON true may
        # force; bool("false") is True
        cfg = linear_cfg(tmp_path / "out", kA=1.0, force=force)
        assert cli.main(["simulate", str(write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith("config error: controller.force: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("force, rc", [(False, 2), (True, 0)])
    def test_boolean_force(self, tmp_path, capsys, force, rc):
        cfg = linear_cfg(tmp_path / "out", kA=1.0, force=force)
        assert cli.main(["simulate", str(write_cfg(tmp_path, cfg))]) == rc
        assert ("tuning error" in capsys.readouterr().err) == (not force)

    def test_shipped_configs_load(self):
        # every shipped file is a scenario that builds or a network that loads
        paths = {p.name: p for p in (Path(cp.__file__).parent / "configs").glob("*.cfg")}
        assert {"linear2_decentralized.cfg", "linear2_coordinating.cfg", "dhn_fig1.cfg",
                "dhn_calibrated.cfg", "dhn_study_decentralized.cfg",
                "dhn_study_coordinating.cfg"} <= set(paths)
        for name, path in sorted(paths.items()):
            raw = json.loads(path.read_text(encoding="utf-8"))
            if "system" in raw:
                assert cli.load_config(path)["schema_version"] == 1
                cli.build_scenario(cli.ScenarioConfig.load(path))
            else:
                assert cp.network_from_dict(raw).n_consumers > 0, name
        for mode in ("decentralized", "coordinating"):
            data = cli.load_config(paths[f"dhn_study_{mode}.cfg"])
            assert data["system"]["capacity_scale"] == cp.CALIBRATED_CAPACITY_SCALE

    def test_shipped_networks_match_builder(self):
        raw = json.loads(cli.shipped_config_path("dhn_calibrated.cfg").read_text(encoding="utf-8"))
        net = cp.network_from_dict(raw)
        ref = cp.build_dhn_network(cp.CALIBRATED_CAPACITY_SCALE)
        assert net.n_consumers == 22
        assert net.pump_dp == pytest.approx(ref.pump_dp)
        v = np.full(22, 0.3)
        np.testing.assert_allclose(cp.solve_flows(net, v), cp.solve_flows(ref, v),
                                   rtol=1e-12)

    def test_dhn_fig1_is_the_documented_tree(self):
        # the tree as documented, written out here rather than read from the file
        net = cp.build_dhn_network()
        lines = (("26", "27", "28", "29"), ("30", "31", "32"), ("33", "34", "35", "36"))
        edges = [(p.parent, p.child) for p in net.pipes]
        expected = ({("23", "24"), ("24", "25")} | {("25", line[0]) for line in lines}
                    | {pair for line in lines for pair in zip(line, line[1:])})
        assert net.root == "23"
        assert len(edges) == len(set(edges)) and set(edges) == expected
        assert {node for edge in edges for node in edge} == {str(k) for k in range(23, 37)}
        assert net.n_consumers == 22
        assert Counter(c.node for c in net.consumers) == {str(k): 2 for k in range(26, 37)}

    def test_build_scenario_linear(self, tmp_path):
        path = write_cfg(tmp_path, linear_cfg())
        built = cli.build_scenario(cli.ScenarioConfig.load(path))
        assert built.system.n == 2
        assert built.policy == "decentralized"


class TestSimulateCommand:
    def test_success_writes_csv(self, tmp_path):
        out = tmp_path / "out"
        path = write_cfg(tmp_path, linear_cfg(out_dir=out))
        assert cli.main(["simulate", str(path)]) == 0
        csv = out / "t_decentralized.csv"
        assert csv.exists()
        header = csv.read_text(encoding="utf-8").splitlines()[0]
        assert header == "t,x1,x2,u1,u2,v1,v2,V"

    @pytest.mark.parametrize("command", ["simulate", "check", "verify"])
    def test_malformed_config_exit_2(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        assert cli.main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("t_span", [[5, 1], [0], [0.0, 0.0], [0.0, "30"], [0.0, None],
                                        [True, 30.0], 30.0, [0.0, 30.0, 60.0]])
    @pytest.mark.parametrize("command", ["simulate", "check", "verify"])
    def test_bad_time_span_exit_2(self, tmp_path, capsys, command, t_span):
        cfg = linear_cfg()
        cfg["sim"]["t_span"] = t_span
        assert cli.main([command, str(write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith("config error: sim: t_span ")

    @pytest.mark.parametrize("policy, t_end", [("decentralized", "0"), ("oracle-l1", "-5"),
                                               ("oracle-linf", "nan"), ("coordinating", "inf")])
    def test_reproduce_dhn_bad_t_end_exit_2(self, tmp_path, capsys, policy, t_end):
        assert cli.main(["reproduce-dhn", "--policy", policy, "--t-end", t_end,
                         "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: sim: t_span ")

    @pytest.mark.parametrize("output_dt", ["nan", "inf", "0"])
    def test_reproduce_dhn_bad_output_dt_exit_2(self, tmp_path, capsys, output_dt):
        assert cli.main(["reproduce-dhn", "--policy", "oracle-linf", "--t-end", "2",
                         "--output-dt", output_dt, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: sim: output_dt must be a finite number above 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale", ["nan", "inf", "-1"])
    def test_reproduce_dhn_bad_capacity_scale_exit_2(self, tmp_path, capsys, scale):
        # 0 is the switched-off plant, refused by the solver (exit 3)
        assert cli.main(["reproduce-dhn", "--policy", "oracle-linf", "--t-end", "2",
                         "--capacity-scale", scale, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith("config error: network: pump_dp ")

    @pytest.mark.parametrize("section, key, value", [
        pytest.param(section, key, value, id=f"{section}-{key}" + suffix)
        for section, key in [("building", "c"), ("building", "c_pw"), ("building", "delta"),
                             ("building", "T_ref"), ("edge", "s"), ("consumer", "s_c"),
                             ("consumer", "valve_span"), ("consumer", "valve_offset")]
        for value, suffix in [(float("nan"), ""), (float("inf"), "-inf")]])
    def test_dhn_nan_parameter_exit_2(self, tmp_path, capsys, section, key, value):
        cfg = small_dhn_cfg()
        net = cfg["system"]["network"]
        target = {"building": cfg["system"]["building"], "edge": net["edges"][0],
                  "consumer": net["consumers"][1]}[section]
        target[key] = value
        assert cli.main(["simulate", str(write_cfg(tmp_path, cfg))]) == 2
        where = "system.building" if section == "building" else "network"
        assert capsys.readouterr().err.startswith(f"config error: {where}: ")

    @pytest.mark.parametrize("entry, key", [("edges", "length"), ("consumers", "valve_spam")])
    def test_dhn_unknown_network_key_exit_2(self, tmp_path, capsys, entry, key):
        cfg = small_dhn_cfg()
        cfg["system"]["network"][entry][0][key] = 3
        assert cli.main(["simulate", str(write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: network: {entry}[0]: unknown keys ['{key}']")

    @pytest.mark.parametrize("system, path, value, section", [
        pytest.param("decentralized", ("agents", "a"), 0, "agents", id="a-zero"),
        pytest.param("decentralized", ("agents", "a"), [1, -1], "agents", id="a-negative"),
        pytest.param("decentralized", ("agents", "a"), "x", "agents", id="a-text"),
        pytest.param("decentralized", ("agents", "w"), float("nan"), "agents", id="w-nan"),
        pytest.param("decentralized", ("system", "bounds", "lower"), [1, 1], "system.bounds",
                     id="lower-at-upper"),
        pytest.param("decentralized", ("system", "bounds", "lower"), [-1], "system.bounds",
                     id="lower-short"),
        pytest.param("decentralized", ("system", "bounds", "lower"), [-1, float("-inf")],
                     "system.bounds", id="lower-inf"),
        pytest.param("decentralized", ("system", "B"), [[1.0, -0.25], [-0.25]], "system.B",
                     id="B-ragged"),
        pytest.param("decentralized", ("system", "B"), [[1.0, -0.25, 0.0], [-0.25, 1.0, 0.0]],
                     "system.B", id="B-2x3"),
        pytest.param("decentralized", ("controller", "kP"), "x", "controller", id="kP-text"),
        pytest.param("decentralized", ("controller", "kP"), [1, 2, 3], "controller.kP",
                     id="kP-length"),
        pytest.param("decentralized", ("controller", "kP"), float("inf"), "controller",
                     id="kP-inf"),
        pytest.param("decentralized", ("controller", "kA"), [0.4, float("inf")],
                     "controller", id="kA-inf"),
        pytest.param("coordinating", ("controller", "kC"), float("nan"), "controller",
                     id="kC-nan"),
        pytest.param("coordinating", ("controller", "kC"), float("inf"), "controller",
                     id="kC-inf"),
        pytest.param("coordinating", ("controller", "alpha"), float("nan"), "controller",
                     id="alpha-nan"),
        pytest.param("dhn", ("system", "capacity_scale"), "x", "system.capacity_scale",
                     id="dhn-capacity-scale-text"),
        pytest.param("dhn", ("agents", "w"), float("nan"), "agents", id="dhn-w-nan"),
        pytest.param("dhn", ("agents", "temperature_profile"),
                     {"times": [0.0, 1.0], "values": [float("nan"), -5.0]}, "agents",
                     id="dhn-profile-nan"),
    ])
    def test_bad_scenario_value_exit_2(self, tmp_path, capsys, system, path, value, section):
        # under force, so that a bad gain cannot pass as a tuning failure
        if system == "dhn":
            cfg = small_dhn_cfg()
        else:
            cfg = json.loads(cli.shipped_config_path(f"linear2_{system}.cfg").read_text(
                encoding="utf-8"))
            cfg["outputs"]["directory"] = str(tmp_path / "out")
            cfg["controller"]["force"] = True
        target = cfg
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        assert cli.main(["simulate", str(write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {section}: ")

    @pytest.mark.parametrize("command", ["simulate", "check", "verify"])
    def test_per_agent_temperature_profile_exit_2(self, tmp_path, capsys, monkeypatch,
                                                  command):
        # the outdoor temperature is one series: a profile with a row of
        # values per time is refused before anything is integrated
        cfg = json.loads(cli.shipped_config_path("dhn_study_decentralized.cfg").read_text(
            encoding="utf-8"))
        cfg["agents"]["temperature_profile"] = {
            "times": [0, 48, 96], "values": [[-5] * 22, [-26.5] * 22, [-10] * 22]}
        cfg["outputs"]["directory"] = str(tmp_path / "out")

        def integrate_many(*args, **kwargs):
            raise AssertionError("integrated a refused config")

        monkeypatch.setattr(cli.sim, "integrate_many", integrate_many)
        assert cli.main([command, str(write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: agents.temperature_profile: values must be one number per time")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("system, edits, message", [
        pytest.param("linear", {"agents": 5}, "agents: expected an object", id="agents-number"),
        pytest.param("linear", {"system.bounds": 5}, "system.bounds: expected an object",
                     id="bounds-number"),
        pytest.param("dhn", {"system.building": 3}, "system.building: expected an object",
                     id="building-number"),
        pytest.param("linear", {"sim": [1]}, "sim: expected an object", id="sim-list"),
        pytest.param("linear", {"outputs": "x"}, "outputs: expected an object",
                     id="outputs-text"),
        pytest.param("linear", {"controller": []}, "controller: expected an object",
                     id="controller-list"),
        pytest.param("dhn", {"agents": {"temperature_profile": [1]}},
                     "agents.temperature_profile: expected an object", id="profile-list"),
        pytest.param("linear", {"controller.kC": 0.5, "controller.alpha": 1.0},
                     "controller: unknown keys ['alpha', 'kC']",
                     id="decentralized-with-kC-alpha"),
        pytest.param("linear", {"controller": {"mode": "coordinating", "kP": 2.0, "kI": 1.0,
                                               "kC": 0.5, "alpha": 1.0, "kA": 0.4}},
                     "controller: unknown keys ['kA']", id="coordinating-with-kA"),
        pytest.param("dhn", {"agents.temperature_profile": "builtin"},
                     "agents: dhn systems take exactly one of", id="dhn-w-and-profile"),
        pytest.param("linear", {"agents.temperature_profile": "builtin"},
                     "agents: unknown keys ['temperature_profile']", id="linear-profile"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "check", "verify"])
    def test_malformed_section_exit_2(self, tmp_path, capsys, command, system, edits,
                                      message):
        # each section is an object with the keys of its system type and mode
        cfg = linear_cfg() if system == "linear" else small_dhn_cfg()
        for path, value in edits.items():
            *parents, key = path.split(".")
            target = cfg
            for name in parents:
                target = target[name]
            target[key] = value
        assert cli.main([command, str(write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    @pytest.mark.parametrize("argv, flag", [
        (["check", "--samples", "0"], "--samples"),
        (["check", "--samples", "-3"], "--samples"),
        (["verify", "--optimality", "--samples", "0"], "--samples"),
        (["verify", "--stability", "--starts", "0"], "--starts"),
        (["verify", "--stability", "--t-max", "0"], "--t-max"),
        (["verify", "--stability", "--t-max", "-1"], "--t-max"),
        (["verify", "--stability", "--t-max", "nan"], "--t-max"),
        (["verify", "--stability", "--tol", "nan"], "--tol"),
        (["verify", "--stability", "--tol", "inf"], "--tol"),
        (["verify", "--stability", "--tol", "0"], "--tol"),
        (["verify", "--stability", "--tol", "-1"], "--tol"),
        (["check", "--seed", "-1"], "--seed"),
        (["verify", "--seed", "-1"], "--seed"),
        (["verify", "--stability", "--seed", "-1"], "--seed"),
    ])
    def test_bad_count_or_horizon_flag_exit_2(self, tmp_path, capsys, argv, flag):
        path = write_cfg(tmp_path, linear_cfg())
        with pytest.raises(SystemExit) as exc:
            cli.main(argv[:1] + [str(path)] + argv[1:])
        assert exc.value.code == 2
        assert f"argument {flag}: " in capsys.readouterr().err

    @pytest.mark.parametrize("sim_cfg", [{"method": "implicit_euler"}, {"dt_fixed": 0.01}])
    def test_removed_solver_settings_exit_2(self, tmp_path, capsys, sim_cfg):
        cfg = linear_cfg()
        cfg["sim"].update(sim_cfg)
        assert cli.main(["simulate", str(write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith("config error: ")

    def test_rosenbrock_method(self, tmp_path):
        cfg = linear_cfg(out_dir=tmp_path / "out")
        cfg["sim"]["method"] = "rosenbrock"
        assert cli.main(["simulate", str(write_cfg(tmp_path, cfg))]) == 0
        assert (tmp_path / "out" / "t_decentralized.csv").exists()

    @pytest.mark.parametrize("argv", [["simulate"], ["verify", "--stability"]])
    def test_tuning_violation_exit_2(self, tmp_path, capsys, argv):
        cfg = linear_cfg()
        cfg["agents"]["a"] = [0.3, 0.3]
        path = write_cfg(tmp_path, cfg)
        assert cli.main(argv[:1] + [str(path)] + argv[1:]) == 2
        assert capsys.readouterr().err.startswith("tuning error: ")

    @pytest.mark.parametrize("argv", [["simulate"], ["verify", "--stability"]])
    def test_tuning_refusal_names_the_config_switch(self, tmp_path, capsys, argv):
        # the shipped decentralized config with kI raised past kP*a = 2 and no
        # force: one line naming the controller section's force key, which
        # is the switch; capnet has no --force flag
        cfg = json.loads(cli.shipped_config_path("linear2_decentralized.cfg").read_text())
        cfg["controller"]["kI"] = 3.0
        cfg["outputs"]["directory"] = str(tmp_path / "out")
        assert cli.main(argv[:1] + [str(write_cfg(tmp_path, cfg))] + argv[1:]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("tuning error: tuning rule violated ([FAIL] kP*a > kI (agent 0)")
        assert "\"force\": true in the config's controller section" in line
        assert "--force" not in line

    def test_tuning_refusal_makes_no_output_directory(self, tmp_path, capsys):
        # the shipped decentralized config with kI 3 and no force: refused
        # before the output directory is made, so none is left behind
        cfg = json.loads(cli.shipped_config_path("linear2_decentralized.cfg").read_text())
        cfg["controller"]["kI"] = 3.0
        cfg["outputs"]["directory"] = str(tmp_path / "out")
        assert cli.main(["simulate", str(write_cfg(tmp_path, cfg))]) == 2
        assert capsys.readouterr().err.startswith("tuning error: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("prefix", ["sub/run", "sub\\run", "", ".", "..", "run\0", 5, None])
    def test_prefix_not_a_file_stem_exit_2(self, tmp_path, capsys, monkeypatch, prefix):
        # a prefix names files inside outputs.directory: anything else is
        # refused when the config is read, before anything integrates or
        # any directory is made
        cfg = linear_cfg(tmp_path / "out")
        cfg["outputs"]["prefix"] = prefix
        path = write_cfg(tmp_path, cfg)

        def integrate(*args, **kwargs):
            raise AssertionError("the run integrated")

        monkeypatch.setattr(sim, "integrate", integrate)
        assert cli.main(["simulate", str(path)]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: outputs: prefix must be a file-name stem")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["reproduce-dhn", "--policy", "decentralized", "--t-end", "1", "--output-dt", "1e-300"],
        ["simulate"],  # a grid one time past the budget
    ])
    def test_too_fine_output_grid_exit_2(self, tmp_path, capsys, argv):
        cfg = linear_cfg(tmp_path / "out")
        cfg["sim"].update(t_span=[0.0, float(sim.MAX_OUTPUT_ROWS)], output_dt=1.0)
        argv = argv + ([str(write_cfg(tmp_path, cfg))] if argv == ["simulate"]
                       else ["--out", str(tmp_path / "out")])
        assert cli.main(argv) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: sim: output_dt ")
        assert line.endswith(f"gives more than {sim.MAX_OUTPUT_ROWS} output times")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [["simulate", "CFG"],
                                      ["verify", "CFG", "--report-dir", "FILE"]])
    def test_unwritable_output_path_exit_2(self, tmp_path, capsys, argv):
        # the output directory is an existing file: refused before the run
        # with one line naming it
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        path = write_cfg(tmp_path, linear_cfg(taken))
        assert cli.main([{"CFG": str(path), "FILE": str(taken)}.get(a, a) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert err.splitlines() == [f"output error: [Errno 17] File exists: '{taken}'"]
        assert "verdict=" not in out

    @pytest.mark.parametrize("command", ["simulate", "check", "verify"])
    def test_dhn_zero_capacity_exit_3(self, tmp_path, capsys, command):
        cfg = {
            "schema_version": 1,
            "system": {"type": "dhn", "network": "builtin:dhn_fig1",
                       "capacity_scale": 0.0},
            "agents": {"temperature_profile": "builtin"},
            "controller": {"mode": "decentralized", "kP": 1.0, "kI": 1.0, "kA": 1.0,
                           "force": True},
            "sim": {"t_span": [0.0, 1.0], "output_dt": 0.5},
        }
        path = write_cfg(tmp_path, cfg)
        assert cli.main([command, str(path)]) == 3
        assert capsys.readouterr().err.startswith("solver error: ")

    def test_dhn_csv_has_22_state_columns(self, tmp_path):
        out = tmp_path / "out"
        cfg = {
            "schema_version": 1,
            "system": {"type": "dhn", "network": "builtin:dhn_calibrated"},
            "agents": {"temperature_profile": "builtin"},
            "controller": {"mode": "decentralized", "kP": 1.0, "kI": 1.0, "kA": 1.0,
                           "force": True},
            "sim": {"t_span": [0.0, 2.0], "output_dt": 1.0},
            "outputs": {"directory": str(out), "prefix": "dhn"},
        }
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["simulate", str(path)]) == 0
        header = (out / "dhn_decentralized.csv").read_text(encoding="utf-8").splitlines()[0]
        cols = header.split(",")
        assert cols[1:23] == [f"x{i}" for i in range(1, 23)]
        assert len(cols) == 1 + 3 * 22 + 1


class TestCheckCommand:
    def test_mmatrix_passes(self, tmp_path):
        path = write_cfg(tmp_path, linear_cfg())
        assert cli.main(["check", str(path), "--assumption1",
                         "--samples", "500", "--seed", "0"]) == 0

    def test_counterexample_matrix_fails(self, tmp_path, capsys):
        cfg = linear_cfg()
        cfg["system"]["B"] = [[1.0, 0.25], [-0.25, 1.0]]
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["check", str(path), "--assumption1",
                         "--samples", "2000", "--seed", "0"]) == 1
        out = capsys.readouterr().out
        assert "counterexample" in out or "FAIL" in out

    def test_tuning_check(self, tmp_path):
        path = write_cfg(tmp_path, linear_cfg())
        assert cli.main(["check", str(path), "--tuning"]) == 0
        cfg = linear_cfg(kA=2.0)
        path2 = write_cfg(tmp_path, cfg, name="bad.json")
        assert cli.main(["check", str(path2), "--tuning"]) == 1

    def test_all_checks_default(self, tmp_path):
        path = write_cfg(tmp_path, linear_cfg())
        assert cli.main(["check", str(path), "--samples", "300"]) == 0


class TestVerifyCommand:
    def test_optimality(self, tmp_path):
        path = write_cfg(tmp_path, linear_cfg())
        assert cli.main(["verify", str(path), "--optimality",
                         "--samples", "200", "--seed", "0"]) == 0

    def test_stability_coordinating_rejectable(self, tmp_path):
        cfg = linear_cfg()
        cfg["controller"] = {"mode": "coordinating", "kP": 1.0, "kI": 0.5,
                             "kC": 0.5, "alpha": 1.0}
        cfg["agents"]["w"] = [-0.3, 0.2]
        path = write_cfg(tmp_path, cfg)
        assert cli.main(["verify", str(path), "--stability", "--starts", "5",
                         "--t-max", "120", "--seed", "0"]) == 0

    @pytest.mark.parametrize("flags", [["--optimality"], ["--stability"]])
    def test_no_equilibrium_fails(self, tmp_path, capsys, flags):
        # excess of both signs: the coordinating loop has no equilibrium
        cfg = json.loads(cli.shipped_config_path("linear2_coordinating.cfg").read_text())
        cfg["agents"]["w"] = [-3.0, 3.0]
        assert cli.main(["verify", str(write_cfg(tmp_path, cfg))] + flags) == 1
        out, err = capsys.readouterr()
        if flags == ["--optimality"]:
            assert (out, err) == ("", "no equilibrium: excess of both signs at S = 0\n")
        else:
            assert err == ""
            assert {"passed=False", "equilibrium=none",
                    "failure=no equilibrium found: excess of both signs at S = 0"} <= set(
                        out.splitlines())

    @pytest.mark.parametrize("flags", [["--optimality"], ["--stability"]])
    def test_time_varying_w_exit_2(self, capsys, flags):
        # equilibria and their certificates need a constant agents.w
        path = cli.shipped_config_path("dhn_study_decentralized.cfg")
        assert cli.main(["verify", str(path)] + flags) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: verify needs a constant agents.w; this one varies in time"]

    def test_report_written(self, tmp_path):
        path = write_cfg(tmp_path, linear_cfg())
        report_dir = tmp_path / "reports"
        assert cli.main(["verify", str(path), "--optimality", "--samples", "50",
                         "--report-dir", str(report_dir)]) == 0
        assert (report_dir / "verdict_optimality.txt").exists()

    @pytest.mark.parametrize("name, finder", [
        ("linear2_decentralized.cfg", "find_equilibrium_decentralized"),
        ("linear2_coordinating.cfg", "find_equilibrium_coordinating"),
    ])
    def test_optimality_and_stability_solve_equilibrium_once(self, monkeypatch, name,
                                                             finder):
        solves = []
        solve = getattr(equilibria, finder)

        def counted(sys, *args, **kwargs):
            solves.append(1)
            return solve(sys, *args, **kwargs)

        monkeypatch.setattr(equilibria, finder, counted)
        assert cli.main(["verify", str(cli.shipped_config_path(name)), "--optimality",
                         "--stability", "--samples", "50", "--starts", "3",
                         "--seed", "0"]) == 0
        assert len(solves) == 1

    @pytest.mark.parametrize("name", ["linear2_decentralized.cfg",
                                      "linear2_coordinating.cfg"])
    def test_stability_field_evaluation_budget(self, capsys, name):
        # all 20 starts together; the coordinating one took 34472 with the
        # stale RK45 stage that inflated rejections
        assert cli.main(["verify", str(cli.shipped_config_path(name)), "--stability",
                         "--seed", "1"]) == 0
        details = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines()
                       if "=" in line and not line.startswith("#"))
        assert int(details["field_evaluations"]) <= 24000


class TestReproduceDhn:
    def test_all_policies_match_single_policy_bytes(self, dhn_study, tmp_path):
        out = tmp_path / "dec"
        assert cli.main(["reproduce-dhn", "--policy", "decentralized", "--out", str(out)]) == 0
        for name in ("dhn_decentralized.csv", "dhn_decentralized_summary.txt"):
            assert (out / name).read_bytes() == (dhn_study["out"] / name).read_bytes(), name

    @pytest.mark.parametrize("policy", ["oracle-l1", "oracle-linf"])
    def test_oracle_policy_counts_and_mass_checks_its_flows(self, dhn_study, policy):
        # every flow that sets an allocation's errors, at each of the 385
        # output times, besides the construction probe
        summary = dhn_study["summary"]
        assert int(summary[f"{policy}.flow_solves"]) >= 385
        assert float(summary[f"{policy}.max_mass_residual"]) < 1e-8

    def test_simulate_shipped_study_matches_bytes(self, dhn_study, tmp_path):
        data = cli.load_config(cli.shipped_config_path("dhn_study_decentralized.cfg"))
        data["outputs"]["directory"] = str(tmp_path / "out")
        assert cli.main(["simulate", str(write_cfg(tmp_path, data))]) == 0
        for name in ("dhn_decentralized.csv", "dhn_decentralized_summary.txt"):
            assert ((tmp_path / "out" / name).read_bytes()
                    == (dhn_study["out"] / name).read_bytes()), name

    @pytest.mark.parametrize("policy", ["decentralized", "coordinating"])
    def test_flow_solves_counts_every_solved_row(self, tmp_path, monkeypatch, policy):
        # every row through the solve is counted, the Jacobians' included
        rows = []
        solve = hydraulics.solve_flows

        def counted(net, v, *args, **kwargs):
            rows.append(1 if np.ndim(v) == 1 else len(v))
            return solve(net, v, *args, **kwargs)

        monkeypatch.setattr(hydraulics, "solve_flows", counted)
        assert cli.main(["reproduce-dhn", "--policy", policy, "--t-end", "4",
                         "--out", str(tmp_path)]) == 0
        summary = dict(line.split("=", 1) for line in (
            tmp_path / f"dhn_{policy}_summary.txt").read_text(encoding="utf-8").splitlines())
        assert sum(rows) == int(summary["flow_solves"])
        # one solve per field evaluation, besides the interconnection probe's rows
        assert int(summary["flow_solves"]) == int(summary["field_evaluations"]) + 6

    def test_closed_loop_run_never_imports_scipy(self, tmp_path):
        # scipy costs about 20 MB of resident memory; on the study profile
        # the min-max oracle is all closed forms and needs no root search
        src = str(Path(cp.__file__).resolve().parent.parent)
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import capnet.cli as cli; "
                "assert all(cli.main(['reproduce-dhn', '--policy', policy, "
                "'--t-end', '1', '--out', sys.argv[2]]) == 0 "
                "for policy in ('decentralized', 'coordinating', 'oracle-linf')); "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        res = subprocess.run([sys.executable, "-c", code, src, str(tmp_path)],
                             capture_output=True, text=True, timeout=120)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]"

    def test_flags_left_out_keep_the_study_config(self, tmp_path, monkeypatch):
        # without --t-end the run spans the shipped config's t_span
        shipped = cli.shipped_config_path
        data = cli.load_config(shipped("dhn_study_decentralized.cfg"))
        data["sim"]["t_span"] = [0, 2]
        study = write_cfg(tmp_path, data, "dhn_study_decentralized.cfg")
        monkeypatch.setattr(cli, "shipped_config_path",
                            lambda name: study if name == study.name else shipped(name))
        out = tmp_path / "out"
        assert cli.main(["reproduce-dhn", "--policy", "oracle-linf", "--out", str(out)]) == 0
        rows = (out / "dhn_oracle-linf.csv").read_text(encoding="utf-8").splitlines()[1:]
        assert len(rows) == 9

    def test_single_policy_short(self, tmp_path):
        out = tmp_path / "dhn"
        rc = cli.main(["reproduce-dhn", "--policy", "oracle-l1", "--out", str(out),
                       "--t-end", "2.0", "--output-dt", "1.0"])
        assert rc == 0
        assert (out / "dhn_oracle-l1.csv").exists()
        assert (out / "dhn_comparison.csv").exists()
        assert (out / "dhn_summary.txt").exists()
