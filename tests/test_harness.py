"""Harness: configs, presets, reports, CLI subcommands, verify plumbing."""

import json
import os
import re
import subprocess
import sys
from dataclasses import asdict, replace
from fractions import Fraction

import numpy as np
import pytest

import siac
from siac import dgsolver as dg
from siac import filtercore as fc
from siac import postproc
from siac.harness import cli, config, runner, tables, verify
from siac.harness.config import ConfigError, RunConfig, load_preset


TINY = {
    "name": "tiny",
    "problem": {
        "dim": 1,
        "initial": "sin_2pi_x",
        "speed": [1.0],
        "final_time": 0.25,
        "domain": [[0.0, 1.0]],
    },
    "degrees": [1],
    "elements": [8, 16],
    "cfl": {"1": 0.05},
    "filters": [{"name": "central_bspline", "basis": "box", "nodes": "standard"}],
}


class TestConfig:
    def test_roundtrip(self):
        cfg = RunConfig.from_dict(TINY)
        again = RunConfig.from_json(json.dumps(asdict(cfg)))
        assert again == cfg

    def test_preset_names(self):
        names = config.preset_names()
        assert names == ["table1_general", "table3_compact", "table4_boundary", "table5_2d"]

    @pytest.mark.parametrize("name", ["table1_general", "table3_compact", "table4_boundary", "table5_2d"])
    def test_presets_parse(self, name):
        cfg = load_preset(name)
        assert cfg.name == name
        assert cfg.reference and cfg.tolerances
        assert cfg.reference_value("dg", cfg.degrees[0], cfg.elements[0]) is not None

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            load_preset("table9")

    def test_bad_policy_named(self):
        d = dict(TINY, policy="reflecting")
        with pytest.raises(ConfigError, match="policy"):
            RunConfig.from_dict(d)

    def test_bad_epsilon_named(self):
        d = dict(TINY, filters=[{"name": "f", "nodes": "compact", "epsilon": "3/2"}])
        with pytest.raises(ConfigError, match=r"filters\[f\].epsilon"):
            RunConfig.from_dict(d)

    def test_epsilon_on_standard_variant_named(self):
        d = dict(TINY, filters=[{"name": "f", "nodes": "standard", "epsilon": "1/8"}])
        with pytest.raises(ConfigError, match=r"filters\[f\].epsilon: applies only to compact nodes"):
            RunConfig.from_dict(d)

    def test_bad_initial_named(self):
        d = dict(TINY, problem=dict(TINY["problem"], initial="gaussian"))
        cfg = RunConfig.from_dict(d)
        with pytest.raises(ConfigError, match="problem.initial"):
            cfg.problem.build()

    def test_elements_monotone(self):
        d = dict(TINY, elements=[16, 8])
        with pytest.raises(ConfigError, match="elements"):
            RunConfig.from_dict(d)

    def test_elements_at_least_one(self):
        d = dict(TINY, elements=[0, 8])
        with pytest.raises(ConfigError, match="elements"):
            RunConfig.from_dict(d)

    def test_degree_range(self):
        d = dict(TINY, degrees=[5])
        with pytest.raises(ConfigError, match="degrees"):
            RunConfig.from_dict(d)

    def test_epsilon_parsed_once_and_a_float_refused(self):
        # a float epsilon is refused, not taken as the binary fraction it rounds to
        assert config.FilterVariant("f", "box", "compact", "1/4").epsilon == Fraction(1, 4)
        with pytest.raises(ConfigError, match=r"filters\[f\]\.epsilon: expected a fraction string, got 0\.1"):
            config.FilterVariant("f", "box", "compact", 0.1)

    def test_invalid_json_position(self):
        with pytest.raises(ConfigError, match="line"):
            RunConfig.from_json("{broken")

    def test_dim_mismatch(self):
        d = dict(TINY, problem=dict(TINY["problem"], initial="sin_x_plus_y"))
        cfg = RunConfig.from_dict(d)
        with pytest.raises(ConfigError, match="dimensional"):
            cfg.problem.build()


def _epsilon_message(front_end, nodes, epsilon, tmp_path, capsys):
    """The error text that one front end gives for a node kind and an epsilon string."""
    if front_end == "make_nodes":
        with pytest.raises(ValueError) as exc:
            fc.make_nodes(2, nodes, epsilon=Fraction(epsilon))
        return str(exc.value)
    if front_end == "config":
        with pytest.raises(ConfigError) as exc:
            RunConfig.from_dict(dict(TINY, filters=[{"name": "f", "nodes": nodes, "epsilon": epsilon}]))
        return str(exc.value)
    if front_end == "build-filter":
        argv = ["build-filter", "--k", "2", "--nodes", nodes, "--epsilon", epsilon, "--out", str(tmp_path / "k.json")]
    else:
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"))))
        argv = ["convergence", "--config", str(cfg_path), "--nodes", nodes, "--epsilon", epsilon]
    assert cli.main(argv) == 2
    return capsys.readouterr().err.strip()


@pytest.mark.parametrize(("nodes", "epsilon", "reason"), [
    ("standard", "1/8", "applies only to compact nodes, got node kind 'standard'"),
    ("compact", "3/2", "must satisfy 0 < epsilon <= 1, got 3/2"),
], ids=["layout", "range"])
@pytest.mark.parametrize("front_end", ["make_nodes", "config", "build-filter", "convergence"])
def test_one_epsilon_reason_across_front_ends(front_end, nodes, epsilon, reason, tmp_path, capsys, monkeypatch):
    # each front end names epsilon its own way, then gives epsilon_fault's reason word for word
    def no_solve(*args, **kwargs):
        raise AssertionError("a DG solve ran before the configuration was checked")

    monkeypatch.setattr(dg, "solve", no_solve)
    assert fc.epsilon_fault(nodes, Fraction(epsilon)) == reason
    message = _epsilon_message(front_end, nodes, epsilon, tmp_path, capsys)
    assert message.endswith(f"epsilon {reason}" if front_end == "make_nodes" else f"epsilon: {reason}"), message
    assert not (tmp_path / "k.json").exists()


def test_benchmark_setup_import_chain():
    # the benchmark's set-ups import config and runner afresh without a bytecode cache, so every
    # module in this chain is compiled on each set-up; verify, tables and cli must stay out of it
    code = ("import sys, siac.harness.config, siac.harness.runner; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'siac')))")
    src = os.path.dirname(os.path.dirname(siac.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == [f"siac{m}" for m in (
        "", ".basisfn", ".dgsolver", ".filtercore", ".harness", ".harness.config", ".harness.runner",
        ".jsonvalues", ".postproc", ".quadrature")]


@pytest.fixture(scope="module")
def report():
    return runner.run_convergence(RunConfig.from_dict(TINY))


class TestReport:

    def test_orders(self, report):
        assert report.cell("dg", 1, 8, "order") is None
        order = report.cell("dg", 1, 16, "order")
        assert order == pytest.approx(2.0, abs=0.4)

    def test_csv_header_and_rows(self, report):
        text = tables.report_csv(report)
        lines = text.strip().split("\n")
        assert lines[0] == "degree,elements,dg_error,dg_order,central_bspline_error,central_bspline_order"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "8" and first[3] == ""

    def test_csv_floats_roundtrip(self, report):
        text = tables.report_csv(report)
        cell = text.strip().split("\n")[1].split(",")[2]
        assert float(cell) == report.cell("dg", 1, 8)

    def test_text_table_structure(self, report):
        txt = tables.report_text(report)
        assert "Degree" in txt and "Elements" in txt
        assert "k = 1" in txt
        assert "central bspline" in txt
        assert "Order" in txt

    def test_single_row_has_empty_order(self):
        cfg = RunConfig.from_dict(dict(TINY, elements=[8]))
        rep = runner.run_convergence(cfg)
        txt = tables.report_csv(rep)
        assert txt.strip().split("\n")[1].split(",")[3] == ""

    def test_determinism(self):
        cfg = RunConfig.from_dict(TINY)
        a = tables.report_csv(runner.run_convergence(cfg))
        b = tables.report_csv(runner.run_convergence(cfg))
        assert a == b

    def test_observed_order_general_ratio(self):
        assert runner.observed_order(1.0, 0.125, 10, 20) == pytest.approx(3.0)
        assert runner.observed_order(1.0, 1.0 / 81.0, 10, 30) == pytest.approx(4.0)

    def test_cells_added_out_of_order_render_the_same(self, report):
        shuffled = runner.ConvergenceReport(report.config)
        for key in reversed(list(report.errors)):
            shuffled.errors[key] = report.errors[key]
        assert tables.report_csv(shuffled) == tables.report_csv(report)
        assert tables.report_text(shuffled) == tables.report_text(report)

    def test_missing_error_voids_its_order_and_the_next_finer(self, report):
        holed = runner.ConvergenceReport(report.config)
        for n, e in ((8, 1e-2), (16, 2.5e-3), (32, 6.25e-4), (64, 1.5625e-4)):
            holed.errors[1, n] = {"dg": e, "central_bspline": None if n == 16 else e / 10}
        assert [holed.cell("central_bspline", 1, n, "order") for n in (8, 16, 32, 64)] == [None, None, None, 2.0]
        assert [holed.cell("dg", 1, n, "order") for n in (8, 16, 32, 64)] == [None, 2.0, 2.0, 2.0]

    def test_each_cell_samples_exact_once(self):
        # the DG error samples exact on the cell's Gauss grid; both filtered errors reuse it
        filters = TINY["filters"] + [{"name": "raised_cosine", "basis": "raised_cosine", "nodes": "standard"}]
        cfg = RunConfig.from_dict(dict(TINY, filters=filters))
        dg.grid_values.cache_clear()
        runner.run_convergence(cfg)
        info = dg.grid_values.cache_info()
        assert (info.misses, info.hits) == (2, 4)

    def test_warm_path_caches_hit_within_one_sweep(self):
        # each cache of the warm filter-and-error path pays for itself in one real sweep
        caches = (dg.element_rule, dg._weight_vector, postproc._mode_scale, postproc._wrap_index, runner.filter_config)
        for cache in caches:
            cache.cache_clear()
        runner.run_convergence(replace(load_preset("table1_general"), degrees=(1, 2), elements=(20, 40)))
        for cache in caches:
            assert cache.cache_info().hits >= 1, f"{cache.__qualname__}: {cache.cache_info()}"

    def test_chosen_cells_equal_the_default_sweep_restricted(self, report):
        sub = runner.run_convergence(report.config, cells=[(1, 16)])
        assert sub.errors == {(1, 16): report.errors[1, 16]}
        assert sub.cell("dg", 1, 16, "order") is None


class TestCLI:
    def test_build_filter_frozen_coefficients(self, tmp_path, capsys):
        out = tmp_path / "k1.json"
        rc = cli.main(["build-filter", "--k", "1", "--basis", "box", "--out", str(out)])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "-1/12 7/6 -1/12" in captured
        assert "support width: 4" in captured
        kern = fc.FilterKernel.load(out)
        assert np.allclose(kern.coefficients, [-1 / 12, 7 / 6, -1 / 12])

    def test_build_filter_compact_support_printed(self, tmp_path, capsys):
        out = tmp_path / "k3.json"
        rc = cli.main(
            ["build-filter", "--k", "3", "--nodes", "compact", "--epsilon", "1/6", "--out", str(out)]
        )
        assert rc == 0
        assert "support width: 5" in capsys.readouterr().out

    def test_build_filter_epsilon_zero_fails(self, capsys):
        rc = cli.main(["build-filter", "--k", "2", "--nodes", "compact", "--epsilon", "0"])
        assert rc == 2
        assert "0 < epsilon <= 1" in capsys.readouterr().err

    def test_build_filter_epsilon_needs_compact_nodes(self, tmp_path, capsys):
        out = tmp_path / "kernel.json"
        rc = cli.main(["build-filter", "--k", "2", "--epsilon", "1/4", "--out", str(out)])
        assert rc == 2
        assert "configuration error: --epsilon: applies only to compact nodes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("shift", ["abc", "1/0", "1e-3000000"])
    def test_build_filter_bad_shift_fails(self, shift, capsys):
        rc = cli.main(["build-filter", "--k", "1", "--shift", shift])
        assert rc == 2
        assert "--shift: not a rational number" in capsys.readouterr().err

    @pytest.mark.parametrize("basis", ["box", "raised-cosine"])
    def test_build_filter_coefficient_overflow_fails_cleanly(self, basis, tmp_path, capsys):
        # exact (box) and extended-precision (raised cosine) coefficients past binary64
        out = tmp_path / "kernel.json"
        rc = cli.main(["build-filter", "--k", "2", "--basis", basis, "--shift", "1e200", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: coefficients overflow binary64 (max |c| ~ 1e799)")
        assert not out.exists()

    @pytest.mark.parametrize("scaling", ["0", "-1", "nan", "0.5"])
    def test_build_filter_has_no_scaling_option(self, scaling, tmp_path, capsys):
        # a kernel is unscaled; each mesh axis applies it at H = h
        out = tmp_path / "kernel.json"
        with pytest.raises(SystemExit) as exc:
            cli.main(["build-filter", "--k", "1", f"--scaling={scaling}", "--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: --scaling={scaling}" in capsys.readouterr().err
        assert not out.exists()

    def test_build_filter_degree_zero_fails(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["build-filter", "--k", "0", "--out", str(tmp_path / "kernel.json")])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--k", "0"], "degrees: must lie in [1, 4]"),
            (["--nodes", "compact", "--epsilon", "2"], "0 < epsilon <= 1"),
            (["--nodes", "compact", "--epsilon", "1/0"], "not a rational number"),
            (["--epsilon", "1/8"], "epsilon: applies only to compact nodes"),
            (["--nodes", "standard", "--epsilon", "1/8"], "epsilon: applies only to compact nodes"),
        ],
    )
    def test_convergence_override_checked_before_solving(self, flags, message, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a DG solve ran before the configuration was checked")

        monkeypatch.setattr(dg, "solve", no_solve)
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"))))
        rc = cli.main(["convergence", "--config", str(cfg_path), *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and message in err

    @pytest.mark.parametrize(
        "field, changes",
        [
            ("degrees", {"degrees": ["a"]}),
            ("elements", {"elements": 20}),
            ("cfl.1", {"cfl": {"1": "x"}}),
            ("cfl", {"cfl": {"1": 0}}),
            ("problem.speed", {"problem": dict(TINY["problem"], speed="fast")}),
            ("problem.speed", {"problem": dict(TINY["problem"], speed=[1.0, 1.0])}),
            ("problem.speed", {"problem": dict(TINY["problem"], speed=[0.0])}),
            ("filters", {"filters": {"name": "f", "basis": "box"}}),
            ("filters[f].epsilon", {"filters": [{"name": "f", "nodes": "compact", "epsilon": [1, 2]}]}),
            ("filters[f].epsilon", {"filters": [{"name": "f", "nodes": "compact", "epsilon": True}]}),
            ("problem.final_time", {"problem": dict(TINY["problem"], final_time=-1)}),
            ("problem.domain", {"problem": dict(TINY["problem"], domain=[[1, 0]])}),
            ("reference.dg.1.8", {"reference": {"dg": {"1": {"8": "abc"}}}}),
            ("tolerances", {"tolerances": [1.5]}),
            ("tolerances.dg_error_factor", {"tolerances": {"dg_error_factor": "1.5"}}),
            ("tolerances.dg_error_factor", {"tolerances": {"dg_error_factor": float("inf")}}),
            # integers beyond the float range
            ("problem.speed", {"problem": dict(TINY["problem"], speed=[10**400])}),
            ("problem.final_time", {"problem": dict(TINY["problem"], final_time=10**400)}),
            ("problem.domain", {"problem": dict(TINY["problem"], domain=[[0, 10**400]])}),
            ("cfl.1", {"cfl": {"1": 10**400}}),
            ("tolerances.dg_error_factor", {"tolerances": {"dg_error_factor": 10**400}}),
            ("floor", {"floor": 10**400}),
            ("reference.dg.1.8", {"reference": {"dg": {"1": {"8": 10**400}}}}),
            ("elements", {"elements": [10, 10**400]}),
            ("elements", {"problem": dict(TINY["problem"], domain=[[0.0, 1e-300]]), "elements": [10**30]}),
            ("filters[f].epsilon", {"filters": [{"name": "f", "nodes": "compact", "epsilon": 0.1}]}),
            ("cfl.one", {"cfl": {"one": 0.001, "9": 0.5}}),
            ("cfl.9", {"cfl": {"9": 0.5}}),
            ("name", {"name": "nodir/x"}),
            ("name", {"name": "../x"}),
            ("name", {"name": ".."}),
            ("name", {"name": ""}),
        ],
        ids=["degrees", "elements", "cfl", "cfl-zero", "speed", "speed-count", "speed-zero", "filters",
             "epsilon-list", "epsilon-true", "final-time", "domain", "reference", "tolerances",
             "tolerance-string", "tolerance-infinite", "speed-huge", "final-time-huge", "domain-huge",
             "cfl-huge", "tolerance-huge", "floor-huge", "reference-huge",
             "elements-huge", "elements-zero-width", "epsilon-float", "cfl-key", "cfl-degree",
             "name-subdirectory", "name-parent-path", "name-dotdot", "name-empty"],
    )
    def test_malformed_config_names_its_field(self, field, changes, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a DG solve ran before the configuration was checked")

        monkeypatch.setattr(dg, "solve", no_solve)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"), **changes)))
        assert cli.main(["convergence", "--config", str(cfg_path)]) == 2
        assert f"configuration error: {field}: " in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize(
        "where, key, changes",
        [
            ("document", "elemnts", {"elemnts": [10, 20]}),
            ("document", "polcy", {"polcy": "position_dependent"}),
            ("document", "seed", {"seed": 20260808}),
            ("problem", "domian", {"problem": dict(TINY["problem"], domian=[[0.0, 2.0]])}),
            ("filters[f]", "bassis", {"filters": [{"name": "f", "bassis": "raised_cosine"}]}),
        ],
    )
    def test_unknown_key_is_refused(self, where, key, changes, tmp_path, capsys):
        cfg_path = tmp_path / "typo.json"
        cfg_path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"), **changes)))
        assert cli.main(["convergence", "--config", str(cfg_path)]) == 2
        assert f"configuration error: {where}: unknown key {key!r}" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("command", ["convergence", "pointwise"])
    def test_mesh_shorter_than_a_filter_refused_before_any_solve(self, command, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a DG solve ran before the meshes were checked")

        monkeypatch.setattr(dg, "solve", no_solve)
        cfg_path = tmp_path / "short.json"
        cfg_path.write_text(json.dumps(dict(TINY, degrees=[3], elements=[4, 8], output_dir=str(tmp_path / "out"))))
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert ("configuration error: elements: k=3, N=4: filter 'central_bspline' has a scaled support "
                "of length 2.5, longer than the domain length 1.0") in err
        assert not list(tmp_path.rglob("*.csv"))
        # the filter's own rule: a box k=1 kernel (support 4) fits N=4 on [0, 1] exactly, not N=3
        cfg = RunConfig.from_dict(TINY)
        runner.check_cells_fit(cfg, [(1, 4)])
        with pytest.raises(ConfigError, match="k=1, N=3"):
            runner.check_cells_fit(cfg, [(1, 3)])

    def test_mesh_check_builds_the_stencil_filtering_uses(self):
        # both take their reference points from dgsolver.element_rule
        cfg = RunConfig.from_dict(TINY)
        postproc.axis_stencil.cache_clear()
        runner.check_cells_fit(cfg, [(1, 8)])
        field = dg.project_function(lambda x: np.sin(2 * np.pi * x), cfg.problem.mesh(8), 1)
        postproc.filter_field(field, runner.filter_config(cfg.filters[0], 1))
        info = postproc.axis_stencil.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)

    def test_dg_blow_up_is_an_error_after_the_partial_csv(self, tmp_path, capsys):
        cfg_path = tmp_path / "blowup.json"
        problem = dict(TINY["problem"], final_time=1.0)
        doc = dict(TINY, problem=problem, degrees=[1, 2], elements=[10, 20], cfl={"2": 5.0})
        cfg_path.write_text(json.dumps(dict(doc, output_dir=str(tmp_path / "out"))))
        assert cli.main(["convergence", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert "error: coefficients grew by" in err and "reduce cfl" in err
        rows = (tmp_path / "out" / "tiny.partial.csv").read_text().strip().split("\n")
        assert [r.split(",")[:2] for r in rows[1:]] == [["1", "10"], ["1", "20"]]

    def test_malformed_field_document_is_a_configuration_error(self, tmp_path, capsys):
        doc = dg.DGField(dg.interval_mesh(0.0, 1.0, 8), 1, np.zeros((8, 2))).to_dict()
        field_path = tmp_path / "field.json"
        field_path.write_text(json.dumps(dict(doc, mesh=3)))
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"))))
        assert cli.main(["filter", "--config", str(cfg_path), "--field", str(field_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: --field: DG field document needs an object in 'mesh', got 3" in err

    @pytest.mark.parametrize("points", ["0", "-1"])
    def test_pointwise_points_checked_before_solving(self, points, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a DG solve ran before the configuration was checked")

        monkeypatch.setattr(dg, "solve", no_solve)
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"))))
        rc = cli.main(["pointwise", "--config", str(cfg_path), "--points", points])
        assert rc == 2
        assert f"configuration error: --points: must be at least 1, got {points}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["convergence", "run-dg", "pointwise"])
    @pytest.mark.parametrize(("key", "message"), [
        ("degrees", "degrees: needs at least one degree, got none"),
        ("elements", "elements: needs at least one element count, got none"),
    ], ids=["degrees", "elements"])
    def test_empty_sweep_refused_before_any_solve(self, command, key, message, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a DG solve ran before the configuration was checked")

        monkeypatch.setattr(dg, "solve", no_solve)
        cfg_path = tmp_path / "empty.json"
        cfg_path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"), **{key: []})))
        assert cli.main([command, "--config", str(cfg_path)]) == 2
        assert f"configuration error: {message}" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("command", ["filter", "pointwise"])
    def test_filtering_commands_refuse_a_config_without_filters(self, command, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a DG solve ran before the configuration was checked")

        monkeypatch.setattr(dg, "solve", no_solve)
        field_path = tmp_path / "field.json"
        dg.project_function(lambda x: np.sin(2 * np.pi * x), dg.interval_mesh(0.0, 1.0, 8), 1).save(field_path)
        cfg_path = tmp_path / "unfiltered.json"
        cfg_path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"), filters=[])))
        extra = ["--field", str(field_path)] if command == "filter" else []
        assert cli.main([command, "--config", str(cfg_path), *extra]) == 2
        assert (f"configuration error: filters: the {command} subcommand needs at least one filter variant, "
                "got none") in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.csv"))

    def test_pointwise_refuses_a_2d_config_before_any_solve(self, tmp_path, capsys, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("a DG solve ran before the configuration was checked")

        monkeypatch.setattr(dg, "solve", no_solve)
        assert cli.main(["pointwise", "--config", "table5_2d", "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "configuration error: problem.dim: pointwise output is one-dimensional, got dim 2" in err
        assert not list(tmp_path.rglob("*.csv"))

    def test_filter_refuses_to_wrap_an_open_field(self, tmp_path, capsys):
        field_path = tmp_path / "open.json"
        mesh = dg.Mesh(((0.0, 1.0),), (20,), (False,))
        dg.project_function(lambda x: np.asarray(x) ** 2, mesh, 2).save(field_path)
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"))))
        assert cli.main(["filter", "--config", str(cfg_path), "--field", str(field_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: --field: the periodic policy cannot wrap axis 0: the mesh declares it open" in err
        assert not list(tmp_path.rglob("*.csv"))
        rc = cli.main(["filter", "--config", str(cfg_path), "--field", str(field_path), "--policy", "boundary"])
        assert rc == 0 and (tmp_path / "out" / "filtered.csv").exists()

    @pytest.mark.parametrize("degree", [0, 5, 600])
    def test_filter_degree_zero_field_fails(self, degree, tmp_path, capsys):
        # the degrees of filtercore.DEGREES, [1, 4], as for kernel documents, run configs and build-filter --k
        field_path = tmp_path / "field.json"
        field = dg.DGField(dg.interval_mesh(0.0, 1.0, 8), degree, np.zeros((8, degree + 1)), 0.25)
        field.save(field_path)
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"))))
        rc = cli.main(["filter", "--config", str(cfg_path), "--field", str(field_path)])
        assert rc == 2
        assert (f"configuration error: --field: filtering needs a field of degree in [1, 4], got {degree}"
                in capsys.readouterr().err)
        assert not list(tmp_path.rglob("*.csv"))

    def test_zero_elements_override_fails(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"))))
        rc = cli.main(["convergence", "--config", str(cfg_path), "--N", "0"])
        assert rc == 2
        assert "elements" in capsys.readouterr().err

    def test_convergence_writes_outputs(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"))))
        rc = cli.main(["convergence", "--config", str(cfg_path)])
        assert rc == 0
        assert (tmp_path / "out" / "tiny.csv").exists()
        assert (tmp_path / "out" / "tiny.txt").exists()
        assert "k = 1" in capsys.readouterr().out

    def test_convergence_table1_subset_prints_title_comparison_and_basis_override(self, tmp_path, capsys):
        # k=3 N=160 of table1_general: the filters' references lie below the floor, DG's does not
        def run(*flags):
            assert cli.main(["convergence", "--config", "table1_general", "--k", "3", "--N", "160", *flags]) == 0
            return capsys.readouterr().out.splitlines()

        lines = run("--out", str(tmp_path / "preset"))
        assert lines[0] == "Symmetric filtering of 1D advection: central B-spline vs raised cosine"
        assert any(re.fullmatch(r"dg +3 +160 +5\.\d{3}e-10 +5\.040e-10 +1\.0\d\d", line) for line in lines)
        assert any(re.fullmatch(r"central_bspline +3 +160 +\S+e-15 +4\.670e-15 +floor", line) for line in lines)

        out = tmp_path / "override"
        lines = run("--basis", "raised-cosine", "--out", str(out))
        assert lines[0] == "Symmetric filtering of 1D advection: central B-spline vs raised cosine"
        assert lines[1].split() == ["Degree", "Elements", "DG", "Order", "raised", "cosine", "standard", "Order"]
        assert (out / "table1_general.csv").read_text().splitlines()[0] == (
            "degree,elements,dg_error,dg_order,raised_cosine_standard_error,raised_cosine_standard_order")

    def test_convergence_determinism_byte_identical(self, tmp_path):
        cfg_path = tmp_path / "tiny.json"
        for sub in ("a", "b"):
            cfg_path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / sub))))
            assert cli.main(["convergence", "--config", str(cfg_path)]) == 0
        a = (tmp_path / "a" / "tiny.csv").read_bytes()
        b = (tmp_path / "b" / "tiny.csv").read_bytes()
        assert a == b

    def test_run_dg_then_filter(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(json.dumps(dict(TINY, output_dir=str(tmp_path / "out"))))
        field_path = tmp_path / "field.json"
        rc = cli.main(["run-dg", "--config", str(cfg_path), "--N", "16", "--field-out", str(field_path)])
        assert rc == 0
        assert field_path.exists()
        rc = cli.main(
            ["filter", "--config", str(cfg_path), "--field", str(field_path), "--csv-name", "f.csv"]
        )
        assert rc == 0
        csv = (tmp_path / "out" / "f.csv").read_text().strip().split("\n")
        assert csv[0] == "x,u_exact,u_h,u_star,abs_err_h,abs_err_star,policy"
        assert csv[1].endswith("symmetric")
        # element-major: 16 elements x (k+3)=4 points
        assert len(csv) == 1 + 16 * 4

    def test_pointwise_outputs_and_markers(self, tmp_path, capsys):
        cfg_path = tmp_path / "tiny.json"
        cfg_path.write_text(
            json.dumps(
                dict(TINY, policy="position_dependent", output_dir=str(tmp_path / "out"))
            )
        )
        rc = cli.main(["pointwise", "--config", str(cfg_path), "--N", "16", "--points", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "position-dependent zone" in out
        files = os.listdir(tmp_path / "out")
        assert any(f.endswith(".csv") for f in files)
        assert any(f.endswith(".plt") for f in files)
        plt = next(f for f in files if f.endswith(".plt"))
        script = (tmp_path / "out" / plt).read_text()
        assert "plot" in script and "arrow" in script

    def test_pointwise_plot_columns_name_error_columns(self):
        names = ["raised_cosine", "central_bspline"]
        x = np.linspace(0.0, 1.0, 3)
        data = {
            "x": x, "u_exact": x, "u_h": x, "dg_error": x,
            "filtered": {n: x for n in names},
            "filtered_error": {n: x for n in names},
            "shifts": {n: x for n in names},
        }
        header = tables.pointwise_csv(data).split("\n")[0].split(",")
        script = tables.pointwise_plot_script("p.csv", data)
        plotted = [tuple(int(c) for c in u.split()[0].split(":")) for u in script.split("using")[1:]]
        # gnuplot numbers columns from 1
        assert [(header[a - 1], header[b - 1]) for a, b in plotted] == [
            ("x", "abs_err_h"), ("x", "abs_err_star_central_bspline"), ("x", "abs_err_star_raised_cosine")
        ]

    def test_pointwise_exact_column_at_t0(self, tmp_path):
        tiny0 = dict(TINY, problem=dict(TINY["problem"], final_time=0.0), output_dir=str(tmp_path))
        cfg = RunConfig.from_dict(tiny0)
        data = runner.pointwise_data(cfg, 1, 8, pts_per_element=4)
        u0 = np.sin(2 * np.pi * data["x"])
        assert np.array_equal(data["u_exact"], u0)

    def test_pointwise_error_scales(self, tmp_path):
        # dense-grid max errors: DG around 1e-4, filtered around 1e-7 for k=2, N=40
        cfg = RunConfig.from_dict(
            dict(
                TINY,
                degrees=[2],
                elements=[40],
                cfl={"2": 0.05},
                problem=dict(TINY["problem"], final_time=1.0),
            )
        )
        data = runner.pointwise_data(cfg, 2, 40)
        assert 1e-5 < float(np.max(data["dg_error"])) < 1e-3
        assert 1e-8 < float(np.max(data["filtered_error"]["central_bspline"])) < 1e-6

    def test_integer_beyond_the_digit_limit_is_a_configuration_error(self, tmp_path, capsys):
        # json.loads itself refuses it (Python's 4300-digit limit of int(str))
        cfg_path = tmp_path / "long.json"
        text = json.dumps(dict(TINY, output_dir=str(tmp_path / "out")))
        cfg_path.write_text(text[:-1] + ', "floor": 1' + "0" * 5000 + "}")
        assert cli.main(["convergence", "--config", str(cfg_path)]) == 2
        assert "configuration error: invalid JSON: " in capsys.readouterr().err
        with pytest.raises(ConfigError, match="invalid JSON: .*digits"):
            RunConfig.from_json(cfg_path.read_text())

    def test_unknown_config_is_error(self, capsys):
        rc = cli.main(["convergence", "--config", "not_a_preset"])
        assert rc == 2
        assert "unknown preset" in capsys.readouterr().err


class TestVerifyPlumbing:
    def test_corrupted_kernel_named_in_failure(self):
        kern = fc.build_filter(fc.FilterConfig(k=1, basis="box"))
        bad = fc.FilterKernel(
            basis=kern.basis,
            basis_kind=kern.basis_kind,
            nodes=kern.nodes,
            coefficients=kern.coefficients + np.array([0.0, 0.01, 0.0]),
            coefficients_exact=None,
        )
        results = verify.reproduction_checks({"good/k=1": kern, "bad/k=1": bad}, np.linspace(-2, 2, 9))
        assert [r.name for r in results] == [
            "criterion-7/reproduction good/k=1", "criterion-7/reproduction bad/k=1",
            "criterion-7/unit-integral good/k=1", "criterion-7/unit-integral bad/k=1",
        ]
        assert [r.passed for r in results] == [True, False, True, False]
        # without solve-precision coefficients the unit integral reads the stored pass
        assert "solve-precision coefficients absent" in results[1].detail

    def test_smoothness_check_runs(self):
        ctx = verify.VerifyContext()
        results = verify.check_smoothness(ctx)
        assert len(results) == 1 and results[0].passed

    def test_property2_residual_small(self):
        assert verify.property2_residual() < 1e-10

    def test_verify_check_names_unique(self, verify_run):
        # the verify JSON is compared by check name, so no name may repeat
        code, summary = verify_run
        assert code == 0
        names = [c["name"] for c in summary["checks"]]
        assert len(names) == len(set(names))


# ---------------------------------------------------------------------------
# verify failure paths: hand-filled sweeps with holes a passing run never has


# the (degree: element counts) of each preset sweep the table criteria read
SYNTHETIC_SWEEPS = {
    "table1_general": {k: (20, 40, 80) for k in (1, 2, 3)},
    "table3_compact": {k: (20, 40, 80) for k in (1, 2, 3)},
    "table4_boundary": {k: (20, 40, 80) for k in (2, 3)},
    "table5_2d": {1: (10, 20, 40), 2: (10, 20, 40), 3: (10, 20)},
}


def _synthetic_error(column, k, n, n0):
    """2^-(8 + p j) on the j-th doubling of n0: order k+1 for DG, 2k+1 filtered."""
    p = k + 1 if column == "dg" else 2 * k + 1
    return 2.0 ** -(8 + p * ((n // n0).bit_length() - 1))


def _synthetic_context(holes=(), refs=()):
    """A context whose presets reference exactly the values its reports hold.

    holes: (preset, column, k, n) errors measured as missing; refs:
    (preset, column, k, n, value) reference overrides.
    """
    ctx = verify.VerifyContext()
    for name, rows in SYNTHETIC_SWEEPS.items():
        base = load_preset(name)
        columns = ["dg"] + [f.name for f in base.filters]
        n0 = min(min(ns) for ns in rows.values())
        reference = {
            col: {str(k): {str(n): _synthetic_error(col, k, n, n0) for n in ns} for k, ns in rows.items()}
            for col in columns
        }
        for pname, col, k, n, value in refs:
            if pname == name:
                reference[col][str(k)][str(n)] = value
        cfg = replace(base, reference=reference)
        report = runner.ConvergenceReport(cfg)
        for k, ns in rows.items():
            for n in ns:
                report.errors[k, n] = {
                    col: None if (name, col, k, n) in holes else _synthetic_error(col, k, n, n0)
                    for col in columns
                }
        ctx._presets[name] = cfg
        ctx._reports[name] = report
    return ctx


def _triples(results):
    return [(r.name, r.passed, r.detail) for r in results]


def _error_entry(name, value, factor):
    return (name, True, f"measured {value:.3e}, reference {value:.3e}, ratio 1.000 (allowed x{factor})")


class TestVerifyFailurePaths:
    HOLES = dict(
        holes=[("table5_2d", "standard", 2, 20), ("table4_boundary", "compact", 3, 40)],
        refs=[
            ("table1_general", "central_bspline", 2, 80, 1e-16),
            ("table1_general", "dg", 1, 80, 1e-16),
        ],
    )

    @pytest.fixture(scope="class")
    def ctx(self):
        return _synthetic_context(**self.HOLES)

    def test_criterion_1_skips_reference_below_floor(self, ctx):
        # one floor rule for every cell: the k=1 N=80 reference of 1e-16 is not compared
        want = []
        for k in (1, 2, 3):
            for n in (20, 40, 80):
                if (k, n) == (1, 80):
                    continue
                want.append(_error_entry(f"criterion-1/dg-error k={k} N={n}", _synthetic_error("dg", k, n, 20), 1.5))
                if n > 20:
                    detail = f"order {k + 1:.2f}, target {k + 1} +- 0.25"
                    want.append((f"criterion-1/dg-order k={k} N={n}", True, detail))
        assert _triples(verify.CRITERIA[1][1](ctx)) == want

    def test_criterion_2_skips_reference_below_floor(self, ctx):
        want = []
        for k, ns in {1: (20, 40, 80), 2: (20, 40), 3: (20, 40)}.items():
            floor = 2 * k + 1 - (0.4 if k == 3 else 0.3)
            for n in ns:
                v = _synthetic_error("central_bspline", k, n, 20)
                want.append(_error_entry(f"criterion-2/central_bspline-error k={k} N={n}", v, 2.0))
                if n > 20:
                    want.append((
                        f"criterion-2/central_bspline-order k={k} N={n}", True,
                        f"order {2 * k + 1:.2f}, floor {floor:.2f}",
                    ))
        assert _triples(verify.CRITERIA[2][1](ctx)) == want

    def test_criterion_5_fails_missing_order(self, ctx):
        want = []
        for k in (2, 3):
            for n in (20, 40, 80):
                v = _synthetic_error("compact", k, n, 20)
                hole = (k, n) == (3, 40)
                detail = "missing value" if hole else f"compact {v:.3e} vs standard {v:.3e}"
                want.append((f"criterion-5/compact-beats-standard k={k} N={n}", not hole, detail))
                want.append(_error_entry(f"criterion-5/standard-error k={k} N={n}", v, 3.0))
                if hole:
                    want.append(("criterion-5/compact-error k=3 N=40", False, "missing value"))
                else:
                    want.append(_error_entry(f"criterion-5/compact-error k={k} N={n}", v, 3.0))
                if k == 3 and n >= 40:
                    # the hole at N=40 takes its own order and the one at N=80 with it
                    want.append((f"criterion-5/compact-order k=3 N={n}", False, "missing order"))
                elif n >= 40:
                    want.append((
                        f"criterion-5/compact-order k={k} N={n}", True,
                        f"order {2 * k + 1:.2f}, floor {2 * k + 0.7:.2f}",
                    ))
        assert _triples(verify.CRITERIA[5][1](ctx)) == want

    def test_criterion_6_fails_missing_value(self, ctx):
        want = []
        for col in ("standard", "compact"):
            for k, ns in SYNTHETIC_SWEEPS["table5_2d"].items():
                for n in ns:
                    v = _synthetic_error(col, k, n, 10)
                    hole = (col, k) == ("standard", 2)
                    if hole and n == 20:
                        want.append(("criterion-6/standard-error k=2 N=20x20", False, "missing value"))
                        continue
                    want.append(_error_entry(f"criterion-6/{col}-error k={k} N={n}x{n}", v, 2.0))
                    # an order needs this cell and the one before it
                    if n > 10 and not (hole and n == 40):
                        want.append((
                            f"criterion-6/{col}-order k={k} N={n}x{n}", True,
                            f"order {2 * k + 1:.2f}, floor {2 * k + 1 - 0.35:.2f}",
                        ))
        assert _triples(verify.CRITERIA[6][1](ctx)) == want

    @pytest.mark.parametrize(
        "criterion, hole, name",
        [
            (3, ("table1_general", "raised_cosine", 3, 20), "criterion-3/rc-vs-bspline k=3 N=20"),
            (4, ("table3_compact", "compact", 3, 40), "criterion-4/compact-vs-standard k=3 N=40"),
            (5, ("table4_boundary", "compact", 2, 20), "criterion-5/compact-beats-standard k=2 N=20"),
        ],
    )
    def test_pairwise_comparison_fails_missing_value(self, criterion, hole, name):
        ctx = _synthetic_context(holes=[hole])
        by_name = {r.name: r for r in verify.CRITERIA[criterion][1](ctx)}
        assert (by_name[name].passed, by_name[name].detail) == (False, "missing value")
