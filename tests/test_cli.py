import io
import json
import math
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stagedtree import ParameterVector, StagedTree, product_tree
from stagedtree import cli
from stagedtree.cli import run
from stagedtree.random_trees import random_staged_tree
from conftest import data_path, load_json, src_env


def edited_fig1a(change):
    """The fig1a tree description after ``change`` edited it in place."""
    spec = load_json("fig1a.json")
    change(spec)
    return spec


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestInspect:
    def test_fig1a_summary(self, capsys):
        code, out = invoke(capsys, "inspect", str(data_path("fig1a.json")))
        assert code == 0
        assert out["k"] == 7 and out["n"] == 8
        assert out["d0"] == 7 and out["d"] == 6
        assert out["stages"]["v2"] == "cyan"


class TestExpfam:
    def test_uniform_example1(self, capsys):
        code, out = invoke(
            capsys, "expfam", str(data_path("example1.json")), "--theta", "uniform"
        )
        assert code == 0
        assert all(v == 0 for v in out["eta"].values())
        assert out["psi"] == pytest.approx(math.log(8), abs=1e-10)
        assert len(out["layout"]) == 7

    def test_symbolic_formulas(self, capsys):
        code, out = invoke(
            capsys, "expfam", str(data_path("example1.json")), "--symbolic"
        )
        assert code == 0
        f = out["formulas"]
        assert f["eta[1,1]"] == "log(t1*(1-t2)*(1-t5)/((1-t1)*(1-t3)*(1-t7)))"
        assert f["eta[4,1]"] == "log(t4/((1-t4)))"
        assert f["psi"] == "-log((1-t1)*(1-t3)*(1-t7))"


class TestCheck:
    def test_fig1a(self, capsys):
        code, out = invoke(capsys, "check", str(data_path("fig1a.json")))
        assert code == 0
        assert out["regular"] is False
        assert out["balanced"] is False
        assert out["simple"] is False
        assert out["witness"] == ["v2", "v3", 1]

    def test_fig1b(self, capsys):
        code, out = invoke(capsys, "check", str(data_path("fig1b.json")))
        assert out["regular"] and out["balanced"] and out["simple"]
        assert out["witness"] is None
        assert out["d0"] == 7 and out["d"] == 4

    def test_pretty_equations(self, capsys):
        code, out = invoke(
            capsys, "check", str(data_path("fig1a.json")), "--equations", "pretty"
        )
        assert any("eta2" in eq and "xi4" in eq for eq in out["equations"])


class TestFromBN:
    def test_collider_unfolds(self, capsys):
        code, out = invoke(capsys, "from-bn", str(data_path("collider_bn.json")))
        assert code == 0
        assert len(out["vertices"]) == 7
        stages = out["stages"]
        assert stages["v_0"] == stages["v_1"]

    def test_oversized_unfolding_exits_2(self, capsys, tmp_path):
        names = [f"X{i}" for i in range(40)]
        bn = tmp_path / "bn40.json"
        bn.write_text(json.dumps({
            "variables": [{"name": v, "card": 2} for v in names],
            "edges": [list(pair) for pair in zip(names, names[1:])],
        }))
        code, out = invoke(capsys, "from-bn", str(bn))
        assert code == 2
        assert out["error"] == {
            "type": "StagedTreeError",
            "message": "unfolding has 1099511627775 inner vertices, over 262144",
        }

    def test_bn_without_variables_exits_2(self, capsys, tmp_path):
        # its unfolding would be a single vertex, which is no staged tree
        bn = tmp_path / "empty.json"
        bn.write_text(json.dumps({"variables": []}))
        code, out = invoke(capsys, "from-bn", str(bn))
        assert code == 2
        assert out["error"] == {
            "type": "StagedTreeError",
            "message": "expected a vertex with children, found none",
        }

    def test_names_with_stage_id_separators_exit_2(self, capsys, tmp_path):
        # 'A' given B=0, C|D=0 and 'A|B=0,C' given D=0 both had stage 'A|B=0,C|D=0'
        bn = tmp_path / "colliding.json"
        names = ("B", "C|D", "A", "D", "A|B=0,C")
        bn.write_text(json.dumps({
            "variables": [{"name": v, "card": 2} for v in names],
            "edges": [["B", "A"], ["C|D", "A"], ["D", "A|B=0,C"]],
        }))
        code, out = invoke(capsys, "from-bn", str(bn))
        assert code == 2
        assert out["error"] == {
            "type": "StagedTreeError",
            "message": "variable name 'C|D' holds a stage-id separator (| = ,)",
        }

    def test_empty_order_is_refused(self, capsys):
        # "" is the order of one variable named "", not a request for the default
        code, out = invoke(capsys, "from-bn", str(data_path("chain_bn.json")), "--order", "")
        assert code == 2
        assert out["error"]["type"] == "OrderInconsistentWithDAG"

    def test_pipeline_from_bn_check(self):
        # from-bn collider.json | check -
        script = (
            f"{sys.executable} -m stagedtree.cli from-bn "
            f"{data_path('collider_bn.json')} | "
            f"{sys.executable} -m stagedtree.cli check -"
        )
        proc = subprocess.run(
            script, shell=True, env=src_env(), capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        out = json.loads(proc.stdout)
        assert out["regular"] is False


class TestFitSelect:
    def test_fit_atom_counts(self, capsys):
        code, out = invoke(
            capsys,
            "fit",
            "--tree", str(data_path("fig1a.json")),
            "--data", str(data_path("atom_counts.csv")),
        )
        assert code == 0
        assert out["n_obs"] == 30
        assert out["bic"] == pytest.approx(
            out["d"] * math.log(out["n_obs"]) - 2 * out["log_likelihood"], abs=1e-9
        )

    def test_select_runs(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.5}))
        code, out = invoke(
            capsys,
            "select",
            "--tree-graph", str(data_path("example1.json")),
            "--data", str(data_path("atom_counts.csv")),
            "--config", str(config),
        )
        assert code == 0
        assert "stages" in out and "trace" in out

    @pytest.mark.parametrize("command, tree_flag", [("fit", "--tree"), ("select", "--tree-graph")])
    def test_data_dash_reads_stdin(self, command, tree_flag):
        # stagedtree <command> <tree_flag> fig1a.json --data - < xyz_rows.csv
        rows = data_path("xyz_rows.csv")

        def stdout(data, stdin=None):
            argv = [command, tree_flag, str(data_path("fig1a.json")), "--data", data]
            proc = subprocess.run(
                [sys.executable, "-m", "stagedtree.cli", *argv],
                stdin=stdin, env=src_env(), capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stdout + proc.stderr
            return proc.stdout

        with rows.open() as fh:
            assert stdout("-", fh) == stdout(str(rows))

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_counts_csv_with_a_bom_is_read_as_counts(self, tmp_path, source):
        # a "CSV UTF-8" export begins with U+FEFF; the counts header is still recognised
        tree = tmp_path / "tree.json"
        inner = [{"id": v, "children": [v + i for i in "012"]} for v in "abc"]
        tree.write_text(json.dumps({"vertices": [{"id": "r", "children": ["a", "b", "c"]}] + inner}))

        def fit(text):
            data = tmp_path / "counts.csv"
            data.write_bytes(text.encode("utf-8"))
            argv = [sys.executable, "-m", "stagedtree.cli", "fit", "--tree", str(tree),
                    "--alpha", "0.5", "--data", "-" if source == "stdin" else str(data)]
            with data.open("rb") as fh:
                proc = subprocess.run(argv, stdin=fh, env=src_env(), capture_output=True)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            return proc.stdout

        plain = "atom_id,count\n1,2\n2,1\n"
        out = fit("\ufeff" + plain)
        assert out == fit(plain) and json.loads(out)["n_obs"] == 3

    @pytest.mark.parametrize("command, tree_flag", [("fit", "--tree"), ("select", "--tree-graph")])
    @pytest.mark.parametrize("power", [307, 308])
    def test_counts_beyond_a_double_exit_2(self, capsys, tmp_path, command, tree_flag, power):
        # these overflowed a sum of floats (307) or their conversion to float (308)
        counts = [(i % 3 + 1) * 10**power for i in range(1, 9)]
        data = tmp_path / "counts.csv"
        rows = "".join(f"{i},{c}\n" for i, c in enumerate(counts, start=1))
        data.write_text("atom_id,count\n" + rows)
        tree = str(data_path("example1.json"))
        code, out = invoke(capsys, command, tree_flag, tree, "--data", str(data))
        assert code == 2
        assert out["error"] == {
            "type": "StagedTreeError",
            "message": f"atom counts total {sum(counts)}, over 2**53",
        }

    @pytest.mark.parametrize("command, tree_flag", [("fit", "--tree"), ("select", "--tree-graph")])
    def test_a_cell_past_the_header_exits_2(self, capsys, tmp_path, command, tree_flag):
        # xyz_rows.csv with a cell past its three columns on the first row; the
        # cell was dropped, and the output was that of the unchanged file
        header, first, *rest = data_path("xyz_rows.csv").read_text().splitlines()
        data, tree = tmp_path / "rows.csv", str(data_path("fig1a.json"))

        def fit(first_row):
            data.write_text("\n".join([header, first_row, *rest]) + "\n")
            return invoke(capsys, command, tree_flag, tree, "--data", str(data))

        assert fit(first + ",1") == (2, {"error": {
            "type": "RowDoesNotReachLeaf",
            "message": "row ['0', '0', '0', '1'] has a cell past column 3",
        }})
        assert fit(first + ", ,") == fit(first)


class TestContract:
    def test_byte_stable_output(self, capsys):
        run(["check", str(data_path("fig1b.json"))])
        first = capsys.readouterr().out
        run(["check", str(data_path("fig1b.json"))])
        second = capsys.readouterr().out
        assert first == second

    def test_cli_import_loads_neither_numpy_nor_networkx(self):
        # a structural guard on start-up work, not a timing gate
        code = "import sys, stagedtree.cli; print({'numpy', 'networkx'} & set(sys.modules))"
        proc = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "set()\n"
        # each subcommand loads exactly the package modules it runs; typing is
        # not asserted on, because site loads it
        report = (
            "import json, sys\n"
            "from stagedtree import cli\n"
            "code = cli.run(sys.argv[1:])\n"
            "names = {'numpy', 'networkx', 'dataclasses', 'inspect'} & set(sys.modules)\n"
            "mine = [m for m in sys.modules if m.split('.')[0] == 'stagedtree']\n"
            "sys.stderr.write(json.dumps([code, sorted(mine), sorted(names)]))\n"
        )
        fig1a, example1 = str(data_path("fig1a.json")), str(data_path("example1.json"))
        commands = {
            ("--version",): [],
            ("inspect", fig1a): ["tree"],
            ("expfam", fig1a, "--symbolic"): ["expfam", "tree"],
            ("check", fig1a): ["algebra", "tree"],
            ("check", fig1a, "--equations", "pretty"): ["algebra", "tree"],
            ("check", fig1a, "--equations", "json"): ["algebra", "tree"],
            ("from-bn", str(data_path("chain_bn.json"))): ["bayesnet", "tree"],
            ("fit", "--tree", fig1a, "--data", str(data_path("xyz_rows.csv"))): ["fit", "tree"],
            ("select", "--tree-graph", example1, "--data", str(data_path("atom_counts.csv"))): [
                "fit", "tree"
            ],
        }
        for argv, modules in commands.items():
            proc = subprocess.run(
                [sys.executable, "-c", report, *argv],
                env=src_env(), capture_output=True, text=True,
            )
            assert proc.returncode == 0, proc.stderr
            code, loaded, others = json.loads(proc.stderr)
            expected = {"stagedtree", "stagedtree.cli", "stagedtree.errors"}
            assert code == 0 and others == [], (argv, proc.stderr)
            assert set(loaded) == expected | {f"stagedtree.{m}" for m in modules}, argv

    def test_missing_file_exits_2(self, capsys):
        code, out = invoke(capsys, "check", "no-such-file.json")
        assert code == 2
        assert "error" in out

    def test_invalid_tree_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"vertices": [{"id": "r", "children": ["a"]}]}))
        code, out = invoke(capsys, "check", str(bad))
        assert code == 2
        assert out["error"]["type"] == "VertexWithOneChild"

    def test_unknown_flag_rejected(self, capsys):
        code = run(["check", str(data_path("fig1a.json")), "--bogus"])
        assert code == 2

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = run(["inspect", str(data_path("fig1a.json")), "--output", str(target)])
        capsys.readouterr()
        assert code == 0
        assert json.loads(target.read_text())["k"] == 7


class TestStreamedOutput:
    """The object is written in joined batches, and inspect's atoms come from one walk."""

    # ids with a quote, a backslash, control characters, non-ASCII and a
    # character beyond the BMP, which JSON writes as a surrogate pair
    ODD_IDS = {
        'r"\\': ["a\x00\n", "\u00e9\u20ac", "\U0001f600"],
        "a\x00\n": ["\u2028", "x\x7f\t"],
        "\U0001f600": ["\\n", "\"\""],
    }

    @staticmethod
    def trees():
        fixtures = ["example1", "fig1a", "fig1b", "ternary_downward"]
        yield from (StagedTree.from_json(data_path(f"{t}.json").read_text()) for t in fixtures)
        rng = np.random.default_rng(20261020)
        yield from (random_staged_tree(rng, max_depth=4, max_children=3, leaf_prob=0.3)
                    for _ in range(150))
        yield product_tree([2] * 10)
        yield StagedTree(TestStreamedOutput.ODD_IDS)

    @pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
    def test_atoms_text_is_the_dump_of_the_atom_steps(self, pretty):
        count = 0
        for tree in self.trees():
            expected = json.dumps([x.steps for x in tree.atoms], indent=2 if pretty else None)
            assert "".join(cli._json_items(cli._atom_texts(tree, pretty), "[]", pretty)) == expected
            count += 1
        assert count == 4 + 150 + 2

    @pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
    def test_inspect_of_odd_ids_is_the_whole_document_dump(self, capsys, tmp_path, pretty):
        odd = list(self.ODD_IDS)
        tree = StagedTree(self.ODD_IDS, stages={odd[1]: 's\u00e9"\\', odd[2]: 's\u00e9"\\'},
                          downward={odd[1]: 1})
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(tree.to_spec()))
        assert run(["inspect", str(path)] + ["--pretty"] * pretty) == 0
        expected = {
            "k": 3, "n": 5, "d0": 4, "d": 3, "root": odd[0], "inner": odd,
            "stages": {odd[0]: odd[0], odd[1]: 's\u00e9"\\', odd[2]: 's\u00e9"\\'},
            "downward": {'s\u00e9"\\': 1, odd[0]: 3},
            "atoms": [x.steps for x in tree.atoms],
        }
        indent = 2 if pretty else None
        assert capsys.readouterr().out == json.dumps(expected, indent=indent) + "\n"

    def test_inspect_builds_no_atoms(self, capsys, monkeypatch):
        load_tree, loaded = cli._load_tree, []

        def load(path):
            loaded.append(load_tree(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "_load_tree", load)
        assert run(["inspect", str(data_path("fig1b.json"))]) == 0
        capsys.readouterr()
        assert len(loaded) == 1 and "atoms" not in loaded[0].__dict__

    # the views keyed by vertex id that the array layout builds on first use
    VERTEX_VIEWS = {"children", "stage_of", "index", "inner", "leaves", "depth",
                    "stage_members", "leaf_position", "atoms"}

    def test_commands_read_the_arrays_only(self, capsys, monkeypatch):
        # a structural guard on the command paths, not a timing gate
        load_tree, loaded = cli._load_tree, []

        def load(path):
            loaded.append(load_tree(path))
            return loaded[-1]

        monkeypatch.setattr(cli, "_load_tree", load)
        tree, theta = str(data_path("fig1b.json")), str(data_path("fig1a_theta.json"))
        # fig1a shares a stage and is not regular; fig1b is confirmed balanced on
        # the exact tables; the search on example1 merges three stages
        fig1a, example1 = str(data_path("fig1a.json")), str(data_path("example1.json"))
        commands = [["inspect", tree], ["expfam", tree, "--symbolic"],
                    ["expfam", fig1a, "--theta", theta, "--symbolic"],
                    ["fit", "--tree", tree, "--data", str(data_path("xyz_rows.csv"))],
                    ["check", fig1a], ["check", fig1a, "--equations", "json"],
                    ["check", tree], ["check", tree, "--equations", "json"],
                    ["select", "--tree-graph", example1,
                     "--data", str(data_path("atom_counts.csv"))]]
        for argv in commands:
            assert run(argv) == 0, argv
        out = capsys.readouterr().out
        assert '"kept": "v4", "absorbed": "v5"' in out
        assert len(loaded) == len(commands)
        for tree in loaded:
            assert not self.VERTEX_VIEWS & tree.__dict__.keys()
        # the pretty equations name each parameter by its vertex's index, so
        # they build the index view, and no other
        loaded.clear()
        assert run(["check", fig1a, "--equations", "pretty"]) == 0
        capsys.readouterr()
        assert self.VERTEX_VIEWS & loaded[0].__dict__.keys() == {"index"}

    @pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
    def test_expfam_streams_what_natural_parameters_and_render_formulas_give(self, tmp_path,
                                                                            pretty):
        from stagedtree.expfam import natural_parameters, render_formulas
        path = tmp_path / "tree.json"
        count = 0
        for tree in self.trees():
            path.write_text(json.dumps(tree.to_spec()))
            args = cli.build_parser().parse_args(["expfam", str(path), "--symbolic"]
                                                 + ["--pretty"] * pretty)
            payload = cli.cmd_expfam(args)
            assert all(hasattr(payload[key], "__next__") for key in ("layout", "eta", "formulas"))
            text = io.StringIO()
            cli._write_object(payload, text.write, pretty)
            form = natural_parameters(tree, ParameterVector.uniform(tree))
            expected = {
                "layout": form.layout,
                "eta": {f"{v},{j}": cli._round(x) for (v, j), x in form.eta.items()},
                "psi": cli._round(form.psi),
                "formulas": render_formulas(tree),
            }
            assert text.getvalue() == json.dumps(expected, indent=2 if pretty else None) + "\n"
            count += 1
        assert count == 4 + 150 + 2

    def test_emission_peak_is_below_half_the_output(self, tmp_path, monkeypatch):
        # a structural guard on the writer's memory, not a timing gate
        tree, target = tmp_path / "tree.json", tmp_path / "out.json"
        tree.write_text(json.dumps(product_tree([2] * 12).to_spec()))
        emit, peaks = cli._emit, []

        def traced(*args):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            emit(*args)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)

        monkeypatch.setattr(cli, "_emit", traced)
        tracemalloc.start()
        try:
            code = run(["inspect", str(tree), "--output", str(target)])
        finally:
            tracemalloc.stop()
        size = target.stat().st_size
        assert code == 0 and len(peaks) == 1 and size > 500_000
        assert peaks[0] < size / 2, (peaks[0], size)

    @pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
    @pytest.mark.parametrize("argv", [["inspect"], ["expfam", "--symbolic"]],
                             ids=["inspect", "expfam"])
    def test_entries_are_joined_into_writes_of_about_64_kib(self, tmp_path, monkeypatch,
                                                           argv, pretty):
        # one write per entry made 16,402 (inspect) and 12,297 (expfam) writes
        # of at most 259 characters on this tree
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(product_tree([2] * 12).to_spec()))
        argv = [argv[0], str(path), *argv[1:]] + ["--pretty"] * pretty
        args = cli.build_parser().parse_args(argv)
        pieces = [piece for value in args.func(args).values() if hasattr(value, "__next__")
                  for piece in value]
        longest = max(len(p) + 2 * p.count("\n") * pretty for p in pieces)

        class Recorder(io.StringIO):
            def write(self, text):
                writes.append(len(text))
                return super().write(text)

        writes, out = [], Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        assert run(argv) == 0
        size = len(out.getvalue())
        assert size > 400_000 and sum(writes) == size
        assert len(writes) <= size // 2**15 + 20, len(writes)
        assert max(writes) <= cli.WRITE_SIZE + longest

    @pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
    @pytest.mark.parametrize("delta", [-1, 0, 1], ids=["below", "at", "past"])
    def test_a_batch_is_written_once_it_holds_write_size_characters(self, pretty, delta):
        indent = 2 if pretty else None
        prefix = json.dumps({"a": ["", "y"], "b": 1}, indent=indent).index('""')
        # the first entry's text ends delta characters past the bound
        values = {"a": ["x" * (cli.WRITE_SIZE + delta - prefix - 2), "y"], "b": 1}
        document = json.dumps(values, indent=indent) + "\n"
        payload = {"a": cli._json_items(map(json.dumps, values["a"]), "[]", pretty), "b": 1}
        writes = []
        cli._write_object(payload, writes.append, pretty)
        # below the bound, the second entry completes the first batch
        end = cli.WRITE_SIZE + delta if delta >= 0 else document.index('"y"') + 3
        assert writes == [document[:end], document[end:]]

    @pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
    @pytest.mark.parametrize("texts", [[], ["1"], ["1", '"z"']], ids=["0", "1", "2"])
    def test_json_items_is_the_dump_of_its_entries(self, pretty, texts):
        values = list(map(json.loads, texts))
        indent = 2 if pretty else None
        assert "".join(cli._json_items(iter(texts), "[]", pretty)) == json.dumps(values,
                                                                                   indent=indent)
        keyed = (f"{json.dumps(str(i))}: {t}" for i, t in enumerate(texts))
        assert "".join(cli._json_items(keyed, "{}", pretty)) == json.dumps(
            {str(i): v for i, v in enumerate(values)}, indent=indent)

    def test_closed_stdout_ends_without_a_traceback(self, tmp_path):
        tree = tmp_path / "tree.json"
        tree.write_text(json.dumps(product_tree([2] * 12).to_spec()))
        # the output is far larger than a pipe's buffer, so the writer is
        # still writing when the reader leaves
        proc = subprocess.Popen(
            [sys.executable, "-m", "stagedtree.cli", "inspect", str(tree)],
            env=src_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        assert proc.stdout.read(20) == b'{"k": 4095, "n": 409'
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert stderr == b""

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("argv", [["inspect", "fig1a.json"], ["check", "no-such-file.json"]],
                             ids=["ok", "error"])
    def test_unwritable_output_exits_2(self, capsys, tmp_path, where, argv):
        target = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
        argv = [str(data_path(a)) if data_path(a).is_file() else a for a in argv]
        code, out = invoke(capsys, *argv, "--output", str(target))
        assert code == 2
        assert out["error"]["type"] == (
            "FileNotFoundError" if where == "missing-directory" else "IsADirectoryError"
        )
        assert str(target) in out["error"]["message"]


class TestSelectGolden:
    # stdout of the search that refitted a tree per candidate merge
    @pytest.mark.parametrize(
        "config, golden",
        [(None, "select_example1.out"), ({"alpha": 0.5}, "select_example1_alpha.out")],
    )
    def test_output_is_byte_identical(self, capsys, tmp_path, config, golden):
        argv = [
            "select",
            "--tree-graph", str(data_path("example1.json")),
            "--data", str(data_path("atom_counts.csv")),
        ]
        if config is not None:
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            argv += ["--config", str(path)]
        assert run(argv) == 0
        assert capsys.readouterr().out == data_path(golden).read_text()


class TestMalformedInput:
    @pytest.mark.parametrize(
        "rows",
        ["1,2.5\n", "1\n", "x,2\n", "1,2,3\n", "1,-1\n", "+2,1_0\n1,3\n", "\u0662,1\n",
         "2,\uff11\n", "2, 1 0\n"],
        ids=["fractional-count", "short-row", "text-atom-id", "long-row", "negative-count",
             "plus-and-underscore", "arabic-indic-digit", "fullwidth-digit", "inner-space"],
    )
    def test_atom_counts_csv_exits_2(self, capsys, tmp_path, rows):
        data = tmp_path / "counts.csv"
        data.write_text("atom_id,count\n" + rows)
        code, out = invoke(
            capsys, "fit", "--tree", str(data_path("fig1a.json")), "--data", str(data),
            "--alpha", "0.5",
        )
        assert code == 2
        assert out["error"]["type"] == "StagedTreeError"
        if rows == "1,-1\n":
            assert out["error"]["message"] == "line 2: negative count -1"

    @pytest.mark.parametrize("cell", ["+1", "\u0661", "\uff10", "0_0", "1.0", " 1 1 "])
    def test_level_cell_that_is_not_ascii_digits_exits_2(self, capsys, tmp_path, cell):
        data = tmp_path / "rows.csv"
        data.write_text(f"X,Y,Z\n0,1,0\n{cell},0,1\n", encoding="utf-8")
        code, out = invoke(
            capsys, "fit", "--tree", str(data_path("fig1a.json")), "--data", str(data)
        )
        assert code == 2
        assert out["error"]["type"] == "UnknownCategory"
        assert out["error"]["message"] == f"category {cell.strip()!r} is not an integer state"

    def test_integer_cells_with_spaces_and_leading_zeros_are_read(self, capsys, tmp_path):
        data = tmp_path / "counts.csv"
        data.write_text("atom_id,count\n 02 , 010\n1,3\n")
        code, out = invoke(
            capsys, "fit", "--tree", str(data_path("fig1a.json")), "--data", str(data),
            "--alpha", "0.5",
        )
        assert code == 0 and out["n_obs"] == 13

    @pytest.mark.parametrize(
        "config",
        [
            [1],
            {"alpha": "x"},
            {"alpha": -1},
            {"alpha": True},
            {"max_merges": -1},
            {"max_merges": 1.5},
            {"max_merges": True},
            {"same_depth": 1},
            {"same-depth": False, "maxMerges": 0},
        ],
        ids=str,
    )
    def test_select_config_exits_2(self, capsys, tmp_path, config):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, out = invoke(
            capsys,
            "select",
            "--tree-graph", str(data_path("example1.json")),
            "--data", str(data_path("atom_counts.csv")),
            "--config", str(path),
        )
        assert code == 2
        assert out["error"]["type"] == "StagedTreeError"

    def test_select_config_names_unknown_keys(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"same-depth": False, "maxMerges": 0, "alpha": 0}))
        code, out = invoke(
            capsys,
            "select",
            "--tree-graph", str(data_path("example1.json")),
            "--data", str(data_path("atom_counts.csv")),
            "--config", str(path),
        )
        assert code == 2
        assert "'maxMerges'" in out["error"]["message"]
        assert "'same-depth'" in out["error"]["message"]

    @pytest.mark.parametrize("alpha", ["-1", "nan", "inf"])
    def test_fit_alpha_is_validated(self, capsys, alpha):
        code, out = invoke(
            capsys,
            "fit",
            "--tree", str(data_path("fig1a.json")),
            "--data", str(data_path("atom_counts.csv")),
            "--alpha", alpha,
        )
        assert code == 2
        assert out["error"]["type"] == "StagedTreeError"
        assert out["error"]["message"].startswith("alpha must be")

    @pytest.mark.parametrize("alpha", [1e308, 1e300])
    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_alpha_that_overflows_with_the_out_degree_exits_2(self, capsys, tmp_path, command,
                                                              alpha):
        # on these binary stages 2 * alpha overflows at 1e308, not at 1e300
        if command == "fit":
            data = tmp_path / "counts.csv"
            data.write_text("atom_id,count\n1,1\n")
            argv = ["fit", "--tree", str(data_path("fig1a.json")), "--data", str(data),
                    "--alpha", repr(alpha)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"alpha": alpha}))
            argv = ["select", "--tree-graph", str(data_path("example1.json")),
                    "--data", str(data_path("atom_counts.csv")), "--config", str(config)]
        code, out = invoke(capsys, *argv)
        if alpha == 1e308:
            assert code == 2
            assert out["error"] == {"type": "StagedTreeError",
                                    "message": "alpha 1e+308 is too large: 2 * alpha overflows"}
        else:
            assert code == 0 and set(out["theta"].values()) == {0.5}

    def test_fit_empty_table_exits_2(self, capsys, tmp_path):
        data = tmp_path / "counts.csv"
        data.write_text("atom_id,count\n1,0\n")
        code, out = invoke(
            capsys,
            "fit", "--tree", str(data_path("fig1a.json")), "--data", str(data), "--alpha", "0.5",
        )
        assert code == 2
        assert out["error"]["type"] == "StagedTreeError"

    def test_select_empty_table_exits_2(self, capsys, tmp_path):
        data = tmp_path / "counts.csv"
        data.write_text("atom_id,count\n1,0\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"alpha": 0.5}))
        code, out = invoke(
            capsys,
            "select",
            "--tree-graph", str(data_path("example1.json")),
            "--data", str(data),
            "--config", str(config),
        )
        assert code == 2
        assert out["error"]["type"] == "StagedTreeError"

    @pytest.mark.parametrize("alpha", [0, 0.5])
    @pytest.mark.parametrize("header", ["X,Y,Z", "atom_id,count"])
    @pytest.mark.parametrize("command", ["fit", "select"])
    def test_header_only_table_is_refused_as_empty(self, capsys, tmp_path, command, header, alpha):
        data = tmp_path / "rows.csv"
        data.write_text(header + "\n")
        if command == "fit":
            argv = ["fit", "--tree", str(data_path("fig1a.json")), "--alpha", str(alpha)]
        else:
            config = tmp_path / "config.json"
            config.write_text(json.dumps({"alpha": alpha}))
            argv = ["select", "--tree-graph", str(data_path("example1.json")),
                    "--config", str(config)]
        code, out = invoke(capsys, *argv, "--data", str(data))
        assert code == 2
        assert out["error"] == {
            "type": "StagedTreeError",
            "message": "BIC needs at least one observation, the table is empty",
        }

    def test_select_config_accepts_valid_values(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"max_merges": 0, "same_depth": False, "alpha": 1}))
        code, out = invoke(
            capsys,
            "select",
            "--tree-graph", str(data_path("example1.json")),
            "--data", str(data_path("atom_counts.csv")),
            "--config", str(path),
        )
        assert code == 0
        assert out["trace"] == [] and out["d"] == 7

    @pytest.mark.parametrize("index", ["x", 1.5, True], ids=["text", "fractional", "bool"])
    def test_tree_downward_index_exits_2(self, capsys, tmp_path, index):
        spec = load_json("fig1a.json")
        spec["downward"] = {"cyan": index}
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(spec))
        code, out = invoke(capsys, "inspect", str(path))
        assert code == 2
        assert out["error"]["message"] == f"downward index {index!r} for 'cyan' is not an integer"

    @pytest.mark.parametrize("card", ["two", 2.7, True], ids=["text", "fractional", "bool"])
    def test_bn_card_exits_2(self, capsys, tmp_path, card):
        spec = load_json("chain_bn.json")
        spec["variables"][0]["card"] = card
        path = tmp_path / "bn.json"
        path.write_text(json.dumps(spec))
        code, out = invoke(capsys, "from-bn", str(path))
        assert code == 2
        assert out["error"]["message"] == f"variable 'X' has cardinality {card!r}, not an integer"

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda bn: bn["edges"].append(["X", "Y", "Z"]),
                "edge ('X', 'Y', 'Z') is not a [parent, child] pair",
            ),
            (
                lambda bn: bn.update(edges="AB"),
                "BN edges must be a list of pairs, got 'AB'",
            ),
            (
                lambda bn: bn["variables"][0].update(name=["x"]),
                "variable name ['x'] is not a string",
            ),
            (
                lambda bn: bn["variables"][0].pop("name"),
                "BN variables must be a list of objects with 'name' and 'card'",
            ),
            (
                lambda bn: bn["cpts"].update(X=5),
                "CPT for 'X' must be a list of rows, got 5",
            ),
            (
                lambda bn: bn["cpts"]["Y"].__setitem__(0, ["a", 0.5]),
                "CPT row for 'Y' holds 'a', not a number in [0, 1]",
            ),
            (
                lambda bn: bn["cpts"].update(X=[[True, False]]),
                "CPT row for 'X' holds True, not a number in [0, 1]",
            ),
            (
                lambda bn: bn["cpts"].update(X=[[1.5, -0.5]]),
                "CPT row for 'X' holds 1.5, not a number in [0, 1]",
            ),
            (
                lambda bn: bn["cpts"].update(X=[[float("nan"), 0.5]]),
                "CPT row for 'X' holds nan, not a number in [0, 1]",
            ),
            (
                lambda bn: bn["variables"][2].update(name="X"),
                "repeated variable names: ['X']",
            ),
            (
                lambda bn: bn["edges"].append(["X", "Y"]),
                "repeated edges: [('X', 'Y')]",
            ),
        ],
        ids=[
            "edge-triple",
            "edges-not-a-list",
            "name-not-a-string",
            "entry-without-name",
            "cpt-not-a-list",
            "cpt-text-cell",
            "cpt-bool-cell",
            "cpt-cell-outside-unit-interval",
            "cpt-nan-cell",
            "repeated-name",
            "repeated-edge",
        ],
    )
    def test_bn_spec_exits_2(self, capsys, tmp_path, edit, message):
        spec = load_json("chain_bn.json")
        edit(spec)
        path = tmp_path / "bn.json"
        path.write_text(json.dumps(spec))
        code, out = invoke(capsys, "from-bn", str(path))
        assert code == 2
        assert out["error"] == {"type": "StagedTreeError", "message": message}

    @pytest.mark.parametrize(
        "entry, message",
        [
            ({"cyan": "bad"}, "theta of stage 'cyan' must be a list of 2 numbers, got 'bad'"),
            ({"nosuch": [0.5, 0.5]}, "theta file names stages not in the tree: ['nosuch']"),
            (
                {"cyan": [0.5, 0.5, 0.0]},
                "theta of stage 'cyan' must be a list of 2 numbers, got [0.5, 0.5, 0.0]",
            ),
            ({"cyan": [True, 0]}, "theta of stage 'cyan' must be a list of 2 numbers, got [True, 0]"),
        ],
        ids=["not-a-list", "unknown-stage", "longer-than-kappa", "bool-entry"],
    )
    def test_theta_file_exits_2(self, capsys, tmp_path, entry, message):
        theta = {**load_json("fig1a_theta.json"), **entry}
        path = tmp_path / "theta.json"
        path.write_text(json.dumps(theta))
        code, out = invoke(capsys, "expfam", str(data_path("fig1a.json")), "--theta", str(path))
        assert code == 2
        assert out["error"] == {"type": "StagedTreeError", "message": message}

    @pytest.mark.parametrize(
        "spec, message",
        [
            ([], "tree description must be a JSON object"),
            ({"vertices": 5}, "'vertices' must be a list of objects, got 5"),
            (
                edited_fig1a(lambda spec: spec["vertices"][0].update(id=["v1"])),
                "vertex entry {'id': ['v1'], 'children': ['v2', 'v3']} needs a string 'id'",
            ),
            (
                edited_fig1a(lambda spec: spec["vertices"][0].pop("id")),
                "vertex entry {'children': ['v2', 'v3']} needs a string 'id'",
            ),
            (
                edited_fig1a(lambda spec: spec["vertices"][0].update(children="bc")),
                "children of 'v1' must be a list of vertex ids, got 'bc'",
            ),
            (
                edited_fig1a(lambda spec: spec["vertices"][1].update(children=["v4", 5])),
                "children of 'v2' must be a list of vertex ids, got ['v4', 5]",
            ),
            (
                edited_fig1a(lambda spec: spec.update(stages=[])),
                "'stages' must map vertex ids to stage ids, got []",
            ),
            (
                edited_fig1a(lambda spec: spec.update(stages={"v2": ["x"], "v3": ["x"]})),
                "'stages' must map vertex ids to stage ids, got {'v2': ['x'], 'v3': ['x']}",
            ),
            (
                edited_fig1a(lambda spec: spec["vertices"].append(spec["vertices"][1])),
                "vertex 'v2' is listed twice",
            ),
            (
                edited_fig1a(lambda spec: spec["stages"].update(l1="cyan", zzz="q")),
                "'stages' names ids that are not inner vertices: ['l1', 'zzz']",
            ),
            # no vertex with children: no root, though no cycle either
            ({"vertices": []}, "expected a vertex with children, found none"),
            ({"vertices": [{"id": "r"}]}, "expected a vertex with children, found none"),
            (
                {"vertices": [{"id": "r"}, {"id": "s"}]},
                "expected a vertex with children, found none",
            ),
        ],
        ids=[
            "not-an-object",
            "vertices-not-a-list",
            "list-valued-id",
            "entry-without-id",
            "children-string",
            "child-not-a-string",
            "stages-list",
            "list-valued-stage-id",
            "repeated-id",
            "stray-stage-keys",
            "no-vertices",
            "one-leaf",
            "two-leaves",
        ],
    )
    def test_tree_description_exits_2(self, capsys, tmp_path, spec, message):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps(spec))
        code, out = invoke(capsys, "check", str(path))
        assert code == 2
        assert out["error"] == {"type": "StagedTreeError", "message": message}

    @pytest.mark.parametrize("kind", ["tree", "bn", "theta", "csv"])
    def test_undecodable_input_exits_2(self, capsys, tmp_path, kind):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe{}")
        tree, data = str(data_path("fig1a.json")), str(data_path("xyz_rows.csv"))
        argv = {
            "tree": ["inspect", str(bad)],
            "bn": ["from-bn", str(bad)],
            "theta": ["expfam", tree, "--theta", str(bad)],
            "csv": ["fit", "--tree", tree, "--data", str(bad)],
        }[kind]
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert out["error"]["type"] == "StagedTreeError"
        assert "not UTF-8 text" in out["error"]["message"]

    @pytest.mark.parametrize("kind", ["tree", "bn", "theta", "config"])
    def test_json_input_with_a_bom_exits_2(self, capsys, tmp_path, kind):
        # unlike a CSV header, a JSON text may not begin with U+FEFF
        source = {"tree": "fig1a.json", "bn": "chain_bn.json"}.get(kind)
        text = (data_path(source).read_text() if source else
                json.dumps({"theta": {"cyan": [0.5, 0.5]}, "config": {"alpha": 0.5}}[kind]))
        bom = tmp_path / "bom.json"
        bom.write_text("\ufeff" + text, encoding="utf-8")
        tree, data = str(data_path("fig1a.json")), str(data_path("xyz_rows.csv"))
        argv = {
            "tree": ["inspect", str(bom)],
            "bn": ["from-bn", str(bom)],
            "theta": ["expfam", tree, "--theta", str(bom)],
            "config": ["select", "--tree-graph", tree, "--data", data, "--config", str(bom)],
        }[kind]
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert out["error"]["type"] == "JSONDecodeError"
        assert out["error"]["message"].startswith("Unexpected UTF-8 BOM")

    def test_theta_label_too_large_for_a_double_exits_2(self, capsys, tmp_path):
        path = tmp_path / "theta.json"
        path.write_text(json.dumps({"cyan": [10**400, 0.5]}))
        code, out = invoke(capsys, "expfam", str(data_path("fig1a.json")), "--theta", str(path))
        assert code == 2
        assert out["error"]["message"].startswith("label theta[cyan,1]=1000")
        assert out["error"]["message"].endswith("0 outside the open unit interval")

    def test_oversized_csv_cell_exits_2(self, capsys, tmp_path):
        data = tmp_path / "rows.csv"
        data.write_text("X,Y,Z\n0,1,0\n" + "0" * 131073 + ",1,0\n")
        code, out = invoke(
            capsys, "fit", "--tree", str(data_path("fig1a.json")), "--data", str(data)
        )
        assert code == 2
        assert out["error"] == {
            "type": "StagedTreeError",
            "message": "line 3: field larger than field limit (131072)",
        }

    # an integer literal of 5001 digits, past the 4300 that int() reads from text
    HUGE = "1" + "0" * 5000

    @pytest.mark.parametrize("kind", ["tree", "bn", "theta", "config"])
    def test_integer_literal_past_the_digit_limit_exits_2(self, capsys, tmp_path, kind):
        # json.loads refuses it with a plain ValueError, not a JSONDecodeError
        fig1a, path = str(data_path("fig1a.json")), tmp_path / "input.json"
        document, argv = {
            "tree": (edited_fig1a(lambda spec: spec.update(downward={"cyan": 424242})),
                     ["inspect", str(path)]),
            "bn": ({**load_json("chain_bn.json"), "cpts": {"X": [[424242, 0]]}},
                   ["from-bn", str(path)]),
            "theta": ({"cyan": [424242, 0.5]}, ["expfam", fig1a, "--theta", str(path)]),
            "config": ({"alpha": 424242}, ["select", "--tree-graph", str(data_path("example1.json")),
                                      "--data", str(data_path("atom_counts.csv")),
                                      "--config", str(path)]),
        }[kind]
        text = json.dumps(document)
        assert text.count("424242") == 1
        path.write_text(text.replace("424242", self.HUGE))
        code, out = invoke(capsys, *argv)
        assert code == 2
        assert out["error"]["type"] == "StagedTreeError"
        assert out["error"]["message"].startswith("JSON input: Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize("kind", ["tree", "bn"])
    def test_nesting_past_the_recursion_limit_exits_2(self, capsys, tmp_path, kind):
        path = tmp_path / "input.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out = invoke(capsys, {"tree": "inspect", "bn": "from-bn"}[kind], str(path))
        assert code == 2
        assert out["error"]["type"] == "StagedTreeError"
        assert out["error"]["message"].startswith("JSON input: maximum recursion depth exceeded")


class TestDeepTree:
    """A caterpillar 1500 levels deep, beyond Python's default recursion limit."""

    DEPTH = 1500

    @pytest.fixture
    def deep(self, tmp_path):
        vertices = [
            {"id": f"v{i}", "children": [f"l{i}", f"v{i + 1}" if i + 1 < self.DEPTH else "end"]}
            for i in range(self.DEPTH)
        ]
        tree = tmp_path / "deep.json"
        tree.write_text(json.dumps({"vertices": vertices}))
        data = tmp_path / "counts.csv"
        data.write_text(f"atom_id,count\n1,3\n2,1\n{self.DEPTH + 1},2\n")
        return str(tree), str(data)

    def test_atoms(self, deep):
        tree = StagedTree.from_json(open(deep[0]).read())
        atoms = tree.atoms
        assert len(atoms) == self.DEPTH + 1
        assert len(atoms[-1]) == self.DEPTH and atoms[-1].leaf == "end"

    def test_inspect(self, capsys, deep):
        code, out = invoke(capsys, "inspect", deep[0])
        assert code == 0
        assert out["n"] == self.DEPTH + 1

    @pytest.mark.parametrize("symbolic", [False, True])
    def test_expfam(self, capsys, deep, symbolic):
        code, out = invoke(capsys, "expfam", deep[0], *(["--symbolic"] if symbolic else []))
        assert code == 0
        assert out["psi"] == pytest.approx(self.DEPTH * math.log(2))

    def test_fit(self, capsys, deep):
        code, out = invoke(capsys, "fit", "--tree", deep[0], "--data", deep[1])
        assert code == 0
        assert out["n_obs"] == 6

    @pytest.mark.parametrize("equations", ["none", "json"])
    def test_check(self, capsys, deep, equations):
        code, out = invoke(capsys, "check", deep[0], "--equations", equations)
        assert code == 0
        assert out["regular"] and out["balanced"] and out["simple"]
        assert out["d0"] == out["d"] == self.DEPTH
        assert out.get("equations", []) == []


# -- fuzz: random inputs exit 0 or 2, never 1 ----------------------------------

# "D|E" holds a separator of stage ids, which a BN refuses
NAMES = st.sampled_from(["A", "B", "C", "D", "D|E"])
# JSON reads NaN, Infinity and integers beyond the range of a double
NUMBERS = st.one_of(
    st.floats(0.0, 1.0), st.floats(), st.integers(-2, 3), st.sampled_from([10**400, -(10**400)])
)
JUNK = st.recursive(
    st.one_of(st.none(), st.booleans(), NUMBERS, st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)
    ),
    max_leaves=4,
)


def mostly(draw, valid, junk=JUNK):
    """A draw from ``valid``, or from ``junk`` one time in ten."""
    return draw(junk) if draw(st.integers(0, 9)) == 0 else draw(valid)


@st.composite
def from_bn_args(draw):
    """A BN description over a few named variables, with junk in any field,
    and an order: none, a permutation of the names, or any list of names.
    """
    names = draw(st.lists(NAMES, unique=True, max_size=4))
    variables = [
        {"name": mostly(draw, st.just(name)), "card": mostly(draw, st.integers(2, 3))}
        for name in names
    ]
    forward = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    edges = st.lists(st.sampled_from(forward), unique=True) if forward else st.just([])
    edges = edges.map(lambda pairs: [list(pair) for pair in pairs])
    spec = {"variables": variables, "edges": mostly(draw, edges)}
    if draw(st.integers(0, 2)) == 0:
        rows = st.lists(st.lists(NUMBERS, max_size=3), max_size=4)
        spec["cpts"] = draw(st.dictionaries(NAMES, st.one_of(rows, JUNK), max_size=4))
    order = st.one_of(st.none(), st.permutations(names), st.lists(NAMES, max_size=5))
    return mostly(draw, st.just(spec)), draw(order)


@st.composite
def theta_specs(draw):
    """Label files for fig1a, each stage's labels valid nine times in ten."""
    label = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
    pair = label.map(lambda p: [p, 1.0 - p])
    junk = st.one_of(st.lists(NUMBERS, min_size=2, max_size=2), JUNK)
    spec = {stage: mostly(draw, pair, junk) for stage in ("cyan", "v1", "v4", "v5", "v6", "v7")}
    return mostly(draw, st.just(spec))


@st.composite
def tree_specs(draw):
    """A tree description: a random shape of at most six inner vertices, with
    stages shared only at equal out-degree and in-range downward edges, and
    then one time in ten junk in the whole, in a field or in one vertex entry.
    """
    leaves, children = ["v0"], {}
    for _ in range(draw(st.integers(1, 6))):
        v = leaves.pop(draw(st.integers(0, len(leaves) - 1)))
        children[v] = [f"v{len(children)}.{j}" for j in range(draw(st.integers(2, 3)))]
        leaves.extend(children[v])
    ids = st.sampled_from(sorted({"v0", *leaves, *children}))
    vertices = [{"id": v, "children": cs} for v, cs in children.items()]
    i = draw(st.integers(0, len(vertices) - 1))
    vertices[i] = {"id": vertices[i]["id"],
                   "children": mostly(draw, st.just(vertices[i]["children"]),
                                      st.one_of(JUNK, st.lists(ids, max_size=3)))}
    stages = {v: draw(st.sampled_from([v, f"s{len(cs)}"])) for v, cs in children.items()}
    downward = {}
    for v, cs in children.items():
        if draw(st.integers(0, 2)) == 0:
            downward[stages[v]] = draw(st.integers(1, len(cs)))
    spec = {"vertices": mostly(draw, st.just(vertices))}
    if draw(st.booleans()):
        spec["stages"] = mostly(draw, st.just(stages))
        spec["downward"] = mostly(draw, st.just(downward))
    return mostly(draw, st.just(spec))


# cells a hand-written CSV may hold where a 0-based state or an integer belongs
CELLS = st.one_of(
    st.sampled_from(["", " 1 ", "-1", "2", "01", "+1", "1.5", "1e3", "x", "\u0661", "9" * 30,
                     "1_0", "+0", "\uff11", "\u0663", "-0", " 0 "]),
    st.text(max_size=3),
)


@st.composite
def csv_bytes(draw):
    """CSV bytes for a tree of three binary levels: a header of level columns
    or ``atom_id,count`` and valid rows, then one time in ten junk in the
    header or in one cell, and one time in ten raw bytes in place of it all.
    """
    if draw(st.booleans()):
        header, cells = ["X", "Y", "Z"], [st.sampled_from(["0", "1"])] * 3
    else:
        header, cells = ["atom_id", "count"], [st.integers(1, 8), st.integers(0, 5)]
    rows = [header] + [[str(draw(c)) for c in cells] for _ in range(draw(st.integers(0, 16)))]
    if header[1] == "count" and len(rows) > 1:  # a count beyond the range of a double
        rows[1][1] = mostly(draw, st.just(rows[1][1]), st.just("9" * 400))
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    rows[i][j] = mostly(draw, st.just(rows[i][j]), CELLS)
    text = "\n".join(",".join(row) for row in rows) + draw(st.sampled_from(["", "\n"]))
    return mostly(draw, st.just(text.encode()), st.binary(max_size=40))


@st.composite
def search_configs(draw):
    """A search configuration: each known key present or not, valid nine
    times in ten, sometimes an unknown key, and one time in ten junk for the
    whole.
    """
    values = {
        "max_merges": st.one_of(st.none(), st.integers(0, 8), st.sampled_from([10**400])),
        "same_depth": st.booleans(),
        # JSON reads an integer beyond the range of a double exactly
        "alpha": st.one_of(st.floats(0.0, 5.0), st.floats(0.0, sys.float_info.max),
                           st.integers(0, 3), st.sampled_from([1e308, 10**400])),
    }
    config = {key: mostly(draw, valid) for key, valid in values.items() if draw(st.booleans())}
    if draw(st.integers(0, 9)) == 0:
        config[draw(st.text(max_size=3))] = draw(JUNK)
    return mostly(draw, st.just(config))


class TestFuzz:
    """cli.run in process, so each example costs no interpreter start-up."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @staticmethod
    def run_on(workdir, spec, *argv):
        path = workdir / "input.json"
        path.write_text(json.dumps(spec))
        return run([argv[0], *[str(path) if a is None else a for a in argv[1:]],
                    "--output", str(workdir / "out.json")])

    @given(args=from_bn_args())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_from_bn_exits_0_or_2(self, workdir, args):
        spec, order = args
        argv = ["from-bn", None] + ([] if order is None else [f"--order={','.join(order)}"])
        assert self.run_on(workdir, spec, *argv) in (0, 2)

    @given(spec=theta_specs())
    @settings(max_examples=150, derandomize=True, deadline=None)
    def test_expfam_theta_exits_0_or_2(self, workdir, spec):
        tree = str(data_path("fig1a.json"))
        assert self.run_on(workdir, spec, "expfam", tree, "--theta", None) in (0, 2)

    def test_csv_bytes_exit_0_or_2(self, workdir):
        fig1a, example1 = str(data_path("fig1a.json")), str(data_path("example1.json"))
        commands = (["fit", "--tree", fig1a], ["fit", "--tree", fig1a, "--alpha", "0.5"],
                    ["select", "--tree-graph", example1])
        data, codes = workdir / "input.csv", []

        @given(raw=csv_bytes())
        @settings(max_examples=150, derandomize=True, deadline=None)
        def each(raw):
            data.write_bytes(raw)
            codes.append([run([*argv, "--data", str(data), "--output", str(workdir / "out.json")])
                          for argv in commands])
            assert set(codes[-1]) <= {0, 2}, raw

        each()
        # enough tables that fit and select reach their own work
        assert sum(c == [0, 0, 0] for c in codes) >= len(codes) / 4

    def test_select_config_exits_0_or_2(self, workdir):
        argv = ["select", "--tree-graph", str(data_path("example1.json")),
                "--data", str(data_path("atom_counts.csv")), "--config", None]
        codes = []

        @given(config=search_configs())
        @settings(max_examples=150, derandomize=True, deadline=None)
        def each(config):
            codes.append(self.run_on(workdir, config, *argv))
            assert codes[-1] in (0, 2), config
            # a refusal names the user's input, never labels the search made
            assert "labels sum" not in (workdir / "out.json").read_text(), config

        each()
        # enough valid configurations that the fuzz reaches the search
        assert codes.count(0) >= len(codes) / 4

    def test_tree_json_exits_0_or_2(self, workdir):
        commands = (["inspect", None], ["check", None, "--equations", "json"],
                    ["expfam", None, "--symbolic"])
        codes = []

        @given(spec=tree_specs())
        @settings(max_examples=150, derandomize=True, deadline=None)
        def each(spec):
            codes.append([self.run_on(workdir, spec, *argv) for argv in commands])
            assert set(codes[-1]) <= {0, 2}, spec

        each()
        # enough valid descriptions that the fuzz reaches the commands' own work
        assert sum(c == [0, 0, 0] for c in codes) >= len(codes) / 4
