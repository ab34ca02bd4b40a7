"""Tree export (JSON/DOT) and the command-line interface."""

import json

import pytest

from repro.cli import main as cli_main
from repro.core import AggressiveBufferedCTS
from repro.evalx import evaluate_tree
from repro.tech import cts_buffer_library
from repro.tree.export import (
    load_tree_json,
    save_tree_json,
    tree_from_dict,
    tree_to_dict,
    tree_to_dot,
)
from repro.tree.validate import validate_tree

from tests.conftest import make_sink_pairs


@pytest.fixture()
def synthesized(tech):
    sinks = make_sink_pairs(6, 15000.0, seed=19)
    return AggressiveBufferedCTS(tech=tech).synthesize(sinks)


class TestJsonExport:
    def test_roundtrip_structure(self, synthesized):
        data = tree_to_dict(synthesized.tree)
        rebuilt = tree_from_dict(data, cts_buffer_library())
        validate_tree(rebuilt, expect_source_root=True)
        assert len(rebuilt.sinks()) == len(synthesized.tree.sinks())
        assert len(rebuilt.buffers()) == len(synthesized.tree.buffers())

    def test_roundtrip_preserves_timing(self, synthesized, tech):
        data = tree_to_dict(synthesized.tree)
        rebuilt = tree_from_dict(data, cts_buffer_library())
        from repro.tree.clocktree import ClockTree

        original = evaluate_tree(synthesized.tree, tech, dt=2e-12)
        clone = evaluate_tree(ClockTree(rebuilt), tech, dt=2e-12)
        assert clone.latency == pytest.approx(original.latency, abs=1e-12)
        assert clone.skew == pytest.approx(original.skew, abs=1e-12)

    def test_file_roundtrip(self, synthesized, tmp_path):
        path = tmp_path / "tree.json"
        save_tree_json(synthesized.tree, path)
        rebuilt = load_tree_json(path, cts_buffer_library())
        assert len(rebuilt.sinks()) == len(synthesized.tree.sinks())
        # The file is valid JSON with the expected shape.
        raw = json.loads(path.read_text())
        assert raw["kind"] == "source"

    def test_wire_lengths_preserved(self, synthesized):
        data = tree_to_dict(synthesized.tree)
        rebuilt = tree_from_dict(data, cts_buffer_library())
        original_wl = synthesized.tree.total_wirelength()
        rebuilt_wl = sum(n.wire_to_parent for n in rebuilt.walk())
        assert rebuilt_wl == pytest.approx(original_wl)


class TestDotExport:
    def test_dot_contains_all_nodes(self, synthesized):
        dot = tree_to_dot(synthesized.tree)
        assert dot.startswith("digraph")
        for node in synthesized.tree.nodes():
            assert f'"{node.name}"' in dot

    def test_dot_edge_count(self, synthesized):
        dot = tree_to_dot(synthesized.tree)
        n_edges = dot.count("->")
        assert n_edges == len(synthesized.tree.nodes()) - 1


class TestCLI:
    def test_synthesize_random(self, capsys, tmp_path):
        json_path = tmp_path / "t.json"
        code = cli_main(
            [
                "synthesize", "--random", "6", "--area", "15000",
                "--eval-dt", "2", "--json", str(json_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "worst slew" in out
        assert json_path.exists()

    def test_synthesize_gsrc_scaled(self, capsys):
        code = cli_main(
            ["synthesize", "--gsrc", "r1", "--sinks", "6", "--no-eval"]
        )
        assert code == 0
        assert "clock tree" in capsys.readouterr().out

    def test_synthesize_spice_export(self, capsys, tmp_path):
        spice_path = tmp_path / "tree.sp"
        code = cli_main(
            [
                "synthesize", "--random", "4", "--area", "8000",
                "--no-eval", "--spice", str(spice_path),
            ]
        )
        assert code == 0
        text = spice_path.read_text()
        assert ".END" in text

    def test_violation_still_writes_exports(self, capsys, tmp_path, monkeypatch):
        """A verified slew violation exits 1 only after every requested
        export is written, so the failing tree can be inspected."""
        import repro.evalx
        from types import SimpleNamespace

        def violating(tree, tech, dt=None):
            return SimpleNamespace(worst_slew=250e-12, skew=1e-12, latency=1e-9)

        monkeypatch.setattr(repro.evalx, "evaluate_tree", violating)
        paths = {ext: tmp_path / f"tree.{ext}" for ext in ("json", "dot", "sp")}
        code = cli_main(
            [
                "synthesize", "--random", "4", "--area", "8000",
                "--json", str(paths["json"]),
                "--dot", str(paths["dot"]),
                "--spice", str(paths["sp"]),
            ]
        )
        assert code == 1
        assert "SLEW CONSTRAINT VIOLATED" in capsys.readouterr().err
        for path in paths.values():
            assert path.exists() and path.stat().st_size > 0

    def test_bench_table_52(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "")
        code = cli_main(["bench", "--table", "5.2", "--scale", "8"])
        assert code == 0
        assert "Table 5.2" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])
