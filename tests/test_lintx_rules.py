"""Per-rule unit tests for repro-lint (inline code fixtures).

Each determinism rule is exercised on minimal snippets:
one that must fire (with the expected location) and near-miss variants
that must stay silent — the rules are only useful if `repro lint src/`
can be kept at zero findings without drowning real code in
suppressions. The framework itself (suppressions, severities, exit
codes, reporters) is tested at the bottom.
"""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.lintx.core import (
    NEVER,
    SourceFile,
    all_rules,
    run_lint,
)
from repro.lintx.report import render_json


def file_findings(code: str, path: str = "probe.py"):
    source = SourceFile.parse(path, textwrap.dedent(code))
    assert source.syntax_error is None, source.syntax_error
    found = []
    for rule in all_rules():
        found.extend(rule.check_file(source))
    return found


def rules_fired(code: str) -> set[str]:
    return {f.rule for f in file_findings(code)}


def only(code: str, rule_id: str):
    matches = [f for f in file_findings(code) if f.rule == rule_id]
    assert matches, f"{rule_id} did not fire"
    return matches


# ---------------------------------------------------------------------
# DET101 — wall clock
# ---------------------------------------------------------------------


class TestWallClock:
    def test_fires_on_time_time(self):
        (finding,) = only(
            """
            import time
            def f():
                return time.time()
            """,
            "DET101",
        )
        assert finding.line == 4
        assert "perf_counter" in finding.message

    def test_fires_through_from_import_alias(self):
        assert "DET101" in rules_fired(
            """
            from time import time as now
            def f():
                return now()
            """
        )

    def test_silent_on_perf_counter_and_sleep(self):
        assert "DET101" not in rules_fired(
            """
            import time
            def f():
                t0 = time.perf_counter()
                time.sleep(0.1)
                return time.perf_counter() - t0
            """
        )


# ---------------------------------------------------------------------
# DET102 — unseeded RNG
# ---------------------------------------------------------------------


class TestUnseededRandom:
    def test_fires_on_stdlib_global_draws(self):
        assert len(only(
            """
            import random
            def f(items):
                random.shuffle(items)
                return random.random()
            """,
            "DET102",
        )) == 2

    def test_fires_on_numpy_global_draws(self):
        for snippet in (
            "import numpy as np\nx = np.random.rand(3)",
            "import numpy\nx = numpy.random.normal()",
            "from numpy import random as npr\nx = npr.uniform()",
        ):
            assert "DET102" in rules_fired(snippet), snippet

    def test_silent_on_seeded_generators(self):
        assert "DET102" not in rules_fired(
            """
            import random
            import numpy as np
            def f(seed):
                rng = np.random.default_rng(seed)
                r = random.Random(seed)
                return rng.normal() + r.random()
            """
        )


# ---------------------------------------------------------------------
# DET103 — hash-ordered set consumption
# ---------------------------------------------------------------------


class TestSetIteration:
    def test_fires_on_for_loop_over_set_name(self):
        (finding,) = only(
            """
            def f(out):
                pending = {"a", "b"}
                for name in pending:
                    out.append(name)
            """,
            "DET103",
        )
        assert finding.line == 4

    def test_fires_on_set_call_and_set_ops(self):
        assert "DET103" in rules_fired(
            """
            def f(xs, ys, out):
                for x in set(xs) - set(ys):
                    out.append(x)
            """
        )

    def test_fires_on_materialization_and_fstring(self):
        code = """
            def f(xs):
                s = set(xs)
                a = list(s)
                b = sum(s)
                return f"missing: {s}", a, b
            """
        assert len(only(code, "DET103")) == 3

    def test_silent_when_sorted_or_order_insensitive(self):
        assert "DET103" not in rules_fired(
            """
            def f(xs, ys):
                s = set(xs)
                for x in sorted(s):
                    ys.append(x)
                n = len(s)
                top = max(s)
                hit = 3 in s
                both = {x for x in s}
                msg = f"missing: {sorted(s)}"
                return n, top, hit, both, msg
            """
        )

    def test_silent_on_rebound_nonset_name(self):
        # A name assigned a set in one branch and a list in another is
        # unknown: the rule must under-report, not guess.
        assert "DET103" not in rules_fired(
            """
            def f(xs, flag, out):
                items = set(xs)
                if flag:
                    items = sorted(xs)
                for x in items:
                    out.append(x)
            """
        )


# ---------------------------------------------------------------------
# DET104 — filesystem enumeration order
# ---------------------------------------------------------------------


class TestDirScan:
    def test_fires_on_listdir_glob_pathlib(self):
        code = """
            import os, glob
            from pathlib import Path
            def f(d):
                a = os.listdir(d)
                b = glob.glob("*.ckpt")
                c = Path(d).iterdir()
                e = Path(d).glob("*.txt")
                return a, b, c, e
            """
        assert len(only(code, "DET104")) == 4

    def test_silent_when_wrapped_sorted_or_len(self):
        assert "DET104" not in rules_fired(
            """
            import os, glob
            def f(d):
                a = sorted(os.listdir(d))
                b = sorted(n for n in os.listdir(d) if n.endswith(".ckpt"))
                c = len(glob.glob("*.txt"))
                return a, b, c
            """
        )


# ---------------------------------------------------------------------
# DET105 — completion-ordered gathers
# ---------------------------------------------------------------------


class TestGatherOrder:
    def test_fires_on_as_completed_and_imap_unordered(self):
        assert "DET105" in rules_fired(
            """
            from concurrent.futures import as_completed
            def f(futures):
                return [fut.result() for fut in as_completed(futures)]
            """
        )
        assert "DET105" in rules_fired(
            """
            def f(pool, xs):
                return list(pool.imap_unordered(str, xs))
            """
        )

    def test_silent_on_submission_order_gather(self):
        assert "DET105" not in rules_fired(
            """
            def f(futures):
                return [fut.result() for fut in futures]
            """
        )


# ---------------------------------------------------------------------
# DET106 — arbitrary-element removal
# ---------------------------------------------------------------------


class TestArbitraryRemoval:
    def test_fires_on_set_pop_popitem_next_iter(self):
        assert "DET106" in rules_fired(
            "def f(xs):\n    s = set(xs)\n    return s.pop()\n"
        )
        assert "DET106" in rules_fired(
            "def f(d):\n    return d.popitem()\n"
        )
        assert "DET106" in rules_fired(
            "def f(xs):\n    s = set(xs)\n    return next(iter(s))\n"
        )

    def test_fires_on_value_based_remove_of_computed_key(self):
        (finding,) = only(
            """
            def f(costs):
                queue = list(costs)
                queue.remove(min(queue))
                return queue
            """,
            "DET106",
        )
        assert "identity" in finding.message

    def test_silent_on_keyed_and_identity_patterns(self):
        assert "DET106" not in rules_fired(
            """
            def f(d, key, items, chosen):
                a = d.pop(key)
                b = items.pop()          # receiver type unknown: no guess
                lst = list(items)
                lst.remove(chosen)       # removing a bound name, not a computed value
                return a, b
            """
        )


# ---------------------------------------------------------------------
# Framework: suppressions, severities, reporters
# ---------------------------------------------------------------------


def lint_file(tmp_path, code: str, **kwargs):
    path = tmp_path / "mod.py"
    path.write_text(textwrap.dedent(code))
    return run_lint([str(path)], **kwargs)


class TestSuppressions:
    def test_line_suppression_with_reason(self, tmp_path):
        result = lint_file(
            tmp_path,
            """
            import time
            STARTED_AT = time.time()  # repro-lint: ignore[DET101] report header wants wall-clock
            """,
        )
        assert not result.findings
        assert result.suppressed == 1

    def test_file_suppression(self, tmp_path):
        result = lint_file(
            tmp_path,
            """
            # repro-lint: ignore-file[DET104] enumerates a tmpdir this test fully controls
            import os
            def f(d):
                return os.listdir(d), os.listdir(d)
            """,
        )
        assert not result.findings
        assert result.suppressed == 2

    def test_missing_reason_is_lnt001(self, tmp_path):
        result = lint_file(
            tmp_path,
            """
            import time
            t = time.time()  # repro-lint: ignore[DET101]
            """,
        )
        rules = {f.rule for f in result.findings}
        assert "LNT001" in rules
        assert "DET101" in rules  # the malformed comment suppressed nothing

    def test_unused_suppression_is_lnt002(self, tmp_path):
        result = lint_file(
            tmp_path,
            """
            x = 1  # repro-lint: ignore[DET101] nothing here actually uses a clock
            """,
        )
        assert [f.rule for f in result.findings] == ["LNT002"]

    def test_docstring_example_is_not_a_suppression(self, tmp_path):
        result = lint_file(
            tmp_path,
            '''
            """Example: x = time.time()  # repro-lint: ignore-file[DET101] doc example"""
            import time
            t = time.time()
            ''',
        )
        assert [f.rule for f in result.findings] == ["DET101"]

    def test_syntax_error_is_lnt003(self, tmp_path):
        result = lint_file(tmp_path, "def broken(:\n    pass\n")
        assert [f.rule for f in result.findings] == ["LNT003"]


class TestExitCodesAndReport:
    def test_fail_on_thresholds(self, tmp_path):
        result = lint_file(tmp_path, "import time\nt = time.time()\n")
        assert result.exit_code("error") == 1
        assert result.exit_code("warning") == 1
        assert result.exit_code(NEVER) == 0
        clean = lint_file(tmp_path, "x = 1\n")
        assert clean.exit_code("info") == 0

    def test_json_report_schema(self, tmp_path):
        result = lint_file(tmp_path, "import time\nt = time.time()\n")
        payload = json.loads(render_json(result))
        assert payload["version"] == 1
        assert payload["counts"]["error"] == 1
        (entry,) = payload["findings"]
        assert entry["rule"] == "DET101"
        assert entry["path"].endswith("mod.py")
        assert entry["line"] == 2

    def test_findings_sorted_and_rule_registry_unique(self, tmp_path):
        rules = all_rules()
        assert len({r.id for r in rules}) == len(rules)
        assert all(r.summary for r in rules)
        result = lint_file(
            tmp_path,
            """
            import time, os
            def f(d):
                return time.time(), os.listdir(d)
            """,
        )
        keys = [(f.path, f.line, f.col, f.rule) for f in result.findings]
        assert keys == sorted(keys)
