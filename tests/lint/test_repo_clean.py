"""The acceptance gate: the shipped tree lints clean.

Runs the linter in-process over the repo's own ``src``, ``tests`` and
``benchmarks`` with the committed ``lint.toml`` and baseline -- the
same invocation CI performs. Every finding here is either a real
regression or needs an explicit ``# repro: allow[...]`` justification.
"""

from __future__ import annotations

from repro.lint import Baseline, load_config, run_lint
from repro.lint.pragmas import Suppressions

from tests.lint.conftest import REPO_ROOT


def test_shipped_tree_lints_clean():
    config = load_config(REPO_ROOT)
    baseline = Baseline.load(REPO_ROOT / config.baseline_path)
    result = run_lint(
        [REPO_ROOT / root for root in config.roots],
        config,
        baseline,
        project=True,
    )
    assert result.files_scanned > 100, "expected to scan the whole tree"
    assert result.project is not None
    assert result.project["call_edges"] > 1000, (
        "the call graph should resolve most of the tree"
    )
    assert result.stale_baseline == [], (
        "baseline entries no longer match the tree; prune with "
        "scripts/lint.py --update-baseline"
    )
    assert result.findings == [], "\n".join(
        f"{f.path}:{f.line}: {f.rule}: {f.message}"
        for f in result.findings
    )


def test_fixture_corpus_is_excluded_from_the_gate():
    """tests/lint/fixtures/ is deliberately full of violations; the
    repo config must keep it out of the gate run."""
    config = load_config(REPO_ROOT)
    assert config.is_excluded("tests/lint/fixtures/float_eq_bad.py")
    assert config.is_excluded("benchmarks/artifacts/generated.py")
    assert not config.is_excluded("src/repro/core/guarantee.py")


def test_serving_layer_waives_no_lock_guard():
    """Ratchet: the serving layer reads its shared state under the
    declared lock, never through a pragma-justified racy read.  A new
    waiver there means a lock-free flag read crept back in."""
    serving = REPO_ROOT / "src" / "repro" / "serving"
    waivers = []
    for path in sorted(serving.rglob("*.py")):
        pragmas = Suppressions.scan(path.read_text(encoding="utf-8"))
        if "LOCK-GUARD" in pragmas.file_rules:
            waivers.append(f"{path.name}: allow-file")
        waivers.extend(
            f"{path.name}:{line}"
            for line, rules in sorted(pragmas.line_rules.items())
            if "LOCK-GUARD" in rules
        )
    assert waivers == [], waivers
