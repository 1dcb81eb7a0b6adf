"""The repo-clean gate: a real scan of src/repro against the committed
baseline must report zero new findings — this is the same check CI's
``analysis-smoke`` job runs, kept in-tree so a plain pytest run catches
regressions (e.g. reverting one of the lock fixes) without CI.
"""

import time

from repro.analysis import (
    check_against_baseline,
    default_baseline_path,
    default_root,
    load_baseline,
    run_check,
)


class TestRepoIsClean:
    def test_no_new_findings_and_no_stale_entries(self):
        comparison = check_against_baseline()
        assert comparison.new == [], \
            "new analyzer findings:\n" + "\n".join(
                f.render(str(default_root())) for f in comparison.new)
        assert comparison.stale == [], \
            "stale baseline entries (fixed? run --update-baseline):\n" \
            + "\n".join(e.fingerprint for e in comparison.stale)

    def test_every_baseline_entry_has_a_documented_reason(self):
        entries = load_baseline(default_baseline_path())
        assert entries, "expected committed baseline entries"
        for entry in entries:
            assert entry.reason, \
                f"baseline entry {entry.fingerprint} ({entry.file}) " \
                f"has no documented reason"

    def test_full_scan_stays_fast(self):
        # The CI gate runs under `timeout 10`; leave headroom locally.
        start = time.monotonic()
        findings = run_check()
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"scan took {elapsed:.1f}s"
        # The scan saw the real tree (not an empty glob): the accepted
        # baseline findings are still found.
        assert len(findings) >= len(load_baseline(default_baseline_path()))
