"""CLI smoke tests: every subcommand runs and prints a table."""

from pathlib import Path

import pytest

from repro.cli import main

# A plan file written by an earlier version of `repro plan`.
OLD_PLAN = (Path(__file__).parents[1] / "planning" / "data"
            / "demo_plan_with_scoring.json")


def run_cli(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


class TestCLI:
    def test_profile(self, capsys):
        out = run_cli(capsys, "profile")
        assert "ViT-Base" in out
        assert "Latency" in out

    def test_flops_default(self, capsys):
        out = run_cli(capsys, "flops")
        assert "CIFAR-10" in out and "GTZAN" in out

    def test_flops_prints_one_column_set(self, capsys):
        out = run_cli(capsys, "flops")
        assert out.splitlines()[0].split() == [
            "Dataset", "Original", "(G)", "N=2", "(G)", "N=3", "(G)", "N=5",
            "(G)", "N=10", "(G)"]

    def test_flops_has_no_mode_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["flops", "--mode", "algorithm1"])
        assert exc.value.code == 2

    def test_curve_default(self, capsys):
        out = run_cli(capsys, "curve")
        assert "latency_s" in out

    def test_curve_small_model(self, capsys):
        out = run_cli(capsys, "curve", "--model", "vit-small")
        assert "latency_s" in out

    def test_curve_explicit_budget(self, capsys):
        out = run_cli(capsys, "curve", "--model", "vit-base",
                      "--budget-mb", "300")
        assert "total_memory_mb" in out

    def test_plan_emits_json(self, capsys):
        import json

        out = run_cli(capsys, "plan", "--workers", "2")
        plan = json.loads(out)
        assert plan["format_version"] == 1
        assert len(plan["submodels"]) == 2
        assert set(plan["mapping"]) == {"submodel-0", "submodel-1"}

    def test_plan_writes_file(self, capsys, tmp_path):
        from repro.planning import DeploymentPlan

        path = tmp_path / "plan.json"
        out = run_cli(capsys, "plan", "--workers", "3",
                      "--throughputs", "1.0,0.5,0.25",
                      "--out", str(path))
        assert "plan written to" in out
        plan = DeploymentPlan.load(path)
        plan.validate()
        assert len(plan.devices) == 3
        assert plan.prediction is not None

    @pytest.mark.parametrize("throughputs, reason", [
        ("1,0", "macs_per_second"),
        ("1,-1", "macs_per_second"),
        ("1", "one throughput multiplier per worker"),
    ])
    def test_plan_rejects_bad_throughputs_in_one_line(self, tmp_path,
                                                      throughputs, reason):
        path = tmp_path / "plan.json"
        with pytest.raises(SystemExit) as exc:
            main(["plan", "--throughputs", throughputs, "--out", str(path)])
        assert reason in str(exc.value.code)
        assert "\n" not in str(exc.value.code)
        assert not path.exists()

    def test_communication(self, capsys):
        out = run_cli(capsys, "communication")
        assert "feature_bytes" in out

    def test_schedule(self, capsys):
        out = run_cli(capsys, "schedule", "--devices", "3")
        assert "total:" in out

    def test_schedule_prints_one_column_set(self, capsys):
        out = run_cli(capsys, "schedule", "--devices", "3")
        header = out.splitlines()[0].split()
        assert header == ["sub-model", "hp", "embed_dim", "size_mb", "gmacs"]
        # The paper's schedule at N=3: hp 8, 36.91 MiB per sub-model.
        assert [line.split()[1] for line in out.splitlines()[2:5]] == \
            ["8"] * 3
        assert "total: 110.74 MiB across 3 devices (budget 180 MB)" in out

    @pytest.mark.parametrize("command", ["schedule", "curve"])
    def test_zero_budget_is_planned_not_replaced(self, command):
        # An explicit 0 MB budget fits nothing: a one-line exit naming
        # the planner's reason, not the paper's 180 MB nor a traceback.
        with pytest.raises(SystemExit) as exc:
            main([command, "--devices", "2", "--budget-mb", "0"]
                 if command == "schedule" else
                 [command, "--budget-mb", "0"])
        assert str(exc.value.code).startswith("no feasible plan for N=")
        assert "budget 0 B unreachable" in str(exc.value.code)
        assert "\n" not in str(exc.value.code)

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_model_exits(self):
        with pytest.raises(SystemExit):
            main(["curve", "--model", "vit-giant"])

    def test_check_is_an_unknown_command(self):
        # Source invariants are tier-1 tests, not a subcommand.
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 2


class TestServingCommands:
    """``serve`` / ``loadgen`` on in-process workers."""

    SERVE = ("--transport", "inprocess", "--requests")

    def serve_json(self, capsys, *argv):
        import json

        return json.loads(run_cli(capsys, "serve", *self.SERVE, *argv,
                                  "--json"))

    def test_serve_completes_every_request(self, capsys):
        report = self.serve_json(capsys, "30")["report"]
        assert report["completed"] == 30 and report["failed"] == 0

    def test_serve_plan_swaps_from_the_store(self, capsys, tmp_path):
        store, plan = str(tmp_path / "store"), str(tmp_path / "p.json")
        run_cli(capsys, "plan", "--store", store, "--out", plan)
        data = self.serve_json(capsys, "60", "--plan", plan,
                               "--store", store, "--swap-after", "0.05")
        assert data["swap"]["worker"]

    def test_serve_swaps_without_a_plan(self, capsys, tmp_path):
        data = self.serve_json(capsys, "60", "--store",
                               str(tmp_path / "store"),
                               "--swap-after", "0.05")
        assert data["swap"]["worker"]

    def test_swap_after_needs_a_store(self):
        with pytest.raises(SystemExit, match="--store"):
            main(["serve", *self.SERVE, "10", "--swap-after", "0.05"])

    @pytest.mark.parametrize("command, flags, message", [
        ("serve", ("--rps", "0"), "offered_rps"),
        ("loadgen", ("--rates", "10,-5"), "offered_rps"),
        ("serve", ("--requests", "0"), "num_requests"),
    ])
    def test_bad_load_exits_with_one_line_before_the_fleet(
            self, monkeypatch, command, flags, message):
        import repro.cli

        def no_fleet(args):
            raise AssertionError("a fleet was built")
        monkeypatch.setattr(repro.cli, "_make_server", no_fleet)
        with pytest.raises(SystemExit, match=message) as exc:
            main([command, *self.SERVE, "5", *flags])
        assert "\n" not in str(exc.value.code)

    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["devices"][0].pop("memory_bytes"),
         r"devices\[0\] 'edge-0': missing keys \['memory_bytes'\]"),
        (lambda d: d["devices"][0].update(gpu=1),
         r"devices\[0\] 'edge-0': .*unknown keys \['gpu'\]"),
        (lambda d: d["devices"][0].update(memory_bytes=-1),
         r"devices\[0\] 'edge-0': memory_bytes must be positive"),
        (lambda d: d["fusion_device"].update(link_bandwidth_bps=0),
         r"fusion_device 'fusion': bandwidth_bps must be"),
        (lambda d: d.pop("mapping"), r"missing required keys \['mapping'\]"),
        (lambda d: d["mapping"].update({d["submodels"][0]["model_id"]:
                                        "ghost"}),
         r"mapped to unknown device 'ghost'"),
    ], ids=["device-missing-key", "device-unknown-key", "device-bad-value",
            "fusion-bad-link", "no-mapping", "ghost-device"])
    @pytest.mark.parametrize("command", [
        ("serve", "--transport", "inprocess", "--requests", "5"),
        ("quantize", "--store", "S"),
    ])
    def test_a_bad_plan_file_exits_with_one_line(
            self, tmp_path, monkeypatch, command, edit, message):
        import json

        import repro.planning

        data = json.loads(OLD_PLAN.read_text())
        edit(data)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))

        def no_fleet(*args, **kwargs):
            raise AssertionError("a fleet was built")
        monkeypatch.setattr(repro.planning.PlannedSystem, "from_plan",
                            no_fleet)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit, match=message) as exc:
            main([command[0], "--plan", str(path), *command[1:]])
        assert "\n" not in str(exc.value.code)

    def test_trace_writes_json(self, capsys, tmp_path):
        import json

        from repro.obs import disable_tracing

        path = tmp_path / "t.json"
        try:
            run_cli(capsys, "serve", *self.SERVE, "10", "--trace", str(path))
        finally:
            disable_tracing()
        json.loads(path.read_text())

    def test_trace_is_not_a_command(self):
        # A traced run is `serve --trace FILE`.
        with pytest.raises(SystemExit) as exc:
            main(["trace", *self.SERVE, "10"])
        assert exc.value.code == 2

    def test_loadgen_prints_one_row_per_rate(self, capsys):
        out = run_cli(capsys, "loadgen", *self.SERVE, "10",
                      "--rates", "100")
        header, rule, *rows = out.strip().splitlines()
        assert set(rule) <= {"-", " "} and len(rows) == 1
