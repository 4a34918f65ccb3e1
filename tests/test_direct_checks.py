"""The table of ``direct_checks.py``, the driver of every check run past the
reach of ``verify``, and that its stages fail as they should; nothing here
runs a heavy group."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import direct_checks
from direct_checks import GROUPS, Check, Peak, Ref, run
from sympderiv import checks

STAGES = [stage for group in GROUPS.values() for stage in group]


def test_the_genus_4_group_is_the_checks_verify_skips_there():
    cert = json.loads((Path(__file__).parent / "data" / "certificate-g4.json")
                      .read_text())
    skipped = [c["id"] for c in cert["checks"] if c["status"] == "skipped"]
    assert sorted(skipped) == sorted(
        ["dprime-index", "kernel-index", "quartic-vanishing",
         "casson-bridge", "well-definedness", "trace-kernels"])
    group = GROUPS["genus-4-skipped"]
    assert all(isinstance(stage, Check) and stage.g == 4 for stage in group)
    assert [stage.cid for stage in group] == skipped


def test_every_stage_names_a_real_check_or_helper_past_verify():
    for stage in STAGES:
        if isinstance(stage, Check):
            # a real check id, at a genus verify does not run it at
            assert 2 <= stage.g <= 7
            assert stage.g not in checks.CHECKS[stage.cid].genera, stage.cid
        elif isinstance(stage, Ref) and isinstance(stage.fn, str):
            module, name = stage.fn.rsplit(".", 1)
            assert callable(getattr(importlib.import_module(module), name))
    # every bound, in order of its group and its read point
    assert [s.mb for s in STAGES if isinstance(s, Peak)] == [
        120, 135, 150, 90, 400, 80, 175, 72, 176, 80, 100]


def test_the_stages_pass_on_what_they_assert():
    run([Check("d2-rank", 2, kernel_rank=20, count_rank=20, expected=20),
         Ref(direct_checks.d2_is_bracket_kernel, 2, 20), Peak(2 ** 20)])


@pytest.mark.parametrize("stages", [
    [Check("d2-rank", 2), Peak(1)],
    [Check("d2-rank", 2, kernel_rank=21)],
    [Ref(direct_checks.d2_is_bracket_kernel, 2, 21)],
], ids=["over-bound", "wrong-witness", "wrong-reference"])
def test_a_stage_fails_over_its_bound_or_on_a_wrong_value(stages):
    with pytest.raises(AssertionError):
        run(stages)


def test_a_group_runs_in_its_own_child_process():
    out = subprocess.run([sys.executable, direct_checks.__file__, "d2-g5"],
                         capture_output=True, text=True, check=True).stdout
    assert "d2_is_bracket_kernel 5 -> 825" in out
    assert "VmHWM" in out.splitlines()[-1]


def test_the_driver_names_every_failing_group(monkeypatch, capsys):
    calls = []

    def child(cmd):
        calls.append(cmd)
        return subprocess.CompletedProcess(cmd, int(cmd[2] in ("d2-g7",
                                                               "casson")))

    monkeypatch.setattr(subprocess, "run", child)
    assert direct_checks.main([]) == 1
    assert calls == [[sys.executable, direct_checks.__file__, name]
                     for name in GROUPS]
    assert capsys.readouterr().out.splitlines()[-1] == "failed: d2-g7, casson"
