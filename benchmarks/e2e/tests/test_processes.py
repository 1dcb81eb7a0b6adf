import subprocess
import sys
import time

import record

# A spawn-context child that would outlive its parent's patience, plus the
# resource tracker the spawn context starts: after stop_children() this
# process has no child left, not even an unreaped one.
SCRIPT = """
import multiprocessing, sys, time
sys.path.insert(0, {here!r})
import record

if __name__ == "__main__":
    context = multiprocessing.get_context("spawn")
    child = context.Process(target=time.sleep, args=(60,), daemon=True)
    child.start()
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker._pid
    assert {{child.pid, tracker}} <= set(record._child_pids())
    record.stop_children(grace_s=1.0)
    print("left", record._child_pids())
"""


def test_stop_children_leaves_no_process_behind(tmp_path):
    script = tmp_path / "leaky.py"
    script.write_text(SCRIPT.format(here=str(record.HERE)), encoding="utf-8")
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip().splitlines()[-1] == "left []"
    assert time.monotonic() - t0 < 30      # did not wait for the sleep
