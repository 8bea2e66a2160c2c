"""One fresh benchmark process.

    python3 levybench/child.py REQUEST.json

The request names a mode (``setup``, ``run`` or ``trace``), the config file,
the CLI arguments and the file to write the result to. Every mode imports
levyhom and loads the config, then records the monotonic clock, which the
parent compares with the moment it launched this process (set-up time).
``run`` then calls ``levyhom.cli.main`` untraced; ``trace`` calls it with
spans around the public functions of every module. The exit code is 0
whenever a result was written, including when the CLI command failed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(request_path):
    req = json.loads(Path(request_path).read_text())
    from levyhom import cli
    from levyhom.config import load_config
    load_config(req["config"])
    result = {"setup_done": time.monotonic()}

    if req["mode"] != "setup":
        tracer = None
        if req["mode"] == "trace":
            from tracing import Tracer
            tracer = Tracer(req["run_id"])
            tracer.install()
        rc, error = None, ""
        t0 = time.monotonic()
        try:
            if tracer is None:
                rc = cli.main(req["argv"])
            else:
                rc = tracer.call("cli.main", "cli", cli.main, req["argv"])
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            error = traceback.format_exc()
        result.update(rc=rc, error=error, wall_s=time.monotonic() - t0)
        if tracer is not None:
            from tracing import driver_probe
            result["trace"] = {"spans": tracer.spans,
                               "missing": tracer.missing,
                               "probe": driver_probe(tracer, req["seed"])}
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(req["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
