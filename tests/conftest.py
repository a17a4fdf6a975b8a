import json
import os
import sys
import time

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """The desk config's `benchmark --deterministic` run, its stats and
    report; made once for the acceptance and golden-digest tests."""
    from evomlp.cli import main as cli_main
    from test_acceptance import DESK_CONFIG

    tmp = tmp_path_factory.mktemp("desk")
    config = tmp / "config.json"
    config.write_text(json.dumps(DESK_CONFIG))
    bench = tmp / "bench"
    started = time.time()
    code = cli_main(["benchmark", "--config", str(config),
                     "--out", str(bench), "--deterministic", "--quiet"])
    elapsed = time.time() - started
    assert code == 0
    stats_dir = tmp / "stats"
    assert cli_main(["stats", "--results", str(bench / "results.jsonl"),
                     "--alpha", "0.05", "--out", str(stats_dir)]) == 0
    report_dir = tmp / "report"
    assert cli_main(["report", "--results", str(bench / "results.jsonl"),
                     "--out", str(report_dir)]) == 0
    records = [json.loads(line) for line
               in (bench / "results.jsonl").read_text().splitlines()]
    return {"elapsed": elapsed, "records": records, "stats": stats_dir,
            "report": report_dir, "bench": bench, "config": config}
