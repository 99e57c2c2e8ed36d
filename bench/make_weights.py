"""Train the fixed comparator weights that the solve-large and eval-mixed
workloads score with, and print their SHA-256.

The weights come from the acceptance ER training config: 50 ER graphs with
n 15-35 and p 0.15 (generator seed 81), 100 epochs, mixed roll-outs, 3
roll-outs per estimate, training seed 7. The run is deterministic, so the
digest it prints is the one ``run.py`` checks before loading the file.

Usage, from the repository root (takes a few minutes):

    python3 bench/make_weights.py
"""

from __future__ import annotations

import hashlib
import os
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from cmpdp.config import RunConfig  # noqa: E402
from cmpdp.net import save_params  # noqa: E402
from cmpdp.selftrain import train  # noqa: E402
from workloads import ACCEPTANCE_TRAIN_SEED, WEIGHTS_FILE, er_graphs  # noqa: E402


def main() -> int:
    graphs = er_graphs(50, 0.15, seed=ACCEPTANCE_TRAIN_SEED)
    cfg = RunConfig(total_epochs=100, mixed=True, seed=7, num_rollouts=3)
    params, _ = train(graphs, cfg)
    WEIGHTS_FILE.parent.mkdir(parents=True, exist_ok=True)
    save_params(params, WEIGHTS_FILE)
    print(hashlib.sha256(WEIGHTS_FILE.read_bytes()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
