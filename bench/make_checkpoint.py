"""Make the protocol checkpoint that the `extract` workload loads.

    python3 bench/make_checkpoint.py [--out bench/protocol.spsy]

Runs the shipped synthetic protocol through the specsyn command line:
`compose` 3,000 train and 250 test samples with seed 42, `train` at the
defaults (d=64, 2 blocks, batch 32, 100 epochs, seed 42), then `eval` the
held-out split. Prints the checkpoint's sha256 and its criterion-6
figures. The BLAS thread count is the benchmark's, so the bytes match the
committed checkpoint on the machine that made it; about 9 minutes on one
core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from checkout import BENCH, CheckoutError, load_specsyn


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=BENCH / "protocol.spsy")
    args = parser.parse_args(argv)
    try:
        load_specsyn()
    except CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    from specsyn.cli import main as specsyn

    BENCH.joinpath("work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=BENCH / "work") as tmp:
        work = Path(tmp)
        steps = (
            ("compose", "--n", "3000", "--test-n", "250", "--pos-frac", "0.3", "--seed", "42",
             "--out", work / "train.jsonl", "--test-out", work / "test.jsonl"),
            ("train", "--data", work / "train.jsonl", "--seed", "42",
             "--out", work / "protocol.spsy", "--log", work / "loss.csv"),
            ("eval", "--model", work / "protocol.spsy", "--data", work / "test.jsonl",
             "--report", work / "report.json"),
        )
        for step in steps:
            start = time.perf_counter()
            status = specsyn([str(a) for a in step])
            print(f"{step[0]}: exit {status} in {time.perf_counter() - start:.1f} s", file=sys.stderr)
            if status != 0:
                return 1
        report = json.loads((work / "report.json").read_text(encoding="utf-8"))
        shutil.copyfile(work / "protocol.spsy", args.out)
    digest = hashlib.sha256(args.out.read_bytes()).hexdigest()
    print(f"{args.out}: sha256 {digest}")
    print(f"F1 {report['f1']:.4f}, generation EM {report['generation_em']:.4f}")
    for name, group in sorted(report["by_type"].items()):
        print(f"  {name}: {group['count']} samples, EM {group['generation_em']:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
