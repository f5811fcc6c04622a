"""Validation sweep: set a bath temperature, run the full protocol, recover it.

For each grid point the script simulates the six sequences, estimates the
temperature from every coefficient, and attaches noise error bars from
repeated re-draws on the noiseless responses.  Output is one CSV row per
point plus a printed table; the recovered values should track the set ones
within the error bars across the accessible range.

Usage:
    python scripts/temperature_sweep.py --config configs/default.json \
        --bath-mk 50,100,150,200 --error-runs 40
"""

import argparse
import csv
import dataclasses
import sys
import time
from pathlib import Path

from tritherm.config import load_config
from tritherm.errorlab import repeated_measurement_stats
from tritherm.pipeline import calibrate_transitions, estimate, run_protocol
from tritherm.thermometry import COEFFICIENTS


def parse_grid(text: str):
    if ":" in text:
        start, stop, step = (float(v) for v in text.split(":"))
        out = []
        t = start
        while t <= stop + 1e-9:
            out.append(round(t, 6))
            t += step
        return out
    return [float(v) for v in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--config", required=True)
    ap.add_argument("--bath-mk", default="50,100,150,200",
                    help="comma list or start:stop:step in mK")
    ap.add_argument("--error-runs", type=int, default=40,
                    help="noise re-draws per point for the error bars")
    ap.add_argument("--out", default="runs/temperature_sweep")
    args = ap.parse_args(argv)

    base = load_config(args.config)
    grid = parse_grid(args.bath_mk)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    # one calibration serves the whole sweep; the gates do not know the bath
    ops = base.system.build_operators()
    cals = calibrate_transitions(ops, base.protocol)

    rows = []
    for t_set in grid:
        cfg = dataclasses.replace(
            base,
            dissipation=dataclasses.replace(base.dissipation, bath_t_mk=t_set),
            seed=base.seed + int(round(t_set)))
        t0 = time.perf_counter()
        result = run_protocol(cfg, calibrations=cals)
        report = estimate(result.responses, result.levels, cfg.protocol, cfg.seed)
        spread = repeated_measurement_stats(
            result.noiseless_responses, result.levels, n_runs=args.error_runs,
            noise_sigma=cfg.readout.noise_sigma, seed=cfg.seed)
        row = {"T_set_mK": t_set, "wall_s": round(time.perf_counter() - t0, 2)}
        for coef in COEFFICIENTS:
            row[f"T_{coef}_mK"] = round(report.temperature(coef).t_mk, 3)
            row[f"T_{coef}_err_mK"] = round(spread.std(coef), 3)
        rows.append(row)
        print(f"  {t_set:7.1f} mK -> " + "  ".join(
            f"T_{c} = {row[f'T_{c}_mK']:7.2f} +- {row[f'T_{c}_err_mK']:5.2f}"
            for c in COEFFICIENTS))

    path = outdir / "sweep.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
