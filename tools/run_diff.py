#!/usr/bin/env python3
"""Per-request diff of two runs' request CSVs.

Compares two per-request CSVs as written by `deepserve_sim --csv` (one row
per completed request: request_id, arrival_ms, first_token_ms, completion_ms,
prefill_len, decode_len, ttft_ms, tpot_ms, jct_ms), keyed by request id, and
reports what a re-pin moved:

  - the requests whose termination differs (completed in one run only);
  - for each of TTFT, TPOT and JCT: how many requests changed, the median
    and p99 of the changed requests' deltas (second run minus first), and
    the five largest changes;
  - the first divergent request by arrival.

Usage: run_diff.py BEFORE.csv AFTER.csv [--worst N]

Exit status: 0 when both CSVs hold the same requests with the same values,
1 when they differ, 2 on a usage or input error. Standard library only.
"""

import argparse
import csv
import math
import sys

KEY = "request_id"
METRICS = ("ttft_ms", "tpot_ms", "jct_ms")


class InputError(Exception):
    pass


def load(path):
    """Returns {request id: row dict} and the header of one CSV."""
    try:
        with open(path, newline="") as f:
            reader = csv.DictReader(f)
            header = reader.fieldnames or []
            missing = [c for c in (KEY, "arrival_ms") + METRICS if c not in header]
            if missing:
                raise InputError(f"{path}: missing column(s) {', '.join(missing)}")
            rows = {}
            for line, row in enumerate(reader, start=2):
                rid = row[KEY]
                if rid in rows:
                    raise InputError(f"{path}:{line}: duplicate request id {rid}")
                rows[rid] = row
            return rows, header
    except OSError as e:
        raise InputError(f"{path}: {e.strerror}") from e


def number(row, column, path):
    try:
        return float(row[column])
    except (TypeError, ValueError) as e:
        raise InputError(f"{path}: request {row[KEY]}: bad {column} {row[column]!r}") from e


def percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending, non-empty list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def median(sorted_values):
    n = len(sorted_values)
    mid = n // 2
    return sorted_values[mid] if n % 2 else (sorted_values[mid - 1] + sorted_values[mid]) / 2.0


def id_order(rid):
    """Sorts numeric ids numerically, anything else after them as text."""
    try:
        return (0, int(rid), "")
    except ValueError:
        return (1, 0, rid)


def diff(before_path, after_path, worst, out):
    """Writes the report to `out`; returns whether the runs differ."""
    before, before_header = load(before_path)
    after, after_header = load(after_path)
    differs = False
    if before_header != after_header:
        out.write(f"columns differ: {','.join(before_header)} vs {','.join(after_header)}\n")
        differs = True

    only_before = sorted(set(before) - set(after), key=id_order)
    only_after = sorted(set(after) - set(before), key=id_order)
    common = sorted(set(before) & set(after), key=id_order)
    out.write(f"requests: {len(before)} vs {len(after)} completed, {len(common)} in both\n")
    if only_before or only_after:
        differs = True
        out.write(f"termination differs: {len(only_before) + len(only_after)}\n")
        for rid in only_before:
            out.write(f"  request {rid}: completed only in {before_path}\n")
        for rid in only_after:
            out.write(f"  request {rid}: completed only in {after_path}\n")
    else:
        out.write("termination differs: 0\n")

    for metric in METRICS:
        deltas = []
        for rid in common:
            a = number(before[rid], metric, before_path)
            b = number(after[rid], metric, after_path)
            if a != b:
                deltas.append((b - a, rid, a, b))
        if not deltas:
            out.write(f"{metric}: 0 changed\n")
            continue
        differs = True
        values = sorted(d[0] for d in deltas)
        out.write(
            f"{metric}: {len(deltas)} changed, delta median {median(values):+.4f} "
            f"p99 {percentile(values, 99):+.4f}\n"
        )
        deltas.sort(key=lambda d: (-abs(d[0]), id_order(d[1])))
        for delta, rid, a, b in deltas[:worst]:
            out.write(f"  request {rid}: {a:.4f} -> {b:.4f} ({delta:+.4f})\n")

    divergent = []
    for rid in set(before) | set(after):
        row_a, row_b = before.get(rid), after.get(rid)
        if row_a != row_b:
            row = row_a if row_a is not None else row_b
            path = before_path if row_a is not None else after_path
            divergent.append((number(row, "arrival_ms", path), id_order(rid), rid))
    if divergent:
        differs = True
        arrival, _, rid = min(divergent)
        out.write(f"first divergent request by arrival: {rid} (arrival {arrival:.3f} ms)\n")
    out.write("different\n" if differs else "identical\n")
    return differs


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", help="the first run's per-request CSV")
    parser.add_argument("after", help="the second run's per-request CSV")
    parser.add_argument("--worst", type=int, default=5,
                        help="largest changes listed per metric (default 5)")
    args = parser.parse_args(argv)
    if args.worst < 0:
        parser.error("--worst must be >= 0")
    try:
        return 1 if diff(args.before, args.after, args.worst, sys.stdout) else 0
    except InputError as e:
        sys.stderr.write(f"run_diff: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
