"""Checks on the files a run leaves behind. A failed check makes the run count as failed."""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os
from pathlib import Path


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dir_bytes(path: Path) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)


def parse_rows(text: str) -> tuple[list[str], list[dict[str, str]]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, [])
    return header, [dict(zip(header, row)) for row in reader if row]


def check_metrics(text: str, *, epochs: list[list[int]], batch_size: int,
                  episodes_per_task: int, max_steps: int, ccl: bool) -> list[str]:
    """Problems found in one ``metrics.csv``; an empty list means it passed.

    ``epochs`` lists the accepted sequences of epoch numbers, in file order.
    """
    header, rows = parse_rows(text)
    problems: list[str] = []
    needed = {"epoch", "target_success", "batch_new", "batch_old", "episodes_total",
              "env_steps_total"}
    if not needed <= set(header):
        return [f"metrics.csv header lacks {sorted(needed - set(header))}"]
    try:
        seen = [int(row["epoch"]) for row in rows]
    except (KeyError, TypeError, ValueError):
        return ["metrics.csv has a non-integer epoch"]
    if seen not in epochs:
        problems.append(f"metrics.csv holds epochs {seen}, expected one of {epochs}")
    for row in rows:
        where = f"epoch {row.get('epoch')}"
        try:
            epoch = int(row["epoch"])
            episodes = int(row["episodes_total"])
            steps = int(row["env_steps_total"])
            success = float(row["target_success"])
            batch_new, batch_old = int(row["batch_new"]), int(row["batch_old"])
        except (KeyError, TypeError, ValueError):
            problems.append(f"{where}: unparsable row")
            continue
        if episodes != epoch * batch_size * episodes_per_task:
            problems.append(f"{where}: episodes_total {episodes} != epochs x batch x episodes")
        if not episodes <= steps <= episodes * max_steps:
            problems.append(f"{where}: env_steps_total {steps} outside [{episodes}, "
                            f"{episodes * max_steps}]")
        if ccl and batch_new + batch_old != batch_size:
            problems.append(f"{where}: batch_new + batch_old != {batch_size}")
        if not (math.isfinite(success) and 0.0 <= success <= 1.0):
            problems.append(f"{where}: target_success {success} outside [0, 1]")
    return problems


def check_against_reference(text: str, reference: str) -> tuple[list[str], int]:
    """Rows a resumed run kept must equal the uninterrupted run's rows of the same epoch.

    Returns the problems and the number of reference rows the resumed file lost.
    """
    ref_header, ref_rows = parse_rows(reference)
    header, rows = parse_rows(text)
    if header != ref_header:
        return ["resumed metrics.csv header differs from the reference run"], len(ref_rows)
    by_epoch = {row.get("epoch"): row for row in ref_rows}
    problems = [f"epoch {row.get('epoch')}: resumed row differs from the reference run"
                for row in rows if by_epoch.get(row.get("epoch")) != row]
    return problems, len(ref_rows) - len(rows)
