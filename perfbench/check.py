"""Output checks for the paper commands the benchmark runs.

Every invocation is checked, at any seed, for a zero exit status, a
complete result table and a ρ₁ equal to its analytic value (stage I is
exact PMF algebra, so ρ₁ does not depend on the seed). At seeds with a
stored reference, the (ρ₁, ρ₂) line and every deadline verdict — the
Table VI cells of ``robustness`` or the "meets deadline" column of a
scenario — must also match it.

``python3 perfbench/check.py --write SEED... [--workload NAME...]`` runs the
commands (of every workload, or of the named ones) and stores their
references in ``references.json``, with the whole stdout of a
command another workload must reproduce byte for byte. Do that only on
purpose, when a change re-baselines the paper output.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

REFERENCES = Path(__file__).with_name("references.json")

_RHO = re.compile(r"\(rho1, rho2\) = \((\d+(?:\.\d+)?)%, (\d+(?:\.\d+)?)%\)")


def load_references(path: Path = REFERENCES) -> dict:
    return json.loads(path.read_text())


def _table_rows(stdout: str) -> tuple[list[str], list[list[str]]]:
    """Header and body cells of the first ``+---+`` framed table."""
    header: list[str] = []
    rows: list[list[str]] = []
    for line in stdout.splitlines():
        if not line.startswith("|"):
            if rows:
                break
            continue
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if not header:
            header = cells
        else:
            rows.append(cells)
    return header, rows


def summarize(stdout: str) -> dict:
    """The checked facts of one command's stdout.

    ``verdicts`` lists one ``key=value`` string per table cell that
    decides a deadline: ``app/case=technique`` for Table VI, and
    ``case/app/technique=yes|NO`` for a scenario table.
    """
    header, rows = _table_rows(stdout)
    verdicts: list[str] = []
    if header[:1] == ["app"]:
        for row in rows:
            verdicts += [
                f"{row[0]}/{case}={cell}" for case, cell in zip(header[1:], row[1:])
            ]
    elif header[:3] == ["case", "app", "technique"] and "meets deadline" in header:
        col = header.index("meets deadline")
        verdicts = [f"{r[0]}/{r[1]}/{r[2]}={r[col]}" for r in rows]
    match = _RHO.search(stdout)
    return {
        "rho": list(match.groups()) if match else None,
        "verdicts": verdicts,
    }


def check_output(
    reference: str,
    seed: int,
    returncode: int,
    stdout: str,
    refs: dict,
) -> list[str]:
    """Problems with one invocation's result; empty when it is correct."""
    if returncode != 0:
        return [f"exit status {returncode}"]
    got = summarize(stdout)
    problems = []
    if got["rho"] is None:
        return ["no (rho1, rho2) line in stdout"]
    printed = got["rho"][0]
    decimals = len(printed.partition(".")[2])
    analytic = f"{100 * refs['rho1']:.{decimals}f}"
    if printed != analytic:
        problems.append(f"rho1 {printed}% != analytic {analytic}%")
    cells = refs["cells"][reference]
    if len(got["verdicts"]) != cells:
        problems.append(f"{len(got['verdicts'])} verdict cells, expected {cells}")
    stored = refs["seeds"].get(str(seed), {}).get(reference)
    if stored is not None:
        if got["rho"] != stored["rho"]:
            problems.append(f"(rho1, rho2) {got['rho']} != reference {stored['rho']}")
        wrong = [
            f"{g} (reference {s})"
            for g, s in zip(got["verdicts"], stored["verdicts"])
            if g != s
        ]
        if wrong or len(got["verdicts"]) != len(stored["verdicts"]):
            problems.append("verdicts differ from reference: " + ", ".join(wrong))
    return problems


def stored_stdout(refs: dict, reference: str, seed: int) -> str | None:
    """The stored stdout of ``reference`` at ``seed``, if one was kept."""
    return refs["seeds"].get(str(seed), {}).get(reference, {}).get("stdout")


def _write(seeds: list[int], names: list[str] | None = None) -> None:
    root = Path(__file__).resolve().parent.parent
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    refs = load_references() if REFERENCES.exists() else {"seeds": {}}
    twins = {w.same_stdout_as for w in WORKLOADS.values()}
    for seed in seeds:
        entry = refs["seeds"].setdefault(str(seed), {})
        for w in WORKLOADS.values():
            if w.same_stdout_as is not None or (names and w.name not in names):
                continue
            out = subprocess.run(
                [sys.executable, "-m", "repro", *w.command(seed)],
                cwd=root, env=env, capture_output=True, text=True, check=True,
            ).stdout
            entry[w.name] = summarize(out)
            if w.name in twins:
                entry[w.name]["stdout"] = out
            print(f"seed {seed} {w.name}: {entry[w.name]['rho']}", flush=True)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", type=int, nargs="+", metavar="SEED", required=True)
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS))
    args = parser.parse_args()
    _write(args.write, args.workload)
