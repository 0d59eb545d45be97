"""The fuzz firehose CLI.

Usage::

    python -m repro.fuzz run --seeds 50 --budget 120
    python -m repro.fuzz run --seeds 200 --budget 600 --events 2000 \\
        --matrix compiled/off/mono/inline,compiled/off/p4/inline --json
    python -m repro.fuzz run --seeds 25 --budget 300 --faults 0.05 --fault-seed 99
    python -m repro.fuzz shrink --seed 17 --cell compiled/inter/mono/inline \\
        --outcome DIVERGENCE
    python -m repro.fuzz corpus replay
    python -m repro.fuzz corpus add --seed 17 --note "pr9 lockset hole"

``run`` sweeps ``--seeds`` sampled parameter vectors (starting at
``--seed-base``) through the differential matrix until done or the
``--budget`` wall-clock (seconds) runs out.  Any ``DIVERGENCE``/``CRASH``
find is auto-shrunk (disable with ``--no-shrink``) and a one-line repro
script is written to ``benchmarks/artifacts/fuzz_repro_<digest>.sh``.
Exit status: 0 all clean, 1 finds, 2 usage (one-line typed error,
matching ``staticpass report``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path


def _repo_root() -> Path:
    return Path(__file__).resolve().parents[3]


def _default_artifacts() -> Path:
    return _repo_root() / "benchmarks" / "artifacts"


def _write_repro_script(artifacts: Path, outcome, matrix, faults: float,
                        fault_seed: int, scale: int) -> Path:
    """Satellite contract: every failure artifact carries the exact
    one-line repro command (seed + parameter vector + matrix cell)."""
    from repro.fuzz.gen import params_digest, params_to_dict

    artifacts.mkdir(parents=True, exist_ok=True)
    digest = params_digest(outcome.params)[:12]
    failing = [r.cell for r in outcome.cells if r.status == "error"]
    cell = failing[0] if failing else "*"
    parts = [
        "PYTHONPATH=src python -m repro.fuzz run",
        f"--seeds 1 --seed-base {outcome.params.seed}",
        f"--events {outcome.params.events}",
        f"--scale {scale}",
        "--budget 600",
        f"--matrix {','.join(cell.name for cell in matrix)}",
    ]
    if faults > 0:
        parts.append(f"--faults {faults} --fault-seed {fault_seed}")
    command = " ".join(parts)
    path = artifacts / f"fuzz_repro_{digest}.sh"
    path.write_text(
        "#!/bin/sh\n"
        f"# fuzz find: {outcome.outcome} (cell {cell})\n"
        f"# detail: {outcome.detail}\n"
        f"# params: {json.dumps(params_to_dict(outcome.params), sort_keys=True)}\n"
        f"{command}\n"
    )
    path.chmod(0o755)
    return path


def _cmd_run(args) -> int:
    from repro.fuzz import FIND_OUTCOMES, FuzzUsageError
    from repro.fuzz.faults import fault_plan, installed, suspended
    from repro.fuzz.oracle import DEFAULT_MATRIX, Oracle
    from repro.fuzz.shrink import shrink_outcome
    from repro.obs import PROCESS

    if args.seeds < 1:
        raise FuzzUsageError(f"--seeds must be >= 1, got {args.seeds}")
    if args.budget < 1:
        raise FuzzUsageError(f"--budget must be >= 1 second, got {args.budget}")
    if args.scale < 1:
        raise FuzzUsageError(f"--scale must be >= 1, got {args.scale}")
    matrix_names = (tuple(cell for cell in args.matrix.split(",") if cell)
                    if args.matrix else DEFAULT_MATRIX)
    fault_mode = args.faults > 0

    started = time.monotonic()
    rows = []
    finds = []
    ran = 0
    plan = fault_plan(args.faults, args.fault_seed) if fault_mode else None
    artifacts = Path(args.artifacts) if args.artifacts else _default_artifacts()

    with Oracle(matrix_names, store_root=args.store,
                case_timeout=args.case_timeout,
                fault_mode=fault_mode) as oracle:
        import contextlib

        with (installed(plan) if plan is not None else contextlib.nullcontext()):
            for seed in range(args.seed_base, args.seed_base + args.seeds):
                if time.monotonic() - started > args.budget:
                    break
                outcome = oracle.run_seed(seed, events=args.events,
                                          scale=args.scale)
                ran += 1
                rows.append({
                    "seed": seed,
                    "outcome": outcome.outcome,
                    "detail": outcome.detail,
                    "elapsed_s": round(outcome.elapsed, 3),
                })
                if outcome.outcome in FIND_OUTCOMES:
                    find = {"seed": seed, "outcome": outcome.outcome,
                            "detail": outcome.detail}
                    script = _write_repro_script(
                        artifacts, outcome, oracle.matrix, args.faults,
                        args.fault_seed, args.scale,
                    )
                    find["repro_script"] = str(script)
                    if not args.no_shrink:
                        try:
                            with suspended():
                                shrunk = shrink_outcome(
                                    outcome, matrix=matrix_names,
                                    case_timeout=args.case_timeout,
                                )
                            shrunk_path = artifacts / (
                                f"fuzz_shrunk_{script.stem.split('_')[-1]}.ir"
                            )
                            shrunk_path.write_text(shrunk.module_text)
                            find["shrunk_ir"] = str(shrunk_path)
                            find["shrunk_instructions"] = shrunk.final_instructions
                        except Exception as exc:  # shrink is best-effort
                            find["shrink_error"] = f"{type(exc).__name__}: {exc}"
                    finds.append(find)

    wall = time.monotonic() - started
    outcomes = {}
    for row in rows:
        outcomes[row["outcome"]] = outcomes.get(row["outcome"], 0) + 1
    summary = {
        "seeds_requested": args.seeds,
        "seed_base": args.seed_base,
        "cases_run": ran,
        "budget_s": args.budget,
        "wall_s": round(wall, 2),
        "cases_per_s": round(ran / wall, 3) if wall > 0 else 0.0,
        "matrix": [cell for cell in matrix_names],
        "outcomes": outcomes,
        "faults": ({"rate": args.faults, "fault_seed": args.fault_seed,
                    "fires": dict(plan.fires)} if plan is not None else None),
        "finds": finds,
        "stats": PROCESS.subsystems()["fuzz"],
    }
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2) + "\n")
    if args.as_json:
        print(json.dumps(summary, indent=2))
    else:
        print(f"fuzz run: {ran}/{args.seeds} cases in {wall:.1f}s "
              f"({summary['cases_per_s']}/s) across {len(matrix_names)} cells")
        for name in sorted(outcomes):
            print(f"  {name}: {outcomes[name]}")
        for find in finds:
            print(f"  FIND seed={find['seed']} {find['outcome']}: "
                  f"{find['detail']}")
            print(f"    repro: sh {find['repro_script']}")
    return 1 if finds else 0


def _cmd_shrink(args) -> int:
    from repro.fuzz.gen import sample_params
    from repro.fuzz.oracle import DEFAULT_MATRIX
    from repro.fuzz.shrink import shrink_case

    matrix_names = (tuple(cell for cell in args.matrix.split(",") if cell)
                    if args.matrix else DEFAULT_MATRIX)
    result = shrink_case(
        sample_params(args.seed, events=args.events),
        args.cell,
        args.outcome,
        matrix=matrix_names,
        case_timeout=args.case_timeout,
    )
    payload = {
        "seed": args.seed,
        "cell": result.cell,
        "outcome": result.outcome,
        "original_instructions": result.original_instructions,
        "final_instructions": result.final_instructions,
        "candidates_tried": result.candidates_tried,
        "module": result.module_text,
    }
    if args.out:
        Path(args.out).write_text(result.module_text)
        payload["out"] = args.out
    if args.as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"shrunk seed {args.seed} ({result.outcome} in {result.cell}): "
              f"{result.original_instructions} -> {result.final_instructions} "
              f"instructions over {result.candidates_tried} candidates")
        print(result.module_text)
    return 0


def _cmd_corpus(args) -> int:
    from repro.fuzz.corpus import (
        default_corpus_dir,
        iter_entries,
        make_entry,
        replay_corpus,
        save_entry,
    )

    corpus_dir = Path(args.dir) if args.dir else default_corpus_dir()
    if args.corpus_command == "list":
        for path, entry in iter_entries(corpus_dir):
            print(f"{path.name}  expected={entry['expected']}  "
                  f"{entry.get('note', '')}")
        return 0
    if args.corpus_command == "replay":
        rows = replay_corpus(corpus_dir, case_timeout=args.case_timeout)
        failed = [row for row in rows if not row["ok"]]
        if args.as_json:
            print(json.dumps({"entries": rows,
                              "failed": len(failed)}, indent=2))
        else:
            for row in rows:
                status = "ok" if row["ok"] else "FAIL"
                print(f"{status}  {row['entry']}  expected={row['expected']} "
                      f"got={row['outcome']}  {row['note']}")
            print(f"corpus replay: {len(rows) - len(failed)}/{len(rows)} green")
        return 1 if failed else 0
    # add
    from repro.fuzz.gen import sample_params

    params = sample_params(args.seed, events=args.events)
    entry = make_entry(params, note=args.note, expected=args.expected)
    path = save_entry(entry, corpus_dir)
    print(f"saved {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Adversarial workload firehose: generate, compare, shrink.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="seeded differential sweep")
    run.add_argument("--seeds", type=int, default=25,
                     help="number of sampled cases")
    run.add_argument("--seed-base", type=int, default=0)
    run.add_argument("--budget", type=float, default=300.0,
                     help="wall-clock budget in seconds")
    run.add_argument("--events", type=int, default=None,
                     help="override the sampled per-case event target")
    run.add_argument("--scale", type=int, default=1)
    run.add_argument("--matrix", default="",
                     help="comma-separated backend/elide/partition/path cells")
    run.add_argument("--faults", type=float, default=0.0,
                     help="fault-injection rate (0 disables)")
    run.add_argument("--fault-seed", type=int, default=1337)
    run.add_argument("--case-timeout", type=float, default=60.0)
    run.add_argument("--store", default=None,
                     help="trace store root (default: fresh temp dir)")
    run.add_argument("--artifacts", default=None,
                     help="failure artifact dir (default benchmarks/artifacts)")
    run.add_argument("--out", default=None, help="write summary JSON here")
    run.add_argument("--json", action="store_true", dest="as_json")
    run.add_argument("--no-shrink", action="store_true")

    shrink = sub.add_parser("shrink", help="delta-debug one failing seed")
    shrink.add_argument("--seed", type=int, required=True)
    shrink.add_argument("--cell", required=True,
                        help="failing matrix cell (or * for divergences)")
    shrink.add_argument("--outcome", default="DIVERGENCE",
                        choices=("DIVERGENCE", "CRASH", "TIMEOUT"))
    shrink.add_argument("--events", type=int, default=None)
    shrink.add_argument("--matrix", default="")
    shrink.add_argument("--case-timeout", type=float, default=60.0)
    shrink.add_argument("--out", default=None, help="write shrunk IR here")
    shrink.add_argument("--json", action="store_true", dest="as_json")

    corpus = sub.add_parser("corpus", help="regression corpus maintenance")
    corpus.add_argument("corpus_command", choices=("list", "replay", "add"))
    corpus.add_argument("--dir", default=None)
    corpus.add_argument("--seed", type=int, default=0)
    corpus.add_argument("--events", type=int, default=None)
    corpus.add_argument("--note", default="")
    corpus.add_argument("--expected", default="MATCH")
    corpus.add_argument("--case-timeout", type=float, default=120.0)
    corpus.add_argument("--json", action="store_true", dest="as_json")

    args = parser.parse_args(argv)

    from repro.fuzz import FuzzError, FuzzUsageError

    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "shrink":
            return _cmd_shrink(args)
        return _cmd_corpus(args)
    except FuzzUsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except FuzzError as exc:
        print(str(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:  # e.g. piped into `head`
        sys.exit(0)
