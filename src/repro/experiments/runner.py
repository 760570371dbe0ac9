"""Sharded multi-process experiment runner.

``python -m repro run E18 --shards N`` partitions an experiment's
device population across ``N`` worker processes.  Each shard runs in
complete isolation — its own topology, hosts, caches, simulator, and
stream factory seeded via
:func:`repro.netsim.randomness.shard_seed` — and returns a plain-data
payload; the experiment's ``merge_shards`` reassembles the payloads
into one :class:`~repro.experiments.harness.ExperimentResult`.

The determinism contract
------------------------

Merged output must be **byte-identical for any shard count**, so:

* every output-affecting random draw is keyed per *entity*
  (``derive_seed(root, "device:i")``), never per shard — the shard seed
  only isolates in-shard stream factories;
* shard payloads carry no wall-clock timings, global counter values,
  or cache statistics (all of which vary with the partition);
* the merge step discards partition order (records are re-keyed by
  entity index) and verifies exact coverage.

CI enforces the contract by diffing the ``--shards 1`` and
``--shards 2`` JSON outputs for the same seed.

Every shard is a **round session** (``open_session``), so shards may
exchange *cross-shard traffic* (E23's population engine, where a flow
may target a device owned by another shard).  The runner drives every
session through lock-step **rounds**: each round advances the shard's
simulator to the next round boundary and returns an outbox of
plain-data messages; the runner routes them to the owning shard
(``dst_device % shard_count``) and delivers them — sorted, so arrival
order carries no partition information — at the start of the next
round.  With one shard the messages loop back through the same queue,
which is why the merged digest is shard-count independent *with* cross
traffic, not just for disjoint worlds.  A shard that sends nothing
(E18's attach storm) is a session of zero rounds whose ``finish``
does all its work.

Each shard runs in its own ``fork``-ed worker process; on a single-CPU
host (or where ``fork`` is unavailable) the runner runs shards
in-process instead — byte-identical results, none of the fork/IPC
overhead that would make ``--shards 2`` *slower* than ``--shards 1``.
``--shards auto`` picks ``os.cpu_count()`` shards.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import multiprocessing
import os
import sys
from typing import Callable

from repro.experiments import exp18_control_plane, exp23_population
from repro.experiments.harness import ExperimentResult


@dataclasses.dataclass(frozen=True)
class ShardedExperiment:
    """One experiment that knows how to run as a partitioned population.

    ``open_session(shard_index, shard_count, seed, params)`` returns a
    session exposing ``rounds``, ``run_round(index, inbox) -> outbox``
    (called only when ``rounds`` > 0) and ``finish(inbox) -> payload``;
    ``merge`` reassembles the payloads.
    """

    experiment_id: str
    open_session: Callable[[int, int, int, dict | None], object]
    merge: Callable[..., ExperimentResult]


SHARDED_EXPERIMENTS: dict[str, ShardedExperiment] = {
    "E18": ShardedExperiment(
        "E18",
        exp18_control_plane.open_session,
        exp18_control_plane.merge_shards,
    ),
    "E23": ShardedExperiment(
        "E23",
        exp23_population.open_session,
        exp23_population.merge_sessions,
    ),
}


def _fork_context():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform without fork
        return None


def resolve_shards(value: int | str) -> int:
    """``--shards`` argument: an int, or ``auto`` = ``os.cpu_count()``."""
    if isinstance(value, str):
        if value.lower() == "auto":
            return max(1, os.cpu_count() or 1)
        try:
            value = int(value)
        except ValueError:
            raise ValueError(
                f"--shards must be an integer or 'auto', got {value!r}"
            ) from None
    if value < 1:
        raise ValueError(f"--shards must be >= 1, got {value}")
    return value


def _route(outboxes: list[list], shard_count: int) -> list[list]:
    """Route one round's messages to their owning shards.

    Inboxes are sorted so the delivery order a receiver sees carries
    no information about which shard produced each message.
    """
    inboxes: list[list] = [[] for _ in range(shard_count)]
    for outbox in outboxes:
        for dst_device, payload in outbox:
            inboxes[dst_device % shard_count].append(payload)
    for inbox in inboxes:
        inbox.sort()
    return inboxes


def _run_sessions_inprocess(entry: ShardedExperiment, shards: int,
                            seed: int, params: dict | None) -> list[dict]:
    sessions = [
        entry.open_session(shard_index, shards, seed, params)
        for shard_index in range(shards)
    ]
    rounds = sessions[0].rounds
    inboxes: list[list] = [[] for _ in range(shards)]
    for round_index in range(rounds):
        outboxes = [
            session.run_round(round_index, inboxes[shard_index])
            for shard_index, session in enumerate(sessions)
        ]
        inboxes = _route(outboxes, shards)
    return [session.finish(inboxes[shard_index])
            for shard_index, session in enumerate(sessions)]


def _session_worker(conn, experiment_id: str, shard_index: int,
                    shard_count: int, seed: int,
                    params: dict | None) -> None:  # pragma: no cover - forked
    entry = SHARDED_EXPERIMENTS[experiment_id]
    session = entry.open_session(shard_index, shard_count, seed, params)
    conn.send(("ready", session.rounds))
    while True:
        op, payload = conn.recv()
        if op == "round":
            round_index, inbox = payload
            conn.send(("outbox", session.run_round(round_index, inbox)))
        else:
            conn.send(("payload", session.finish(payload)))
            conn.close()
            return


def _run_sessions_forked(context, entry: ShardedExperiment, shards: int,
                         seed: int, params: dict | None) -> list[dict]:
    """One persistent worker per shard, barrier-synchronized rounds."""
    pipes, workers = [], []
    try:
        for shard_index in range(shards):
            parent_conn, child_conn = context.Pipe()
            worker = context.Process(
                target=_session_worker,
                args=(child_conn, entry.experiment_id, shard_index,
                      shards, seed, params),
            )
            worker.start()
            child_conn.close()
            pipes.append(parent_conn)
            workers.append(worker)
        rounds = {conn.recv()[1] for conn in pipes}
        if len(rounds) != 1:
            raise RuntimeError(f"shards disagree on round count: {rounds}")
        inboxes: list[list] = [[] for _ in range(shards)]
        for round_index in range(rounds.pop()):
            for conn, inbox in zip(pipes, inboxes):
                conn.send(("round", (round_index, inbox)))
            outboxes = [conn.recv()[1] for conn in pipes]
            inboxes = _route(outboxes, shards)
        for conn, inbox in zip(pipes, inboxes):
            conn.send(("finish", inbox))
        return [conn.recv()[1] for conn in pipes]
    finally:
        for conn in pipes:
            conn.close()
        for worker in workers:
            worker.join()


def run_sharded(
    experiment_id: str,
    seed: int = 0,
    shards: int | str = 1,
    params: dict | None = None,
) -> ExperimentResult:
    """Run ``experiment_id`` over ``shards`` workers and merge.

    Raises :class:`KeyError` for experiments without a sharded form.
    """
    experiment_id = experiment_id.upper()
    entry = SHARDED_EXPERIMENTS.get(experiment_id)
    if entry is None:
        raise KeyError(
            f"experiment {experiment_id!r} has no sharded form; "
            f"shardable: {sorted(SHARDED_EXPERIMENTS)}"
        )
    shards = resolve_shards(shards)
    context = _fork_context() if shards > 1 else None
    # On a 1-CPU host forked workers only add IPC + fork overhead on
    # top of serialized execution — run in-process instead; results
    # are byte-identical either way.
    if context is None or (os.cpu_count() or 1) < 2:
        payloads = _run_sessions_inprocess(entry, shards, seed, params)
    else:
        payloads = _run_sessions_forked(context, entry, shards, seed,
                                        params)
    return entry.merge(payloads, seed=seed, params=params)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Run a sharded experiment across worker processes.",
    )
    parser.add_argument(
        "experiment", metavar="ID",
        help=f"shardable experiment id; known: "
             f"{', '.join(sorted(SHARDED_EXPERIMENTS))}",
    )
    parser.add_argument("--shards", default="1",
                        help="worker process count, or 'auto' for "
                             "os.cpu_count() (default 1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="experiment seed (default 0)")
    parser.add_argument("--devices", type=int, default=None,
                        help="population size override")
    parser.add_argument("--json", action="store_true",
                        help="emit the merged result as JSON")
    parser.add_argument("--out", default="",
                        help="also write the JSON result to this file")
    args = parser.parse_args(argv)

    params: dict = {}
    if args.devices is not None:
        params["devices"] = args.devices
    try:
        result = run_sharded(args.experiment, seed=args.seed,
                             shards=args.shards, params=params)
    except (KeyError, ValueError) as exc:
        parser.error(str(exc.args[0]))
    document = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(document + "\n")
    if args.json:
        print(document)
    else:
        print(result.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
