#!/usr/bin/env bash
# Chaos gate: scripted fault-injection scenarios against the lakehouse
# ACID protocol (crates/lake-house/tests/chaos.rs), the federated
# mediator's degradation ladder (crates/lake-query/tests/chaos.rs),
# and the multi-tenant server under FaultStore swarms
# (crates/lake-server/tests/chaos.rs), plus the fault-store,
# fault-source, retry-policy, and circuit-breaker unit suites they
# build on.
#
# Every seeded scenario replays under the three fixed seeds compiled
# into the suites — 7, 42, 1337 — and asserts determinism by running the
# same plan twice and comparing backoff schedules, breaker trajectories,
# and fault stats, so a pass here certifies the whole fault model is
# reproducible, not just that it passed once.
set -euo pipefail

cd "$(dirname "$0")/.."

# The lock-order sanitizer (lake_core::sync) must be green before the
# chaos scenarios lean on it: any rank inversion the suites provoke
# panics with both hold-sites named, failing this gate.
cargo test -q -p lake-core sync::

cargo test -q -p lake-house --test chaos
cargo test -q -p lake-query --test chaos
# Server under chaos: 200-client seeded swarms against FaultStore
# storage — panic isolation, drain-under-load, greedy-tenant quota
# arithmetic, breaker isolation, and byte-identical replay.
cargo test -q -p lake-server --test chaos
cargo test -q -p lake-server --test quota_prop
# Crash-restart durability: deterministic in-process crash points
# (pre-journal, mid-journal torn write, post-journal pre-apply, pre-ack)
# at seeds 7/42/1337, plus a 4-client kill -9 swarm. Every restart
# asserts the parity contract — records replayed equals journal frames
# on disk — through both the recovery report line and the
# lake_server_recovery_replayed_total counter, and the WAL property
# suite sweeps torn tails over every byte offset of the final frame.
cargo test -q -p lake-server --test restart_chaos
cargo test -q -p lake-server --test wal_prop
# Differential oracle for the CLAMS promotion gate: the canon-coded
# RFD/CLAMS kernel must equal the string-keyed reference on seeded
# synthetic lakes (7/42/1337, clean and perturbed) and random tables.
cargo test -q -p lake-maintain --test clams_prop
cargo test -q -p lake-store fault::
cargo test -q -p lake-core retry::
cargo test -q -p lake-core --test retry_prop
cargo test -q -p lake-query degrade::
cargo test -q -p lake-query fault::
cargo test -q -p lake-house recovery::
