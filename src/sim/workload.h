// Copyright 2026 The LTAM Authors.
// Authorization and request workload generators.
//
// Produces reproducible authorization databases and access-request
// streams over a generated graph: the inputs for the scaling benchmarks
// (Na = authorizations per location) and the engine-throughput
// benchmarks.

#ifndef LTAM_SIM_WORKLOAD_H_
#define LTAM_SIM_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/auth_database.h"
#include "core/decision.h"
#include "engine/access_control_engine.h"
#include "engine/events.h"
#include "graph/multilevel_graph.h"
#include "profile/user_profile.h"
#include "storage/snapshot.h"
#include "util/random.h"

namespace ltam {

/// Parameters for GenerateAuthorizations.
struct AuthWorkloadOptions {
  /// Authorizations created per (subject, location) pair that is covered.
  uint32_t auths_per_location = 1;
  /// Probability that a given (subject, location) pair is covered at all.
  double coverage = 1.0;
  /// Entry durations are [s, s+len] with s uniform in [0, horizon) and
  /// len uniform in [min_len, max_len].
  Chronon horizon = 1000;
  Chronon min_len = 10;
  Chronon max_len = 100;
  /// Exit durations extend the entry duration by uniform [0, max_slack].
  Chronon max_slack = 50;
  /// Max entry count (n uniform in [1, max_entries]; 0 = unlimited).
  int64_t max_entries = 0;
};

/// Registers `count` subjects named "u<i>" in `profiles`.
std::vector<SubjectId> GenerateSubjects(UserProfileDatabase* profiles,
                                        uint32_t count);

/// Fills `db` with random authorizations for every subject over every
/// primitive location of `graph`, per `options`. Returns the number
/// added.
size_t GenerateAuthorizations(const MultilevelLocationGraph& graph,
                              const std::vector<SubjectId>& subjects,
                              const AuthWorkloadOptions& options, Rng* rng,
                              AuthorizationDatabase* db);

/// A generated access-request stream, time-sorted.
std::vector<AccessRequest> GenerateRequests(
    const MultilevelLocationGraph& graph,
    const std::vector<SubjectId>& subjects, size_t count, Chronon horizon,
    Rng* rng);

/// Parameters for GenerateEventBatches (the batch-pipeline workload).
struct BatchWorkloadOptions {
  /// Events per batch (the final batch may be smaller).
  size_t batch_size = 256;
  /// Probability that a subject's next event is an exit request (only
  /// emitted when the generator believes the subject is inside).
  double exit_fraction = 0.1;
  /// Probability that a subject's next event is a tracking observation
  /// instead of an entry request.
  double observe_fraction = 0.1;
  /// Per-subject clocks advance by uniform [1, max_step] per event, so
  /// every subject's events are strictly increasing in time — the
  /// ordering EvaluateBatch and the movement database require.
  Chronon max_step = 5;
};

/// Generates `total_events` events split into batches for the sharded
/// pipeline. Each subject's events are strictly increasing in time, both
/// within and across batches, and each batch is sorted by (time, subject)
/// so a sequential event-by-event replay sees the same per-subject order
/// as the sharded engine. Targets are random primitive locations.
std::vector<std::vector<AccessEvent>> GenerateEventBatches(
    const MultilevelLocationGraph& graph,
    const std::vector<SubjectId>& subjects, size_t total_events,
    const BatchWorkloadOptions& options, Rng* rng);

/// Outcome of replaying an event-batch stream through one sequential
/// AccessControlEngine — the reference the sharded and durable pipelines
/// are equivalence-tested (and benchmarked) against.
struct SequentialReplay {
  /// One decision per event, flattened in batch order (the same mapping
  /// ApplyAccessEvent uses: exits grant/deny, observations grant).
  std::vector<Decision> decisions;
  /// Alerts the reference engine raised, in raise order.
  std::vector<Alert> alerts;
  /// Total events replayed.
  size_t events = 0;
};

/// Replays `batches` event-by-event through a fresh sequential engine
/// over the given stores (a private MovementDatabase is used; `auth_db`
/// ledger state is mutated exactly as a live run would).
SequentialReplay ReplayBatchesSequential(
    const MultilevelLocationGraph& graph, AuthorizationDatabase* auth_db,
    const UserProfileDatabase& profiles,
    const std::vector<std::vector<AccessEvent>>& batches,
    const EngineOptions& options = {});

/// Like GenerateAuthorizations, but over an explicit location subset
/// (e.g. one tenant's rooms) instead of every primitive of a graph.
size_t GenerateAuthorizationsOver(const std::vector<LocationId>& locations,
                                  const std::vector<SubjectId>& subjects,
                                  const AuthWorkloadOptions& options, Rng* rng,
                                  AuthorizationDatabase* db);

// --- Scenario families (the open-loop load harness's worlds) ----------------
//
// Each family is a deterministic (family, ScenarioOptions)-seeded world
// plus event stream, built for a different production question:
//
//  - kSurge: stadium/airport ingress — almost all events hit a handful
//    of hot entry locations, and arrivals come in on/off bursts (the
//    schedule shape is carried in burst_duty/burst_period_ms for the
//    load generator to honor).
//  - kContactSweep: contact-tracing under load — subjects concentrate
//    in shared rooms so contact graphs are dense, and a pool of
//    cross-shard CONTACTS OF queries is meant to run concurrently with
//    ingest (query_fraction of scheduled arrivals).
//  - kPolicyChurn: Mutate under load — authorizations start sparse and
//    a mutation schedule grants more between frames, exercising the
//    facade's between-batches mutation window while traffic flows.
//  - kMultiTenant: many disjoint subject universes in one runtime —
//    subjects, authorizations, and movement stay inside their tenant's
//    building; nothing crosses tenants.
//  - kReplication: read-heavy serving against a replica fleet — ingest
//    flows to the primary while a dense point-in-time query pool is
//    meant to be answered by read replicas (ltam_load --query-host).
//    No mutation schedule: only WAL-logged events replicate, so a
//    mutating family would diverge primary and replica by design.
//  - kSoak: sustained steady-state ingest for retention runs — exits
//    dominate the mix so stays complete (and seal into cold segments)
//    instead of accumulating open, arrivals are steady (no bursts),
//    and a light point-in-time read mix keeps queries answering over
//    the hot+cold tiers while the server checkpoints and compacts.
//    The signal is a plateau: resident bytes and checkpoint latency
//    must stop growing once retention starts dropping history.
//
// The same world must be constructible on both sides of a TCP
// connection (ltam_serve boots the world alone via
// GenerateScenarioWorld, ltam_load generates world and traffic), so
// construction is deterministic given (family, options): subject and
// location ids agree by construction.

enum class ScenarioFamily : uint8_t {
  kSurge = 0,
  kContactSweep = 1,
  kPolicyChurn = 2,
  kMultiTenant = 3,
  kReplication = 4,
  kSoak = 5,
};

const char* ScenarioFamilyToString(ScenarioFamily family);
Result<ScenarioFamily> ParseScenarioFamily(const std::string& name);

/// Knobs shared by every family (family-specific ones are documented on
/// their field). The defaults make a small world suitable for tests;
/// the load driver scales total_events to rate * duration.
struct ScenarioOptions {
  uint32_t subjects = 96;
  /// Disjoint event substreams (one per load-generator connection).
  /// Subjects are partitioned round-robin across streams, so frames of
  /// different streams can be coalesced into one runtime batch without
  /// violating per-subject time order.
  uint32_t streams = 1;
  /// Total events across all streams.
  size_t total_events = 4096;
  /// Events per frame (one frame = one scheduled ApplyBatch arrival).
  size_t events_per_frame = 32;
  uint64_t seed = 2026;
  /// kMultiTenant: number of tenant buildings (subject universes).
  uint32_t tenants = 4;
  /// kSurge: hot entry locations and the fraction of events they draw.
  uint32_t hot_locations = 2;
  double hot_fraction = 0.85;
  /// kContactSweep: fraction of scheduled arrivals that are queries.
  /// kReplication doubles this (capped at 0.9) — it is the read-heavy
  /// family by construction.
  double query_fraction = 0.25;
  /// kPolicyChurn: one mutation before every N-th frame (0 disables).
  size_t mutate_every_frames = 8;
};

/// One policy mutation of a kPolicyChurn run: before global frame round
/// `before_frame` (see FlattenScenarioFrames), grant `subject` a fresh
/// authorization at `location` valid over [entry_start, entry_end] /
/// exit [entry_start, exit_end].
struct ScenarioMutation {
  size_t before_frame = 0;
  SubjectId subject = kInvalidSubject;
  LocationId location = kInvalidLocation;
  Chronon entry_start = 0;
  Chronon entry_end = 0;
  Chronon exit_end = 0;
};

/// A generated scenario: the world (to boot a runtime or a server), the
/// per-stream event frames (to drive it), and the family's read/control
/// mix. Note sim/movement_sim.h has an unrelated `Scenario` (ground
/// truth for detection-rate experiments) — this one is the load
/// harness's unit.
struct LoadScenario {
  ScenarioFamily family = ScenarioFamily::kSurge;
  /// graph + profiles + auth_db (movements empty, rules empty).
  SystemState initial;
  /// Engine knobs the world is built for: adjacency enforcement off
  /// (the streams are random room visits, not adjacency-aware walks,
  /// so kNotAdjacent would drown the coverage-driven admit/deny mix)
  /// and per-denial alerting off (denial-heavy families would measure
  /// the alert path, not the decision path). Boot the runtime with
  /// these for the mix the family documents.
  EngineOptions engine;
  std::vector<SubjectId> subjects;
  /// streams[c][f] is stream c's f-th frame. Subjects are disjoint
  /// across streams; within a stream every subject's events are
  /// strictly increasing in time across frames.
  std::vector<std::vector<std::vector<AccessEvent>>> streams;
  /// Query-language statements to interleave with ingest (empty unless
  /// the family has a read mix); query_fraction of scheduled arrivals
  /// should draw from this pool round-robin.
  std::vector<std::string> queries;
  double query_fraction = 0.0;
  /// kPolicyChurn: mutations in ascending before_frame order.
  std::vector<ScenarioMutation> mutations;
  /// Arrival-schedule shape: burst_period_ms == 0 means steady arrivals;
  /// otherwise arrivals are confined to the first burst_duty of every
  /// burst_period_ms window at burst-compensated rate (same mean rate).
  double burst_duty = 1.0;
  uint64_t burst_period_ms = 0;

  /// Events across all streams.
  size_t total_events = 0;
};

/// Builds the family's world and event streams. Deterministic given
/// (family, options) — including across processes, so a server booting
/// the world and a load generator booting the traffic agree on every
/// subject/location id. InvalidArgument for degenerate options (zero
/// subjects/streams, more streams than subjects, ...).
Result<LoadScenario> GenerateLoadScenario(ScenarioFamily family,
                                          const ScenarioOptions& options);

/// The world of GenerateLoadScenario(family, options) without its
/// traffic: every field but streams, mutations and total_events (left
/// empty and 0). Built by the same routine, so `initial` and `engine`
/// are identical to the full scenario's; a server that only boots the
/// world (ltam_serve --scenario) calls this and skips the streams.
Result<LoadScenario> GenerateScenarioWorld(ScenarioFamily family,
                                           const ScenarioOptions& options);

/// The scenario's frames in the canonical global round order: round r
/// is streams[0][r], streams[1][r], ... (streams exhausted earlier are
/// skipped). ScenarioMutation::before_frame indexes this sequence. This
/// is the order a local replay applies — and the equivalence class the
/// server's coalescer must land in.
std::vector<std::vector<AccessEvent>> FlattenScenarioFrames(
    const LoadScenario& scenario);

class AccessRuntime;

/// Applies one churn mutation through the runtime's Mutate window:
/// registers the authorization grant described by `m`. Every backend
/// applying the same mutations at the same frame boundaries stays
/// byte-identical in its decision stream.
Status ApplyScenarioMutation(AccessRuntime* runtime,
                             const ScenarioMutation& m);

}  // namespace ltam

#endif  // LTAM_SIM_WORKLOAD_H_
