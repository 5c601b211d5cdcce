// Copyright 2026 The LTAM Authors.

#include "sim/workload.h"

#include <algorithm>
#include <functional>
#include <unordered_map>

#include "engine/sharded_engine.h"
#include "runtime/access_runtime.h"
#include "sim/graph_gen.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace ltam {

std::vector<SubjectId> GenerateSubjects(UserProfileDatabase* profiles,
                                        uint32_t count) {
  LTAM_CHECK(profiles != nullptr);
  std::vector<SubjectId> out;
  out.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    Result<SubjectId> r = profiles->AddSubject(StrFormat("u%u", i));
    // Name collisions only happen if the caller generated before; make
    // the generator idempotent by resolving.
    if (!r.ok()) r = profiles->Find(StrFormat("u%u", i));
    LTAM_CHECK(r.ok()) << r.status().ToString();
    out.push_back(*r);
  }
  return out;
}

size_t GenerateAuthorizations(const MultilevelLocationGraph& graph,
                              const std::vector<SubjectId>& subjects,
                              const AuthWorkloadOptions& options, Rng* rng,
                              AuthorizationDatabase* db) {
  return GenerateAuthorizationsOver(graph.Primitives(), subjects, options, rng,
                                    db);
}

size_t GenerateAuthorizationsOver(const std::vector<LocationId>& locations,
                                  const std::vector<SubjectId>& subjects,
                                  const AuthWorkloadOptions& options, Rng* rng,
                                  AuthorizationDatabase* db) {
  LTAM_CHECK(rng != nullptr);
  LTAM_CHECK(db != nullptr);
  size_t added = 0;
  for (SubjectId s : subjects) {
    for (LocationId l : locations) {
      if (!rng->Bernoulli(options.coverage)) continue;
      for (uint32_t k = 0; k < options.auths_per_location; ++k) {
        Chronon start = rng->UniformRange(0, options.horizon - 1);
        Chronon len = rng->UniformRange(options.min_len, options.max_len);
        TimeInterval entry(start, ChrononAdd(start, len));
        Chronon slack = rng->UniformRange(0, options.max_slack);
        TimeInterval exit(entry.start(), ChrononAdd(entry.end(), slack));
        int64_t n = options.max_entries == 0
                        ? kUnlimitedEntries
                        : rng->UniformRange(1, options.max_entries);
        Result<LocationTemporalAuthorization> auth =
            LocationTemporalAuthorization::Make(entry, exit,
                                                LocationAuthorization{s, l},
                                                n);
        LTAM_CHECK(auth.ok()) << auth.status().ToString();
        db->Add(*auth);
        ++added;
      }
    }
  }
  return added;
}

std::vector<AccessRequest> GenerateRequests(
    const MultilevelLocationGraph& graph,
    const std::vector<SubjectId>& subjects, size_t count, Chronon horizon,
    Rng* rng) {
  LTAM_CHECK(rng != nullptr);
  std::vector<AccessRequest> out;
  if (subjects.empty()) return out;
  std::vector<LocationId> prims = graph.Primitives();
  if (prims.empty()) return out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    AccessRequest req;
    req.time = rng->UniformRange(0, horizon - 1);
    req.subject = subjects[rng->Uniform(subjects.size())];
    req.location = prims[rng->Uniform(prims.size())];
    out.push_back(req);
  }
  std::sort(out.begin(), out.end(),
            [](const AccessRequest& a, const AccessRequest& b) {
              return a.time < b.time;
            });
  return out;
}

std::vector<std::vector<AccessEvent>> GenerateEventBatches(
    const MultilevelLocationGraph& graph,
    const std::vector<SubjectId>& subjects, size_t total_events,
    const BatchWorkloadOptions& options, Rng* rng) {
  LTAM_CHECK(rng != nullptr);
  LTAM_CHECK(options.batch_size > 0) << "batch_size must be positive";
  LTAM_CHECK(options.max_step >= 1) << "max_step must be positive";
  std::vector<std::vector<AccessEvent>> out;
  if (subjects.empty() || total_events == 0) return out;
  std::vector<LocationId> prims = graph.Primitives();
  if (prims.empty()) return out;

  // Per-subject monotone clocks keep every subject's stream strictly
  // increasing in time across the whole run.
  std::unordered_map<SubjectId, Chronon> clock;
  std::unordered_map<SubjectId, bool> inside;

  size_t remaining = total_events;
  while (remaining > 0) {
    size_t size = std::min(options.batch_size, remaining);
    remaining -= size;
    std::vector<AccessEvent> batch;
    batch.reserve(size);
    for (size_t i = 0; i < size; ++i) {
      SubjectId s = subjects[rng->Uniform(subjects.size())];
      Chronon t = clock[s] + rng->UniformRange(1, options.max_step);
      clock[s] = t;
      bool& in = inside[s];
      if (in && rng->Bernoulli(options.exit_fraction)) {
        batch.push_back(AccessEvent::Exit(t, s));
        in = false;
        continue;
      }
      LocationId l = prims[rng->Uniform(prims.size())];
      if (rng->Bernoulli(options.observe_fraction)) {
        batch.push_back(AccessEvent::Observe(t, s, l));
      } else {
        batch.push_back(AccessEvent::Entry(t, s, l));
      }
      in = true;
    }
    // Sort by (time, subject); same-subject events have distinct times,
    // so the per-subject order is by-time both here and in a sequential
    // replay of the batch.
    std::stable_sort(batch.begin(), batch.end(),
                     [](const AccessEvent& a, const AccessEvent& b) {
                       if (a.time != b.time) return a.time < b.time;
                       return a.subject < b.subject;
                     });
    out.push_back(std::move(batch));
  }
  return out;
}

// --- Scenario families ------------------------------------------------------

const char* ScenarioFamilyToString(ScenarioFamily family) {
  switch (family) {
    case ScenarioFamily::kSurge:
      return "surge";
    case ScenarioFamily::kContactSweep:
      return "contact";
    case ScenarioFamily::kPolicyChurn:
      return "churn";
    case ScenarioFamily::kMultiTenant:
      return "tenant";
    case ScenarioFamily::kReplication:
      return "replication";
    case ScenarioFamily::kSoak:
      return "soak";
  }
  return "unknown";
}

Result<ScenarioFamily> ParseScenarioFamily(const std::string& name) {
  if (name == "surge") return ScenarioFamily::kSurge;
  if (name == "contact" || name == "contact-sweep") {
    return ScenarioFamily::kContactSweep;
  }
  if (name == "churn" || name == "policy-churn") {
    return ScenarioFamily::kPolicyChurn;
  }
  if (name == "tenant" || name == "multi-tenant") {
    return ScenarioFamily::kMultiTenant;
  }
  if (name == "replication" || name == "replica") {
    return ScenarioFamily::kReplication;
  }
  if (name == "soak") return ScenarioFamily::kSoak;
  return Status::InvalidArgument(
      "unknown scenario family '" + name +
      "' (expected surge|contact|churn|tenant|replication|soak)");
}

namespace {

/// Per-family event-mix knobs for the stream generator below.
struct StreamMix {
  double exit_fraction = 0.1;
  double observe_fraction = 0.1;
  Chronon max_step = 3;
};

/// Generates `streams` disjoint event substreams (subjects partitioned
/// round-robin) of `events_per_frame`-sized frames, `total_events` in
/// all. `sample_location` picks each event's target. Stream c draws
/// from its own seeded Rng, so the result is independent of how many
/// streams the *caller* ends up driving concurrently — and identical
/// across processes.
std::vector<std::vector<std::vector<AccessEvent>>> GenerateScenarioStreams(
    const std::vector<SubjectId>& subjects, uint32_t streams,
    size_t total_events, size_t events_per_frame, const StreamMix& mix,
    const std::function<LocationId(SubjectId, Rng*)>& sample_location,
    uint64_t seed) {
  std::vector<std::vector<std::vector<AccessEvent>>> out(streams);
  for (uint32_t c = 0; c < streams; ++c) {
    std::vector<SubjectId> mine;
    for (size_t i = c; i < subjects.size(); i += streams) {
      mine.push_back(subjects[i]);
    }
    size_t share = total_events / streams +
                   (c < total_events % streams ? 1 : 0);
    if (mine.empty() || share == 0) continue;
    Rng rng(seed + 0x9e3779b9ull * (c + 1));
    std::unordered_map<SubjectId, Chronon> clock;
    std::unordered_map<SubjectId, LocationId> at;
    while (share > 0) {
      size_t size = std::min(events_per_frame, share);
      share -= size;
      std::vector<AccessEvent> frame;
      frame.reserve(size);
      for (size_t i = 0; i < size; ++i) {
        SubjectId s = mine[rng.Uniform(mine.size())];
        Chronon t = clock[s] + rng.UniformRange(1, mix.max_step);
        clock[s] = t;
        LocationId& cur = at.try_emplace(s, kInvalidLocation).first->second;
        const bool in = cur != kInvalidLocation;
        if (in && rng.Bernoulli(mix.exit_fraction)) {
          frame.push_back(AccessEvent::Exit(t, s));
          cur = kInvalidLocation;
          continue;
        }
        // The movement database treats a move onto the current
        // location as a no-op error, so resample away from it (and
        // fall back to an exit when the sampler's support is that
        // narrow, e.g. a one-room tenant).
        LocationId l = sample_location(s, &rng);
        for (int tries = 0; l == cur && tries < 8; ++tries) {
          l = sample_location(s, &rng);
        }
        if (l == cur) {
          frame.push_back(AccessEvent::Exit(t, s));
          cur = kInvalidLocation;
          continue;
        }
        if (rng.Bernoulli(mix.observe_fraction)) {
          frame.push_back(AccessEvent::Observe(t, s, l));
        } else {
          frame.push_back(AccessEvent::Entry(t, s, l));
        }
        cur = l;
      }
      std::stable_sort(frame.begin(), frame.end(),
                       [](const AccessEvent& a, const AccessEvent& b) {
                         if (a.time != b.time) return a.time < b.time;
                         return a.subject < b.subject;
                       });
      out[c].push_back(std::move(frame));
    }
  }
  return out;
}

/// What a family's traffic is drawn from, beside its world: the event
/// mix, the location sampler, and the authorization horizon the
/// mutation windows are sized by.
struct TrafficShape {
  StreamMix mix;
  std::function<LocationId(SubjectId, Rng*)> sample_location;
  Chronon horizon = 0;
};

/// Builds the world both public entry points share: every LoadScenario
/// field but streams, mutations and total_events, plus the shape the
/// traffic is drawn from.
Result<LoadScenario> BuildScenarioWorld(ScenarioFamily family,
                                        const ScenarioOptions& options,
                                        TrafficShape* shape) {
  if (options.subjects == 0) {
    return Status::InvalidArgument("scenario needs at least one subject");
  }
  if (options.streams == 0 || options.streams > options.subjects) {
    return Status::InvalidArgument(
        "streams must be in [1, subjects]: every stream needs its own "
        "disjoint subject set");
  }
  if (options.events_per_frame == 0) {
    return Status::InvalidArgument("events_per_frame must be positive");
  }
  if (family == ScenarioFamily::kMultiTenant && options.tenants == 0) {
    return Status::InvalidArgument("multi-tenant needs at least one tenant");
  }

  LoadScenario s;
  s.family = family;
  s.engine.enforce_adjacency = false;
  s.engine.alert_on_denial = false;
  Rng world_rng(options.seed);

  // Per-subject clocks reach roughly events-per-subject * max_step; size
  // the authorization horizon past that so grants do not expire mid-run.
  // Every window is anchored at 0 (horizon=1 makes the start draw 0) and
  // outlives the run: `coverage` then IS the per-(subject, location)
  // grant probability, which keeps each family's admit/deny mix
  // meaningful as a load signal instead of an artifact of window
  // placement.
  const size_t per_subject =
      std::max<size_t>(1, options.total_events / options.subjects);
  const Chronon horizon =
      static_cast<Chronon>(std::max<size_t>(1000, per_subject * 8));
  AuthWorkloadOptions auth_opt;
  auth_opt.horizon = 1;
  auth_opt.min_len = horizon * 8;
  auth_opt.max_len = horizon * 8;
  auth_opt.max_slack = horizon * 2;
  auth_opt.max_entries = 0;

  shape->horizon = horizon;
  StreamMix& mix = shape->mix;
  std::function<LocationId(SubjectId, Rng*)>& sample_location =
      shape->sample_location;

  switch (family) {
    case ScenarioFamily::kSurge: {
      LTAM_ASSIGN_OR_RETURN(s.initial.graph, MakeCampusGraph(4, 8));
      s.subjects = GenerateSubjects(&s.initial.profiles, options.subjects);
      std::vector<LocationId> prims = s.initial.graph.Primitives();
      const uint32_t hot_count = std::max<uint32_t>(
          1, std::min<uint32_t>(options.hot_locations,
                                static_cast<uint32_t>(prims.size())));
      std::vector<LocationId> hot(prims.begin(), prims.begin() + hot_count);
      auth_opt.coverage = 0.4;
      GenerateAuthorizations(s.initial.graph, s.subjects, auth_opt,
                             &world_rng, &s.initial.auth_db);
      // Blanket grants at the hot doors: a surge is mostly-admitted
      // traffic hammering few locations, not a wall of denials.
      AuthWorkloadOptions hot_opt = auth_opt;
      hot_opt.coverage = 1.0;
      GenerateAuthorizationsOver(hot, s.subjects, hot_opt, &world_rng,
                                 &s.initial.auth_db);
      const double hot_fraction = options.hot_fraction;
      sample_location = [hot, prims, hot_fraction](SubjectId, Rng* rng) {
        if (rng->Bernoulli(hot_fraction)) {
          return hot[rng->Uniform(hot.size())];
        }
        return prims[rng->Uniform(prims.size())];
      };
      mix.exit_fraction = 0.05;
      mix.observe_fraction = 0.2;
      s.burst_duty = 0.25;
      s.burst_period_ms = 400;
      break;
    }
    case ScenarioFamily::kContactSweep: {
      LTAM_ASSIGN_OR_RETURN(s.initial.graph, MakeCampusGraph(4, 6));
      s.subjects = GenerateSubjects(&s.initial.profiles, options.subjects);
      std::vector<LocationId> prims = s.initial.graph.Primitives();
      auth_opt.coverage = 0.9;
      GenerateAuthorizations(s.initial.graph, s.subjects, auth_opt,
                             &world_rng, &s.initial.auth_db);
      // Subjects gravitate to a few shared rooms so stay overlaps (and
      // therefore contact query results) are dense across shards.
      const size_t shared_count = std::min<size_t>(6, prims.size());
      std::vector<LocationId> shared(prims.begin(),
                                     prims.begin() + shared_count);
      sample_location = [shared, prims](SubjectId, Rng* rng) {
        if (rng->Bernoulli(0.7)) {
          return shared[rng->Uniform(shared.size())];
        }
        return prims[rng->Uniform(prims.size())];
      };
      mix.exit_fraction = 0.05;
      mix.observe_fraction = 0.35;
      s.query_fraction = options.query_fraction;
      for (uint32_t i = 0; i < options.subjects; ++i) {
        s.queries.push_back(
            StrFormat("CONTACTS OF u%u DURING [0,%lld] MIN 1", i,
                      static_cast<long long>(horizon * 4)));
      }
      break;
    }
    case ScenarioFamily::kPolicyChurn: {
      LTAM_ASSIGN_OR_RETURN(s.initial.graph, MakeCampusGraph(4, 8));
      s.subjects = GenerateSubjects(&s.initial.profiles, options.subjects);
      std::vector<LocationId> prims = s.initial.graph.Primitives();
      // Sparse coverage: most requests start denied, and the mutation
      // schedule below grants more as the run progresses — the decision
      // stream visibly depends on the mutations landing at the right
      // frame boundaries.
      auth_opt.coverage = 0.2;
      GenerateAuthorizations(s.initial.graph, s.subjects, auth_opt,
                             &world_rng, &s.initial.auth_db);
      sample_location = [prims](SubjectId, Rng* rng) {
        return prims[rng->Uniform(prims.size())];
      };
      mix.exit_fraction = 0.1;
      mix.observe_fraction = 0.1;
      break;
    }
    case ScenarioFamily::kMultiTenant: {
      const uint32_t tenants =
          std::min(options.tenants, options.subjects);
      LTAM_ASSIGN_OR_RETURN(s.initial.graph,
                            MakeCampusGraph(std::max(2u, tenants), 6));
      s.subjects = GenerateSubjects(&s.initial.profiles, options.subjects);
      // Tenant k's universe is building k: its subjects are authorized
      // on (and only ever visit) that building's rooms.
      std::vector<LocationId> buildings = s.initial.graph.Composites();
      // Composites() includes the root (id 0); tenants live in the rest.
      std::vector<std::vector<LocationId>> tenant_rooms;
      for (LocationId b : buildings) {
        if (b == s.initial.graph.root()) continue;
        if (tenant_rooms.size() == tenants) break;
        tenant_rooms.push_back(s.initial.graph.PrimitivesWithin(b));
      }
      std::unordered_map<SubjectId, uint32_t> tenant_of;
      std::vector<std::vector<SubjectId>> tenant_subjects(tenant_rooms.size());
      for (size_t i = 0; i < s.subjects.size(); ++i) {
        uint32_t t = static_cast<uint32_t>(i % tenant_rooms.size());
        tenant_of[s.subjects[i]] = t;
        tenant_subjects[t].push_back(s.subjects[i]);
      }
      auth_opt.coverage = 0.8;
      for (size_t t = 0; t < tenant_rooms.size(); ++t) {
        GenerateAuthorizationsOver(tenant_rooms[t], tenant_subjects[t],
                                   auth_opt, &world_rng,
                                   &s.initial.auth_db);
      }
      sample_location = [tenant_of, tenant_rooms](SubjectId subject,
                                                  Rng* rng) {
        const std::vector<LocationId>& rooms =
            tenant_rooms[tenant_of.at(subject)];
        return rooms[rng->Uniform(rooms.size())];
      };
      mix.exit_fraction = 0.1;
      mix.observe_fraction = 0.15;
      break;
    }
    case ScenarioFamily::kReplication: {
      // Read-heavy serving: ingest flows to the primary while the
      // query pool is meant to be answered by read replicas (ltam_load
      // --query-host routes it to a second endpoint). High coverage
      // keeps the stream admit-heavy — the interesting signal is read
      // latency under replication lag, not a wall of denials. No
      // mutation schedule on purpose: only WAL-logged events
      // replicate, so a mutating family would diverge primary and
      // replica by design.
      LTAM_ASSIGN_OR_RETURN(s.initial.graph, MakeCampusGraph(4, 6));
      s.subjects = GenerateSubjects(&s.initial.profiles, options.subjects);
      std::vector<LocationId> prims = s.initial.graph.Primitives();
      auth_opt.coverage = 0.8;
      GenerateAuthorizations(s.initial.graph, s.subjects, auth_opt,
                             &world_rng, &s.initial.auth_db);
      sample_location = [prims](SubjectId, Rng* rng) {
        return prims[rng->Uniform(prims.size())];
      };
      mix.exit_fraction = 0.05;
      mix.observe_fraction = 0.25;
      // Twice the contact-sweep read share: this is the read-heavy
      // family. Point-in-time queries across the whole horizon — the
      // shape a replica endpoint serves (any committed prefix answers
      // them; the pool never reads ahead of ingest).
      s.query_fraction = std::min(0.9, options.query_fraction * 2);
      for (uint32_t i = 0; i < options.subjects; ++i) {
        for (int k = 1; k <= 4; ++k) {
          s.queries.push_back(StrFormat(
              "WHERE WAS u%u AT %lld", i,
              static_cast<long long>(horizon * k)));
        }
      }
      break;
    }
    case ScenarioFamily::kSoak: {
      // Retention steady state: exits dominate so stays complete and
      // become seal-eligible (an open stay can never move to the cold
      // tier), arrivals are steady (the plateau signal would be noise
      // under bursts), and a light read mix keeps the query path
      // answering over both tiers while the server checkpoints,
      // seals, and compacts behind the run.
      LTAM_ASSIGN_OR_RETURN(s.initial.graph, MakeCampusGraph(4, 6));
      s.subjects = GenerateSubjects(&s.initial.profiles, options.subjects);
      std::vector<LocationId> prims = s.initial.graph.Primitives();
      auth_opt.coverage = 0.9;
      GenerateAuthorizations(s.initial.graph, s.subjects, auth_opt,
                             &world_rng, &s.initial.auth_db);
      sample_location = [prims](SubjectId, Rng* rng) {
        return prims[rng->Uniform(prims.size())];
      };
      mix.exit_fraction = 0.45;
      mix.observe_fraction = 0.05;
      s.query_fraction = std::min(0.5, options.query_fraction * 0.5);
      for (uint32_t i = 0; i < options.subjects; ++i) {
        s.queries.push_back(StrFormat(
            "WHERE WAS u%u AT %lld", i,
            static_cast<long long>(horizon * 2)));
      }
      break;
    }
  }
  return s;
}

}  // namespace

Result<LoadScenario> GenerateScenarioWorld(ScenarioFamily family,
                                           const ScenarioOptions& options) {
  TrafficShape unused;
  return BuildScenarioWorld(family, options, &unused);
}

Result<LoadScenario> GenerateLoadScenario(ScenarioFamily family,
                                          const ScenarioOptions& options) {
  TrafficShape shape;
  LTAM_ASSIGN_OR_RETURN(LoadScenario s,
                        BuildScenarioWorld(family, options, &shape));
  s.streams = GenerateScenarioStreams(s.subjects, options.streams,
                                      options.total_events,
                                      options.events_per_frame, shape.mix,
                                      shape.sample_location, options.seed);
  for (const auto& stream : s.streams) {
    for (const auto& frame : stream) s.total_events += frame.size();
  }

  if (family == ScenarioFamily::kPolicyChurn &&
      options.mutate_every_frames > 0) {
    const size_t rounds = FlattenScenarioFrames(s).size();
    Rng mut_rng(options.seed ^ 0xc4ceb9fe1a85ec53ull);
    std::vector<LocationId> prims = s.initial.graph.Primitives();
    for (size_t f = options.mutate_every_frames; f < rounds;
         f += options.mutate_every_frames) {
      ScenarioMutation m;
      m.before_frame = f;
      m.subject = s.subjects[mut_rng.Uniform(s.subjects.size())];
      m.location = prims[mut_rng.Uniform(prims.size())];
      m.entry_start = 0;
      m.entry_end = shape.horizon * 4;
      m.exit_end = shape.horizon * 5;
      s.mutations.push_back(m);
    }
  }
  return s;
}

std::vector<std::vector<AccessEvent>> FlattenScenarioFrames(
    const LoadScenario& scenario) {
  std::vector<std::vector<AccessEvent>> out;
  size_t longest = 0;
  for (const auto& stream : scenario.streams) {
    longest = std::max(longest, stream.size());
  }
  for (size_t r = 0; r < longest; ++r) {
    for (const auto& stream : scenario.streams) {
      if (r < stream.size()) out.push_back(stream[r]);
    }
  }
  return out;
}

Status ApplyScenarioMutation(AccessRuntime* runtime,
                             const ScenarioMutation& m) {
  LTAM_CHECK(runtime != nullptr);
  return runtime->Mutate([&m](const MutableStores& stores) -> Status {
    LTAM_ASSIGN_OR_RETURN(
        LocationTemporalAuthorization auth,
        LocationTemporalAuthorization::Make(
            TimeInterval(m.entry_start, m.entry_end),
            TimeInterval(m.entry_start, m.exit_end),
            LocationAuthorization{m.subject, m.location},
            kUnlimitedEntries));
    stores.auth_db.Add(auth);
    return Status::OK();
  });
}

SequentialReplay ReplayBatchesSequential(
    const MultilevelLocationGraph& graph, AuthorizationDatabase* auth_db,
    const UserProfileDatabase& profiles,
    const std::vector<std::vector<AccessEvent>>& batches,
    const EngineOptions& options) {
  LTAM_CHECK(auth_db != nullptr);
  SequentialReplay replay;
  MovementDatabase movements;
  AccessControlEngine engine(&graph, auth_db, &movements, &profiles, options);
  for (const std::vector<AccessEvent>& batch : batches) {
    for (const AccessEvent& event : batch) {
      replay.decisions.push_back(ApplyAccessEvent(&engine, event));
      ++replay.events;
    }
  }
  replay.alerts = engine.alerts();
  return replay;
}

}  // namespace ltam
