// Copyright 2026 The LTAM Authors.

#include "workload.h"

#include <algorithm>
#include <cmath>

#include "util/random.h"
#include "util/string_util.h"

namespace ltam::perfbench {

Result<WorkloadSpec> MakeWorkload(const std::string& name, uint64_t seed,
                                  double seconds) {
  if (seconds <= 0) return Status::InvalidArgument("seconds must be positive");
  WorkloadSpec w;
  w.name = name;
  w.scenario.streams = 2;
  w.scenario.events_per_frame = 32;
  w.scenario.seed = seed;
  w.schedule_seed = seed * 0x9e3779b97f4a7c15ull + 0x5851f42d4c957f2dull;
  const auto events_for = [seconds](double rate) {
    return static_cast<size_t>(std::llround(rate * seconds));
  };
  if (name == "durable_ingest") {
    w.family = ScenarioFamily::kSoak;
    w.shards = 2;
    w.durable = true;
    w.sync_mode = "pipelined";
    // Stream time runs ~2 chronons per subject event, so a 96-subject
    // world at 5k events/s ages ~100 chronons a second. The hot bound
    // seals a segment per shard at every checkpoint; the horizon (~6 s)
    // holds the 8 segments the dense checkpoint phase seals (so the 8-way
    // compaction runs) but not the sparse phase's, and drops the rest.
    w.retention_horizon = 600;
    w.retention_hot_events = 512;
    w.rate = 5000;
    w.scenario.total_events = events_for(w.rate);
    w.checkpoints = std::max<size_t>(20, static_cast<size_t>(seconds * 1.2));
    w.sweep_queries = 1200;
  } else if (name == "read_mix") {
    w.family = ScenarioFamily::kContactSweep;
    w.shards = 1;
    w.rate = 3000;
    w.scenario.total_events = events_for(w.rate);
    w.concurrent_queries =
        std::max<size_t>(1200, static_cast<size_t>(seconds * 60));
    w.checkpoints = std::max<size_t>(20, static_cast<size_t>(seconds * 1.2));
  } else {
    return Status::InvalidArgument("unknown workload '" + name +
                                   "' (expected durable_ingest|read_mix)");
  }
  return w;
}

std::vector<std::string> WorkloadSpec::ServerArgs(
    const std::string& durable_dir) const {
  std::vector<std::string> args = {
      std::string("--scenario=") + ScenarioFamilyToString(family),
      "--scenario-seed=" + std::to_string(scenario.seed),
      "--scenario-subjects=" + std::to_string(scenario.subjects),
      "--scenario-events=" + std::to_string(scenario.total_events),
      "--scenario-tenants=" + std::to_string(scenario.tenants),
      "--shards=" + std::to_string(shards),
      "--log-level=warning",
  };
  if (durable) {
    args.push_back("--durable=" + durable_dir);
    args.push_back("--sync-mode=" + sync_mode);
    args.push_back("--retention-horizon-s=" +
                   std::to_string(retention_horizon));
    args.push_back("--retention-hot-events=" +
                   std::to_string(retention_hot_events));
  }
  return args;
}

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kCan:
      return "can";
    case QueryKind::kWhoCan:
      return "who_can";
    case QueryKind::kInaccessible:
      return "inaccessible";
    case QueryKind::kWhereWas:
      return "where_was";
    case QueryKind::kOccupants:
      return "occupants";
    case QueryKind::kContacts:
      return "contacts";
  }
  return "unknown";
}

std::vector<PoolQuery> MakeQueryPool(
    const LoadScenario& scenario, size_t count, uint64_t seed, Chronon window,
    const std::function<Chronon(size_t)>& now_of) {
  Rng rng(seed ^ 0x2545f4914f6cdd1dull);
  const std::vector<LocationId> rooms = scenario.initial.graph.Primitives();
  auto subject = [&]() {
    return StrFormat("u%llu", static_cast<unsigned long long>(
                                  rng.Uniform(scenario.subjects.size())));
  };
  auto room = [&]() -> const std::string& {
    return scenario.initial.graph.location(rooms[rng.Uniform(rooms.size())])
        .name;
  };
  std::vector<PoolQuery> pool;
  pool.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const QueryKind kind = static_cast<QueryKind>(i % kQueryKinds);
    const long long now = static_cast<long long>(now_of(i));
    const long long from = std::max(0LL, now - static_cast<long long>(window));
    const long long at =
        std::max(0LL, now - static_cast<long long>(
                                rng.Uniform(static_cast<uint64_t>(window / 2) + 1)));
    std::string s;
    switch (kind) {
      case QueryKind::kCan: {
        std::string who = subject();
        s = StrFormat("CAN %s ACCESS %s AT %lld", who.c_str(), room().c_str(),
                      at);
        break;
      }
      case QueryKind::kWhoCan:
        s = StrFormat("WHO CAN ACCESS %s DURING [%lld, %lld]", room().c_str(),
                      at, at + static_cast<long long>(window));
        break;
      case QueryKind::kInaccessible:
        s = "INACCESSIBLE FOR " + subject();
        break;
      case QueryKind::kWhereWas: {
        std::string who = subject();
        s = StrFormat("WHERE WAS %s AT %lld", who.c_str(), at);
        break;
      }
      case QueryKind::kOccupants:
        s = StrFormat("OCCUPANTS OF %s AT %lld", room().c_str(), at);
        break;
      case QueryKind::kContacts: {
        std::string who = subject();
        s = StrFormat("CONTACTS OF %s DURING [%lld, %lld] MIN 1", who.c_str(),
                      from, now);
        break;
      }
    }
    pool.push_back({kind, std::move(s)});
  }
  return pool;
}

}  // namespace ltam::perfbench
