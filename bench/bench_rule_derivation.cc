// Copyright 2026 The LTAM Authors.
//
// Section 4 harness: authorization-rule derivation throughput as the
// organization and the rule set grow — subject fanout (Subordinates_Of
// over an org chart), location fanout (all_route_from over corridors),
// and full re-derivation after a profile change (Example 1's lifecycle).

#include <benchmark/benchmark.h>

#include "core/rules/rule_engine.h"
#include "sim/graph_gen.h"
#include "sim/workload.h"
#include "util/random.h"
#include "util/string_util.h"

namespace {

using namespace ltam;  // NOLINT: harness brevity.

struct Org {
  MultilevelLocationGraph graph;
  UserProfileDatabase profiles;
  AuthorizationDatabase auth_db;
  std::vector<SubjectId> subjects;
  AuthId base = kInvalidAuth;
};

/// An org chart of `n` staff under one boss, all in one grid building.
Org MakeOrg(uint32_t n) {
  Org org;
  org.graph = MakeGridGraph(8, 8).ValueOrDie();
  org.subjects = GenerateSubjects(&org.profiles, n);
  for (size_t i = 1; i < org.subjects.size(); ++i) {
    // A shallow tree: everyone reports to subject (i-1)/4.
    Status st = org.profiles.SetSupervisor(
        org.subjects[i], org.subjects[(i - 1) / 4]);
    (void)st;
  }
  org.base = org.auth_db.Add(
      LocationTemporalAuthorization::Make(
          TimeInterval(0, 400), TimeInterval(0, 500),
          LocationAuthorization{org.subjects[0],
                                org.graph.Primitives().back()},
          4)
          .ValueOrDie());
  return org;
}

/// Subject fanout: one rule deriving for every subordinate of the boss.
void BM_DeriveSubjectFanout(benchmark::State& state) {
  Org org = MakeOrg(static_cast<uint32_t>(state.range(0)));
  RuleEngine rules(&org.auth_db, &org.profiles, &org.graph);
  AuthorizationRule rule;
  rule.base = org.base;
  rule.op_subject = SubjectOperatorPtr(new SubordinatesOfOp());
  RuleId id = rules.AddRule(rule).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rules.DeriveAll().ValueOrDie());
  }
  // Re-derivation keeps unchanged records, so count the rule's active
  // derivations rather than the last pass's additions (zero after the
  // first iteration).
  state.counters["derived"] =
      static_cast<double>(org.auth_db.DerivedBy(id).size());
}
BENCHMARK(BM_DeriveSubjectFanout)->Arg(16)->Arg(64)->Arg(256)->Arg(1024);

/// Location fanout: all_route_from over a longer and longer corridor.
void BM_DeriveLocationFanout(benchmark::State& state) {
  Org org;
  uint32_t len = static_cast<uint32_t>(state.range(0));
  org.graph = MakeGridGraph(len, 1).ValueOrDie();
  org.subjects = GenerateSubjects(&org.profiles, 1);
  org.base = org.auth_db.Add(
      LocationTemporalAuthorization::Make(
          TimeInterval(0, 400), TimeInterval(0, 500),
          LocationAuthorization{org.subjects[0],
                                org.graph.Primitives().back()},
          kUnlimitedEntries)
          .ValueOrDie());
  RuleEngine rules(&org.auth_db, &org.profiles, &org.graph);
  AuthorizationRule rule;
  rule.base = org.base;
  rule.op_location = LocationOperatorPtr(
      new AllRouteFromOp("R0_0", /*max_routes=*/64, /*max_length=*/512));
  RuleId id = rules.AddRule(rule).ValueOrDie();
  for (auto _ : state) {
    benchmark::DoNotOptimize(rules.DeriveAll().ValueOrDie());
  }
  state.counters["derived"] =
      static_cast<double>(org.auth_db.DerivedBy(id).size());
}
BENCHMARK(BM_DeriveLocationFanout)->Arg(8)->Arg(32)->Arg(128);

/// Many small rules: one Supervisor_Of rule per staff member's own base
/// authorization.
void BM_DeriveManyRules(benchmark::State& state) {
  Org org = MakeOrg(static_cast<uint32_t>(state.range(0)));
  RuleEngine rules(&org.auth_db, &org.profiles, &org.graph);
  for (SubjectId s : org.subjects) {
    AuthId base = org.auth_db.Add(
        LocationTemporalAuthorization::Make(
            TimeInterval(0, 400), TimeInterval(0, 500),
            LocationAuthorization{s, org.graph.Primitives()[s % 64]}, 2)
            .ValueOrDie());
    AuthorizationRule rule;
    rule.base = base;
    rule.op_subject = SubjectOperatorPtr(new SupervisorOfOp());
    benchmark::DoNotOptimize(rules.AddRule(rule));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rules.DeriveAll());
  }
  state.counters["rules"] = static_cast<double>(org.subjects.size());
}
BENCHMARK(BM_DeriveManyRules)->Arg(64)->Arg(256)->Arg(1024);

/// Example 1's lifecycle: profile change + refresh.
void BM_RefreshAfterProfileChange(benchmark::State& state) {
  Org org = MakeOrg(256);
  RuleEngine rules(&org.auth_db, &org.profiles, &org.graph);
  AuthorizationRule rule;
  rule.base = org.base;
  rule.op_subject = SubjectOperatorPtr(new SupervisorOfOp());
  RuleId id = rules.AddRule(rule).ValueOrDie();
  (void)id;
  benchmark::DoNotOptimize(rules.DeriveAll());
  bool flip = false;
  for (auto _ : state) {
    // Alternate subject 5's supervisor to force a real change.
    Status st = org.profiles.SetSupervisor(org.subjects[5],
                                           flip ? org.subjects[0]
                                                : org.subjects[1]);
    (void)st;
    flip = !flip;
    benchmark::DoNotOptimize(rules.RefreshIfProfilesChanged());
  }
}
BENCHMARK(BM_RefreshAfterProfileChange);

}  // namespace

BENCHMARK_MAIN();
