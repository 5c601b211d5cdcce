// Copyright 2026 The LTAM Authors.
// Shared fixtures for the LTAM test suite.

#ifndef LTAM_TESTS_TEST_UTIL_H_
#define LTAM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/auth_database.h"
#include "graph/multilevel_graph.h"
#include "profile/user_profile.h"
#include "sim/graph_gen.h"

// Gtest-friendly status assertions.
#define ASSERT_OK(expr)                                          \
  do {                                                           \
    const ::ltam::Status _st = (expr);                           \
    ASSERT_TRUE(_st.ok()) << _st.ToString();                     \
  } while (false)

#define EXPECT_OK(expr)                                          \
  do {                                                           \
    const ::ltam::Status _st = (expr);                           \
    EXPECT_TRUE(_st.ok()) << _st.ToString();                     \
  } while (false)

#define ASSERT_OK_AND_ASSIGN(lhs, rexpr)                         \
  auto LTAM_CONCAT_(_test_result_, __LINE__) = (rexpr);          \
  ASSERT_TRUE(LTAM_CONCAT_(_test_result_, __LINE__).ok())        \
      << LTAM_CONCAT_(_test_result_, __LINE__).status().ToString(); \
  lhs = std::move(LTAM_CONCAT_(_test_result_, __LINE__)).ValueOrDie()

namespace ltam {
namespace testing_util {

/// The Figure 4 / Table 1 setup: graph A-B-C-D (A entry), Alice, and the
/// four authorizations of Table 1.
struct Fig4Fixture {
  MultilevelLocationGraph graph;
  UserProfileDatabase profiles;
  AuthorizationDatabase auth_db;
  SubjectId alice = kInvalidSubject;
  LocationId a = kInvalidLocation;
  LocationId b = kInvalidLocation;
  LocationId c = kInvalidLocation;
  LocationId d = kInvalidLocation;

  static Fig4Fixture Make() {
    Fig4Fixture f;
    Result<MultilevelLocationGraph> g = MakeFig4Graph();
    EXPECT_TRUE(g.ok()) << g.status().ToString();
    f.graph = std::move(g).ValueOrDie();
    f.a = f.graph.Find("A").ValueOrDie();
    f.b = f.graph.Find("B").ValueOrDie();
    f.c = f.graph.Find("C").ValueOrDie();
    f.d = f.graph.Find("D").ValueOrDie();
    f.alice = f.profiles.AddSubject("Alice").ValueOrDie();
    auto add = [&f](LocationId l, Chronon es, Chronon ee, Chronon xs,
                    Chronon xe) {
      Result<LocationTemporalAuthorization> auth =
          LocationTemporalAuthorization::Make(
              TimeInterval(es, ee), TimeInterval(xs, xe),
              LocationAuthorization{f.alice, l}, 1);
      EXPECT_TRUE(auth.ok()) << auth.status().ToString();
      f.auth_db.Add(*auth);
    };
    // Table 1.
    add(f.a, 2, 35, 20, 50);
    add(f.b, 40, 60, 55, 80);
    add(f.c, 38, 45, 70, 90);
    add(f.d, 5, 25, 10, 30);
    return f;
  }
};

/// Resolves a list of location ids to names for readable assertions.
inline std::vector<std::string> Names(const MultilevelLocationGraph& graph,
                                      const std::vector<LocationId>& ids) {
  std::vector<std::string> out;
  out.reserve(ids.size());
  for (LocationId id : ids) out.push_back(graph.location(id).name);
  return out;
}

/// Thread ids of this process named `name` (/proc/self/task/*/comm).
inline std::vector<std::string> ThreadsNamed(const std::string& name) {
  std::vector<std::string> tids;
  for (const std::filesystem::directory_entry& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    std::ifstream comm(task.path() / "comm");
    std::string line;
    if (std::getline(comm, line) && line == name) {
      tids.push_back(task.path().filename().string());
    }
  }
  return tids;
}

}  // namespace testing_util
}  // namespace ltam

#endif  // LTAM_TESTS_TEST_UTIL_H_
