// Copyright 2026 The LTAM Authors.
// Deterministic fuzzing of the durability read paths: corrupted, torn,
// and garbage WAL / manifest / movement-segment bytes must produce
// Status errors (or benign replays), never crashes, hangs, or undefined
// behavior. This is the harness that shook out the original decode gaps
// (id wrap-around on negative fields; observations of nonexistent
// locations poisoning later adjacency checks).

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "engine/cold_segment.h"
#include "sim/graph_gen.h"
#include "storage/cold_codec.h"
#include "storage/event_log.h"
#include "storage/manifest.h"
#include "storage/snapshot.h"
#include "storage/wal.h"
#include "test_util.h"
#include "util/random.h"
#include "util/string_util.h"

namespace ltam {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  size_t len = rng->Uniform(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    if (rng->Bernoulli(0.9)) {
      out += static_cast<char>(' ' + rng->Uniform(95));
    } else {
      out += static_cast<char>(rng->Uniform(32));
    }
  }
  return out;
}

std::string Mutate(const std::string& input, Rng* rng) {
  std::string out = input;
  int edits = 1 + static_cast<int>(rng->Uniform(10));
  for (int i = 0; i < edits && !out.empty(); ++i) {
    size_t pos = rng->Uniform(out.size());
    switch (rng->Uniform(3)) {
      case 0:
        out[pos] = static_cast<char>(' ' + rng->Uniform(95));
        break;
      case 1:
        out.erase(pos, 1);
        break;
      case 2:
        out.insert(pos, 1, static_cast<char>(' ' + rng->Uniform(95)));
        break;
    }
  }
  return out;
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

/// A small world to replay corrupted logs into.
struct ReplayWorld {
  MultilevelLocationGraph graph;
  UserProfileDatabase profiles;
  AuthorizationDatabase auth_db;
  MovementDatabase movements;
  std::unique_ptr<AccessControlEngine> engine;

  ReplayWorld() {
    graph = MakeGridGraph(3, 3).ValueOrDie();
    for (int i = 0; i < 6; ++i) {
      profiles.AddSubject("u" + std::to_string(i)).ValueOrDie();
    }
    for (SubjectId s = 0; s < 6; ++s) {
      for (LocationId l : graph.Primitives()) {
        auth_db.Add(LocationTemporalAuthorization::Make(
                        TimeInterval(0, 500), TimeInterval(0, 800),
                        LocationAuthorization{s, l}, 5)
                        .ValueOrDie());
      }
    }
    engine = std::make_unique<AccessControlEngine>(&graph, &auth_db,
                                                   &movements, &profiles);
  }
};

/// A plausible WAL: real encoded events, including ids that are valid,
/// out-of-graph, and boundary-sized.
std::string ValidWalBytes(Rng* rng, size_t events) {
  std::string out;
  Chronon t = 0;
  for (size_t i = 0; i < events; ++i) {
    t += 1 + static_cast<Chronon>(rng->Uniform(4));
    SubjectId s = static_cast<SubjectId>(rng->Uniform(8));
    LocationId l = static_cast<LocationId>(rng->Uniform(16));
    switch (rng->Uniform(4)) {
      case 0:
        AppendEventLine(AccessEvent::Entry(t, s, l), &out);
        break;
      case 1:
        AppendEventLine(AccessEvent::Exit(t, s), &out);
        break;
      case 2:
        AppendEventLine(AccessEvent::Observe(t, s, l), &out);
        break;
      default:
        AppendTickLine(t, &out);
        break;
    }
  }
  return out;
}

class WalFuzzTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  std::string TempPath(const char* tag) {
    return ::testing::TempDir() + "/ltam_walfuzz_" + tag + "_" +
           std::to_string(GetParam());
  }
};

/// Replay of mutated / truncated / garbage WAL bytes into a live engine:
/// must return (ok or error) and never crash — even when a corrupted
/// record parses into an event naming locations the layout lacks, and
/// even when later events then run adjacency checks over that state.
TEST_P(WalFuzzTest, ReplayWalNeverCrashes) {
  Rng rng(GetParam());
  const std::string path = TempPath("wal");
  const std::string valid = ValidWalBytes(&rng, 60);

  for (int i = 0; i < 120; ++i) {
    std::string corrupted;
    switch (i % 3) {
      case 0:
        corrupted = Mutate(valid, &rng);
        break;
      case 1:  // Torn write: truncate at an arbitrary byte.
        corrupted = valid.substr(0, rng.Uniform(valid.size() + 1));
        break;
      default:
        corrupted = RandomBytes(&rng, 600);
        break;
    }
    WriteFile(path, corrupted);
    ReplayWorld world;
    Status st = ReplayWal(path, [&](const LoggedEvent& event) {
      ApplyLoggedEvent(world.engine.get(), event);
      return Status::OK();
    });
    (void)st;  // ok or error; never a crash.
    // Whatever replayed, the engine must still be usable: every recorded
    // current location must survive an adjacency-checked request.
    for (SubjectId s = 0; s < 6; ++s) {
      Decision d = world.engine->RequestEntry(
          10000, s, world.graph.Primitives()[0]);
      (void)d;
    }
  }
  std::remove(path.c_str());
}

/// Decoder contract: malformed records are errors, not wrap-arounds.
TEST(WalFuzzDecodeTest, DecodeEventLineRejectsMalformedLines) {
  // Wrong field counts.
  EXPECT_FALSE(DecodeEventLine("ev-entry\t1\t2").ok());
  EXPECT_FALSE(DecodeEventLine("ev-entry\t1\t2\t3\t4").ok());
  EXPECT_FALSE(DecodeEventLine("ev-exit\t1").ok());
  EXPECT_FALSE(DecodeEventLine("ev-tick").ok());
  EXPECT_FALSE(DecodeEventLine("ev-tick\t").ok());
  // Non-numeric fields.
  EXPECT_FALSE(DecodeEventLine("ev-entry\tx\t2\t3").ok());
  EXPECT_FALSE(DecodeEventLine("ev-obs\t1\t\t3").ok());
  // Ids outside uint32 range must NOT wrap into valid-looking ids.
  EXPECT_FALSE(DecodeEventLine("ev-entry\t1\t-2\t3").ok());
  EXPECT_FALSE(DecodeEventLine("ev-entry\t1\t4294967296\t3").ok());
  EXPECT_FALSE(DecodeEventLine("ev-obs\t1\t2\t-1").ok());
  // Integer overflow is an error, not UB.
  EXPECT_FALSE(DecodeEventLine("ev-tick\t999999999999999999999999").ok());
  // Unknown type tags, and an empty line.
  EXPECT_FALSE(DecodeEventLine("ev-unknown\t1").ok());
  EXPECT_FALSE(DecodeEventLine("").ok());
  // And the happy path still round-trips.
  std::string line;
  AppendEventLine(AccessEvent::Entry(7, 3, 9), &line);
  line.pop_back();
  ASSERT_OK_AND_ASSIGN(LoggedEvent entry, DecodeEventLine(line));
  EXPECT_FALSE(entry.is_tick);
  EXPECT_EQ(entry.event.time, 7);
  EXPECT_EQ(entry.event.subject, 3u);
  EXPECT_EQ(entry.event.location, 9u);
  line.clear();
  AppendTickLine(42, &line);
  line.pop_back();
  ASSERT_OK_AND_ASSIGN(LoggedEvent tick, DecodeEventLine(line));
  EXPECT_TRUE(tick.is_tick);
  EXPECT_EQ(tick.tick_time, 42);
}

// --- Differential decode against the vector-of-fields decoder -------------
//
// The decoder the WAL used before it read lines in place: split the line
// on tabs into strings, unescape every field, then check the tag, the
// field count, ParseInt64 (which trims whitespace and takes a '+') and
// the id ranges. Kept here, verbatim in behaviour, as the reference the
// in-place decoder may refuse more than, but never accept differently.

Result<std::string> ReferenceUnescape(const std::string& field) {
  std::string out;
  for (size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '\\') {
      out += field[i];
      continue;
    }
    if (i + 1 >= field.size()) return Status::ParseError("dangling escape");
    switch (field[++i]) {
      case '\\':
        out += '\\';
        break;
      case 't':
        out += '\t';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      default:
        return Status::ParseError("unknown escape");
    }
  }
  return out;
}

Result<LoggedEvent> ReferenceDecode(const std::string& line) {
  std::vector<std::string> parts = Split(line, '\t');
  if (parts.empty() || parts[0].empty()) {
    return Status::ParseError("record line has no type tag");
  }
  std::vector<std::string> fields;
  for (const std::string& part : parts) {
    LTAM_ASSIGN_OR_RETURN(std::string field, ReferenceUnescape(part));
    fields.push_back(std::move(field));
  }
  const std::string type = fields[0];
  fields.erase(fields.begin());
  auto count = [&fields](size_t expected) {
    return fields.size() == expected
               ? Status::OK()
               : Status::ParseError("field count");
  };
  auto id = [](int64_t v) -> Result<uint32_t> {
    if (v < 0 || v > static_cast<int64_t>(UINT32_MAX)) {
      return Status::ParseError("id out of range");
    }
    return static_cast<uint32_t>(v);
  };
  LoggedEvent out;
  if (type == "ev-tick") {
    LTAM_RETURN_IF_ERROR(count(1));
    LTAM_ASSIGN_OR_RETURN(out.tick_time, ParseInt64(fields[0]));
    out.is_tick = true;
    return out;
  }
  if (type == "ev-entry" || type == "ev-obs") {
    LTAM_RETURN_IF_ERROR(count(3));
    LTAM_ASSIGN_OR_RETURN(int64_t t, ParseInt64(fields[0]));
    LTAM_ASSIGN_OR_RETURN(int64_t s, ParseInt64(fields[1]));
    LTAM_ASSIGN_OR_RETURN(int64_t l, ParseInt64(fields[2]));
    LTAM_ASSIGN_OR_RETURN(uint32_t subject, id(s));
    LTAM_ASSIGN_OR_RETURN(uint32_t location, id(l));
    out.event = type == "ev-entry" ? AccessEvent::Entry(t, subject, location)
                                   : AccessEvent::Observe(t, subject, location);
    return out;
  }
  if (type == "ev-exit") {
    LTAM_RETURN_IF_ERROR(count(2));
    LTAM_ASSIGN_OR_RETURN(int64_t t, ParseInt64(fields[0]));
    LTAM_ASSIGN_OR_RETURN(int64_t s, ParseInt64(fields[1]));
    LTAM_ASSIGN_OR_RETURN(uint32_t subject, id(s));
    out.event = AccessEvent::Exit(t, subject);
    return out;
  }
  return Status::ParseError("unknown WAL record");
}

bool SameLoggedEvent(const LoggedEvent& a, const LoggedEvent& b) {
  if (a.is_tick || b.is_tick) {
    return a.is_tick == b.is_tick && a.tick_time == b.tick_time;
  }
  return a.event.kind == b.event.kind && a.event.time == b.event.time &&
         a.event.subject == b.event.subject &&
         a.event.location == b.event.location;
}

/// Whenever the in-place decoder accepts a line, the reference accepts
/// it with the same record; every line the writer renders, both accept.
TEST_P(WalFuzzTest, DecodeEventLineAgreesWithTheReference) {
  Rng rng(GetParam() * 31 + 5);
  const std::string valid = ValidWalBytes(&rng, 80);
  size_t accepted = 0;
  auto check = [&accepted](const std::string& line, bool rendered) {
    SCOPED_TRACE(line);
    Result<LoggedEvent> got = DecodeEventLine(line);
    Result<LoggedEvent> want = ReferenceDecode(line);
    if (rendered) {
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(want.ok()) << want.status().ToString();
    }
    if (!got.ok()) return;
    ++accepted;
    ASSERT_TRUE(want.ok()) << "the reference refuses a line the decoder took";
    EXPECT_TRUE(SameLoggedEvent(*got, *want));
  };
  for (const std::string& line : Split(valid, '\n')) {
    if (!line.empty()) check(line, true);
  }
  for (int i = 0; i < 600; ++i) {
    std::string bytes;
    switch (i % 3) {
      case 0:
        bytes = Mutate(valid, &rng);
        break;
      case 1:  // Torn write: truncate at an arbitrary byte.
        bytes = valid.substr(0, rng.Uniform(valid.size() + 1));
        break;
      default:
        bytes = RandomBytes(&rng, 600);
        break;
    }
    for (const std::string& line : Split(bytes, '\n')) check(line, false);
  }
  EXPECT_GT(accepted, 80u) << "mutated lines mostly stay decodable";
}

/// The lines the reference took that the integer rule (-?[0-9]+, parsed
/// in place) now refuses: a '+' sign, surrounding whitespace, and
/// whitespace hidden behind an escape.
TEST(WalFuzzDecodeTest, IntegerRuleRefusesWhatTheReferenceTrimmed) {
  for (const std::string line :
       {"ev-tick\t+1", "ev-tick\t 2", "ev-tick\t1\\n",
        "ev-exit\t5\t+3", "ev-entry\t1\t2\t3 ", "ev-obs\t1\t\\t2\t3"}) {
    SCOPED_TRACE(line);
    EXPECT_TRUE(ReferenceDecode(line).ok());
    EXPECT_TRUE(DecodeEventLine(line).status().IsParseError());
  }
}

/// Manifest parsing: mutations, truncations, and garbage must error or
/// produce a structurally valid manifest — never crash, never accept a
/// cut that escapes the directory or misses segments.
TEST_P(WalFuzzTest, ManifestParserNeverCrashes) {
  const std::string path = TempPath("manifest");
  ShardManifest valid;
  valid.epoch = 3;
  valid.num_shards = 4;
  valid.base_snapshot = "base-3.snap";
  for (uint32_t k = 0; k < 4; ++k) {
    ShardManifest::ShardFiles files;
    files.snapshot = "shard-" + std::to_string(k) + "-3.snap";
    files.wal = "events-" + std::to_string(k) + "-3.wal";
    // Cold-tier records (sealed segment lists + dropped counts) are part
    // of the fuzzed surface.
    if (k % 2 == 0) {
      files.cold = {"cold-" + std::to_string(k) + "-0.seg",
                    "cold-" + std::to_string(k) + "-1.seg"};
      files.dropped_events = 17 * (k + 1);
    }
    valid.shards.push_back(std::move(files));
  }
  ASSERT_OK(SaveManifest(valid, path));
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_FALSE(contents.empty());

  Rng rng(GetParam());
  for (int i = 0; i < 200; ++i) {
    std::string corrupted;
    switch (i % 3) {
      case 0:
        corrupted = Mutate(contents, &rng);
        break;
      case 1:
        corrupted = contents.substr(0, rng.Uniform(contents.size() + 1));
        break;
      default:
        corrupted = RandomBytes(&rng, 400);
        break;
    }
    WriteFile(path, corrupted);
    Result<ShardManifest> m = LoadManifest(path);
    if (m.ok()) {
      // Structural invariants hold for anything the parser accepts.
      EXPECT_GE(m->num_shards, 1u);
      EXPECT_EQ(m->shards.size(), m->num_shards);
      EXPECT_EQ(m->base_snapshot.find('/'), std::string::npos);
      for (const ShardManifest::ShardFiles& files : m->shards) {
        EXPECT_FALSE(files.snapshot.empty());
        EXPECT_EQ(files.snapshot.find('/'), std::string::npos);
        EXPECT_FALSE(files.wal.empty());
        EXPECT_EQ(files.wal.find('/'), std::string::npos);
        for (const std::string& seg : files.cold) {
          EXPECT_FALSE(seg.empty());
          EXPECT_EQ(seg.find('/'), std::string::npos);
        }
      }
    }
  }
  std::remove(path.c_str());
}

/// Targeted manifest rejections: the commit record is load-bearing.
TEST(ManifestTest, RejectsTornAndMalformedManifests) {
  const std::string path = ::testing::TempDir() + "/ltam_manifest_cases";
  auto load = [&path](const std::string& text) {
    WriteFile(path, text);
    return LoadManifest(path);
  };
  // No commit record (torn write).
  EXPECT_FALSE(load("manifest\t1\t0\t1\nbase\tb.snap\n"
                    "shard\t0\ts.snap\tw.wal\n")
                   .ok());
  // Commit count mismatch.
  EXPECT_FALSE(load("manifest\t1\t0\t1\nbase\tb.snap\n"
                    "shard\t0\ts.snap\tw.wal\ncommit\t7\n")
                   .ok());
  // Records after commit.
  EXPECT_FALSE(load("manifest\t1\t0\t1\nbase\tb.snap\n"
                    "shard\t0\ts.snap\tw.wal\ncommit\t3\n"
                    "shard\t0\ts.snap\tw.wal\n")
                   .ok());
  // Missing shard entry.
  EXPECT_FALSE(load("manifest\t1\t0\t2\nbase\tb.snap\n"
                    "shard\t0\ts.snap\tw.wal\ncommit\t3\n")
                   .ok());
  // Duplicate shard entry.
  EXPECT_FALSE(load("manifest\t1\t0\t1\nbase\tb.snap\n"
                    "shard\t0\ts.snap\tw.wal\nshard\t0\ts.snap\tw.wal\n"
                    "commit\t4\n")
                   .ok());
  // Path-escaping file names.
  EXPECT_FALSE(load("manifest\t1\t0\t1\nbase\t../../etc/passwd\n"
                    "shard\t0\ts.snap\tw.wal\ncommit\t3\n")
                   .ok());
  // Absurd shard counts must not drive allocation.
  EXPECT_FALSE(load("manifest\t1\t0\t999999999\nbase\tb.snap\ncommit\t2\n")
                   .ok());
  // A shard record needs its WAL.
  EXPECT_FALSE(load("manifest\t1\t0\t1\nbase\tb.snap\n"
                    "shard\t0\ts.snap\ncommit\t3\n")
                   .ok());
  // The WAL name must obey the plain-file-name rule too.
  EXPECT_FALSE(load("manifest\t1\t0\t1\nbase\tb.snap\n"
                    "shard\t0\ts.snap\t../w.wal\ncommit\t3\n")
                   .ok());
  // The well-formed equivalent loads.
  ASSERT_OK_AND_ASSIGN(ShardManifest m,
                       load("manifest\t1\t5\t1\nbase\tb.snap\n"
                            "shard\t0\ts.snap\tw.wal\ncommit\t3\n"));
  EXPECT_EQ(m.epoch, 5u);
  EXPECT_EQ(m.num_shards, 1u);
  EXPECT_EQ(m.base_snapshot, "b.snap");
  EXPECT_EQ(m.shards[0].wal, "w.wal");
  // Rotated-segment lists (a removed layout) are refused, not misread.
  Result<ShardManifest> rotated =
      load("manifest\t1\t5\t1\nbase\tb.snap\n"
           "shard\t0\ts.snap\tw.wal\tw-1.wal\tw-2.wal\ncommit\t3\n");
  ASSERT_FALSE(rotated.ok());
  EXPECT_TRUE(rotated.status().IsFailedPrecondition())
      << rotated.status().ToString();
  // The one-WAL cut survives a save/load round trip unchanged.
  ASSERT_OK(SaveManifest(m, path));
  ASSERT_OK_AND_ASSIGN(ShardManifest reloaded, LoadManifest(path));
  EXPECT_EQ(reloaded.shards[0].wal, m.shards[0].wal);
  std::remove(path.c_str());
}

/// The MANIFEST's exact bytes, `cold` and `floor` records included.
TEST(ManifestTest, SavesItsGoldenBytes) {
  const std::string path = ::testing::TempDir() + "/ltam_manifest_golden";
  ShardManifest m;
  m.epoch = 12;
  m.num_shards = 3;
  m.base_snapshot = "base-12.snap";
  for (uint32_t k = 0; k < 3; ++k) {
    ShardManifest::ShardFiles files;
    files.snapshot = "shard-" + std::to_string(k) + "-12.snap";
    files.wal = "events-" + std::to_string(k) + "-12.wal";
    m.shards.push_back(std::move(files));
  }
  m.shards[0].cold = {"cold-0-3.seg", "cold-0-4.seg"};
  m.shards[0].floor = 1234;
  m.shards[2].dropped_events = 9;
  m.shards[2].floor = 5;
  const std::string golden =
      "manifest\t1\t12\t3\n"
      "base\tbase-12.snap\n"
      "shard\t0\tshard-0-12.snap\tevents-0-12.wal\n"
      "cold\t0\t0\tcold-0-3.seg\tcold-0-4.seg\n"
      "floor\t0\t1234\n"
      "shard\t1\tshard-1-12.snap\tevents-1-12.wal\n"
      "shard\t2\tshard-2-12.snap\tevents-2-12.wal\n"
      "cold\t2\t9\n"
      "floor\t2\t5\n"
      "commit\t9\n";
  ASSERT_OK(SaveManifest(m, path));
  {
    std::ifstream in(path, std::ios::binary);
    EXPECT_EQ(golden, std::string((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>()));
  }
  EXPECT_FALSE(FileExists(path + ".tmp"));
  ASSERT_OK_AND_ASSIGN(ShardManifest loaded, LoadManifest(path));
  EXPECT_EQ(loaded.epoch, 12u);
  EXPECT_EQ(loaded.shards[0].cold, m.shards[0].cold);
  EXPECT_EQ(loaded.shards[0].floor, 1234u);
  EXPECT_EQ(loaded.shards[1].floor, 0u);
  EXPECT_EQ(loaded.shards[2].dropped_events, 9u);
  EXPECT_EQ(loaded.shards[2].floor, 5u);
  std::remove(path.c_str());
}

/// Targeted cold-record rejections: the sealed-segment list is part of
/// the committed cut, so a malformed one must fail the whole manifest.
TEST(ManifestTest, RejectsMalformedColdRecords) {
  const std::string path = ::testing::TempDir() + "/ltam_manifest_cold_cases";
  auto load = [&path](const std::string& text) {
    WriteFile(path, text);
    return LoadManifest(path);
  };
  const std::string head =
      "manifest\t1\t0\t1\nbase\tb.snap\nshard\t0\ts.snap\tw.wal\n";
  // Shard index out of range.
  EXPECT_FALSE(load(head + "cold\t7\t0\tc.seg\ncommit\t4\n").ok());
  // Duplicate cold record for one shard.
  EXPECT_FALSE(
      load(head + "cold\t0\t0\tc.seg\ncold\t0\t0\td.seg\ncommit\t5\n").ok());
  // Negative dropped-event count.
  EXPECT_FALSE(load(head + "cold\t0\t-3\tc.seg\ncommit\t4\n").ok());
  // Nothing sealed AND nothing dropped: the record should not exist.
  EXPECT_FALSE(load(head + "cold\t0\t0\ncommit\t4\n").ok());
  // Too few fields.
  EXPECT_FALSE(load(head + "cold\t0\ncommit\t4\n").ok());
  // Path-escaping segment names.
  EXPECT_FALSE(load(head + "cold\t0\t0\t../c.seg\ncommit\t4\n").ok());
  // A dropped-only record (everything past the horizon, nothing sealed)
  // is legal; so is a full record, and both round-trip.
  ASSERT_OK_AND_ASSIGN(ShardManifest dropped_only,
                       load(head + "cold\t0\t12\ncommit\t4\n"));
  EXPECT_EQ(dropped_only.shards[0].dropped_events, 12u);
  EXPECT_TRUE(dropped_only.shards[0].cold.empty());
  ASSERT_OK_AND_ASSIGN(
      ShardManifest full,
      load(head + "cold\t0\t5\tc0.seg\tc1.seg\tc2.seg\ncommit\t4\n"));
  EXPECT_EQ(full.shards[0].dropped_events, 5u);
  ASSERT_EQ(full.shards[0].cold.size(), 3u);
  EXPECT_EQ(full.shards[0].cold[0], "c0.seg");
  EXPECT_EQ(full.shards[0].cold[2], "c2.seg");
  ASSERT_OK(SaveManifest(full, path));
  ASSERT_OK_AND_ASSIGN(ShardManifest reloaded, LoadManifest(path));
  EXPECT_EQ(reloaded.shards[0].cold, full.shards[0].cold);
  EXPECT_EQ(reloaded.shards[0].dropped_events, 5u);
  std::remove(path.c_str());
}

/// Corrupted columnar cold-segment images: decode must return ok or
/// error — never crash, hang, or over-allocate — and anything accepted
/// must satisfy every ColdSegment invariant.
TEST_P(WalFuzzTest, ColdSegmentDecoderNeverCrashes) {
  ColdSegment seg;
  Rng seed_rng(GetParam());
  Chronon enter = -20;
  SubjectId subject = 0;
  for (int i = 0; i < 30; ++i) {
    subject += static_cast<SubjectId>(seed_rng.Uniform(3));
    enter += 1 + static_cast<Chronon>(seed_rng.Uniform(10));
    const Chronon exit = enter + static_cast<Chronon>(seed_rng.Uniform(50));
    seg.subjects.push_back(subject);
    seg.locations.push_back(static_cast<LocationId>(seed_rng.Uniform(12)));
    seg.enters.push_back(enter);
    seg.exits.push_back(exit);
  }
  seg.sealed_events = 41;
  seg.RecomputeBounds();
  ASSERT_OK_AND_ASSIGN(std::string valid, EncodeColdSegment(seg));
  // Round trip before corrupting anything.
  ASSERT_OK(DecodeColdSegment(valid).status());

  Rng rng(GetParam() * 7919 + 1);
  for (int i = 0; i < 300; ++i) {
    std::string corrupted;
    switch (i % 3) {
      case 0:
        corrupted = Mutate(valid, &rng);
        break;
      case 1:
        corrupted = valid.substr(0, rng.Uniform(valid.size() + 1));
        break;
      default:
        corrupted = RandomBytes(&rng, 400);
        break;
    }
    Result<ColdSegment> r = DecodeColdSegment(corrupted);
    if (!r.ok()) continue;
    const ColdSegment& got = *r;
    ASSERT_EQ(got.locations.size(), got.rows());
    ASSERT_EQ(got.enters.size(), got.rows());
    ASSERT_EQ(got.exits.size(), got.rows());
    for (size_t j = 0; j < got.rows(); ++j) {
      ASSERT_LE(got.enters[j], got.exits[j]);
      ASSERT_LT(got.exits[j], kChrononMax);
      ASSERT_GE(got.enters[j], got.min_enter);
      ASSERT_LE(got.exits[j], got.max_exit);
      if (j > 0) {
        ASSERT_LE(got.subjects[j - 1], got.subjects[j]);
      }
    }
  }
}

/// Movement-segment loading under corruption (the per-shard snapshots).
TEST_P(WalFuzzTest, MovementSegmentLoaderNeverCrashes) {
  const std::string path = TempPath("segment");
  MovementDatabase movements;
  Rng rng(GetParam());
  Chronon t = 0;
  std::vector<LocationId> at(6, kInvalidLocation);
  for (int i = 0; i < 40; ++i) {
    t += 1 + static_cast<Chronon>(rng.Uniform(3));
    SubjectId s = static_cast<SubjectId>(rng.Uniform(6));
    LocationId l = rng.Bernoulli(0.2)
                       ? kInvalidLocation
                       : static_cast<LocationId>(rng.Uniform(9));
    if (l == at[s]) continue;  // Same-location moves are rejected.
    ASSERT_OK(movements.RecordMovement(t, s, l));
    at[s] = l;
  }
  ASSERT_OK(SaveMovements(movements, path));
  std::string contents;
  {
    std::ifstream in(path, std::ios::binary);
    contents.assign((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  }
  // Round trip.
  ASSERT_OK_AND_ASSIGN(MovementDatabase loaded, LoadMovements(path));
  EXPECT_EQ(loaded.history().size(), movements.history().size());

  for (int i = 0; i < 150; ++i) {
    WriteFile(path, i % 2 == 0 ? Mutate(contents, &rng)
                               : RandomBytes(&rng, 300));
    Result<MovementDatabase> r = LoadMovements(path);
    (void)r;  // ok or error; never a crash.
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, WalFuzzTest,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace ltam
