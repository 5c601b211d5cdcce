// Copyright 2026 The LTAM Authors.
// Deterministic fuzzing of the wire protocol's read paths, in the style
// of wal_fuzz_test.cc: truncated, oversized, bit-flipped, and garbage
// frames must produce ParseErrors (or clean round-trips), never
// crashes, hangs, over-reads, or ids wrapped into nonsense. Run under
// ASan/UBSan by ci.sh, this is the harness that certifies the decoder's
// bounds-checking contract.

#include "service/protocol.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_util.h"
#include "util/random.h"

namespace ltam {
namespace {

std::string RandomBytes(Rng* rng, size_t max_len) {
  size_t len = rng->Uniform(max_len + 1);
  std::string out;
  out.reserve(len);
  for (size_t i = 0; i < len; ++i) {
    out += static_cast<char>(rng->Uniform(256));
  }
  return out;
}

std::string Mutate(const std::string& input, Rng* rng) {
  std::string out = input;
  int edits = 1 + static_cast<int>(rng->Uniform(8));
  for (int i = 0; i < edits && !out.empty(); ++i) {
    size_t pos = rng->Uniform(out.size());
    switch (rng->Uniform(3)) {
      case 0:
        out[pos] = static_cast<char>(rng->Uniform(256));
        break;
      case 1:
        out.erase(pos, 1);
        break;
      case 2:
        out.insert(pos, 1, static_cast<char>(rng->Uniform(256)));
        break;
    }
  }
  return out;
}

AccessEvent RandomEvent(Rng* rng) {
  Chronon t = static_cast<Chronon>(rng->Uniform(1000));
  SubjectId s = static_cast<SubjectId>(rng->Uniform(64));
  LocationId l = static_cast<LocationId>(rng->Uniform(64));
  switch (rng->Uniform(3)) {
    case 0: return AccessEvent::Entry(t, s, l);
    case 1: return AccessEvent::Exit(t, s);
    default: return AccessEvent::Observe(t, s, l);
  }
}

/// Every decoder in one place, so fuzz loops can hammer them all.
void DecodeEverything(const std::string& payload) {
  (void)DecodeApplyBatchRequest(payload);
  (void)DecodeApplyFixRequest(payload);
  (void)DecodeQueryRequest(payload);
  (void)DecodeBatchResult(payload);
  (void)DecodeFixResult(payload);
  (void)DecodeQueryResult(payload);
  (void)DecodeStatsResult(payload);
  Status error;
  (void)DecodeErrorResult(payload, &error);
  (void)DecodeReplicaHello(payload);
  (void)DecodeReplicaWelcome(payload);
  (void)DecodeSegmentChunk(payload);
  (void)DecodeRepointRequest(payload);
  (void)DecodePromoteResult(payload);
  (void)DecodeMetricsResult(payload);
}

// --- Round trips -------------------------------------------------------------

TEST(ServiceProtocolTest, EventPayloadsRoundTrip) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) {
    const std::vector<AccessEvent> one = {RandomEvent(&rng)};
    ASSERT_OK_AND_ASSIGN(std::vector<AccessEvent> decoded,
                         DecodeApplyBatchRequest(EncodeApplyBatchRequest(one)));
    ASSERT_EQ(1u, decoded.size());
    EXPECT_EQ(one[0].ToString(), decoded[0].ToString());
  }
  std::vector<AccessEvent> batch;
  for (int i = 0; i < 200; ++i) batch.push_back(RandomEvent(&rng));
  ASSERT_OK_AND_ASSIGN(
      std::vector<AccessEvent> decoded,
      DecodeApplyBatchRequest(EncodeApplyBatchRequest(batch)));
  ASSERT_EQ(batch.size(), decoded.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].ToString(), decoded[i].ToString());
  }
  // Empty batches are legal frames.
  ASSERT_OK_AND_ASSIGN(decoded, DecodeApplyBatchRequest(
                                    EncodeApplyBatchRequest({})));
  EXPECT_TRUE(decoded.empty());
}

TEST(ServiceProtocolTest, FixAndQueryPayloadsRoundTrip) {
  PositionFix fix{42, 7, {3.25, -9.5}};
  ASSERT_OK_AND_ASSIGN(PositionFix decoded_fix,
                       DecodeApplyFixRequest(EncodeApplyFixRequest(fix)));
  EXPECT_EQ(fix.time, decoded_fix.time);
  EXPECT_EQ(fix.subject, decoded_fix.subject);
  EXPECT_EQ(fix.position.x, decoded_fix.position.x);
  EXPECT_EQ(fix.position.y, decoded_fix.position.y);

  const std::string statement = "WHEN CAN Alice ACCESS CAIS";
  ASSERT_OK_AND_ASSIGN(std::string decoded_query,
                       DecodeQueryRequest(EncodeQueryRequest(statement)));
  EXPECT_EQ(statement, decoded_query);
  // Embedded NUL and non-ASCII bytes survive (length-prefixed, not
  // NUL-terminated).
  std::string gnarly("a\0b\xff\x01", 5);
  ASSERT_OK_AND_ASSIGN(decoded_query,
                       DecodeQueryRequest(EncodeQueryRequest(gnarly)));
  EXPECT_EQ(gnarly, decoded_query);
}

TEST(ServiceProtocolTest, ResultPayloadsRoundTrip) {
  WireBatchResult result;
  result.decisions.push_back(Decision::Grant(12));
  result.decisions.push_back(Decision::Deny(DenyReason::kNotAdjacent));
  result.decisions.push_back(
      Decision::Deny(DenyReason::kObservationRejected));
  result.alerts.push_back(
      Alert{30, 2, 5, AlertType::kOverstay, "stay expired"});
  result.alerts.push_back(
      Alert{31, 3, kInvalidLocation, AlertType::kEarlyExit, ""});
  result.durability = Status::IOError("fsync failed");
  ASSERT_OK_AND_ASSIGN(WireBatchResult decoded,
                       DecodeBatchResult(EncodeBatchResult(result)));
  ASSERT_EQ(result.decisions.size(), decoded.decisions.size());
  for (size_t i = 0; i < result.decisions.size(); ++i) {
    EXPECT_EQ(result.decisions[i].ToString(),
              decoded.decisions[i].ToString());
  }
  ASSERT_EQ(result.alerts.size(), decoded.alerts.size());
  for (size_t i = 0; i < result.alerts.size(); ++i) {
    EXPECT_EQ(result.alerts[i].ToString(), decoded.alerts[i].ToString());
  }
  EXPECT_TRUE(result.durability == decoded.durability);

  WireFixResult fix;
  fix.status = Status::FailedPrecondition("position fix refused");
  fix.alerts.push_back(
      Alert{9, 1, 2, AlertType::kImpossibleMovement, "gap"});
  ASSERT_OK_AND_ASSIGN(WireFixResult decoded_fix,
                       DecodeFixResult(EncodeFixResult(fix)));
  EXPECT_TRUE(fix.status == decoded_fix.status);
  ASSERT_EQ(1u, decoded_fix.alerts.size());
  EXPECT_EQ(fix.alerts[0].ToString(), decoded_fix.alerts[0].ToString());

  QueryResult table;
  table.columns = {"subject", "location"};
  table.rows = {{"Alice", "CAIS"}, {"Bob", ""}};
  ASSERT_OK_AND_ASSIGN(QueryResult decoded_table,
                       DecodeQueryResult(EncodeQueryResult(table)));
  EXPECT_EQ(table.columns, decoded_table.columns);
  EXPECT_EQ(table.rows, decoded_table.rows);

  RuntimeStats stats;
  stats.num_shards = 4;
  stats.requested_shards = 8;
  stats.durable = true;
  stats.shard_count_overridden = true;
  stats.epoch = 3;
  stats.wal_events = 77;
  stats.requests_processed = 1000;
  stats.requests_granted = 900;
  stats.batches_applied = 12;
  stats.events_applied = 1100;
  stats.batches_rejected = 2;
  stats.pending_alerts = 1;
  ASSERT_OK_AND_ASSIGN(RuntimeStats decoded_stats,
                       DecodeStatsResult(EncodeStatsResult(stats)));
  EXPECT_EQ(stats.num_shards, decoded_stats.num_shards);
  EXPECT_EQ(stats.requested_shards, decoded_stats.requested_shards);
  EXPECT_EQ(stats.durable, decoded_stats.durable);
  EXPECT_EQ(stats.shard_count_overridden,
            decoded_stats.shard_count_overridden);
  EXPECT_EQ(stats.epoch, decoded_stats.epoch);
  EXPECT_EQ(stats.wal_events, decoded_stats.wal_events);
  EXPECT_EQ(stats.requests_processed, decoded_stats.requests_processed);
  EXPECT_EQ(stats.requests_granted, decoded_stats.requests_granted);
  EXPECT_EQ(stats.batches_applied, decoded_stats.batches_applied);
  EXPECT_EQ(stats.events_applied, decoded_stats.events_applied);
  EXPECT_EQ(stats.batches_rejected, decoded_stats.batches_rejected);
  EXPECT_EQ(stats.pending_alerts, decoded_stats.pending_alerts);

  Status error = Status::NotFound("no such subject 'Mallory'");
  Status decoded_error;
  ASSERT_OK(DecodeErrorResult(EncodeErrorResult(error), &decoded_error));
  EXPECT_TRUE(error == decoded_error);
}

TEST(ServiceProtocolTest, StatsWatermarkRoundTrips) {
  RuntimeStats stats;
  stats.num_shards = 3;
  stats.durable = true;
  stats.applied_offset = 60;
  stats.durable_offset = 55;
  ASSERT_OK_AND_ASSIGN(RuntimeStats decoded,
                       DecodeStatsResult(EncodeStatsResult(stats)));
  EXPECT_EQ(60u, decoded.applied_offset);
  EXPECT_EQ(55u, decoded.durable_offset);
  // durable > applied is corruption, not a legal watermark.
  stats.durable_offset = 61;
  EXPECT_FALSE(DecodeStatsResult(EncodeStatsResult(stats)).ok());
}

// --- Replication payloads (v4) -----------------------------------------------

TEST(ServiceProtocolTest, ReplicationPayloadsRoundTrip) {
  ReplicaHello hello;
  hello.epoch = 3;
  hello.position = 9001;
  ASSERT_OK_AND_ASSIGN(ReplicaHello decoded_hello,
                       DecodeReplicaHello(EncodeReplicaHello(hello)));
  EXPECT_EQ(hello.epoch, decoded_hello.epoch);
  EXPECT_EQ(hello.position, decoded_hello.position);
  // A fresh replica (epoch 0, nothing held yet) is a valid subscriber.
  ASSERT_OK_AND_ASSIGN(decoded_hello,
                       DecodeReplicaHello(EncodeReplicaHello(ReplicaHello{})));
  EXPECT_EQ(0u, decoded_hello.position);

  ReplicaWelcome welcome;
  welcome.epoch = 5;
  ASSERT_OK_AND_ASSIGN(ReplicaWelcome decoded_welcome,
                       DecodeReplicaWelcome(EncodeReplicaWelcome(welcome)));
  EXPECT_EQ(welcome.epoch, decoded_welcome.epoch);

  SegmentChunk chunk;
  chunk.epoch = 2;
  chunk.start = 4096;
  chunk.records = {"E 1 2 3", "", std::string("x\0y\xff", 4)};
  ASSERT_OK_AND_ASSIGN(SegmentChunk decoded_chunk,
                       DecodeSegmentChunk(EncodeSegmentChunk(chunk)));
  EXPECT_EQ(chunk.epoch, decoded_chunk.epoch);
  EXPECT_EQ(chunk.start, decoded_chunk.start);
  EXPECT_EQ(chunk.records, decoded_chunk.records);
  // A record-free chunk is a legal (if pointless) frame.
  chunk.records.clear();
  ASSERT_OK_AND_ASSIGN(decoded_chunk,
                       DecodeSegmentChunk(EncodeSegmentChunk(chunk)));
  EXPECT_TRUE(decoded_chunk.records.empty());

  RepointRequest repoint;
  repoint.host = "replica-2.internal";
  repoint.port = 7411;
  ASSERT_OK_AND_ASSIGN(RepointRequest decoded_repoint,
                       DecodeRepointRequest(EncodeRepointRequest(repoint)));
  EXPECT_EQ(repoint.host, decoded_repoint.host);
  EXPECT_EQ(repoint.port, decoded_repoint.port);

  ASSERT_OK_AND_ASSIGN(uint64_t epoch,
                       DecodePromoteResult(EncodePromoteResult(42)));
  EXPECT_EQ(42u, epoch);

  // Stats carry the replication role since v4.
  RuntimeStats stats;
  stats.num_shards = 2;
  stats.replica = true;
  stats.replication_epoch = 9;
  ASSERT_OK_AND_ASSIGN(RuntimeStats decoded_stats,
                       DecodeStatsResult(EncodeStatsResult(stats)));
  EXPECT_TRUE(decoded_stats.replica);
  EXPECT_EQ(9u, decoded_stats.replication_epoch);
}

TEST(ServiceProtocolTest, ReplicationDecodersRejectCorruption) {
  ReplicaHello hello;
  hello.epoch = 1;
  hello.position = 18;
  const std::string hello_bytes = EncodeReplicaHello(hello);
  // Truncation at every byte boundary, and strict consumption.
  for (size_t cut = 0; cut < hello_bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeReplicaHello(hello_bytes.substr(0, cut)).ok());
  }
  EXPECT_FALSE(DecodeReplicaHello(hello_bytes + 'x').ok());
  // A v9 hello (a u32 shard count between epoch and position) is not a
  // v10 one.
  EXPECT_FALSE(DecodeReplicaHello(hello_bytes + std::string(4, '\0')).ok());

  ReplicaWelcome welcome;
  welcome.epoch = 4;
  const std::string welcome_bytes = EncodeReplicaWelcome(welcome);
  for (size_t cut = 0; cut < welcome_bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeReplicaWelcome(welcome_bytes.substr(0, cut)).ok());
  }
  // A v9 welcome carried a u32 shard count after the epoch.
  EXPECT_FALSE(
      DecodeReplicaWelcome(welcome_bytes + std::string(4, '\0')).ok());

  SegmentChunk chunk;
  chunk.epoch = 1;
  chunk.start = 10;
  chunk.records = {"E 1 2 3", "X 4 5"};
  const std::string chunk_bytes = EncodeSegmentChunk(chunk);
  for (size_t cut = 0; cut < chunk_bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeSegmentChunk(chunk_bytes.substr(0, cut)).ok());
  }
  EXPECT_FALSE(DecodeSegmentChunk(chunk_bytes + 'x').ok());
  // A record count over kMaxReplicationRecords is rejected from the
  // count field alone — it could not have been produced by a shipper.
  std::string flooded = chunk_bytes;
  const uint32_t too_many = kMaxReplicationRecords + 1;
  flooded[16] = static_cast<char>(too_many & 0xff);
  flooded[17] = static_cast<char>((too_many >> 8) & 0xff);
  flooded[18] = static_cast<char>((too_many >> 16) & 0xff);
  flooded[19] = static_cast<char>((too_many >> 24) & 0xff);
  EXPECT_FALSE(DecodeSegmentChunk(flooded).ok());

  RepointRequest repoint;
  repoint.host = "h";
  repoint.port = 1;
  const std::string repoint_bytes = EncodeRepointRequest(repoint);
  for (size_t cut = 0; cut < repoint_bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeRepointRequest(repoint_bytes.substr(0, cut)).ok());
  }
  EXPECT_FALSE(DecodeRepointRequest(repoint_bytes + 'x').ok());

  EXPECT_FALSE(DecodePromoteResult("").ok());
  EXPECT_FALSE(DecodePromoteResult(EncodePromoteResult(1) + 'x').ok());
}

// --- Metrics payloads (v5) ---------------------------------------------------

TEST(ServiceProtocolTest, MetricsPayloadsRoundTrip) {
  MetricsSnapshot snapshot;
  snapshot.counters = {{"ingest.events", 12345}, {"ingest.frames", 99}};
  snapshot.gauges = {{"replication.replica.3.lag_records", -2},
                     {"replication.replica.7.lag_records", 40}};
  LatencyHistogram hist;
  hist.Record(1);
  hist.Record(900);
  hist.Record(1u << 20);
  for (int i = 0; i < 50; ++i) hist.Record(1000 + i * 37);
  LatencyHistogram empty;
  snapshot.histograms = {{"ingest.apply", hist}, {"query.run", empty}};
  ASSERT_OK_AND_ASSIGN(MetricsSnapshot decoded,
                       DecodeMetricsResult(EncodeMetricsResult(snapshot)));
  EXPECT_EQ(snapshot.counters, decoded.counters);
  EXPECT_EQ(snapshot.gauges, decoded.gauges);
  ASSERT_EQ(2u, decoded.histograms.size());
  for (size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(snapshot.histograms[i].first, decoded.histograms[i].first);
    const LatencyHistogram& a = snapshot.histograms[i].second;
    const LatencyHistogram& b = decoded.histograms[i].second;
    EXPECT_EQ(a.count(), b.count());
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.max(), b.max());
    EXPECT_EQ(a.p50(), b.p50());
    EXPECT_EQ(a.p999(), b.p999());
    EXPECT_EQ(a.NonZeroBuckets(), b.NonZeroBuckets());
  }
  // Clients render the text exposition from the decoded snapshot, so it
  // must match the rendering of the snapshot the server encoded.
  EXPECT_EQ(ToPrometheusText(snapshot), ToPrometheusText(decoded));

  // Truncation at every byte boundary, and strict consumption.
  const std::string payload = EncodeMetricsResult(snapshot);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeMetricsResult(payload.substr(0, cut)).ok());
  }
  EXPECT_FALSE(DecodeMetricsResult(payload + 'x').ok());
  // A corrupt metric count cannot drive an allocation.
  std::string lying = payload;
  lying[0] = static_cast<char>(0xff);
  lying[1] = static_cast<char>(0xff);
  lying[2] = static_cast<char>(0xff);
  lying[3] = static_cast<char>(0x7f);
  EXPECT_FALSE(DecodeMetricsResult(lying).ok());
  // An internally inconsistent histogram (bucket counts that do not sum
  // to the advertised count) is a ParseError, not a trusted value: the
  // wire never hands out a histogram FromParts would refuse.
  MetricsSnapshot one;
  one.histograms = {{"h", hist}};
  std::string tampered = EncodeMetricsResult(one);
  // Layout: counters count (4) + gauges count (4) + histograms count
  // (4) + name length (4) + name (1) + count (8, little-endian first).
  ++tampered[4 + 4 + 4 + 4 + 1];
  EXPECT_FALSE(DecodeMetricsResult(tampered).ok());
}

// --- Targeted rejections -----------------------------------------------------

TEST(ServiceProtocolTest, HeaderRejectsMalformedFields) {
  const std::string good = EncodeFrame(MessageType::kPing, 7, "");
  auto decode = [](std::string bytes) {
    return DecodeFrameHeader(reinterpret_cast<const uint8_t*>(bytes.data()),
                             bytes.size());
  };
  ASSERT_OK_AND_ASSIGN(FrameHeader header, decode(good));
  EXPECT_EQ(MessageType::kPing, header.type);
  EXPECT_EQ(7u, header.request_id);
  EXPECT_EQ(0u, header.payload_length);

  std::string bad_magic = good;
  bad_magic[0] = 'X';
  EXPECT_FALSE(decode(bad_magic).ok());

  std::string bad_version = good;
  bad_version[4] = 99;
  EXPECT_FALSE(decode(bad_version).ok());
  // Earlier versions are refused like any other: v8 carried per-shard
  // replication positions, which a later peer cannot resume from, and a
  // v9 hello and welcome carry a shard count a v10 peer does not read.
  for (const uint8_t previous : {7, 8, 9}) {
    bad_version[4] = static_cast<char>(previous);
    EXPECT_FALSE(decode(bad_version).ok()) << "v" << int{previous};
  }

  std::string bad_type = good;
  bad_type[5] = static_cast<char>(200);
  EXPECT_FALSE(decode(bad_type).ok());
  bad_type[5] = 0;  // Type 0 is not assigned either.
  EXPECT_FALSE(decode(bad_type).ok());

  std::string reserved_bits = good;
  reserved_bits[6] = 1;
  EXPECT_FALSE(decode(reserved_bits).ok());

  // A length over the ceiling must be rejected from the header alone —
  // before anything tries to buffer 4 GiB.
  std::string huge_length = good;
  for (int i = 12; i < 16; ++i) huge_length[i] = static_cast<char>(0xff);
  EXPECT_FALSE(decode(huge_length).ok());
}

TEST(ServiceProtocolTest, HeaderRefusesRetiredTypeCodes) {
  // v7 retired apply (2), apply-result (33) and alert-push (40), and
  // v10 retired watermark-advance (43). The last three sit inside the
  // response range, so only an explicit list of assigned codes refuses
  // them.
  std::string frame = EncodeFrame(MessageType::kPing, 7, "");
  for (const uint8_t code : {2, 33, 40, 43}) {
    frame[5] = static_cast<char>(code);
    EXPECT_FALSE(DecodeFrameHeader(
                     reinterpret_cast<const uint8_t*>(frame.data()),
                     frame.size())
                     .ok())
        << "type code " << static_cast<int>(code);
  }
}

TEST(ServiceProtocolTest, PayloadDecodersRejectCorruption) {
  // Truncation at every byte boundary: never OK with trailing intent,
  // never a crash.
  std::vector<AccessEvent> batch;
  Rng rng(11);
  for (int i = 0; i < 8; ++i) batch.push_back(RandomEvent(&rng));
  const std::string payload = EncodeApplyBatchRequest(batch);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    EXPECT_FALSE(DecodeApplyBatchRequest(payload.substr(0, cut)).ok());
  }
  // A trailing byte violates strict consumption.
  EXPECT_FALSE(DecodeApplyBatchRequest(payload + 'x').ok());

  // An event count far beyond what the payload can hold must be
  // rejected up front (no allocation driven by a corrupt count).
  std::string lying = payload;
  lying[0] = static_cast<char>(0xff);
  lying[1] = static_cast<char>(0xff);
  lying[2] = static_cast<char>(0xff);
  lying[3] = static_cast<char>(0x7f);
  EXPECT_FALSE(DecodeApplyBatchRequest(lying).ok());

  // Enum fields outside their ranges are errors, not casts.
  std::string bad_kind = EncodeApplyBatchRequest({batch[0]});
  bad_kind[4] = 9;  // count, then the event's kind byte.
  EXPECT_FALSE(DecodeApplyBatchRequest(bad_kind).ok());

  WireBatchResult result;
  result.decisions.push_back(Decision::Grant(1));
  std::string bad_reason = EncodeBatchResult(result);
  bad_reason[4 + 5] = 42;  // count + (granted, auth) then reason.
  EXPECT_FALSE(DecodeBatchResult(bad_reason).ok());
  // 8 was the write-ahead log's refusal, retired in v8: a gap inside the
  // range, refused like any unassigned code.
  bad_reason[4 + 5] = 8;
  EXPECT_FALSE(DecodeBatchResult(bad_reason).ok());
  bad_reason[4 + 5] = 9;
  EXPECT_OK(DecodeBatchResult(bad_reason).status());

  // An OK status smuggled into an error frame is rejected.
  std::string ok_error;
  ok_error.push_back('\0');            // code = kOk.
  ok_error.append(4, '\0');            // empty message.
  Status sink;
  EXPECT_FALSE(DecodeErrorResult(ok_error, &sink).ok());
}

// --- Assembler ---------------------------------------------------------------

TEST(ServiceProtocolTest, AssemblerReassemblesArbitrarySplits) {
  Rng rng(13);
  std::vector<AccessEvent> batch;
  for (int i = 0; i < 20; ++i) batch.push_back(RandomEvent(&rng));
  std::string stream;
  stream += EncodeFrame(MessageType::kPing, 1, "");
  stream += EncodeFrame(MessageType::kApplyBatch, 2,
                        EncodeApplyBatchRequest(batch));
  stream += EncodeFrame(MessageType::kQuery, 3,
                        EncodeQueryRequest("HISTORY OF Alice"));
  for (int round = 0; round < 40; ++round) {
    FrameAssembler assembler;
    std::vector<Frame> frames;
    size_t pos = 0;
    while (pos < stream.size()) {
      size_t chunk = 1 + rng.Uniform(17);
      chunk = std::min(chunk, stream.size() - pos);
      assembler.Append(stream.data() + pos, chunk);
      pos += chunk;
      while (true) {
        Result<std::optional<Frame>> next = assembler.Next();
        ASSERT_OK(next.status());
        if (!next->has_value()) break;
        frames.push_back(std::move(**next));
      }
    }
    ASSERT_EQ(3u, frames.size());
    EXPECT_EQ(MessageType::kPing, frames[0].header.type);
    EXPECT_EQ(MessageType::kApplyBatch, frames[1].header.type);
    EXPECT_EQ(MessageType::kQuery, frames[2].header.type);
    EXPECT_EQ(2u, frames[1].header.request_id);
    ASSERT_OK_AND_ASSIGN(std::vector<AccessEvent> decoded,
                         DecodeApplyBatchRequest(frames[1].payload));
    EXPECT_EQ(batch.size(), decoded.size());
    EXPECT_EQ(0u, assembler.buffered_bytes());
  }
}

/// Next() must hand back every payload byte-exact however a long
/// stream is split across Append() calls — big frames spanning many
/// appends beside tiny ones — while the assembler drops its consumed
/// prefix along the way.
TEST(ServiceProtocolTest, RandomSplitsYieldEveryPayloadAndDrainTheBuffer) {
  Rng rng(17);
  std::vector<AccessEvent> batch;
  for (int i = 0; i < 40; ++i) batch.push_back(RandomEvent(&rng));
  std::vector<AccessEvent> big(4000, batch[0]);
  std::vector<Frame> encoded;
  std::string stream;
  for (uint32_t i = 1; i <= 24; ++i) {
    Frame frame;
    frame.header.request_id = i;
    switch (i % 4) {
      case 0:
        frame.header.type = MessageType::kApplyBatch;
        frame.payload = EncodeApplyBatchRequest(big);
        break;
      case 1:
        frame.header.type = MessageType::kApplyBatch;
        frame.payload = EncodeApplyBatchRequest(batch);
        break;
      case 2:
        frame.header.type = MessageType::kPing;
        break;
      default:
        frame.header.type = MessageType::kQuery;
        frame.payload = EncodeQueryRequest("HISTORY OF Alice");
    }
    stream += EncodeFrame(frame.header.type, i, frame.payload);
    encoded.push_back(std::move(frame));
  }
  ASSERT_GT(stream.size(), 3u * 64 * 1024);  // Many appends per round.
  for (int round = 0; round < 6; ++round) {
    FrameAssembler assembler;
    std::vector<Frame> frames;
    size_t pos = 0;
    while (pos < stream.size()) {
      size_t len =
          std::min<size_t>(1 + rng.Uniform(9000), stream.size() - pos);
      assembler.Append(stream.data() + pos, len);
      pos += len;
      while (true) {
        Result<std::optional<Frame>> next = assembler.Next();
        ASSERT_OK(next.status());
        if (!next->has_value()) break;
        frames.push_back(std::move(**next));
      }
    }
    ASSERT_EQ(encoded.size(), frames.size());
    EXPECT_EQ(0u, assembler.buffered_bytes());
    for (size_t i = 0; i < frames.size(); ++i) {
      EXPECT_EQ(encoded[i].header.type, frames[i].header.type);
      EXPECT_EQ(encoded[i].header.request_id, frames[i].header.request_id);
      ASSERT_EQ(encoded[i].payload, frames[i].payload);
    }
    // The big frames decode straight out of their payloads.
    ASSERT_OK_AND_ASSIGN(std::vector<AccessEvent> decoded,
                         DecodeApplyBatchRequest(frames[3].payload));
    EXPECT_EQ(big.size(), decoded.size());
  }
}

TEST(ServiceProtocolTest, AssemblerErrorIsSticky) {
  FrameAssembler assembler;
  std::string garbage(kFrameHeaderBytes, 'Z');
  assembler.Append(garbage.data(), garbage.size());
  EXPECT_FALSE(assembler.Next().ok());
  // Even appending a pristine frame afterwards cannot resynchronize a
  // byte stream whose framing is lost.
  std::string good = EncodeFrame(MessageType::kPing, 1, "");
  assembler.Append(good.data(), good.size());
  EXPECT_FALSE(assembler.Next().ok());
}

class ServiceProtocolFuzzTest : public ::testing::TestWithParam<uint64_t> {};

/// Mutated, truncated, and garbage frames through the assembler: every
/// outcome is a frame or an error, never a crash or an over-read.
TEST_P(ServiceProtocolFuzzTest, AssemblerNeverCrashes) {
  Rng rng(GetParam());
  std::vector<AccessEvent> batch;
  for (int i = 0; i < 12; ++i) batch.push_back(RandomEvent(&rng));
  std::string valid;
  valid += EncodeFrame(MessageType::kApplyBatch, 1,
                       EncodeApplyBatchRequest(batch));
  valid += EncodeFrame(MessageType::kStats, 2, "");
  valid += EncodeFrame(MessageType::kQueryResult, 3,
                       EncodeQueryResult({{"c"}, {{"v"}}}));
  ReplicaHello hello;
  hello.epoch = 1;
  hello.position = 30;
  valid += EncodeFrame(MessageType::kReplicaHello, 4,
                       EncodeReplicaHello(hello));
  SegmentChunk chunk;
  chunk.epoch = 1;
  chunk.start = 10;
  chunk.records = {"E 1 2 3", "T 9"};
  valid += EncodeFrame(MessageType::kSegmentChunk, 0,
                       EncodeSegmentChunk(chunk));

  for (int i = 0; i < 300; ++i) {
    std::string input;
    switch (i % 3) {
      case 0: input = Mutate(valid, &rng); break;
      case 1: input = valid.substr(0, rng.Uniform(valid.size() + 1)); break;
      default: input = RandomBytes(&rng, 400); break;
    }
    FrameAssembler assembler;
    // Feed in random chunks, as a socket would.
    size_t pos = 0;
    while (pos < input.size()) {
      size_t chunk = std::min<size_t>(1 + rng.Uniform(64),
                                      input.size() - pos);
      assembler.Append(input.data() + pos, chunk);
      pos += chunk;
      while (true) {
        Result<std::optional<Frame>> next = assembler.Next();
        if (!next.ok() || !next->has_value()) break;
        // Whatever framed, every payload decoder must survive it.
        DecodeEverything((*next)->payload);
      }
    }
  }
}

/// Raw payload decoding over mutated and garbage bytes.
TEST_P(ServiceProtocolFuzzTest, PayloadDecodersNeverCrash) {
  Rng rng(GetParam() + 1000);
  std::vector<AccessEvent> batch;
  for (int i = 0; i < 10; ++i) batch.push_back(RandomEvent(&rng));
  WireBatchResult result;
  for (int i = 0; i < 6; ++i) {
    result.decisions.push_back(Decision::Grant(i));
    result.alerts.push_back(Alert{i, 1, 2, AlertType::kOverstay, "d"});
  }
  RuntimeStats stats;
  stats.num_shards = 3;
  ReplicaHello hello;
  hello.epoch = 2;
  hello.position = 6;
  SegmentChunk chunk;
  chunk.epoch = 2;
  chunk.start = 6;
  chunk.records = {"E 1 2 3"};
  MetricsSnapshot snapshot;
  snapshot.counters = {{"ingest.events", 7}};
  snapshot.gauges = {{"replication.replica.1.lag_records", 3}};
  LatencyHistogram hist;
  for (int i = 0; i < 20; ++i) hist.Record(100 + i * 53);
  snapshot.histograms = {{"ingest.apply", hist}};
  const std::string seeds[] = {
      EncodeApplyBatchRequest(batch),
      EncodeApplyFixRequest({1, 2, {3.0, 4.0}}),
      EncodeQueryRequest("OCCUPANTS OF CAIS AT 10"),
      EncodeBatchResult(result),
      EncodeFixResult({Status::OK(), {}}),
      EncodeQueryResult({{"a", "b"}, {{"1", "2"}}}),
      EncodeStatsResult(stats),
      EncodeErrorResult(Status::Internal("boom")),
      EncodeReplicaHello(hello),
      EncodeReplicaWelcome({2}),
      EncodeSegmentChunk(chunk),
      EncodeRepointRequest({"replica-2.internal", 7411}),
      EncodePromoteResult(3),
      EncodeMetricsResult(snapshot),
  };
  for (int i = 0; i < 400; ++i) {
    const std::string& seed = seeds[i % (sizeof(seeds) / sizeof(seeds[0]))];
    std::string input = (i % 2 == 0) ? Mutate(seed, &rng)
                                     : RandomBytes(&rng, 300);
    DecodeEverything(input);
    // Truncations of valid payloads, at every prefix for small ones.
    if (seed.size() < 128) {
      DecodeEverything(seed.substr(0, rng.Uniform(seed.size() + 1)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, ServiceProtocolFuzzTest,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace ltam
