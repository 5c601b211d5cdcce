// Copyright 2026 The LTAM Authors.

#include "storage/manifest.h"

#include <fstream>
#include <limits>

#include "storage/codec.h"
#include "storage/wal.h"
#include "util/string_util.h"

namespace ltam {

namespace {

constexpr uint32_t kFormatVersion = 1;
/// Generous ceiling; a corrupted shard count must not drive allocation.
constexpr uint32_t kMaxShards = 4096;
/// Ceiling on a shard's sealed cold-segment list (compaction keeps real
/// lists near compaction_fanin), so a corrupt record cannot drive
/// allocation.
constexpr size_t kMaxColdSegments = 65536;

Result<int64_t> Field(const Record& rec, size_t i) {
  if (i >= rec.fields.size()) {
    return Status::ParseError("manifest record '" + rec.type +
                              "' missing field " + std::to_string(i));
  }
  return ParseInt64(rec.fields[i]);
}

/// Segment names must be plain file names: recovery joins them onto the
/// durable directory, and a corrupted manifest must not escape it.
Status CheckFileName(const std::string& name) {
  if (name.empty()) {
    return Status::ParseError("manifest names an empty file");
  }
  if (name.find('/') != std::string::npos ||
      name.find('\\') != std::string::npos || name == "." || name == "..") {
    return Status::ParseError("manifest file name '" + name +
                              "' is not a plain file name");
  }
  return Status::OK();
}

/// Validates `manifest` and renders the exact bytes SaveManifest
/// publishes.
Result<std::string> SerializeManifest(const ShardManifest& manifest) {
  if (manifest.num_shards == 0 || manifest.num_shards > kMaxShards) {
    return Status::InvalidArgument("manifest num_shards out of range");
  }
  if (manifest.shards.size() != manifest.num_shards) {
    return Status::InvalidArgument("manifest shard list size mismatch");
  }
  LTAM_RETURN_IF_ERROR(CheckFileName(manifest.base_snapshot));
  for (const ShardManifest::ShardFiles& files : manifest.shards) {
    LTAM_RETURN_IF_ERROR(CheckFileName(files.snapshot));
    LTAM_RETURN_IF_ERROR(CheckFileName(files.wal));
    for (const std::string& seg : files.cold) {
      LTAM_RETURN_IF_ERROR(CheckFileName(seg));
    }
  }

  std::string bytes;
  size_t records = 0;
  auto emit = [&bytes, &records](const Record& rec) {
    bytes += EncodeRecord(rec);
    bytes += '\n';
    ++records;
  };
  emit({"manifest",
        {std::to_string(kFormatVersion), std::to_string(manifest.epoch),
         std::to_string(manifest.num_shards)}});
  emit({"base", {manifest.base_snapshot}});
  for (uint32_t k = 0; k < manifest.num_shards; ++k) {
    emit({"shard",
          {std::to_string(k), manifest.shards[k].snapshot,
           manifest.shards[k].wal}});
    // Only shards with an actual cold tier emit a record: untiered
    // directories keep the pre-tiering serialization byte for byte.
    if (!manifest.shards[k].cold.empty() ||
        manifest.shards[k].dropped_events > 0) {
      std::vector<std::string> cold_fields{
          std::to_string(k), std::to_string(manifest.shards[k].dropped_events)};
      cold_fields.insert(cold_fields.end(), manifest.shards[k].cold.begin(),
                         manifest.shards[k].cold.end());
      emit({"cold", std::move(cold_fields)});
    }
    if (manifest.shards[k].floor > 0) {
      emit({"floor",
            {std::to_string(k), std::to_string(manifest.shards[k].floor)}});
    }
  }
  emit({"commit", {std::to_string(records)}});
  return bytes;
}

}  // namespace

Status SaveManifest(const ShardManifest& manifest, const std::string& path) {
  LTAM_ASSIGN_OR_RETURN(std::string bytes, SerializeManifest(manifest));
  return WriteFileAtomically(path, bytes);
}

Result<ShardManifest> LoadManifest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open manifest '" + path + "'");
  }
  ShardManifest out;
  bool saw_header = false;
  bool saw_base = false;
  bool committed = false;
  std::vector<bool> saw_shard;
  size_t records = 0;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    Result<Record> rec_or = DecodeRecord(line);
    if (!rec_or.ok()) {
      return rec_or.status().WithContext("manifest line " +
                                         std::to_string(line_no));
    }
    const Record& rec = *rec_or;
    if (committed) {
      return Status::ParseError("manifest has records after commit");
    }
    if (rec.type == "manifest") {
      if (saw_header) return Status::ParseError("duplicate manifest header");
      if (rec.fields.size() != 3) {
        return Status::ParseError("manifest header field count");
      }
      LTAM_ASSIGN_OR_RETURN(int64_t version, Field(rec, 0));
      if (version != kFormatVersion) {
        return Status::ParseError("unsupported manifest version " +
                                  std::to_string(version));
      }
      LTAM_ASSIGN_OR_RETURN(int64_t epoch, Field(rec, 1));
      if (epoch < 0) return Status::ParseError("negative manifest epoch");
      LTAM_ASSIGN_OR_RETURN(int64_t shards, Field(rec, 2));
      if (shards < 1 || shards > static_cast<int64_t>(kMaxShards)) {
        return Status::ParseError("manifest num_shards out of range: " +
                                  std::to_string(shards));
      }
      out.epoch = static_cast<uint64_t>(epoch);
      out.num_shards = static_cast<uint32_t>(shards);
      out.shards.resize(out.num_shards);
      saw_shard.assign(out.num_shards, false);
      saw_header = true;
      ++records;
      continue;
    }
    if (!saw_header) {
      return Status::ParseError("manifest must start with its header");
    }
    if (rec.type == "base") {
      if (saw_base) return Status::ParseError("duplicate base record");
      if (rec.fields.size() != 1) {
        return Status::ParseError("base record field count");
      }
      LTAM_RETURN_IF_ERROR(CheckFileName(rec.fields[0]));
      out.base_snapshot = rec.fields[0];
      saw_base = true;
      ++records;
      continue;
    }
    if (rec.type == "shard") {
      // <k> <snapshot> <wal>.
      if (rec.fields.size() < 3) {
        return Status::ParseError("shard record field count");
      }
      if (rec.fields.size() > 3) {
        return Status::FailedPrecondition(
            "manifest '" + path + "' lists " +
            std::to_string(rec.fields.size() - 2) + " WAL files for shard " +
            rec.fields[0] +
            ": rotated WAL segments were removed; open and checkpoint the "
            "directory with the release that wrote it (a checkpoint leaves "
            "one WAL per shard), then reopen it");
      }
      LTAM_ASSIGN_OR_RETURN(int64_t k, Field(rec, 0));
      if (k < 0 || k >= static_cast<int64_t>(out.num_shards)) {
        return Status::ParseError("shard index out of range: " +
                                  std::to_string(k));
      }
      if (saw_shard[static_cast<size_t>(k)]) {
        return Status::ParseError("duplicate shard record " +
                                  std::to_string(k));
      }
      LTAM_RETURN_IF_ERROR(CheckFileName(rec.fields[1]));
      LTAM_RETURN_IF_ERROR(CheckFileName(rec.fields[2]));
      // Field-wise: a `cold` or `floor` record may precede its shard's.
      ShardManifest::ShardFiles& files = out.shards[static_cast<size_t>(k)];
      files.snapshot = rec.fields[1];
      files.wal = rec.fields[2];
      saw_shard[static_cast<size_t>(k)] = true;
      ++records;
      continue;
    }
    if (rec.type == "cold") {
      // <k> <dropped-events> and any number of sealed segment files.
      if (rec.fields.size() < 2 || rec.fields.size() > 2 + kMaxColdSegments) {
        return Status::ParseError("cold record field count");
      }
      LTAM_ASSIGN_OR_RETURN(int64_t k, Field(rec, 0));
      if (k < 0 || k >= static_cast<int64_t>(out.num_shards)) {
        return Status::ParseError("cold record shard index out of range: " +
                                  std::to_string(k));
      }
      ShardManifest::ShardFiles& files = out.shards[static_cast<size_t>(k)];
      if (!files.cold.empty() || files.dropped_events > 0) {
        return Status::ParseError("duplicate cold record for shard " +
                                  std::to_string(k));
      }
      LTAM_ASSIGN_OR_RETURN(int64_t dropped, Field(rec, 1));
      if (dropped < 0) {
        return Status::ParseError("negative cold dropped-event count");
      }
      if (dropped == 0 && rec.fields.size() == 2) {
        return Status::ParseError("empty cold record for shard " +
                                  std::to_string(k));
      }
      files.dropped_events = static_cast<uint64_t>(dropped);
      for (size_t i = 2; i < rec.fields.size(); ++i) {
        LTAM_RETURN_IF_ERROR(CheckFileName(rec.fields[i]));
        files.cold.push_back(rec.fields[i]);
      }
      ++records;
      continue;
    }
    if (rec.type == "floor") {
      // <k> <records>, nonzero (a zero floor is never written).
      if (rec.fields.size() != 2) {
        return Status::ParseError("floor record field count");
      }
      LTAM_ASSIGN_OR_RETURN(int64_t k, Field(rec, 0));
      if (k < 0 || k >= static_cast<int64_t>(out.num_shards)) {
        return Status::ParseError("floor record shard index out of range: " +
                                  std::to_string(k));
      }
      ShardManifest::ShardFiles& files = out.shards[static_cast<size_t>(k)];
      if (files.floor > 0) {
        return Status::ParseError("duplicate floor record for shard " +
                                  std::to_string(k));
      }
      LTAM_ASSIGN_OR_RETURN(int64_t floor, Field(rec, 1));
      if (floor <= 0) {
        return Status::ParseError("floor record for shard " +
                                  std::to_string(k) + " must be positive");
      }
      files.floor = static_cast<uint64_t>(floor);
      ++records;
      continue;
    }
    if (rec.type == "commit") {
      if (rec.fields.size() != 1) {
        return Status::ParseError("commit record field count");
      }
      LTAM_ASSIGN_OR_RETURN(int64_t count, Field(rec, 0));
      if (count != static_cast<int64_t>(records)) {
        return Status::ParseError("commit count mismatch: recorded " +
                                  std::to_string(count) + ", read " +
                                  std::to_string(records));
      }
      committed = true;
      continue;
    }
    return Status::ParseError("unknown manifest record '" + rec.type + "'");
  }
  if (!committed) {
    return Status::ParseError("manifest '" + path +
                              "' has no commit record (torn write?)");
  }
  if (!saw_base) return Status::ParseError("manifest has no base record");
  for (uint32_t k = 0; k < out.num_shards; ++k) {
    if (!saw_shard[k]) {
      return Status::ParseError("manifest missing shard record " +
                                std::to_string(k));
    }
  }
  return out;
}

}  // namespace ltam
