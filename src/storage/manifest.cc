// Copyright 2026 The LTAM Authors.

#include "storage/manifest.h"

#include <string_view>
#include <utility>

#include "storage/codec.h"
#include "storage/wal.h"

namespace ltam {

namespace {

constexpr uint32_t kFormatVersion = 1;
/// Generous ceiling; a corrupted shard count must not drive allocation.
constexpr uint32_t kMaxShards = 4096;
/// Ceiling on a shard's sealed cold-segment list (compaction keeps real
/// lists near compaction_fanin), so a corrupt record cannot drive
/// allocation.
constexpr size_t kMaxColdSegments = 65536;

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
  auto emit = [&bytes, &records](std::string_view tag) {
    ++records;
    return Line(&bytes, tag);
  };
  emit("manifest")
      .Num(kFormatVersion)
      .Num(manifest.epoch)
      .Num(manifest.num_shards);
  emit("base").Str(manifest.base_snapshot);
  for (uint32_t k = 0; k < manifest.num_shards; ++k) {
    const ShardManifest::ShardFiles& files = manifest.shards[k];
    emit("shard").Num(k).Str(files.snapshot).Str(files.wal);
    // Only shards with an actual cold tier emit a record: untiered
    // directories keep the pre-tiering serialization byte for byte.
    if (!files.cold.empty() || files.dropped_events > 0) {
      Line cold = emit("cold");
      cold.Num(k).Num(files.dropped_events);
      for (const std::string& seg : files.cold) cold.Str(seg);
    }
    if (files.floor > 0) emit("floor").Num(k).Num(files.floor);
  }
  Line(&bytes, "commit").Num(records);
  return bytes;
}

}  // namespace

Status SaveManifest(const ShardManifest& manifest, const std::string& path) {
  LTAM_ASSIGN_OR_RETURN(std::string bytes, SerializeManifest(manifest));
  return WriteFileAtomically(path, bytes);
}

Result<ShardManifest> LoadManifest(const std::string& path) {
  ShardManifest out;
  bool saw_header = false;
  bool saw_base = false;
  bool committed = false;
  std::vector<bool> saw_shard;
  size_t records = 0;
  // The shard index of a shard/cold/floor record, range-checked.
  auto shard_index = [&out](LineReader& rec) -> Result<uint32_t> {
    LTAM_ASSIGN_OR_RETURN(int64_t k, rec.Int());
    if (k < 0 || k >= static_cast<int64_t>(out.num_shards)) {
      return Status::ParseError(std::string(rec.tag()) +
                                " record shard index out of range: " +
                                std::to_string(k));
    }
    return static_cast<uint32_t>(k);
  };
  LTAM_RETURN_IF_ERROR(ForEachRecord(path, "manifest", [&](LineReader& rec) {
    const std::string_view type = rec.tag();
    if (committed) {
      return Status::ParseError("manifest has records after commit");
    }
    if (type == "manifest") {
      if (saw_header) return Status::ParseError("duplicate manifest header");
      LTAM_ASSIGN_OR_RETURN(int64_t version, rec.Int());
      if (version != kFormatVersion) {
        return Status::ParseError("unsupported manifest version " +
                                  std::to_string(version));
      }
      LTAM_ASSIGN_OR_RETURN(int64_t epoch, rec.Int());
      if (epoch < 0) return Status::ParseError("negative manifest epoch");
      LTAM_ASSIGN_OR_RETURN(int64_t shards, rec.Int());
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
      return Status::OK();
    }
    if (!saw_header) {
      return Status::ParseError("manifest must start with its header");
    }
    if (type == "base") {
      if (saw_base) return Status::ParseError("duplicate base record");
      LTAM_ASSIGN_OR_RETURN(out.base_snapshot, rec.Str());
      LTAM_RETURN_IF_ERROR(CheckFileName(out.base_snapshot));
      saw_base = true;
      ++records;
      return Status::OK();
    }
    if (type == "shard") {
      // <k> <snapshot> <wal>.
      const size_t fields = rec.remaining();
      if (fields < 3) return Status::ParseError("shard record field count");
      LTAM_ASSIGN_OR_RETURN(uint32_t k, shard_index(rec));
      if (fields > 3) {
        return Status::FailedPrecondition(
            "manifest '" + path + "' lists " + std::to_string(fields - 2) +
            " WAL files for shard " + std::to_string(k) +
            ": rotated WAL segments were removed; open and checkpoint the "
            "directory with the release that wrote it (a checkpoint leaves "
            "one WAL per shard), then reopen it");
      }
      if (saw_shard[k]) {
        return Status::ParseError("duplicate shard record " +
                                  std::to_string(k));
      }
      // Field-wise: a `cold` or `floor` record may precede its shard's.
      ShardManifest::ShardFiles& files = out.shards[k];
      LTAM_ASSIGN_OR_RETURN(files.snapshot, rec.Str());
      LTAM_RETURN_IF_ERROR(CheckFileName(files.snapshot));
      LTAM_ASSIGN_OR_RETURN(files.wal, rec.Str());
      LTAM_RETURN_IF_ERROR(CheckFileName(files.wal));
      saw_shard[k] = true;
      ++records;
      return Status::OK();
    }
    if (type == "cold") {
      // <k> <dropped-events> and any number of sealed segment files.
      if (rec.remaining() < 2 || rec.remaining() > 2 + kMaxColdSegments) {
        return Status::ParseError("cold record field count");
      }
      LTAM_ASSIGN_OR_RETURN(uint32_t k, shard_index(rec));
      ShardManifest::ShardFiles& files = out.shards[k];
      if (!files.cold.empty() || files.dropped_events > 0) {
        return Status::ParseError("duplicate cold record for shard " +
                                  std::to_string(k));
      }
      LTAM_ASSIGN_OR_RETURN(int64_t dropped, rec.Int());
      if (dropped < 0) {
        return Status::ParseError("negative cold dropped-event count");
      }
      if (dropped == 0 && rec.remaining() == 0) {
        return Status::ParseError("empty cold record for shard " +
                                  std::to_string(k));
      }
      files.dropped_events = static_cast<uint64_t>(dropped);
      while (rec.remaining() > 0) {
        LTAM_ASSIGN_OR_RETURN(std::string seg, rec.Str());
        LTAM_RETURN_IF_ERROR(CheckFileName(seg));
        files.cold.push_back(std::move(seg));
      }
      ++records;
      return Status::OK();
    }
    if (type == "floor") {
      // <k> <records>, nonzero (a zero floor is never written).
      LTAM_ASSIGN_OR_RETURN(uint32_t k, shard_index(rec));
      ShardManifest::ShardFiles& files = out.shards[k];
      if (files.floor > 0) {
        return Status::ParseError("duplicate floor record for shard " +
                                  std::to_string(k));
      }
      LTAM_ASSIGN_OR_RETURN(int64_t floor, rec.Int());
      if (floor <= 0) {
        return Status::ParseError("floor record for shard " +
                                  std::to_string(k) + " must be positive");
      }
      files.floor = static_cast<uint64_t>(floor);
      ++records;
      return Status::OK();
    }
    if (type == "commit") {
      LTAM_ASSIGN_OR_RETURN(int64_t count, rec.Int());
      if (count != static_cast<int64_t>(records)) {
        return Status::ParseError("commit count mismatch: recorded " +
                                  std::to_string(count) + ", read " +
                                  std::to_string(records));
      }
      committed = true;
      return Status::OK();
    }
    return Status::ParseError("unknown manifest record '" +
                              std::string(type) + "'");
  }));
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
