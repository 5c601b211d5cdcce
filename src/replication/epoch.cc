// Copyright 2026 The LTAM Authors.

#include "replication/epoch.h"

#include <fstream>

#include "storage/wal.h"
#include "util/string_util.h"

namespace ltam {

Result<uint64_t> LoadReplicationEpoch(const std::string& dir) {
  const std::string path = dir + "/" + ReplicationEpochFileName();
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    // Never persisted: pre-replication directory, epoch 0.
    return static_cast<uint64_t>(0);
  }
  std::string line;
  if (!std::getline(in, line) || line.empty()) {
    return Status::ParseError("replication epoch file '" + path +
                              "' is empty");
  }
  Result<int64_t> parsed = ParseInt64(line);
  if (!parsed.ok() || *parsed < 0) {
    return Status::ParseError("replication epoch file '" + path +
                              "' is corrupt: '" + line + "'");
  }
  return static_cast<uint64_t>(*parsed);
}

Status StoreReplicationEpoch(const std::string& dir, uint64_t epoch) {
  return WriteFileAtomically(dir + "/" + ReplicationEpochFileName(),
                             std::to_string(epoch) + "\n");
}

Status CheckSubscriptionEpoch(uint64_t local_epoch, uint64_t hello_epoch) {
  if (hello_epoch > local_epoch) {
    return Status::FailedPrecondition(
        "fenced: replica is at epoch " + std::to_string(hello_epoch) +
        ", this primary at " + std::to_string(local_epoch) +
        " has been superseded by a promotion");
  }
  return Status::OK();
}

Status CheckStreamEpoch(uint64_t local_epoch, uint64_t frame_epoch) {
  if (frame_epoch < local_epoch) {
    return Status::FailedPrecondition(
        "fenced: frame from epoch " + std::to_string(frame_epoch) +
        " rejected, this replica is at epoch " +
        std::to_string(local_epoch));
  }
  return Status::OK();
}

}  // namespace ltam
