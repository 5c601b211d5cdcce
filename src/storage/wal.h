// Copyright 2026 The LTAM Authors.
// Write-ahead log for the LTAM databases.
//
// Mutations (authorization added/revoked, movement recorded, ...) are
// appended as codec records before being applied; on restart the log is
// replayed to rebuild state newer than the last snapshot.

#ifndef LTAM_STORAGE_WAL_H_
#define LTAM_STORAGE_WAL_H_

#include <functional>
#include <string>
#include <string_view>

#include "storage/codec.h"
#include "util/result.h"

namespace ltam {

/// Append-only log writer over a raw file descriptor: every call that
/// writes is one write(2) (retried only to finish a short write), with
/// no user-space buffer between it and the file.
class WalWriter {
 public:
  /// Opens (creating or appending) the log at `path`.
  static Result<WalWriter> Open(const std::string& path);

  /// Creates (truncating any leftover) the log at `path`. Used when a
  /// checkpoint starts a fresh epoch: an orphaned file from a crashed
  /// earlier attempt at the same epoch must not leak stale records.
  static Result<WalWriter> Create(const std::string& path);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Appends one record (one line).
  Status Append(const Record& record);

  /// Writes already-encoded lines (each ending in '\n'). The log
  /// pipeline encodes on the appending thread and hands whole runs of
  /// lines to its log thread, which writes each run with one call.
  Status Write(std::string_view lines);

  /// fsyncs the file (durability barrier).
  Status Sync();

  /// Records appended through Append().
  size_t appended() const { return appended_; }

 private:
  explicit WalWriter(int fd) : fd_(fd) {}

  int fd_ = -1;
  size_t appended_ = 0;
};

/// Streams the complete lines of a log file to `fn` in order (newline
/// stripped, empty lines included), holding one line in memory at a
/// time. A torn final line — no trailing newline, as an in-flight append
/// crash would leave — is not delivered. `fn` returns false to stop.
Status ForEachWalLine(const std::string& path,
                      const std::function<bool(std::string& line)>& fn);

/// Replays a log file, invoking `apply` per record in order. Stops with
/// an error on the first malformed line (a torn final line is tolerated
/// and ignored).
Status ReplayWal(const std::string& path,
                 const std::function<Status(const Record&)>& apply);

/// Truncates a torn final record (bytes after the last newline, left by
/// a crash mid-append) so subsequent appends start on a fresh line —
/// otherwise the next append would merge with the torn bytes into one
/// garbage record and poison the following recovery. Returns the number
/// of bytes dropped (0 when the log ends cleanly).
Result<size_t> TruncateTornWalTail(const std::string& path);

/// True iff `path` exists (stat succeeds). The one existence probe every
/// durable runtime (and the facade's directory sniffing) shares, so
/// their notions of "committed state present" can never drift apart.
bool FileExists(const std::string& path);

/// fsyncs an existing file by path (durability barrier for snapshots and
/// manifests written through buffered streams).
Status SyncFile(const std::string& path);

/// fsyncs a directory, making completed renames/creates inside it
/// durable.
Status SyncDir(const std::string& path);

/// Replaces `path` with `bytes` atomically and durably: writes
/// `<path>.tmp`, fsyncs it, renames it over `path`, and fsyncs the
/// parent directory. A crash leaves either the old file or the new one.
Status WriteFileAtomically(const std::string& path, const std::string& bytes);

}  // namespace ltam

#endif  // LTAM_STORAGE_WAL_H_
