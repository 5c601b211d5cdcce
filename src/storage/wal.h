// Copyright 2026 The LTAM Authors.
// The files of a durable directory: the one raw-fd writer every file is
// written through, the write-ahead log's line reader and replay, and the
// existence, directory-sync and atomic-replace helpers.
//
// A durable runtime's log takes one codec line per enforcement event or
// patrol tick (storage/event_log.h) before the event applies; on restart
// the log is replayed to rebuild state newer than the last snapshot.

#ifndef LTAM_STORAGE_WAL_H_
#define LTAM_STORAGE_WAL_H_

#include <functional>
#include <string>
#include <string_view>

#include "util/result.h"

namespace ltam {

struct LoggedEvent;

/// The writer of every file in a durable directory, over a raw file
/// descriptor: every Write is one write(2) (retried only to finish a
/// short write), with no user-space buffer between it and the file, and
/// Sync fsyncs the descriptor that wrote. The log pipeline hands it runs
/// of WAL lines; the snapshot, cold-segment and atomic-replace savers
/// write through it and Sync before they return.
class FileWriter {
 public:
  /// Opens (creating or appending) the file at `path`.
  static Result<FileWriter> Open(const std::string& path);

  /// Creates (truncating any leftover) the file at `path`. A checkpoint
  /// starts a fresh epoch's logs this way: an orphaned file from a
  /// crashed earlier attempt at the same epoch must not leak stale
  /// records.
  static Result<FileWriter> Create(const std::string& path);

  /// A writer with no file: Write and Sync fail until one is moved in.
  FileWriter() = default;
  FileWriter(FileWriter&& other) noexcept;
  FileWriter& operator=(FileWriter&& other) noexcept;
  FileWriter(const FileWriter&) = delete;
  FileWriter& operator=(const FileWriter&) = delete;
  ~FileWriter();

  /// Writes `bytes` at the file's end.
  Status Write(std::string_view bytes);

  /// fsyncs the file (durability barrier).
  Status Sync();

 private:
  explicit FileWriter(int fd) : fd_(fd) {}

  int fd_ = -1;
};

/// Streams the complete lines of a log file to `fn` in order (newline
/// stripped, empty lines included), holding one line in memory at a
/// time. A torn final line — no trailing newline, as an in-flight append
/// crash would leave — is not delivered. `fn` returns false to stop.
Status ForEachWalLine(const std::string& path,
                      const std::function<bool(std::string& line)>& fn);

/// Replays a log file, handing `apply` each record decoded by
/// DecodeEventLine, in order. Stops with an error on the first malformed
/// line (a torn final line is tolerated and ignored) or the first error
/// `apply` returns.
Status ReplayWal(const std::string& path,
                 const std::function<Status(const LoggedEvent&)>& apply);

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

/// fsyncs a directory, making completed renames/creates inside it
/// durable.
Status SyncDir(const std::string& path);

/// Replaces `path` with `bytes` atomically and durably: writes
/// `<path>.tmp` through a FileWriter, fsyncs it, renames it over `path`,
/// and fsyncs the parent directory. A crash leaves either the old file
/// or the new one; a failure removes the temp file.
Status WriteFileAtomically(const std::string& path, const std::string& bytes);

}  // namespace ltam

#endif  // LTAM_STORAGE_WAL_H_
