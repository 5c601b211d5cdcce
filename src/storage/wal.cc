// Copyright 2026 The LTAM Authors.

#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "storage/event_log.h"

namespace ltam {

namespace {

Result<int> OpenFile(const std::string& path, int flags, const char* verb) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC | flags,
                        0666);
  if (fd < 0) {
    return Status::IOError(std::string("cannot ") + verb + " '" + path +
                           "': " + std::strerror(errno));
  }
  return fd;
}

}  // namespace

Result<FileWriter> FileWriter::Open(const std::string& path) {
  LTAM_ASSIGN_OR_RETURN(int fd, OpenFile(path, O_APPEND, "open"));
  return FileWriter(fd);
}

Result<FileWriter> FileWriter::Create(const std::string& path) {
  LTAM_ASSIGN_OR_RETURN(int fd, OpenFile(path, O_TRUNC, "create"));
  return FileWriter(fd);
}

FileWriter::FileWriter(FileWriter&& other) noexcept : fd_(other.fd_) {
  other.fd_ = -1;
}

FileWriter& FileWriter::operator=(FileWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

FileWriter::~FileWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status FileWriter::Write(std::string_view bytes) {
  if (fd_ < 0) return Status::FailedPrecondition("file writer has no file");
  while (!bytes.empty()) {
    const ssize_t n = ::write(fd_, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IOError(std::string("write failed: ") +
                             (n < 0 ? std::strerror(errno) : "no progress"));
    }
    bytes.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

Status FileWriter::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("file writer has no file");
  if (::fsync(fd_) != 0) {
    return Status::IOError(std::string("fsync failed: ") +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status ForEachWalLine(const std::string& path,
                      const std::function<bool(std::string& line)>& fn) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open WAL '" + path + "' for reading");
  }
  std::string line;
  // getline sets eof only when the line lacks its newline: a torn tail.
  while (std::getline(in, line) && !in.eof()) {
    if (!fn(line)) return Status::OK();
  }
  if (in.bad()) return Status::IOError("cannot read WAL '" + path + "'");
  return Status::OK();
}

Status ReplayWal(const std::string& path,
                 const std::function<Status(const LoggedEvent&)>& apply) {
  Status applied;
  LTAM_RETURN_IF_ERROR(ForEachWalLine(path, [&](std::string& line) {
    if (line.empty()) return true;
    Result<LoggedEvent> event = DecodeEventLine(line);
    applied = event.ok() ? apply(*event)
                         : event.status().WithContext("WAL replay of '" +
                                                      path + "'");
    return applied.ok();
  }));
  return applied;
}

Result<size_t> TruncateTornWalTail(const std::string& path) {
  uint64_t keep = 0;
  LTAM_RETURN_IF_ERROR(ForEachWalLine(path, [&keep](std::string& line) {
    keep += line.size() + 1;
    return true;
  }));
  struct ::stat st;
  if (::stat(path.c_str(), &st) != 0) {
    return Status::IOError("cannot stat WAL '" + path + "'");
  }
  const uint64_t size = static_cast<uint64_t>(st.st_size);
  if (keep == size) return size_t{0};
  if (::truncate(path.c_str(), static_cast<off_t>(keep)) != 0) {
    return Status::IOError("cannot truncate torn tail of WAL '" + path +
                           "': " + std::strerror(errno));
  }
  return static_cast<size_t>(size - keep);
}

bool FileExists(const std::string& path) {
  struct ::stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status SyncDir(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for fsync: " + std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  const int saved = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync '" + path +
                           "' failed: " + std::strerror(saved));
  }
  return Status::OK();
}

namespace {

/// Creates `path` holding `bytes`, fsynced on the descriptor that wrote.
Status CreateSynced(const std::string& path, std::string_view bytes) {
  LTAM_ASSIGN_OR_RETURN(FileWriter out, FileWriter::Create(path));
  LTAM_RETURN_IF_ERROR(out.Write(bytes));
  return out.Sync();
}

}  // namespace

Status WriteFileAtomically(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  Status written = CreateSynced(tmp, bytes).WithContext("'" + tmp + "'");
  if (written.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    written = Status::IOError("cannot publish '" + path + "'");
  }
  if (!written.ok()) {
    std::remove(tmp.c_str());
    return written;
  }
  // Make the rename itself durable.
  const size_t slash = path.find_last_of('/');
  return SyncDir(slash == std::string::npos ? "." : path.substr(0, slash));
}

}  // namespace ltam
