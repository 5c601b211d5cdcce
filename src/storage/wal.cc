// Copyright 2026 The LTAM Authors.

#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace ltam {

namespace {

Result<int> OpenWal(const std::string& path, int flags, const char* verb) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_CLOEXEC | flags,
                        0666);
  if (fd < 0) {
    return Status::IOError(std::string("cannot ") + verb + " WAL '" + path +
                           "': " + std::strerror(errno));
  }
  return fd;
}

}  // namespace

Result<WalWriter> WalWriter::Open(const std::string& path) {
  LTAM_ASSIGN_OR_RETURN(int fd, OpenWal(path, O_APPEND, "open"));
  return WalWriter(fd);
}

Result<WalWriter> WalWriter::Create(const std::string& path) {
  LTAM_ASSIGN_OR_RETURN(int fd, OpenWal(path, O_TRUNC, "create"));
  return WalWriter(fd);
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : fd_(other.fd_), appended_(other.appended_) {
  other.fd_ = -1;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    appended_ = other.appended_;
    other.fd_ = -1;
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (fd_ >= 0) ::close(fd_);
}

Status WalWriter::Append(const Record& record) {
  std::string line;
  AppendRecordLine(record, &line);
  LTAM_RETURN_IF_ERROR(Write(line));
  ++appended_;
  return Status::OK();
}

Status WalWriter::Write(std::string_view lines) {
  if (fd_ < 0) return Status::FailedPrecondition("WAL moved-from");
  while (!lines.empty()) {
    const ssize_t n = ::write(fd_, lines.data(), lines.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      return Status::IOError(std::string("WAL write failed: ") +
                             (n < 0 ? std::strerror(errno) : "no progress"));
    }
    lines.remove_prefix(static_cast<size_t>(n));
  }
  return Status::OK();
}

Status WalWriter::Sync() {
  if (fd_ < 0) return Status::FailedPrecondition("WAL moved-from");
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
                 const std::function<Status(const Record&)>& apply) {
  Status applied;
  LTAM_RETURN_IF_ERROR(ForEachWalLine(path, [&](std::string& line) {
    if (line.empty()) return true;
    Result<Record> rec = DecodeRecord(line);
    applied = rec.ok() ? apply(*rec)
                       : rec.status().WithContext("WAL replay of '" + path +
                                                  "'");
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

namespace {

Status SyncFd(const std::string& path, int flags) {
  int fd = ::open(path.c_str(), flags);
  if (fd < 0) {
    return Status::IOError("cannot open '" + path +
                           "' for fsync: " + std::strerror(errno));
  }
  int rc = ::fsync(fd);
  int saved = errno;
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync '" + path +
                           "' failed: " + std::strerror(saved));
  }
  return Status::OK();
}

}  // namespace

bool FileExists(const std::string& path) {
  struct ::stat st;
  return ::stat(path.c_str(), &st) == 0;
}

Status SyncFile(const std::string& path) { return SyncFd(path, O_RDONLY); }

Status SyncDir(const std::string& path) {
  return SyncFd(path, O_RDONLY | O_DIRECTORY);
}

Status WriteFileAtomically(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::IOError("cannot open temp file '" + tmp + "'");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out.good()) {
      out.close();
      std::remove(tmp.c_str());
      return Status::IOError("write of '" + tmp + "' failed");
    }
  }
  Status synced = SyncFile(tmp);
  if (!synced.ok()) {
    std::remove(tmp.c_str());
    return synced;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot publish '" + path + "'");
  }
  // Make the rename itself durable.
  const size_t slash = path.find_last_of('/');
  return SyncDir(slash == std::string::npos ? "." : path.substr(0, slash));
}

}  // namespace ltam
