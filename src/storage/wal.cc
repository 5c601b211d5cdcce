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

Result<WalWriter> WalWriter::Open(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IOError("cannot open WAL '" + path +
                           "': " + std::strerror(errno));
  }
  return WalWriter(file);
}

Result<WalWriter> WalWriter::Create(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return Status::IOError("cannot create WAL '" + path +
                           "': " + std::strerror(errno));
  }
  return WalWriter(file);
}

WalWriter::WalWriter(WalWriter&& other) noexcept
    : file_(other.file_), appended_(other.appended_) {
  other.file_ = nullptr;
}

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) std::fclose(file_);
    file_ = other.file_;
    appended_ = other.appended_;
    other.file_ = nullptr;
  }
  return *this;
}

WalWriter::~WalWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

Status WalWriter::Append(const Record& record) {
  std::string line = EncodeRecord(record);
  line += '\n';
  return AppendEncoded(line);
}

Status WalWriter::AppendEncoded(const std::string& line) {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL moved-from");
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) {
    return Status::IOError("short WAL write");
  }
  if (std::fflush(file_) != 0) {
    return Status::IOError("WAL flush failed");
  }
  ++appended_;
  return Status::OK();
}

Status WalWriter::Sync() {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL moved-from");
  if (::fsync(::fileno(file_)) != 0) {
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
