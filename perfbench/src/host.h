// Copyright 2026 The LTAM Authors.
// The benchmark's view of its host: the ltam_serve process it boots and
// kills, and the noise sources each run records (CPU steal, the durable
// directory's filesystem, core count).

#ifndef LTAM_PERFBENCH_HOST_H_
#define LTAM_PERFBENCH_HOST_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/result.h"

namespace ltam::perfbench {

/// One ltam_serve child process. Launch() returns once the server has
/// answered a Ping; the destructor SIGKILLs and reaps a child that is
/// still running, and the child also dies with this process
/// (PR_SET_PDEATHSIG), so no server outlives a run.
class ServerProcess {
 public:
  /// Starts `binary` with `args` plus --port=0, reads its listening
  /// banner from a stdout pipe (kept in `log_prefix`.out; stderr goes to
  /// `log_prefix`.err). Fails when the child exits, or has not answered a
  /// Ping within `timeout_s`.
  static Result<std::unique_ptr<ServerProcess>> Launch(
      const std::string& binary, const std::vector<std::string>& args,
      const std::string& log_prefix, double timeout_s);

  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Seconds from just before fork() to the first answered Ping.
  double ready_seconds() const { return ready_seconds_; }

  /// kill -9 and reap; a no-op once the child is gone.
  void Kill9();

  /// Peak resident set of the running child (VmHWM), in bytes.
  Result<uint64_t> PeakRssBytes() const;

  /// Resets the child's VmHWM to its current resident set
  /// (/proc/<pid>/clear_refs), so a later PeakRssBytes() covers only
  /// what ran in between.
  Status ResetPeakRss() const;

  /// CPU seconds (user + system, every thread, exited ones included)
  /// the child has used so far, from its POSIX CPU-time clock:
  /// nanosecond resolution.
  Result<double> CpuSeconds() const;

 private:
  ServerProcess(pid_t pid, int stdout_fd) : pid_(pid), stdout_fd_(stdout_fd) {}

  pid_t pid_ = -1;
  /// Read end of the child's stdout, held open for the child's life so
  /// its later writes never raise SIGPIPE.
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
  double ready_seconds_ = 0.0;
};

/// Host-wide CPU steal time so far, in seconds (/proc/stat).
double ReadStealSeconds();

/// Online cores.
unsigned HostCores();

/// Name of the filesystem holding `path` ("ext4", "tmpfs", ...).
std::string FilesystemType(const std::string& path);

/// Sum of the sizes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

/// Monotonic seconds (steady_clock).
double NowSeconds();

}  // namespace ltam::perfbench

#endif  // LTAM_PERFBENCH_HOST_H_
