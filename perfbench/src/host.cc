// Copyright 2026 The LTAM Authors.

#include "host.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/vfs.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "service/client.h"

namespace ltam::perfbench {

namespace fs = std::filesystem;

namespace {

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The port from ltam_serve's "listening on HOST:PORT" banner, 0 when
/// the banner is not there yet.
uint16_t PortFromBanner(const std::string& text) {
  const std::string key = "listening on ";
  size_t at = text.find(key);
  if (at == std::string::npos) return 0;
  size_t colon = text.find(':', at + key.size());
  size_t end = text.find(' ', at + key.size());
  if (colon == std::string::npos || end == std::string::npos || colon > end) {
    return 0;
  }
  int port = std::atoi(text.substr(colon + 1, end - colon - 1).c_str());
  return port > 0 && port < 65536 ? static_cast<uint16_t>(port) : 0;
}

}  // namespace

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Result<std::unique_ptr<ServerProcess>> ServerProcess::Launch(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_prefix, double timeout_s) {
  std::vector<std::string> argv_s;
  argv_s.push_back(binary);
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  argv_s.push_back("--port=0");
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);
  const std::string err_path = log_prefix + ".err";
  // The child's stdout is a pipe, so the banner wakes this process the
  // moment it is written instead of at the next poll of a file.
  int out_pipe[2];
  if (pipe2(out_pipe, O_CLOEXEC) != 0) {
    return Status::IOError("pipe failed: " + std::string(strerror(errno)));
  }

  const double t0 = NowSeconds();
  const pid_t parent = getpid();
  pid_t pid = fork();
  if (pid < 0) {
    close(out_pipe[0]);
    close(out_pipe[1]);
    return Status::IOError("fork failed: " + std::string(strerror(errno)));
  }
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    int err = open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (err < 0) _exit(127);
    dup2(out_pipe[1], STDOUT_FILENO);
    dup2(err, STDERR_FILENO);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(out_pipe[1]);
  std::unique_ptr<ServerProcess> proc(new ServerProcess(pid, out_pipe[0]));
  const double deadline = t0 + timeout_s;
  auto exited = [&proc]() {
    int status = 0;
    if (waitpid(proc->pid_, &status, WNOHANG) == proc->pid_) {
      proc->pid_ = -1;
      return true;
    }
    return false;
  };
  auto fail = [&](const std::string& why) -> Status {
    proc->Kill9();
    std::string err = ReadFileOrEmpty(err_path);
    if (err.size() > 2000) err = err.substr(err.size() - 2000);
    return Status::IOError("ltam_serve " + why + "; stderr tail:\n" + err);
  };
  std::string banner;
  while (proc->port_ == 0) {
    const double left = deadline - NowSeconds();
    if (left <= 0) return fail("did not listen in time");
    struct pollfd readable = {proc->stdout_fd_, POLLIN, 0};
    if (poll(&readable, 1, static_cast<int>(left * 1000) + 1) < 0 &&
        errno != EINTR) {
      return fail("poll failed: " + std::string(strerror(errno)));
    }
    char buf[4096];
    const ssize_t n = read(proc->stdout_fd_, buf, sizeof(buf));
    if (n == 0) return fail("exited before listening");
    if (n > 0) {
      banner.append(buf, static_cast<size_t>(n));
      proc->port_ = PortFromBanner(banner);
    }
  }
  // Keep the banner with the run's logs.
  std::ofstream(log_prefix + ".out") << banner;
  while (true) {
    Result<std::unique_ptr<ServiceClient>> client =
        ServiceClient::Connect("127.0.0.1", proc->port_);
    if (client.ok() && (*client)->Ping().ok()) break;
    if (exited()) return fail("exited before answering a ping");
    if (NowSeconds() > deadline) return fail("did not answer a ping in time");
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  proc->ready_seconds_ = NowSeconds() - t0;
  return proc;
}

ServerProcess::~ServerProcess() { Kill9(); }

void ServerProcess::Kill9() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

Result<uint64_t> ServerProcess::PeakRssBytes() const {
  if (pid_ <= 0) return Status::FailedPrecondition("server is not running");
  std::istringstream in(
      ReadFileOrEmpty("/proc/" + std::to_string(pid_) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return static_cast<uint64_t>(std::atoll(line.c_str() + 6)) * 1024;
    }
  }
  return Status::NotFound("no VmHWM line for pid " + std::to_string(pid_));
}

Status ServerProcess::ResetPeakRss() const {
  if (pid_ <= 0) return Status::FailedPrecondition("server is not running");
  const std::string path = "/proc/" + std::to_string(pid_) + "/clear_refs";
  std::ofstream out(path);
  out << "5";
  out.flush();
  return out ? Status::OK() : Status::IOError("cannot write " + path);
}

Result<double> ServerProcess::CpuSeconds() const {
  if (pid_ <= 0) return Status::FailedPrecondition("server is not running");
  clockid_t clock;
  struct timespec ts;
  if (clock_getcpuclockid(pid_, &clock) != 0 ||
      clock_gettime(clock, &ts) != 0) {
    return Status::IOError("cannot read the CPU clock of pid " +
                           std::to_string(pid_));
  }
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) / 1e9;
}

double ReadStealSeconds() {
  std::istringstream in(ReadFileOrEmpty("/proc/stat"));
  std::string cpu;
  uint64_t field[8] = {};
  in >> cpu;
  for (uint64_t& f : field) in >> f;
  if (cpu != "cpu") return 0.0;
  // user nice system idle iowait irq softirq steal
  return static_cast<double>(field[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

unsigned HostCores() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

std::string FilesystemType(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<uint64_t>(st.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794c7630:
      return "overlayfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%llx",
                    static_cast<unsigned long long>(st.f_type));
      return hex;
    }
  }
}

uint64_t DirectoryBytes(const std::string& dir) {
  uint64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& e :
       fs::recursive_directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) total += e.file_size(ec);
  }
  return total;
}

}  // namespace ltam::perfbench
